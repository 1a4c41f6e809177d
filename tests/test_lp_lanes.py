"""Unit tests for the lane-pinned persistent worker pool.

:class:`repro.runtime.LanePool` and the in-process fallback
:func:`repro.runtime.run_chunks_in_process` must be interchangeable: same
results in chunk order.  Fleet runs rely on that equivalence through
:func:`repro.runtime.run_lanes`, so the tests here
compare the two paths directly, and check that the pool runs chunk ``i``
on lane ``i % lanes``.
"""

from __future__ import annotations

import os
import threading
import warnings

import pytest

from repro.runtime import (
    LanePool,
    LanePoolError,
    run_chunks_in_process,
    run_lanes,
)


def _square_chunk(context, items):
    """Returns (context, item^2, pid of the executing process) per item."""
    return [(context, item * item, os.getpid()) for item in items]


class _Boom(RuntimeError):
    pass


def _failing_chunk(context, items):
    raise _Boom(f"chunk failure on {items!r}")


CHUNKS = [[1, 2], [3], [4, 5], [6]]

#: The values every path must produce, in chunk order.
EXPECTED = [
    [("ctx", 1), ("ctx", 4)],
    [("ctx", 9)],
    [("ctx", 16), ("ctx", 25)],
    [("ctx", 36)],
]


def _values(results):
    return [[(context, square) for context, square, _ in chunk] for chunk in results]


def _pids(results):
    """The executing pid of each chunk (every item of a chunk shares it)."""
    pids = []
    for chunk in results:
        assert len({pid for _, _, pid in chunk}) == 1
        pids.append(chunk[0][2])
    return pids


class TestInProcessEmulation:
    def test_single_lane_sees_every_chunk(self):
        calls = []

        def record(context, items):
            calls.append(list(items))
            return _square_chunk(context, items)

        results = run_chunks_in_process(record, CHUNKS, "ctx")
        # Every chunk runs here, once, in chunk order.
        assert calls == CHUNKS
        assert _values(results) == EXPECTED
        assert set(_pids(results)) == {os.getpid()}


class TestLanePool:
    def test_matches_emulation_exactly(self):
        pool = LanePool(lanes=2, name="test-lane")
        results = pool.run(_square_chunk, CHUNKS, "ctx")
        assert _values(results) == _values(
            run_chunks_in_process(_square_chunk, CHUNKS, "ctx")
        )
        # Lane pinning: chunks 0 and 2 share lane 0, chunks 1 and 3 lane 1.
        pids = _pids(results)
        assert pids[0] == pids[2] != pids[1] == pids[3]
        assert os.getpid() not in pids

    def test_more_lanes_than_chunks(self):
        pool = LanePool(lanes=8)
        results = pool.run(_square_chunk, [[3], [5]], "ctx")
        # Each chunk lands on its own lane.
        assert _values(results) == [[("ctx", 9)], [("ctx", 25)]]
        assert len(set(_pids(results))) == 2

    def test_empty_chunk_list(self):
        assert LanePool(lanes=2).run(_square_chunk, [], "ctx") == []

    def test_chunk_errors_reraise_with_original_type(self):
        pool = LanePool(lanes=2)
        with pytest.raises(_Boom, match="chunk failure"):
            pool.run(_failing_chunk, [[1], [2]], None)

    def test_unpicklable_function_degrades_to_lane_pool_error(self):
        pool = LanePool(lanes=1)
        with pytest.raises(LanePoolError):
            pool.run(lambda context, items: items, [[1]], None)

    def test_invalid_lane_count_rejected(self):
        with pytest.raises(ValueError):
            LanePool(lanes=0)

    def test_close_is_idempotent(self):
        pool = LanePool(lanes=2)
        pool.run(_square_chunk, [[1]], "ctx")
        pool.close()
        pool.close()


class TestRunLanes:
    def test_lane_processes_run_the_emulated_layout(self):
        results = run_lanes(_square_chunk, CHUNKS, "ctx", 2, "test-lane")
        assert _values(results) == EXPECTED
        assert len(set(_pids(results))) == 2
        assert os.getpid() not in _pids(results)

    def test_zero_or_one_lane_runs_in_process(self):
        for lanes in (0, 1):
            results = run_lanes(_square_chunk, CHUNKS, "ctx", lanes, "t")
            assert results == run_chunks_in_process(_square_chunk, CHUNKS, "ctx")
            assert set(_pids(results)) == {os.getpid()}

    def test_unpicklable_context_falls_back_in_process(self):
        context = threading.Lock()  # cannot be pickled to a lane process
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_lanes(_square_chunk, CHUNKS, context, 2, "test-lane")
        fallbacks = [
            w for w in caught if "parallel execution unavailable" in str(w.message)
        ]
        assert len(fallbacks) == 1
        assert results == run_chunks_in_process(_square_chunk, CHUNKS, context)

    def test_negative_lane_count_rejected(self):
        with pytest.raises(ValueError):
            run_lanes(_square_chunk, CHUNKS, None, -1, "test-lane")
