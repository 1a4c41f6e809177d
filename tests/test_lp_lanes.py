"""Unit tests for the lane-pinned persistent worker pool.

:class:`repro.runtime.LanePool` and its in-process emulation
:func:`repro.runtime.run_chunks_in_process` must be interchangeable: same
lane-pinned chunk layout, same lane-local state lifecycle, same results.
Every offline fan-out relies on that equivalence through
:func:`repro.runtime.run_lanes`, and the complete-mapping engine's
determinism contract (solver counters identical between degraded and
multi-process runs) rests on it, so the tests here compare the two paths
directly.
"""

from __future__ import annotations

import threading
import warnings

import pytest

from repro.runtime import (
    LanePool,
    LanePoolError,
    lane_state,
    run_chunks_in_process,
    run_lanes,
    split_chunks,
)


def _square_chunk(context, items):
    """Returns (context, item^2, lane-local call number) per item."""
    state = lane_state()
    state["calls"] = state.get("calls", 0) + 1
    return [(context, item * item, state["calls"]) for item in items]


class _Boom(RuntimeError):
    pass


def _failing_chunk(context, items):
    raise _Boom(f"chunk failure on {items!r}")


CHUNKS = [[1, 2], [3], [4, 5], [6]]

#: What the lane-pinned layout must produce with 2 lanes: chunks 0 and 2 on
#: lane 0 (its first and second call), chunks 1 and 3 on lane 1.
EXPECTED = [
    [("ctx", 1, 1), ("ctx", 4, 1)],
    [("ctx", 9, 1)],
    [("ctx", 16, 2), ("ctx", 25, 2)],
    [("ctx", 36, 2)],
]


class TestInProcessEmulation:
    def test_lane_pinned_layout_and_state(self):
        assert run_chunks_in_process(_square_chunk, CHUNKS, "ctx", lanes=2) == EXPECTED

    def test_single_lane_sees_every_chunk(self):
        results = run_chunks_in_process(_square_chunk, CHUNKS, "ctx", lanes=1)
        # One emulated lane: the call counter runs through all four chunks.
        assert [chunk[0][2] for chunk in results] == [1, 2, 3, 4]

    def test_state_fresh_per_run(self):
        first = run_chunks_in_process(_square_chunk, [[2]], "ctx", lanes=1)
        second = run_chunks_in_process(_square_chunk, [[2]], "ctx", lanes=1)
        assert first == second == [[("ctx", 4, 1)]]

    def test_outer_state_restored_even_on_error(self):
        outer = lane_state()
        outer["marker"] = "outer"
        with pytest.raises(_Boom):
            run_chunks_in_process(_failing_chunk, [[1]], None, lanes=1)
        assert lane_state() is outer
        assert lane_state()["marker"] == "outer"
        del outer["marker"]

    def test_invalid_lane_count_rejected(self):
        with pytest.raises(ValueError):
            run_chunks_in_process(_square_chunk, CHUNKS, None, lanes=0)


class TestLanePool:
    def test_matches_emulation_exactly(self):
        pool = LanePool(lanes=2, name="test-lane")
        assert pool.run(_square_chunk, CHUNKS, "ctx") == EXPECTED

    def test_more_lanes_than_chunks(self):
        pool = LanePool(lanes=8)
        results = pool.run(_square_chunk, [[3], [5]], "ctx")
        # Each chunk lands on its own lane: both are that lane's first call.
        assert results == [[("ctx", 9, 1)], [("ctx", 25, 1)]]

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


class TestSplitChunks:
    def test_one_contiguous_chunk_per_lane_or_fixed_size(self):
        items = list(range(7))
        assert split_chunks(items, 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert split_chunks(items, 3, chunk_size=2) == [[0, 1], [2, 3], [4, 5], [6]]
        assert split_chunks(items, 0) == [items]
        assert split_chunks([], 4) == []


class TestRunLanes:
    def test_lane_processes_run_the_emulated_layout(self):
        assert run_lanes(_square_chunk, CHUNKS, "ctx", 2, "test-lane") == (EXPECTED, 2)

    def test_zero_or_one_lane_runs_in_process(self):
        for lanes in (0, 1):
            results, processes = run_lanes(_square_chunk, CHUNKS, "ctx", lanes, "t")
            assert processes == 1
            assert results == run_chunks_in_process(_square_chunk, CHUNKS, "ctx", 1)

    def test_unpicklable_context_falls_back_in_process(self):
        context = threading.Lock()  # cannot be pickled to a lane process
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, processes = run_lanes(
                _square_chunk, CHUNKS, context, 2, "test-lane"
            )
        fallbacks = [
            w for w in caught if "parallel execution unavailable" in str(w.message)
        ]
        assert len(fallbacks) == 1
        assert processes == 1
        assert results == run_chunks_in_process(_square_chunk, CHUNKS, context, 2)

    def test_negative_lane_count_rejected(self):
        with pytest.raises(ValueError):
            run_lanes(_square_chunk, CHUNKS, None, -1, "test-lane")
