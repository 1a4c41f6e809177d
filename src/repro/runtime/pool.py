"""Chunked process-pool fan-out with deterministic reassembly.

:class:`ParallelRuntime` is the one execution substrate shared by every
parallel path in the repository: the batched measurement layer
(:mod:`repro.measure`) fans microbenchmark chunks out through it, and the
complete-mapping phase (:mod:`repro.palmed.complete_mapping`) fans the
per-instruction LPAUX weight problems out through the very same machinery.
Centralizing the fan-out keeps the worker-count and chunking policies in
one place and gives both clients the same determinism contract.

Determinism contract
--------------------
Work items are split into contiguous chunks, every chunk is processed by a
pure function of ``(context, items)``, and the results are reassembled **in
input order** (by chunk start index, never by completion order).  A caller
therefore observes exactly the sequence of values an in-process loop would
have produced, for every worker count — the differential test suites pin
this down to bitwise equality for both measurements and LP solutions.

Failure semantics
-----------------
Environments without working process pools (no fork/semaphores, unpicklable
contexts) degrade to the in-process path with a warning.  Exceptions raised
by the chunk function itself come back from the worker as values and
re-raise in the parent with their original type, exactly as on the
sequential path — even an ``OSError`` never triggers the fallback.
"""

from __future__ import annotations

import math
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Failures that mean "this environment cannot do process pools": pool setup
#: errors (no fork/semaphores, dead workers) and pickling failures of ad-hoc
#: context objects.  Exceptions raised by the chunk function never reach
#: this filter: :func:`_run_chunk` returns them as values.
_POOL_ERRORS = (OSError, BrokenProcessPool, pickle.PicklingError)

#: Per-process ``(chunk function, shared context)`` set once by the pool
#: initializer, so the (potentially large) context is pickled once per
#: worker instead of once per chunk.
_WORKER_STATE: Optional[Tuple[Callable, object]] = None


def _initialize_worker(func: Callable, context: object) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (func, context)


def _run_chunk(
    payload: Tuple[int, List],
) -> Tuple[int, Optional[List], Optional[Exception]]:
    start, items = payload
    assert _WORKER_STATE is not None
    func, context = _WORKER_STATE
    try:
        return start, list(func(context, items)), None
    except Exception as error:  # ships to the parent, re-raised there
        return start, None, error


class ParallelRuntime:
    """Deterministically-ordered (optionally parallel) chunked execution.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``0`` or ``1`` runs every chunk
        in-process (no pool, no pickling); ``N > 1`` fans chunks out to
        ``N`` processes.
    chunk_size:
        Items per work unit.  Defaults to splitting the batch into about
        four chunks per worker, which balances load without drowning the
        pool in tiny tasks.

    Notes
    -----
    Each call builds (and tears down) its own process pool: the batches in
    this codebase are large and latency-dominated, so pool startup is
    noise, and per-call pools keep worker processes from outliving the
    batch they serve.  On spawn-based platforms with many small batches a
    persistent pool would amortize better; revisit if that ever becomes
    the profile.
    """

    def __init__(self, workers: int = 0, chunk_size: Optional[int] = None) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.workers = workers
        self.chunk_size = chunk_size

    # -- public API ----------------------------------------------------------
    def run(
        self,
        func: Callable[[object, List[Item]], Sequence[Result]],
        items: Sequence[Item],
        context: object = None,
    ) -> List[Result]:
        """Apply ``func(context, chunk)`` over chunks of ``items``, in order.

        ``func`` must be a module-level (picklable) function returning one
        result per input item; ``context`` is shipped to every worker once.
        Exceptions raised by ``func`` propagate to the caller.
        """
        items = list(items)
        if not items:
            return []
        if self.workers <= 1:
            return list(func(context, items))
        chunks = self._chunks(items)
        results: List = [None] * len(items)
        failure: Optional[Exception] = None
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(chunks)),
                initializer=_initialize_worker,
                initargs=(func, context),
            ) as pool:
                for start, values, failure in pool.map(_run_chunk, chunks):
                    if failure is not None:
                        break
                    results[start : start + len(values)] = values
        except _POOL_ERRORS as error:
            # Environments without working process pools (restricted
            # sandboxes, unpicklable contexts) degrade to the in-process
            # path rather than failing the batch.
            warnings.warn(
                f"parallel execution unavailable ({error!r}); "
                "falling back to in-process execution",
                stacklevel=3,
            )
            return list(func(context, items))
        if failure is not None:
            # Raised outside the fallback filter: the chunk function's own
            # error, whatever its type, is the caller's to handle.
            raise failure
        return results

    # -- internals -----------------------------------------------------------
    def _chunks(self, items: List[Item]) -> List[Tuple[int, List[Item]]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(items) / (4 * self.workers)))
        return [
            (start, items[start : start + size])
            for start in range(0, len(items), size)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelRuntime(workers={self.workers}, chunk_size={self.chunk_size})"
