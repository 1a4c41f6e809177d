"""Vectorized batch prediction over conjunctive resource mappings.

The paper's end product is a mapping that *serves* throughput predictions:
Fig. 4b evaluates thousands of basic blocks per (machine, suite) pair, and
the closed formula of Definition IV.2

    t(K) = max_r Σ_i σ_{K,i} · ρ_{i,r},        IPC(K) = |K| / t(K)

is just a sparse matrix product followed by a per-kernel max.  This module
compiles both sides of that product once:

* :class:`MappingMatrix` lowers a
  :class:`~repro.mapping.conjunctive.ConjunctiveResourceMapping` to flat
  (resources × instructions) ρ/throughput arrays;
* :class:`SuiteMatrix` lowers a sequence of kernels to a sparse
  instruction-count matrix in COO form (and is itself a sequence of those
  kernels, so it can be passed anywhere a kernel list is accepted).

``MappingMatrix.predict_batch`` then evaluates a whole suite with a handful
of numpy operations — no per-kernel Python loops.  The suite lowering is
built once and reused across predictors and repeated calls, which is where
serving throughput comes from: the evaluation harness lowers each suite a
single time for *all* tools, and ``python -m repro predict`` serves the
same lowered suite from a saved mapping artifact.

Bitwise contract
----------------
``predict_batch`` is required to return **bitwise-identical** floats to the
scalar per-kernel path (filter supported instructions, build the reduced
kernel, ``mapping.cycles``, divide) — the same contract the measurement
layer imposes on ``measure_batch``.  Floating-point addition is not
associative, so this only holds because the vectorized path replays the
scalar evaluation order exactly:

* per entry, the contribution is evaluated as ``(σ · uses) / throughput`` —
  the same expression tree as ``multiplicity * amount / resources[r]``;
* per ``(kernel, resource)`` cell, contributions are accumulated strictly
  left-to-right in the scalar iteration order (instructions sorted by name,
  resources in mapping insertion order) via :func:`numpy.bincount`, whose C
  loop is a sequential left fold over its input.

A plain BLAS matmul would be faster still but reserves the right to reorder
the reduction, which breaks bitwise equality between batch sizes; the
differential suite (``tests/test_predict_batch.py``) pins the contract down.

The generic fallback :func:`predict_batch_serial` is the loop every
predictor without a compiled fast path uses for its ``predict_batch``.

Online serving
--------------
The offline path above lowers a *whole suite at once*.  The serving layer
(:mod:`repro.serving`) instead accumulates requests one at a time and must
keep the per-request Python work near zero, so this module also provides an
incremental lowering pipeline:

* :func:`instruction_id` interns every :class:`Instruction` into a global,
  append-only integer id space;
* :class:`KernelLowering` is one kernel pre-lowered to interned-id /
  multiplicity arrays (cached per kernel by the serving layer, so a hot
  block is lowered once and served forever);
* :class:`LoweredBatchBuilder` accumulates lowerings into preallocated
  flat COO buffers with O(entries) slice assignments and no per-batch
  rescans or list churn;
* :meth:`MappingMatrix.predict_lowered` evaluates such a batch through the
  very same masked-COO core as :meth:`MappingMatrix.predict_batch`, so the
  bitwise contract carries over unchanged.  Serving lanes time the
  evaluation apart from result wrapping through
  :meth:`MappingMatrix.predict_lowered_arrays`, which returns the same
  numbers as two flat float arrays (NaN encoding an unpredictable
  kernel); :func:`predictions_from_arrays` converts them back to
  :class:`~repro.predictors.base.Prediction` objects without changing a
  bit.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isa.instruction import Instruction
from repro.mapping.conjunctive import ConjunctiveResourceMapping
from repro.mapping.microkernel import Microkernel
from repro.predictors.base import Prediction, Predictor


def predict_batch_serial(
    predictor: Predictor, kernels: Sequence[Microkernel]
) -> List[Prediction]:
    """The generic ``predict_batch`` fallback: one scalar call per kernel.

    Trivially satisfies the bitwise contract (it *is* the scalar path);
    predictors without a compiled fast path (the expert static analyzers,
    PMEvo) delegate to it.  Accepts a :class:`SuiteMatrix` as well, since a
    suite lowering is a sequence of its kernels.
    """
    return [predictor.predict(kernel) for kernel in kernels]


# -- global instruction interning -------------------------------------------

_INTERN_LOCK = threading.Lock()
_INSTRUCTION_IDS: Dict[Instruction, int] = {}


def instruction_id(instruction: Instruction) -> int:
    """The global interned id of an instruction (assigned on first use).

    Ids are append-only and process-global: once assigned, an instruction
    keeps its id for the lifetime of the process, so kernel lowerings and
    mapping-side lookup tables built at different times stay mutually
    consistent.  Ids are *routing* values only — they never influence a
    predicted number, so their assignment order (a function of request
    arrival order) cannot break determinism of results.
    """
    ids = _INSTRUCTION_IDS
    interned = ids.get(instruction)
    if interned is None:
        with _INTERN_LOCK:
            interned = ids.setdefault(instruction, len(ids))
    return interned


def interned_instruction_count() -> int:
    """How many distinct instructions have been interned so far."""
    return len(_INSTRUCTION_IDS)


class KernelLowering:
    """One kernel pre-lowered to interned-id / multiplicity arrays.

    The entries replay the scalar iteration order (instructions sorted by
    name, the order :meth:`Microkernel.items` yields), which the bitwise
    contract requires.  Lowering a kernel costs one sort plus one interning
    lookup per distinct instruction; the serving layer caches the result
    per kernel so repeated requests for a hot block pay nothing — the
    flush path then bulk-copies the arrays into the batch buffers with
    slice assignments instead of re-walking Python lists.
    """

    __slots__ = ("instruction_ids", "counts", "size")

    def __init__(self, kernel: Microkernel) -> None:
        ids: List[int] = []
        counts: List[float] = []
        for instruction, count in kernel.items():
            ids.append(instruction_id(instruction))
            counts.append(count)
        #: Interned instruction ids, sorted by instruction name.
        self.instruction_ids: np.ndarray = np.array(ids, dtype=np.intp)
        #: Multiplicities σ aligned with :attr:`instruction_ids`.
        self.counts: np.ndarray = np.array(counts, dtype=np.float64)
        #: ``|K|`` (bitwise-equal to ``Microkernel.size``).
        self.size: float = kernel.size

    @property
    def num_entries(self) -> int:
        return int(self.instruction_ids.size)


class LoweredBatch:
    """A flat COO batch of pre-lowered kernels, in interned-id space.

    Produced by :class:`LoweredBatchBuilder`; consumed by
    :meth:`MappingMatrix.predict_lowered`.  Entries are kernel-major and
    sorted by instruction name within a kernel — the same layout as
    :class:`SuiteMatrix`, just with global interned ids instead of
    per-suite column ids.
    """

    __slots__ = ("instruction_ids", "counts", "lengths", "sizes", "num_kernels")

    def __init__(
        self,
        instruction_ids: np.ndarray,
        counts: np.ndarray,
        lengths: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        self.instruction_ids = instruction_ids
        self.counts = counts
        self.lengths = lengths
        self.sizes = sizes
        self.num_kernels = int(sizes.size)


class LoweredBatchBuilder:
    """Incremental suite lowering for accumulated request batches.

    The micro-batching scheduler appends one :class:`KernelLowering` (or a
    whole pre-lowered :class:`LoweredBatch`, for frontends that decode
    straight to arrays) per admitted unit as it gathers a batch, and
    :meth:`take` hands out the accumulated arrays once per flush.  The
    buffers are preallocated and grow geometrically, so a steady-state
    flush performs only slice assignments — no list churn, no per-batch
    ``np.array`` materialization.

    :meth:`take` returns *views* into the builder's buffers: they stay
    valid until the next ``append``, which matches the flush discipline
    (build, evaluate, resolve — then gather the next batch).  A consumer
    that must retain a batch beyond the flush copies the arrays.

    Not thread-safe: each builder belongs to a single scheduler thread.
    """

    __slots__ = ("_ids", "_counts", "_lengths", "_sizes", "_entries", "_kernels")

    def __init__(self, entry_capacity: int = 4096, kernel_capacity: int = 512) -> None:
        entry_capacity = max(1, int(entry_capacity))
        kernel_capacity = max(1, int(kernel_capacity))
        self._ids = np.empty(entry_capacity, dtype=np.intp)
        self._counts = np.empty(entry_capacity, dtype=np.float64)
        self._lengths = np.empty(kernel_capacity, dtype=np.intp)
        self._sizes = np.empty(kernel_capacity, dtype=np.float64)
        self._entries = 0
        self._kernels = 0

    def _reserve(self, entries: int, kernels: int) -> None:
        """Grow the buffers (geometrically) to fit the incoming unit."""
        need = self._entries + entries
        if need > self._ids.size:
            capacity = max(need, 2 * self._ids.size)
            ids = np.empty(capacity, dtype=np.intp)
            counts = np.empty(capacity, dtype=np.float64)
            ids[: self._entries] = self._ids[: self._entries]
            counts[: self._entries] = self._counts[: self._entries]
            self._ids, self._counts = ids, counts
        need = self._kernels + kernels
        if need > self._lengths.size:
            capacity = max(need, 2 * self._lengths.size)
            lengths = np.empty(capacity, dtype=np.intp)
            sizes = np.empty(capacity, dtype=np.float64)
            lengths[: self._kernels] = self._lengths[: self._kernels]
            sizes[: self._kernels] = self._sizes[: self._kernels]
            self._lengths, self._sizes = lengths, sizes

    def append(self, lowering: KernelLowering) -> None:
        """Add one pre-lowered kernel to the accumulating batch."""
        entries = lowering.instruction_ids.size
        self._reserve(entries, 1)
        start = self._entries
        self._ids[start : start + entries] = lowering.instruction_ids
        self._counts[start : start + entries] = lowering.counts
        self._lengths[self._kernels] = entries
        self._sizes[self._kernels] = lowering.size
        self._entries = start + entries
        self._kernels += 1

    def append_batch(self, batch: LoweredBatch) -> None:
        """Bulk-add an already-flattened batch (one slice copy per array)."""
        entries = batch.instruction_ids.size
        kernels = batch.num_kernels
        self._reserve(entries, kernels)
        start, k = self._entries, self._kernels
        self._ids[start : start + entries] = batch.instruction_ids
        self._counts[start : start + entries] = batch.counts
        self._lengths[k : k + kernels] = batch.lengths
        self._sizes[k : k + kernels] = batch.sizes
        self._entries = start + entries
        self._kernels = k + kernels

    def append_kernel(self, kernel: Microkernel) -> None:
        """Lower a kernel on the fly and add it (no cache involved)."""
        self.append(KernelLowering(kernel))

    def __len__(self) -> int:
        return self._kernels

    def take(self) -> LoweredBatch:
        """The accumulated batch (views; valid until the next append)."""
        batch = LoweredBatch(
            instruction_ids=self._ids[: self._entries],
            counts=self._counts[: self._entries],
            lengths=self._lengths[: self._kernels],
            sizes=self._sizes[: self._kernels],
        )
        self._entries = 0
        self._kernels = 0
        return batch


class SuiteMatrix(Sequence[Microkernel]):
    """A batch of kernels lowered to a sparse instruction-count matrix.

    The lowering walks every kernel once (instructions sorted by name, the
    scalar iteration order) and records COO triplets ``(kernel, instruction
    id, multiplicity)`` — the σ matrix of the suite — plus each kernel's
    ``|K|``.  Building it is the only per-kernel Python work in the batch
    path; everything downstream is numpy.  Lower a suite once and reuse the
    result across predictors and calls (the evaluation harness does).

    ``SuiteMatrix`` is itself a :class:`~typing.Sequence` of the original
    kernels, so it can be handed to any ``predict_batch`` — compiled fast
    paths use the lowering directly, serial fallbacks simply iterate.
    """

    def __init__(self, kernels: Sequence[Microkernel]) -> None:
        self._kernels: List[Microkernel] = list(kernels)
        instruction_ids: Dict[Instruction, int] = {}
        kernel_ids: List[int] = []
        column_ids: List[int] = []
        counts: List[float] = []
        sizes: List[float] = []
        for k, kernel in enumerate(self._kernels):
            sizes.append(kernel.size)
            for instruction, count in kernel.items():
                column = instruction_ids.setdefault(instruction, len(instruction_ids))
                kernel_ids.append(k)
                column_ids.append(column)
                counts.append(count)
        #: Distinct instructions of the suite, in first-seen order; the
        #: column axis of the count matrix.
        self.instructions: Tuple[Instruction, ...] = tuple(instruction_ids)
        #: COO row (kernel) indices, entries kernel-major, sorted by
        #: instruction name within a kernel.
        self.kernel_ids = np.array(kernel_ids, dtype=np.intp)
        #: COO column (instruction) indices, aligned with :attr:`kernel_ids`.
        self.column_ids = np.array(column_ids, dtype=np.intp)
        #: Instruction multiplicities σ, aligned with :attr:`kernel_ids`.
        self.counts = np.array(counts, dtype=np.float64)
        #: ``|K|`` of every kernel (bitwise-equal to ``Microkernel.size``).
        self.sizes = np.array(sizes, dtype=np.float64)

    @property
    def num_kernels(self) -> int:
        return len(self._kernels)

    # -- Sequence[Microkernel] ----------------------------------------------
    def __len__(self) -> int:
        return len(self._kernels)

    def __iter__(self) -> Iterator[Microkernel]:
        return iter(self._kernels)

    def __getitem__(self, index):
        return self._kernels[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SuiteMatrix(kernels={len(self._kernels)}, "
            f"instructions={len(self.instructions)}, nnz={self.counts.size})"
        )


class MappingMatrix:
    """A conjunctive mapping lowered to flat (resources × instructions) arrays.

    Parameters
    ----------
    mapping:
        The conjunctive mapping to compile.
    supported:
        Optional extra restriction: instructions *not* in this collection are
        treated as unsupported even when the mapping knows them (used by
        :class:`~repro.predictors.portmap_oracle.UopsInfoPredictor`, whose
        support set can be narrower than its mapping).

    Notes
    -----
    The lowering stores one CSR-style block per supported instruction: the
    indices of the resources it uses, the raw (non-normalized) use counts
    and the matching resource throughputs, in the mapping's own usage
    iteration order — the scalar accumulation order of
    ``ConjunctiveResourceMapping.load_per_resource``, which the bitwise
    contract requires (see the module docstring).  The dense ρ matrix is
    exposed via :meth:`rho_matrix` for inspection and the docs.
    """

    def __init__(
        self,
        mapping: ConjunctiveResourceMapping,
        supported: Optional[Sequence[Instruction]] = None,
    ) -> None:
        self.mapping = mapping
        self._resources: Tuple[str, ...] = mapping.resources
        resource_index = {name: i for i, name in enumerate(self._resources)}
        self.num_resources = len(self._resources)

        allowed = None if supported is None else set(supported)
        self._index: Dict[Instruction, int] = {}
        starts: List[int] = []
        lengths: List[int] = []
        flat_resources: List[int] = []
        flat_amounts: List[float] = []
        flat_throughputs: List[float] = []
        for instruction in mapping.instructions:
            if allowed is not None and instruction not in allowed:
                continue
            uses = mapping.usage_of(instruction)
            self._index[instruction] = len(starts)
            starts.append(len(flat_resources))
            lengths.append(len(uses))
            for name, amount in uses.items():
                flat_resources.append(resource_index[name])
                flat_amounts.append(amount)
                flat_throughputs.append(mapping.throughput_of(name))
        self._starts = np.array(starts, dtype=np.intp)
        self._lengths = np.array(lengths, dtype=np.intp)
        self._flat_resources = np.array(flat_resources, dtype=np.intp)
        self._flat_amounts = np.array(flat_amounts, dtype=np.float64)
        self._flat_throughputs = np.array(flat_throughputs, dtype=np.float64)
        # interned-id -> block lookup table for predict_lowered; rebuilt
        # lazily whenever the global intern table has grown past its size.
        self._interned_lut: Optional[np.ndarray] = None

    # -- introspection -------------------------------------------------------
    @property
    def resources(self) -> Tuple[str, ...]:
        """Resource names, in matrix row order."""
        return self._resources

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """Supported instructions, sorted by name (ρ-matrix column order)."""
        return tuple(sorted(self._index, key=lambda inst: inst.name))

    def supports(self, instruction: Instruction) -> bool:
        return instruction in self._index

    def rho_matrix(self) -> np.ndarray:
        """The dense normalized ρ matrix, shape (resources, instructions).

        ``rho[r, i]`` is ``ρ_{i,r}`` of Definition IV.2 (uses divided by
        resource throughput) for the i-th instruction of
        :attr:`instructions`.  One matrix product with a suite's count
        matrix yields every kernel's per-resource loads.
        """
        instructions = self.instructions
        rho = np.zeros((self.num_resources, len(instructions)))
        for col, instruction in enumerate(instructions):
            block = self._index[instruction]
            start = self._starts[block]
            stop = start + self._lengths[block]
            rows = self._flat_resources[start:stop]
            rho[rows, col] = (
                self._flat_amounts[start:stop] / self._flat_throughputs[start:stop]
            )
        return rho

    # -- batched prediction --------------------------------------------------
    def predict_batch(
        self, kernels: Union[SuiteMatrix, Sequence[Microkernel]]
    ) -> List[Prediction]:
        """Predictions for a whole suite, bitwise-equal to the scalar path.

        Accepts either a pre-lowered :class:`SuiteMatrix` (the fast serving
        path — lower once, predict many) or a plain kernel sequence, which
        is lowered on the fly.  The evaluation reduces to: map suite
        columns onto mapping columns, expand the COO triplets to per-use
        contributions, one :func:`numpy.bincount` for the per-``(kernel,
        resource)`` loads, a row max and one division.
        """
        suite = kernels if isinstance(kernels, SuiteMatrix) else SuiteMatrix(kernels)
        num_kernels = suite.num_kernels
        if num_kernels == 0:
            return []

        if suite.counts.size and len(self._index):
            # Suite columns -> mapping columns (-1 = unsupported), then drop
            # unsupported entries.  Relative entry order is preserved, so the
            # scalar accumulation order survives the masking.
            lut = np.array(
                [self._index.get(inst, -1) for inst in suite.instructions],
                dtype=np.intp,
            )
            mapped = lut[suite.column_ids]
            mask = mapped >= 0
            kernel_ids = suite.kernel_ids[mask]
            blocks = mapped[mask]
            multiplicities = suite.counts[mask]
        else:
            kernel_ids = np.empty(0, dtype=np.intp)
            blocks = np.empty(0, dtype=np.intp)
            multiplicities = np.empty(0, dtype=np.float64)

        return self._predict_masked(
            kernel_ids, blocks, multiplicities, num_kernels, suite.sizes
        )

    def predict_lowered(self, batch: LoweredBatch) -> List[Prediction]:
        """Predictions for a pre-lowered request batch (the serving path).

        Semantically identical — bitwise — to calling :meth:`predict_batch`
        on the same kernels: the interned-id lookup table plays the role of
        the per-suite column LUT, masking preserves the entry order, and
        the evaluation runs through the same masked-COO core.  The lookup
        table is cached on the matrix and rebuilt only when the global
        intern table has grown, so the steady-state per-batch cost is one
        numpy gather.
        """
        return predictions_from_arrays(*self.predict_lowered_arrays(batch))

    def predict_lowered_arrays(
        self, batch: LoweredBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The array form of :meth:`predict_lowered`: ``(ipcs, fractions)``.

        Returns two float64 arrays of length ``batch.num_kernels`` carrying
        exactly the numbers :meth:`predict_lowered` would wrap into
        :class:`~repro.predictors.base.Prediction` objects, with ``NaN``
        standing in for an unpredictable kernel (``ipc=None``);
        :func:`predictions_from_arrays` restores the objects without
        touching a bit.
        """
        num_kernels = batch.num_kernels
        if num_kernels == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy()

        if batch.instruction_ids.size and len(self._index):
            lut = self._interned_lut
            if lut is None:
                lut = self._build_interned_lut()
            ids = batch.instruction_ids
            if int(ids.max()) >= lut.size:
                # Ids interned after the table was built.  The build
                # interned every mapping instruction eagerly, so a
                # later id is unsupported by construction: clip the
                # gather and mask the overflow to -1 instead of
                # rebuilding — request streams full of never-seen
                # mnemonics (e.g. adversarial frontend input) then cost
                # two extra numpy ops, not a per-batch table rebuild.
                in_range = ids < lut.size
                mapped = np.where(
                    in_range, lut[np.minimum(ids, lut.size - 1)], -1
                )
            else:
                mapped = lut[ids]
            mask = mapped >= 0
            kernel_ids = np.repeat(
                np.arange(num_kernels, dtype=np.intp), batch.lengths
            )[mask]
            blocks = mapped[mask]
            multiplicities = batch.counts[mask]
        else:
            kernel_ids = np.empty(0, dtype=np.intp)
            blocks = np.empty(0, dtype=np.intp)
            multiplicities = np.empty(0, dtype=np.float64)

        return self._masked_arrays(
            kernel_ids, blocks, multiplicities, num_kernels, batch.sizes
        )

    def _build_interned_lut(self) -> np.ndarray:
        """Build the interned-id -> block table, once per matrix.

        Every mapping instruction is interned *eagerly* here, so the
        finished table covers all ids that could ever map to a block —
        ids assigned later necessarily belong to instructions this
        mapping does not support, and :meth:`predict_lowered` masks them
        without a rebuild.  Benign under concurrency: the build is
        idempotent, so two threads racing here compute the same array and
        the single reference assignment keeps readers consistent.
        """
        blocks = {
            instruction_id(instruction): block
            for instruction, block in self._index.items()
        }
        lut = np.full(max(1, interned_instruction_count()), -1, dtype=np.intp)
        for interned, block in blocks.items():
            lut[interned] = block
        self._interned_lut = lut
        return lut

    def _predict_masked(
        self,
        kernel_ids: np.ndarray,
        blocks: np.ndarray,
        multiplicities: np.ndarray,
        num_kernels: int,
        sizes: np.ndarray,
    ) -> List[Prediction]:
        """Masked-COO evaluation, wrapped into :class:`Prediction` objects."""
        return predictions_from_arrays(
            *self._masked_arrays(
                kernel_ids, blocks, multiplicities, num_kernels, sizes
            )
        )

    def _masked_arrays(
        self,
        kernel_ids: np.ndarray,
        blocks: np.ndarray,
        multiplicities: np.ndarray,
        num_kernels: int,
        sizes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The shared evaluation core over masked (supported-only) COO entries.

        Both batch entry points reduce to this; it replays the scalar
        accumulation order exactly (see the module docstring), so whatever
        produced the masked triplets, the returned floats are
        bitwise-identical to the per-kernel scalar path.  The return value
        is ``(ipcs, fractions)`` with NaN encoding ``ipc=None`` — both an
        unprocessed kernel (fraction forced to 0.0) and a processed kernel
        whose cycle count is non-positive.
        """
        # Per-kernel supported weight and coverage flag; bincount's C loop is
        # the same left fold as the scalar ``sum(supported.values())``.
        processed = np.bincount(kernel_ids, minlength=num_kernels) > 0
        supported_weight = np.bincount(
            kernel_ids, weights=multiplicities, minlength=num_kernels
        )

        lengths = self._lengths[blocks]
        total = int(lengths.sum())
        if total:
            # Expand each (kernel, instruction) entry into its per-resource
            # uses: gather positions into the flat CSR arrays.
            ends = np.cumsum(lengths)
            positions = np.arange(total, dtype=np.intp) + np.repeat(
                self._starts[blocks] - (ends - lengths), lengths
            )
            # Same expression tree as the scalar path: (σ · uses) / throughput.
            contributions = (
                np.repeat(multiplicities, lengths)
                * self._flat_amounts[positions]
                / self._flat_throughputs[positions]
            )
            loads = np.bincount(
                np.repeat(kernel_ids, lengths) * self.num_resources
                + self._flat_resources[positions],
                weights=contributions,
                minlength=num_kernels * self.num_resources,
            ).reshape(num_kernels, self.num_resources)
            cycles = loads.max(axis=1)
        else:
            cycles = np.zeros(num_kernels)

        fractions = supported_weight / sizes
        ipcs = np.divide(
            sizes, cycles, out=np.zeros(num_kernels), where=cycles > 0
        )

        # NaN-encode the scalar tail's case split without changing a bit:
        # the selected ipc/fraction values are passed through untouched.
        return (
            np.where(processed & (cycles > 0), ipcs, np.nan),
            np.where(processed, fractions, 0.0),
        )


def predictions_from_arrays(
    ipcs: np.ndarray, fractions: np.ndarray
) -> List[Prediction]:
    """Rewrap an ``(ipcs, fractions)`` pair into :class:`Prediction` objects.

    The exact inverse of the NaN encoding
    :meth:`MappingMatrix.predict_lowered_arrays` produces: NaN means
    ``ipc=None``, every other float crosses unchanged (``x != x`` is the
    allocation-free NaN test).
    """
    return [
        Prediction(ipc=None if ipc != ipc else ipc, supported_fraction=fraction)
        for ipc, fraction in zip(ipcs.tolist(), fractions.tolist())
    ]
