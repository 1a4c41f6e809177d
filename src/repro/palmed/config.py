"""Configuration of the PALMED pipeline.

Every constant called out in the paper (the 5 % measurement tolerance, the
``M = 4`` and ``L = 4`` benchmark multipliers, the low-IPC cutoff of 0.05)
has a corresponding knob here so that the ablation benchmarks can vary them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass
class PalmedConfig:
    """Tunable parameters of the inference pipeline.

    Attributes
    ----------
    n_basic:
        Target number of basic instructions (the ``n`` of Algorithm 1).
        ``None`` (the default) selects one basic instruction per behavioural
        equivalence class, capped at ``n_basic_cap`` — in the paper's running
        example the 754 port-0/1/6 instructions reduce to 9 classes and the
        basic set is drawn from those.
    n_basic_cap:
        Upper bound on the automatically sized basic set.
    min_ipc:
        Instructions with a standalone IPC below this value are discarded
        entirely (the paper uses 0.05: such instructions are irrelevant for
        throughput-limited kernels).
    epsilon:
        Relative measurement tolerance (5 % in the paper): used for the
        low-IPC filter (``IPC ≤ 1 - ε``), the disjointness test, the
        saturation test and benchmark-coefficient rounding.
    m_repeat:
        ``M`` of the ``a^M b`` seed benchmarks of LP1 (4 in the paper).
    l_repeat:
        ``L`` of the ``i^i · sat[r]^L`` benchmarks of LPAUX (4 in the paper).
    max_resources:
        Upper bound on the number of abstract resources LP1 may introduce.
    lp1_max_iterations:
        Cap on the LP1 / benchmark-enrichment loop of Algorithm 2.
    lp2_mode:
        ``"exact"`` (MILP with per-kernel resource-selection binaries),
        ``"heuristic"`` (alternating argmax/LP refinement) or ``"auto"``
        (exact below ``lp2_exact_max_kernels`` kernels, heuristic above).
    lp2_exact_max_kernels:
        Threshold used by ``"auto"``.
    lp2_heuristic_rounds:
        Maximum number of alternating rounds of the heuristic BWP solver.
    lp1_time_limit:
        Safety ceiling (seconds) on the LP1 shape ILP, which is otherwise
        solved to proven optimality; the incumbent solution is used when
        the ceiling is hit.
    cluster_tolerance:
        Relative tolerance of the hierarchical clustering used to build
        equivalence classes of instructions.
    quantize_coefficients:
        Round benchmark multiplicities to small integers within ``epsilon``
        (the paper's behaviour on real hardware).  Disabled by default
        because the simulated backend accepts fractional multiplicities
        exactly; enabled by the noise-robustness experiments.
    separate_extensions:
        Do not generate microbenchmarks mixing SSE-like and AVX-like
        instructions (Sec. VI-A); the corresponding pairs are treated as
        resource-disjoint during selection.
    include_singleton_in_lpaux:
        Also feed the single-instruction kernel to LPAUX (implementation
        choice on top of Algorithm 5; anchors the total usage of the
        instruction and measurably improves accuracy — see the ablation
        bench).
    edge_threshold:
        Inferred usages below this value are dropped from the final mapping.
    milp_time_limit:
        Time limit (seconds) handed to the MILP solver for LP1/LP2.
    parallelism:
        Number of lane processes used by the batched measurement layer
        (:class:`repro.measure.ParallelDispatcher`).  ``0`` or ``1`` keeps
        every measurement in-process (the seed behaviour); larger values
        split each benchmark batch into one chunk per lane, even on one
        CPU (measurement may be latency-bound).  The inferred mapping is
        identical for every setting (see ``tests/test_measure_parallel.py``).
    lp_parallelism:
        Number of lane processes used to fan the independent
        per-instruction LPAUX weight problems of the complete-mapping phase
        over :func:`repro.runtime.run_lanes`.  ``0`` or ``1`` solves them
        in-process, as does a process allowed on one CPU.  Each problem is
        solved in closed form in well under a millisecond, so lanes mostly
        pay their process start-up.  The inferred mapping is bitwise
        identical for every setting (see ``tests/test_lp_parallel.py``).
    lp_chunk_size:
        Number of LPAUX instructions per solve chunk of the batched
        complete-mapping engine.  ``None`` (the default) auto-sizes one
        chunk per requested worker lane.  Chunk layout is planned from
        the *requested* parallelism, never from host sizing or
        scheduling, so mappings and the chunk count are identical for
        every value and on every host.  Like
        ``lp_parallelism``, this is an execution knob: it is not part of
        any stage's declared config fields, so changing it never
        invalidates stage checkpoints (a resumed run keeps the counters
        of the run that produced the checkpoint).
    lp_warm_start:
        Enable the incumbent memo of the solver templates
        (:class:`repro.solvers.ModelTemplate`): solve requests whose
        bound problem matches an already-solved one bit-for-bit are
        answered from the memo without invoking the backend.  Mappings,
        objective values and deterministic solver counters are identical
        with the memo on or off (``solves`` counts requests; hits are
        additionally visible in ``warm_start_hits``).  Also an execution
        knob, excluded from stage config hashes.
    cache_path:
        Optional path of the persistent on-disk measurement cache
        (:class:`repro.measure.MeasurementCache`).  ``None`` disables
        persistence; repeated runs with the same machine model and noise
        configuration then re-measure every kernel.
    telemetry:
        Optional path of a telemetry warehouse (sqlite) to record this
        run into (:mod:`repro.telemetry`).  ``None`` (the default) keeps
        the tracer disabled: hot-path hooks cost one attribute check and
        nothing is written.  Telemetry is observational only — spans and
        metrics are run-local wall clocks, never hashed into stage
        checkpoints (this field is not part of any stage's declared
        config fields) and never able to change results: a telemetry-on
        run is bitwise-identical to a telemetry-off run.
    """

    n_basic: Optional[int] = None
    n_basic_cap: int = 18
    min_ipc: float = 0.05
    epsilon: float = 0.05
    m_repeat: int = 4
    l_repeat: int = 4
    max_resources: int = 14
    lp1_max_iterations: int = 2
    lp2_mode: str = "auto"
    lp2_exact_max_kernels: int = 400
    lp2_heuristic_rounds: int = 8
    lp1_time_limit: float = 30.0
    cluster_tolerance: float = 0.05
    quantize_coefficients: bool = False
    separate_extensions: bool = True
    include_singleton_in_lpaux: bool = True
    edge_threshold: float = 1e-3
    milp_time_limit: float = 120.0
    parallelism: int = 0
    lp_parallelism: int = 0
    lp_chunk_size: Optional[int] = None
    lp_warm_start: bool = True
    cache_path: Optional[str] = None
    telemetry: Optional[str] = None

    def __post_init__(self) -> None:
        if self.parallelism < 0:
            raise ValueError("parallelism must be non-negative")
        if self.lp_parallelism < 0:
            raise ValueError("lp_parallelism must be non-negative")
        if self.lp_chunk_size is not None and self.lp_chunk_size < 1:
            raise ValueError("lp_chunk_size must be positive (or None for auto)")
        if self.n_basic is not None and self.n_basic < 2:
            raise ValueError("n_basic must be at least 2 (or None for automatic sizing)")
        if self.n_basic_cap < 2:
            raise ValueError("n_basic_cap must be at least 2")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.lp2_mode not in ("exact", "heuristic", "auto"):
            raise ValueError("lp2_mode must be 'exact', 'heuristic' or 'auto'")
        if self.max_resources < 2:
            raise ValueError("max_resources must be at least 2")
        if self.m_repeat < 2 or self.l_repeat < 1:
            raise ValueError("m_repeat must be >= 2 and l_repeat >= 1")

    def config_hash(self, fields: Optional[Sequence[str]] = None) -> str:
        """Stable content hash over a subset of configuration fields.

        The stage-graph checkpoints (:mod:`repro.pipeline`) key each stage on
        the hash of *only the fields that stage declares it reads*, so editing
        an unrelated knob (say ``lp_parallelism``) never invalidates a stored
        benchmarking checkpoint.  ``fields=None`` hashes every field.

        Values are serialized with ``repr`` (floats round-trip exactly) and
        fields are hashed in sorted order, so the digest is independent of
        declaration order and of how the config instance was produced.
        """
        known = {field.name for field in dataclasses.fields(self)}
        if fields is None:
            selected = sorted(known)
        else:
            unknown = set(fields) - known
            if unknown:
                raise ValueError(
                    f"unknown PalmedConfig fields: {', '.join(sorted(unknown))}"
                )
            selected = sorted(set(fields))
        digest = hashlib.sha256()
        for name in selected:
            digest.update(f"{name}={getattr(self, name)!r}".encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    @property
    def low_ipc_threshold(self) -> float:
        """IPC below which an instruction is not a basic-instruction candidate."""
        return 1.0 - self.epsilon

    def target_basic_count(self, num_classes: int) -> int:
        """Resolve ``n_basic``: explicit value, or one per class up to the cap."""
        if self.n_basic is not None:
            return self.n_basic
        return max(2, min(num_classes, self.n_basic_cap))

    def for_fast_tests(self) -> "PalmedConfig":
        """A cheaper configuration used by the unit-test suite.

        The time limits are headroom, not budgets: at this problem scale
        every solve terminates by optimality well inside them, so results
        do not depend on machine speed.  They are set high enough that a
        loaded CI machine cannot clip an almost-finished solve into a
        worse (and load-dependent) incumbent.
        """
        return PalmedConfig(
            n_basic=None,
            n_basic_cap=10,
            max_resources=10,
            lp1_max_iterations=1,
            lp1_time_limit=30.0,
            lp2_mode="exact",
            milp_time_limit=60.0,
        )
