"""The PALMED pipeline as concrete stages of the graph (Fig. 3).

Each class below ports one box of the paper's pipeline onto the
:class:`~repro.pipeline.stage.Stage` protocol:

========================  =====================================================
``quadratic``             quadratic benchmarking + the IPC pre-filter
                          (Sec. V-B; the measurement half of Algorithm 1)
``selection``             basic instruction selection (Algorithm 1)
``core``                  core mapping: LP1/LP2 + saturating kernels
                          (Algorithms 2–4)
``complete``              complete mapping: per-instruction LPAUX
                          (Algorithm 5)
``finalize``              mapping assembly + the Table II statistics
========================  =====================================================

Every stage's output serializes to a canonical JSON payload; time-valued
fields (wall clocks, solver build/solve seconds) live under the reserved
``_nondeterministic`` key, which is *excluded* from the output hash — so a
re-run that reproduces the same semantic output (it always does; the
pipeline is deterministic) yields the same hash even though its wall
clocks differ, and downstream checkpoints stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.mapping.conjunctive import ConjunctiveResourceMapping
from repro.mapping.microkernel import Microkernel
from repro.palmed.basic_selection import BasicSelectionResult, select_basic_instructions
from repro.palmed.complete_mapping import CompleteMappingOutcome, run_complete_mapping
from repro.palmed.core_mapping import (
    CoreMappingResult,
    compute_core_mapping,
    resource_label,
)
from repro.palmed.lp1_shape import KernelObservation, ShapeMapping
from repro.palmed.lp2_weights import WeightSolution
from repro.palmed.quadratic import QuadraticBenchmarks
from repro.palmed.result import PalmedStats
from repro.pipeline.stage import (
    Stage,
    StageContext,
    kernel_from_payload,
    kernel_to_payload,
    rho_from_payload,
    rho_to_payload,
)
from repro.solvers import SolveStats


# ---------------------------------------------------------------------------
# Stage 1 — quadratic benchmarking
# ---------------------------------------------------------------------------

@dataclass
class QuadraticOutcome:
    """Output of the quadratic-benchmarking stage.

    Carries the benchmarkability/IPC filtering verdicts alongside the
    pairwise measurement table, plus the standalone IPC of *every*
    benchmarkable instruction (including the discarded slow ones) so the
    whole stage can be restored without touching the backend.
    """

    benchmarkable: List[Instruction]
    usable: List[Instruction]
    discarded_slow: List[Instruction]
    single_ipc: Dict[Instruction, float]
    quadratic: QuadraticBenchmarks


class QuadraticStage(Stage):
    """Measure standalone + pairwise IPCs and apply the low-IPC pre-filter."""

    name = "quadratic"
    depends = ()
    config_fields = (
        "min_ipc",
        "epsilon",
        "quantize_coefficients",
        "separate_extensions",
    )
    # The characterized instruction set itself is covered by the base
    # input hash (every stage's is), so two ISA subsets never share
    # checkpoints even on the same machine.

    def run(self, context: StageContext, inputs: Dict[str, object]) -> QuadraticOutcome:
        runner = context.runner
        benchmarkable = [
            instruction
            for instruction in context.instructions
            if instruction.is_benchmarkable
        ]
        runner.prefetch(
            Microkernel.single(instruction) for instruction in benchmarkable
        )
        usable: List[Instruction] = []
        discarded: List[Instruction] = []
        for instruction in benchmarkable:
            if runner.ipc_single(instruction) < context.config.min_ipc:
                discarded.append(instruction)
            else:
                usable.append(instruction)
        quadratic = QuadraticBenchmarks(runner, usable)
        single_ipc = {
            instruction: runner.ipc_single(instruction)
            for instruction in benchmarkable
        }
        return QuadraticOutcome(
            benchmarkable=benchmarkable,
            usable=usable,
            discarded_slow=discarded,
            single_ipc=single_ipc,
            quadratic=quadratic,
        )

    def serialize(self, output: QuadraticOutcome) -> Dict[str, object]:
        quadratic = output.quadratic
        pairs: List[List[object]] = []
        order = quadratic.instructions
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                pairs.append(
                    [a.name, b.name, quadratic.pair_ipc(a, b), quadratic.is_measurable(a, b)]
                )
        return {
            "benchmarkable": [i.name for i in output.benchmarkable],
            "usable": [i.name for i in output.usable],
            "discarded_slow": [i.name for i in output.discarded_slow],
            "single_ipc": {i.name: ipc for i, ipc in output.single_ipc.items()},
            "pairs": pairs,
        }

    def deserialize(
        self, payload: Dict[str, object], context: StageContext
    ) -> QuadraticOutcome:
        index = context.instruction_index()
        benchmarkable = [context.resolve_instruction(n) for n in payload["benchmarkable"]]
        usable = [context.resolve_instruction(n) for n in payload["usable"]]
        discarded = [context.resolve_instruction(n) for n in payload["discarded_slow"]]
        single_ipc = {
            index[name]: float(ipc) for name, ipc in payload["single_ipc"].items()
        }
        pair_ipc: Dict[Tuple[Instruction, Instruction], float] = {}
        unmeasurable: List[Tuple[Instruction, Instruction]] = []
        for a_name, b_name, ipc, measurable in payload["pairs"]:
            a, b = index[a_name], index[b_name]
            pair_ipc[(a, b)] = float(ipc)
            pair_ipc[(b, a)] = float(ipc)
            if not measurable:
                unmeasurable.append((a, b))
                unmeasurable.append((b, a))
        quadratic = QuadraticBenchmarks.from_measurements(
            usable,
            {inst: single_ipc[inst] for inst in usable},
            pair_ipc,
            unmeasurable,
            runner=context.runner,
        )
        return QuadraticOutcome(
            benchmarkable=benchmarkable,
            usable=usable,
            discarded_slow=discarded,
            single_ipc=single_ipc,
            quadratic=quadratic,
        )

    def warm_runner(self, output: QuadraticOutcome, context: StageContext) -> None:
        # Everything this stage measured and later stages re-request through
        # the runner memo: the standalone singles (consumed by the seed and
        # LPAUX kernel builders) and the quadratic pair benchmarks.  The
        # singles go in first so that rebuilding the pair kernels through
        # the runner is itself served from the memo.
        context.runner.preload(
            {
                Microkernel.single(instruction): ipc
                for instruction, ipc in output.single_ipc.items()
            }
        )
        quadratic = output.quadratic
        order = quadratic.instructions
        pairs: Dict[Microkernel, float] = {}
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                if quadratic.is_measurable(a, b):
                    pairs[context.runner.pair_kernel(a, b)] = quadratic.pair_ipc(a, b)
        context.runner.preload(pairs)


# ---------------------------------------------------------------------------
# Stage 2 — basic instruction selection (Algorithm 1)
# ---------------------------------------------------------------------------

class SelectionStage(Stage):
    """Pure selection over the quadratic measurements — no new benchmarks."""

    name = "selection"
    depends = ("quadratic",)
    config_fields = ("epsilon", "cluster_tolerance", "n_basic", "n_basic_cap")

    def run(self, context: StageContext, inputs: Dict[str, object]) -> BasicSelectionResult:
        quadratic: QuadraticOutcome = inputs["quadratic"]
        return select_basic_instructions(quadratic.quadratic, context.config)

    def serialize(self, output: BasicSelectionResult) -> Dict[str, object]:
        return {
            "basic": [i.name for i in output.basic],
            "very_basic": [i.name for i in output.very_basic],
            "greedy": [i.name for i in output.greedy],
            "candidates": [i.name for i in output.candidates],
            "low_ipc": [i.name for i in output.low_ipc],
            "representatives": {
                rep.name: sorted(member.name for member in members)
                for rep, members in output.representatives.items()
            },
            "disjoint": {
                inst.name: sorted(other.name for other in others)
                for inst, others in output.disjoint.items()
            },
        }

    def deserialize(
        self, payload: Dict[str, object], context: StageContext
    ) -> BasicSelectionResult:
        index = context.instruction_index()
        return BasicSelectionResult(
            basic=[index[n] for n in payload["basic"]],
            very_basic=[index[n] for n in payload["very_basic"]],
            greedy=[index[n] for n in payload["greedy"]],
            candidates=[index[n] for n in payload["candidates"]],
            representatives={
                index[rep]: [index[m] for m in members]
                for rep, members in payload["representatives"].items()
            },
            low_ipc=[index[n] for n in payload["low_ipc"]],
            disjoint={
                index[name]: {index[o] for o in others}
                for name, others in payload["disjoint"].items()
            },
        )


# ---------------------------------------------------------------------------
# Stage 3 — core mapping (Algorithms 2–4)
# ---------------------------------------------------------------------------

def _solve_stats_to_payload(stats: SolveStats) -> Dict[str, int]:
    """The deterministic half of a solver record (counts only).

    Builds, solves and rebinds are deterministic functions of the
    configuration, so they belong in the hashed payload; limit outcomes
    and gaps are machine-speed dependent and ship with the times under
    ``_nondeterministic`` instead.
    """
    return {
        "model_builds": stats.model_builds,
        "solves": stats.solves,
        "rebinds": stats.rebinds,
    }


def _solve_stats_from_payload(
    counts: Dict[str, int], times: Dict[str, float]
) -> SolveStats:
    # ``.get`` defaults keep checkpoints written before ``rebinds`` was
    # counted loadable; counters that older records carry and no field
    # reads any more are ignored.
    return SolveStats(
        model_builds=int(counts["model_builds"]),
        solves=int(counts["solves"]),
        rebinds=int(counts.get("rebinds", 0)),
        limit_solves=int(times.get("limit_solves", 0)),
        worst_mip_gap=float(times.get("worst_mip_gap", 0.0)),
        build_time=float(times.get("build_time", 0.0)),
        solve_time=float(times.get("solve_time", 0.0)),
        rebind_time=float(times.get("rebind_time", 0.0)),
    )


class CoreMappingStage(Stage):
    """Iterated LP1 + LP2 + saturating-kernel selection over the basic set."""

    name = "core"
    depends = ("quadratic", "selection")
    config_fields = (
        "epsilon",
        "min_ipc",
        "m_repeat",
        "separate_extensions",
        "quantize_coefficients",
        "max_resources",
        "lp1_max_iterations",
        "lp1_time_limit",
        "lp2_mode",
        "lp2_exact_max_kernels",
        "lp2_heuristic_rounds",
        "milp_time_limit",
    )

    def run(self, context: StageContext, inputs: Dict[str, object]) -> CoreMappingResult:
        selection: BasicSelectionResult = inputs["selection"]
        return compute_core_mapping(context.runner, selection, context.config)

    def serialize(self, output: CoreMappingResult) -> Dict[str, object]:
        return {
            "num_resources": output.shape.num_resources,
            "edges": {
                inst.name: sorted(resources)
                for inst, resources in output.shape.edges.items()
            },
            "rho": rho_to_payload(output.weights.rho),
            "saturation": [
                [kernel_to_payload(obs.kernel), obs.ipc, value]
                for obs, value in sorted(
                    output.weights.saturation.items(),
                    key=lambda item: sorted(kernel_to_payload(item[0].kernel).items()),
                )
            ],
            "total_error": output.weights.total_error,
            "observations": [
                [kernel_to_payload(obs.kernel), obs.ipc] for obs in output.observations
            ],
            "saturating_kernels": {
                str(resource): kernel_to_payload(kernel)
                for resource, kernel in output.saturating_kernels.items()
            },
            "lp1_iterations": output.lp1_iterations,
            "solver_counts": _solve_stats_to_payload(output.solver_stats),
            "_nondeterministic": {
                "lp_time": output.lp_time,
                "build_time": output.solver_stats.build_time,
                "solve_time": output.solver_stats.solve_time,
                "rebind_time": output.solver_stats.rebind_time,
                "limit_solves": output.solver_stats.limit_solves,
                "worst_mip_gap": output.solver_stats.worst_mip_gap,
            },
        }

    def deserialize(
        self, payload: Dict[str, object], context: StageContext
    ) -> CoreMappingResult:
        index = context.instruction_index()
        times = payload.get("_nondeterministic", {})
        shape = ShapeMapping(
            num_resources=int(payload["num_resources"]),
            edges={
                index[name]: set(int(r) for r in resources)
                for name, resources in payload["edges"].items()
            },
        )
        weights = WeightSolution(
            rho=rho_from_payload(payload["rho"], index),
            saturation={
                KernelObservation(
                    kernel=kernel_from_payload(dict(kernel), index), ipc=float(ipc)
                ): float(value)
                for kernel, ipc, value in payload["saturation"]
            },
            total_error=float(payload["total_error"]),
        )
        observations = [
            KernelObservation(
                kernel=kernel_from_payload(dict(kernel), index), ipc=float(ipc)
            )
            for kernel, ipc in payload["observations"]
        ]
        return CoreMappingResult(
            shape=shape,
            weights=weights,
            observations=observations,
            saturating_kernels={
                int(resource): kernel_from_payload(dict(kernel), index)
                for resource, kernel in payload["saturating_kernels"].items()
            },
            lp1_iterations=int(payload["lp1_iterations"]),
            lp_time=float(times.get("lp_time", 0.0)),
            solver_stats=_solve_stats_from_payload(payload["solver_counts"], times),
        )

    def warm_runner(self, output: CoreMappingResult, context: StageContext) -> None:
        # The observation set covers every kernel this stage measured (seed,
        # a^M b, enrichment); LPAUX re-requests none of them directly but
        # they keep the memo state identical to a cold run's.
        context.runner.preload({obs.kernel: obs.ipc for obs in output.observations})


# ---------------------------------------------------------------------------
# Stage 4 — complete mapping (Algorithm 5 / LPAUX)
# ---------------------------------------------------------------------------

class CompleteMappingStage(Stage):
    """Per-instruction LPAUX over the frozen core (measurement + solve halves)."""

    name = "complete"
    depends = ("quadratic", "core")
    config_fields = (
        "epsilon",
        "min_ipc",
        "l_repeat",
        "include_singleton_in_lpaux",
        "separate_extensions",
        "quantize_coefficients",
        "edge_threshold",
    )
    # Execution knobs (cache_path, telemetry) are deliberately absent:
    # they change how the measurements are *obtained*, never which
    # mapping comes out, so flipping them must not invalidate an existing
    # checkpoint of this stage.

    def run(self, context: StageContext, inputs: Dict[str, object]) -> CompleteMappingOutcome:
        quadratic: QuadraticOutcome = inputs["quadratic"]
        core: CoreMappingResult = inputs["core"]
        return run_complete_mapping(
            context.runner, quadratic.usable, core, context.config
        )

    def serialize(self, output: CompleteMappingOutcome) -> Dict[str, object]:
        return {
            "mapped": rho_to_payload(output.mapped),
            "_nondeterministic": {
                "measurement_time": output.measurement_time,
                "solve_time_wall": output.solve_time,
            },
        }

    def deserialize(
        self, payload: Dict[str, object], context: StageContext
    ) -> CompleteMappingOutcome:
        index = context.instruction_index()
        times = payload.get("_nondeterministic", {})
        return CompleteMappingOutcome(
            mapped=rho_from_payload(payload["mapped"], index),
            measurement_time=float(times.get("measurement_time", 0.0)),
            solve_time=float(times.get("solve_time_wall", 0.0)),
        )

    # No warm_runner override: nothing downstream of LPAUX measures, so
    # replaying its |instructions| x |resources| saturating benchmarks
    # would warm the memo for measurements no later stage can re-request.


# ---------------------------------------------------------------------------
# Stage 5 — mapping assembly + Table II statistics
# ---------------------------------------------------------------------------

@dataclass
class FinalOutcome:
    """Output of the finalize stage: the deliverables of a PALMED run."""

    mapping: ConjunctiveResourceMapping
    stats: PalmedStats


class FinalizeStage(Stage):
    """Merge core + LPAUX usages into the final mapping and build the stats.

    The Table II statistics are assembled from the *stage records* the
    executor accumulated (restored from checkpoints for skipped stages,
    measured live otherwise): the benchmark counters and solver counts are
    therefore identical between a cold run and any resumed run, while the
    wall-clock fields reflect when each stage actually executed.
    """

    name = "finalize"
    depends = ("quadratic", "selection", "core", "complete")
    config_fields = ("edge_threshold",)

    def run(self, context: StageContext, inputs: Dict[str, object]) -> FinalOutcome:
        quadratic: QuadraticOutcome = inputs["quadratic"]
        selection: BasicSelectionResult = inputs["selection"]
        core: CoreMappingResult = inputs["core"]
        complete: CompleteMappingOutcome = inputs["complete"]
        config = context.config

        resources = {resource_label(r): 1.0 for r in range(core.num_resources)}
        usage: Dict[Instruction, Dict[str, float]] = {}
        for instruction, weights in core.basic_rho.items():
            usage[instruction] = {
                resource_label(r): value
                for r, value in weights.items()
                if value >= config.edge_threshold
            }
        for instruction, weights in complete.mapped.items():
            usage[instruction] = {
                resource_label(r): value
                for r, value in weights.items()
                if value >= config.edge_threshold
            }
        # Instructions whose inferred usage came out empty cannot be
        # meaningfully predicted by the model: they are reported as
        # *unmapped* (the paper's "instructions mapped" is likewise smaller
        # than "instructions supported") rather than silently predicted
        # with a near-infinite throughput.
        usage = {inst: uses for inst, uses in usage.items() if uses}
        mapping = ConjunctiveResourceMapping(resources, usage)

        records = context.records
        lp_stats = core.solver_stats
        stats = PalmedStats(
            machine_name=context.machine_name,
            num_instructions_total=len(context.instructions),
            num_benchmarkable=len(quadratic.benchmarkable),
            num_instructions_mapped=len(mapping.instructions),
            num_basic_instructions=len(selection.basic),
            num_resources=core.num_resources,
            num_benchmarks=sum(r.num_benchmarks for r in records.values()),
            num_equivalence_classes=selection.num_classes,
            num_low_ipc=len(selection.low_ipc) + len(quadratic.discarded_slow),
            lp1_iterations=core.lp1_iterations,
            # LPAUX's saturating-benchmark measurements are benchmarking
            # work, not LP solving (Table II charges them to the former).
            benchmarking_time=(
                records["quadratic"].wall_time
                + records["selection"].wall_time
                + complete.measurement_time
            ),
            lp_time=core.lp_time + complete.solve_time,
            total_time=sum(r.wall_time for r in records.values()),
            num_benchmarks_measured=sum(
                r.num_benchmarks_measured for r in records.values()
            ),
            num_benchmarks_cached=sum(
                r.num_benchmarks_cached for r in records.values()
            ),
            lp_solves=lp_stats.solves,
            lp_model_builds=lp_stats.model_builds,
            lp_rebinds=lp_stats.rebinds,
            lp_limit_solves=lp_stats.limit_solves,
            lp_worst_mip_gap=lp_stats.worst_mip_gap,
            lp_build_time=lp_stats.build_time,
            lp_solve_time=lp_stats.solve_time,
            lp_rebind_time=lp_stats.rebind_time,
        )
        return FinalOutcome(mapping=mapping, stats=stats)

    def serialize(self, output: FinalOutcome) -> Dict[str, object]:
        stats = output.stats.to_dict()
        deterministic = {
            key: value
            for key, value in stats.items()
            if key not in PalmedStats.RUN_LOCAL_FIELDS
        }
        return {
            "mapping": output.mapping.to_dict(),
            "stats": deterministic,
            "_nondeterministic": {
                "stats": {
                    key: value
                    for key, value in stats.items()
                    if key in PalmedStats.RUN_LOCAL_FIELDS
                }
            },
        }

    def deserialize(
        self, payload: Dict[str, object], context: StageContext
    ) -> FinalOutcome:
        times = payload.get("_nondeterministic", {}).get("stats", {})
        stats_payload = dict(payload["stats"])
        stats_payload.update(times)
        return FinalOutcome(
            mapping=ConjunctiveResourceMapping.from_dict(payload["mapping"]),
            stats=PalmedStats.from_dict(stats_payload),
        )


def palmed_stages() -> List[Stage]:
    """The five Fig. 3 stages, in dependency order."""
    return [
        QuadraticStage(),
        SelectionStage(),
        CoreMappingStage(),
        CompleteMappingStage(),
        FinalizeStage(),
    ]


def load_final_outcome(registry, fingerprint: str) -> Optional[FinalOutcome]:
    """The newest finalize-stage checkpoint of one machine, if any.

    Lets consumers that only need the deliverables (the evaluation harness,
    ``python -m repro evaluate``) serve directly from stage checkpoints
    when no standalone mapping artifact was saved — an interrupted-then-
    resumed characterization leaves a finalize checkpoint behind even if
    the operator never exported an artifact.  ``fingerprint`` is the
    *backend* fingerprint the checkpoints are keyed on.

    Only ``finalize-*.json`` files are read: the upstream checkpoints (the
    quadratic one in particular holds every pairwise measurement) are
    never loaded here.
    """
    import json

    from repro.artifacts.registry import ArtifactError, StageCheckpoint

    directory = registry.stage_dir(fingerprint)
    if not directory.is_dir():
        return None
    checkpoints = []
    for path in directory.glob(f"{FinalizeStage.name}-*.json"):
        try:
            checkpoints.append(
                StageCheckpoint.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            )
        except (OSError, ValueError, KeyError, TypeError, ArtifactError):
            continue
    if not checkpoints:
        return None
    newest = max(checkpoints, key=lambda checkpoint: checkpoint.created_at)
    return FinalizeStage().deserialize(newest.payload, context=None)
