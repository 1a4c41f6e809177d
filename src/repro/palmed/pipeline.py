"""The end-to-end PALMED driver (Fig. 3 of the paper).

``Palmed`` is a thin facade over the stage graph of :mod:`repro.pipeline`:
the four Fig. 3 stages (quadratic benchmarking, basic selection, core
mapping, complete mapping) plus the final assembly run as explicit,
individually-checkpointable stages, and this class only builds the shared
:class:`~repro.pipeline.stage.StageContext`, executes the graph and wraps
the stage outputs back into the historical :class:`PalmedResult`.

Attach an :class:`~repro.artifacts.ArtifactRegistry` to persist each
stage's output as a content-hashed checkpoint; pass ``resume=True`` to
skip every stage whose inputs (upstream outputs + the config fields it
reads + the machine fingerprint) match a stored checkpoint.  Resumed runs
are bitwise-identical to cold runs — mapping and all deterministic
statistics — and a fully-warm re-run executes zero measurement batches
and zero LP solves (see ``tests/test_resume.py``).

All wall-clock accounting uses a monotonic clock; ``benchmarking_time``
vs ``lp_time`` keeps the paper's Table II split (LPAUX *measurements* are
benchmarking, not LP solving).  Measurement batches run in-process, and
``PalmedConfig.cache_path`` persists raw measurements across runs —
affecting neither inferred mappings nor checkpoint validity.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.isa.instruction import Instruction
from repro.palmed.benchmarks import BenchmarkRunner
from repro.palmed.config import PalmedConfig
from repro.palmed.core_mapping import resource_label
from repro.palmed.result import PalmedResult
from repro.simulator.backend import MeasurementBackend


class Palmed:
    """Automatic construction of a resource mapping from cycle measurements.

    Parameters
    ----------
    backend:
        The measurement backend ("the hardware"): anything implementing
        :class:`repro.simulator.MeasurementBackend`.
    instructions:
        The instructions to characterize.  Non-benchmarkable instructions
        (those the microbenchmark generator cannot instrument) are dropped,
        as are instructions whose standalone IPC is below ``config.min_ipc``.
    config:
        Pipeline parameters; defaults to :class:`PalmedConfig`.
    machine_name:
        Label used in the statistics (defaults to the backend's machine name
        when available).
    registry:
        Optional :class:`~repro.artifacts.ArtifactRegistry`: every stage
        output is persisted as a content-hashed checkpoint.  ``None`` (the
        historical behaviour) disables checkpointing entirely.
    resume:
        Serve stages from matching checkpoints in ``registry`` instead of
        re-running them.  Requires ``registry``.
    force_stages:
        Stage names to re-run even when a matching checkpoint exists
        (their checkpoints are overwritten; downstream stages still hit
        when the re-run reproduces the same output, which it does unless
        code or config changed).
    """

    def __init__(
        self,
        backend: MeasurementBackend,
        instructions: Sequence[Instruction],
        config: Optional[PalmedConfig] = None,
        machine_name: Optional[str] = None,
        registry: Optional["ArtifactRegistry"] = None,
        resume: bool = False,
        force_stages: Iterable[str] = (),
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else PalmedConfig()
        self.runner = BenchmarkRunner(backend, self.config)
        self.instructions: List[Instruction] = sorted(set(instructions), key=lambda i: i.name)
        if machine_name is None:
            machine = getattr(backend, "machine", None)
            machine_name = getattr(machine, "name", "unknown-machine")
        self.machine_name = machine_name
        if resume and registry is None:
            raise ValueError("resume=True requires a checkpoint registry")
        self.registry = registry
        self.resume = resume
        self.force_stages = tuple(force_stages)
        #: The :class:`repro.pipeline.GraphRun` of the most recent
        #: :meth:`run` call (per-stage hit/miss reports, ``format_explain``).
        self.last_run: Optional["GraphRun"] = None

    # ------------------------------------------------------------------
    def run(self, stop_after: Optional[str] = None) -> PalmedResult:
        """Run the stage graph and return the inferred mapping.

        ``stop_after`` interrupts the run once the named stage has been
        checkpointed (raising
        :class:`repro.pipeline.PipelineInterrupted`) — the crash-injection
        hook of the resume test-suite.
        """
        from repro.measure.fingerprint import backend_fingerprint
        from repro.pipeline import StageContext, StageGraph, palmed_stages
        from repro.telemetry import TRACER, telemetry_session

        context = StageContext(
            runner=self.runner,
            config=self.config,
            instructions=list(self.instructions),
            machine_name=self.machine_name,
        )
        graph = StageGraph(palmed_stages())
        # The session is a no-op when ``config.telemetry`` is unset, and
        # yields ``None`` (without double-recording) when an outer CLI
        # session already owns the tracer.  Telemetry never feeds back
        # into results: everything recorded is run-local wall clocks.
        with telemetry_session(
            self.config.telemetry,
            kind="characterize",
            machine_name=self.machine_name,
            machine_fingerprint=backend_fingerprint(self.backend),
        ):
            run = graph.run(
                context,
                registry=self.registry,
                resume=self.resume,
                force=self.force_stages,
                stop_after=stop_after,
            )
            self.last_run = run

            final = run.outputs["finalize"]
            stats = final.stats
            # Per-run accounting: which stages this particular execution
            # served from checkpoints, and every stage's canonical wall
            # clock.  Both are run-local (excluded from the deterministic
            # view).
            stats.stage_wall_clock = {
                name: record.wall_time for name, record in run.records.items()
            }
            stats.stage_checkpoint_hits = dict(run.checkpoint_hits)

            # Persist whatever was measured, so the next run (another
            # ablation, the evaluation harness, a re-run with different LP
            # settings) can skip every benchmark measured here.
            self.runner.flush_cache()

            if TRACER.enabled:
                # End-of-run summary metrics mirroring the deterministic
                # solver counters, so solver volume is queryable
                # (``repro stats solver``) next to the traced spans.
                TRACER.metric("solver.solves", stats.lp_solves)
                TRACER.metric("solver.model_builds", stats.lp_model_builds)
                TRACER.metric("solver.lp_time_s", stats.lp_time)
                TRACER.metric(
                    "pipeline.benchmarking_time_s", stats.benchmarking_time
                )

        core = run.outputs["core"]
        saturating = {
            resource_label(index): kernel
            for index, kernel in core.saturating_kernels.items()
        }
        return PalmedResult(
            mapping=final.mapping,
            stats=stats,
            selection=run.outputs["selection"],
            core=core,
            saturating_kernels=saturating,
        )

    def explain(self) -> str:
        """Per-stage hit/miss and timing table of the most recent run."""
        if self.last_run is None:
            return "no pipeline run yet"
        return self.last_run.format_explain()
