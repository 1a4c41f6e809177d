"""The stage-graph executor: dependency-ordered, checkpointed, resumable.

:class:`StageGraph` runs a list of :class:`~repro.pipeline.stage.Stage`
objects in dependency order.  With a registry attached, every finished
stage is persisted as a :class:`~repro.artifacts.StageCheckpoint`; with
``resume=True``, any stage whose input hash matches a stored checkpoint is
*skipped* — its output is deserialized, its measurements are replayed into
the benchmark-runner memo, and its run record (wall clock + benchmark
counters) is restored — so the resumed run's results and statistics are
identical to the run that produced the checkpoints.

Invalidation is purely content-driven: a stage's input hash covers the
machine fingerprint, the configuration fields the stage declares it reads
and the upstream stages' output hashes.  Changing an upstream result or a
relevant config field changes the hash and the stage re-runs; changing
anything else (cache paths, telemetry, unrelated knobs) does not.
``force`` re-runs named stages unconditionally — but since output hashes
exclude wall clocks, a forced re-run that reproduces the same output
leaves every downstream checkpoint valid (incremental recomputation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.artifacts.registry import ArtifactRegistry, StageCheckpoint, payload_hash
from repro.measure.fingerprint import backend_fingerprint
from repro.pipeline.stage import (
    PipelineInterrupted,
    Stage,
    StageContext,
    StageRecord,
)
from repro.telemetry import TRACER


def format_columns(rows: Sequence[Sequence[str]]) -> List[str]:
    """Left-align rows into columns sized by their widest cell."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
        for row in rows
    ]


@dataclass
class StageReport:
    """What happened to one stage during one graph run."""

    stage: str
    #: ``True`` when the stage was served from a checkpoint this run.
    from_checkpoint: bool
    #: The stage's record (restored on a hit, measured live otherwise).
    record: StageRecord
    #: Wall-clock seconds this *run* spent on the stage (restore time on a
    #: hit; equal to ``record.wall_time`` up to bookkeeping noise on a miss).
    elapsed: float
    input_hash: Optional[str] = None
    output_hash: Optional[str] = None

    @property
    def status(self) -> str:
        return "checkpoint" if self.from_checkpoint else "ran"


@dataclass
class GraphRun:
    """Everything one :meth:`StageGraph.run` execution produced."""

    outputs: Dict[str, object]
    reports: List[StageReport] = field(default_factory=list)
    machine_fingerprint: Optional[str] = None

    @property
    def records(self) -> Dict[str, StageRecord]:
        return {report.stage: report.record for report in self.reports}

    @property
    def checkpoint_hits(self) -> Dict[str, bool]:
        return {report.stage: report.from_checkpoint for report in self.reports}

    @property
    def num_hits(self) -> int:
        return sum(1 for report in self.reports if report.from_checkpoint)

    def format_explain(self) -> str:
        """Per-stage hit/miss, wall-clock and benchmark-count table."""
        header = ("stage", "status", "stage time (s)", "this run (s)", "benchmarks")
        rows = [header]
        for report in self.reports:
            rows.append(
                (
                    report.stage,
                    report.status,
                    f"{report.record.wall_time:.2f}",
                    f"{report.elapsed:.2f}",
                    str(report.record.num_benchmarks),
                )
            )
        lines = format_columns(rows)
        lines.append(
            f"{self.num_hits}/{len(self.reports)} stages served from checkpoints"
        )
        return "\n".join(lines)


class StageGraph:
    """Dependency-ordered executor over a fixed set of stages.

    Parameters
    ----------
    stages:
        The stages, listed in an order compatible with their ``depends``
        declarations (each dependency must appear before its dependents —
        the constructor verifies this and rejects unknown or duplicate
        names).
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        seen: Set[str] = set()
        for stage in stages:
            if not stage.name:
                raise ValueError(f"stage {stage!r} has no name")
            if stage.name in seen:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            missing = [dep for dep in stage.depends if dep not in seen]
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} depends on "
                    f"{', '.join(repr(m) for m in missing)} which "
                    f"{'is' if len(missing) == 1 else 'are'} not defined "
                    f"before it"
                )
            seen.add(stage.name)
        self.stages: List[Stage] = list(stages)

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    # ------------------------------------------------------------------
    def run(
        self,
        context: StageContext,
        registry: Optional[ArtifactRegistry] = None,
        resume: bool = False,
        force: Iterable[str] = (),
        stop_after: Optional[str] = None,
    ) -> GraphRun:
        """Execute every stage, serving from checkpoints where possible.

        Parameters
        ----------
        registry:
            Checkpoint store.  ``None`` disables both persistence and
            resume (every stage runs live, no hashing overhead).
        resume:
            Read eligible checkpoints.  Writing happens whenever a
            registry is attached, resumed or not.
        force:
            Stage names to run live even when a matching checkpoint
            exists.  Unknown names are rejected.
        stop_after:
            Raise :class:`PipelineInterrupted` once the named stage has
            finished (and its checkpoint is saved) — the crash-injection
            hook used by the resume test-suite and the docs walkthrough.

        Returns
        -------
        GraphRun
            Outputs of every stage plus the per-stage reports.
        """
        force = set(force)
        known = set(self.stage_names())
        unknown = force - known
        if unknown:
            raise ValueError(
                f"unknown stage(s) {', '.join(sorted(unknown))}; "
                f"stages are: {', '.join(self.stage_names())}"
            )
        if stop_after is not None and stop_after not in known:
            raise ValueError(f"unknown stop_after stage {stop_after!r}")

        fingerprint: Optional[str] = None
        if registry is not None:
            fingerprint = backend_fingerprint(context.runner.backend)
            if fingerprint is None:
                raise ValueError(
                    "stage checkpointing requires a backend with a content "
                    "fingerprint (a fingerprint() method); this backend has "
                    "none, so its results cannot be tied to a stable identity"
                )

        run = GraphRun(outputs={}, machine_fingerprint=fingerprint)
        upstream_hashes: Dict[str, str] = {}

        for stage in self.stages:
            inputs = {name: run.outputs[name] for name in stage.depends}
            started = time.monotonic()

            input_hash: Optional[str] = None
            if registry is not None:
                input_hash = stage.input_hash(context, fingerprint, upstream_hashes)

            restored = False
            with TRACER.span(f"stage:{stage.name}") as span:
                if (
                    registry is not None
                    and resume
                    and stage.name not in force
                    and registry.has_stage(fingerprint, stage.name, input_hash)
                ):
                    checkpoint = registry.load_stage(
                        fingerprint, stage.name, input_hash
                    )
                    output = stage.deserialize(checkpoint.payload, context)
                    stage.warm_runner(output, context)
                    record = StageRecord.from_dict(checkpoint.record)
                    output_hash = checkpoint.output_hash
                    restored = True
                else:
                    runner = context.runner
                    before = (
                        runner.num_benchmarks,
                        runner.num_benchmarks_measured,
                        runner.num_benchmarks_cached,
                    )
                    output = stage.run(context, inputs)
                    record = StageRecord(
                        stage=stage.name,
                        wall_time=time.monotonic() - started,
                        num_benchmarks=runner.num_benchmarks - before[0],
                        num_benchmarks_measured=runner.num_benchmarks_measured
                        - before[1],
                        num_benchmarks_cached=runner.num_benchmarks_cached
                        - before[2],
                    )
                    output_hash = None
                    if registry is not None:
                        payload = stage.serialize(output)
                        output_hash = payload_hash(payload)
                        registry.save_stage(
                            StageCheckpoint(
                                stage=stage.name,
                                machine_fingerprint=fingerprint,
                                input_hash=input_hash,
                                output_hash=output_hash,
                                payload=payload,
                                record=record.to_dict(),
                            )
                        )
                span.set(
                    status="checkpoint" if restored else "ran",
                    wall_s=record.wall_time,
                    benchmarks=record.num_benchmarks,
                )

            run.outputs[stage.name] = output
            context.records[stage.name] = record
            run.reports.append(
                StageReport(
                    stage=stage.name,
                    from_checkpoint=restored,
                    record=record,
                    elapsed=time.monotonic() - started,
                    input_hash=input_hash,
                    output_hash=output_hash,
                )
            )
            if output_hash is not None:
                upstream_hashes[stage.name] = output_hash

            if stop_after == stage.name:
                raise PipelineInterrupted(stage.name)

        return run
