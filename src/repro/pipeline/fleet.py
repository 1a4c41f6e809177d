"""Fleet orchestration: characterize many machines concurrently.

A production PALMED deployment characterizes a *fleet* — every machine
model in the lab — and serves predictions from the resulting artifact
registry.  :class:`FleetRunner` submits one whole stage-graph run per
machine to a :class:`concurrent.futures.ProcessPoolExecutor`; each worker
process runs the full checkpointed pipeline for its machine and saves
both the per-stage checkpoints and the final mapping artifact into a
shared registry directory.

Checkpoints make the fan-out restartable for free: a fleet run that dies
halfway loses at most the stages in flight, and re-submitting the same
fleet resumes every machine from its last finished stage.  Writes are
atomic (tempfile + rename) and keyed by machine fingerprint, so
concurrent workers never clobber each other.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.palmed.config import PalmedConfig
from repro.palmed.result import PalmedStats


@dataclass(frozen=True)
class FleetMachine:
    """A picklable description of one machine to characterize.

    Names machines through the :func:`repro.machines.build_machine`
    registry instead of carrying live machine objects, so fleet items ship
    cheaply to worker processes and a fleet specification can live in a
    config file.
    """

    machine: str
    isa_size: int = 48
    seed: int = 0
    label: Optional[str] = None

    @property
    def display_name(self) -> str:
        return self.label or f"{self.machine}/isa{self.isa_size}/s{self.seed}"


@dataclass
class FleetOutcome:
    """Result of characterizing one fleet machine."""

    spec: FleetMachine
    machine_name: str
    machine_fingerprint: str
    stats: PalmedStats
    artifact_path: str
    checkpoint_hits: Dict[str, bool] = field(default_factory=dict)

    @property
    def num_checkpoint_hits(self) -> int:
        return sum(1 for hit in self.checkpoint_hits.values() if hit)


def _characterize_one(
    registry_root: str, config: PalmedConfig, resume: bool, spec: FleetMachine
) -> FleetOutcome:
    """Characterize one machine (runs in-process or in a pool worker)."""
    # Imports kept local so the module stays importable in fleet worker
    # processes before the full package graph is warm.
    from repro.artifacts import ArtifactRegistry, MappingArtifact
    from repro.machines import build_machine
    from repro.measure.fingerprint import machine_fingerprint
    from repro.palmed.pipeline import Palmed
    from repro.simulator import PortModelBackend

    registry = ArtifactRegistry(registry_root)
    machine = build_machine(
        spec.machine, n_instructions=spec.isa_size, seed=spec.seed
    )
    palmed = Palmed(
        PortModelBackend(machine),
        machine.benchmarkable_instructions(),
        config,
        registry=registry,
        resume=resume,
    )
    result = palmed.run()
    path = registry.save(MappingArtifact.from_result(result, machine))
    return FleetOutcome(
        spec=spec,
        machine_name=machine.name,
        machine_fingerprint=machine_fingerprint(machine),
        stats=result.stats,
        artifact_path=str(path),
        checkpoint_hits=dict(result.stats.stage_checkpoint_hits),
    )


class FleetRunner:
    """Characterize a fleet of machines, one worker process per machine.

    Parameters
    ----------
    registry_root:
        Directory of the shared artifact registry (stage checkpoints and
        final mapping artifacts for every machine).
    config:
        Pipeline configuration applied to every machine; each machine's
        measurements and LP solves run inside its worker process.
    workers:
        Worker processes for the machine fan-out (``0``/``1`` = sequential
        in-process).  One machine never spans two workers.
    resume:
        Serve stages from existing checkpoints (on by default: it is what
        makes a re-submitted fleet run cheap).

    Examples
    --------
    Characterize two machines over two workers::

        runner = FleetRunner("artifacts", PalmedConfig(), workers=2)
        outcomes = runner.characterize([
            FleetMachine("toy"),
            FleetMachine("skl", isa_size=24),
        ])
    """

    def __init__(
        self,
        registry_root: str,
        config: Optional[PalmedConfig] = None,
        workers: int = 0,
        resume: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.registry_root = str(registry_root)
        self.config = config if config is not None else PalmedConfig()
        self.workers = workers
        self.resume = resume

    def characterize(self, specs: Sequence[FleetMachine]) -> List[FleetOutcome]:
        """Run the full stage graph for every machine; outcomes in input order.

        With more than one worker and machine, a process pool runs the
        machines.  A pool that cannot start or be fed (``OSError``) or that
        loses a worker (``BrokenProcessPool``) falls back, with a warning,
        to running every machine here.  An exception raised by a machine's
        own run propagates with its own type, ``OSError`` included.
        """
        specs = list(specs)
        run = functools.partial(
            _characterize_one, self.registry_root, self.config, self.resume
        )
        if self.workers > 1 and len(specs) > 1:
            try:
                # Only the pool itself raises in this block: a machine's
                # exception waits in its future, and leaving the block
                # waits for every machine to finish.
                with ProcessPoolExecutor(min(self.workers, len(specs))) as pool:
                    futures = [pool.submit(run, spec) for spec in specs]
            except (OSError, BrokenProcessPool) as error:
                failure = error
            else:
                try:
                    return [future.result() for future in futures]
                except BrokenProcessPool as error:
                    failure = error
            warnings.warn(
                f"parallel execution unavailable ({failure!r}); "
                "falling back to in-process execution",
                stacklevel=2,
            )
        return [run(spec) for spec in specs]

    @staticmethod
    def format_table(outcomes: Sequence[FleetOutcome]) -> str:
        """One summary row per characterized machine."""
        header = (
            "machine",
            "fingerprint",
            "resources",
            "mapped",
            "benchmarks",
            "ckpt hits",
            "total (s)",
        )
        rows: List[Tuple[str, ...]] = [header]
        for outcome in outcomes:
            stats = outcome.stats
            rows.append(
                (
                    outcome.machine_name,
                    outcome.machine_fingerprint[:12] + "…",
                    str(stats.num_resources),
                    f"{stats.num_instructions_mapped}/{stats.num_benchmarkable}",
                    str(stats.num_benchmarks),
                    f"{outcome.num_checkpoint_hits}/{len(outcome.checkpoint_hits) or 1}",
                    f"{stats.total_time:.2f}",
                )
            )
        from repro.pipeline.graph import format_columns

        return "\n".join(format_columns(rows))
