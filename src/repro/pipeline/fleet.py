"""Fleet orchestration: characterize many machines concurrently.

A production PALMED deployment characterizes a *fleet* — every machine
model in the lab — and serves predictions from the resulting artifact
registry.  :class:`FleetRunner` fans whole stage-graph runs out over
:func:`repro.runtime.run_lanes`: machine ``i`` runs on
lane ``i % workers``, and each lane process runs the full checkpointed
pipeline for its machines and saves both the per-stage checkpoints and
the final mapping artifact into a shared registry directory.

Checkpoints make the fan-out restartable for free: a fleet run that dies
halfway loses at most the stages in flight, and re-submitting the same
fleet resumes every machine from its last finished stage.  Writes are
atomic (tempfile + rename) and keyed by machine fingerprint, so
concurrent lanes never clobber each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.palmed.config import PalmedConfig
from repro.palmed.result import PalmedStats
from repro.runtime import run_lanes


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


@dataclass(frozen=True)
class _FleetContext:
    """Shared worker context: everything but the per-machine spec."""

    registry_root: str
    config: PalmedConfig
    resume: bool


def _characterize_chunk(
    context: _FleetContext, specs: List[FleetMachine]
) -> List[FleetOutcome]:
    """Characterize a chunk of machines (runs in-process or in a lane)."""
    # Imports kept local so the module stays importable in fleet worker
    # processes before the full package graph is warm.
    from repro.artifacts import ArtifactRegistry, MappingArtifact
    from repro.machines import build_machine
    from repro.measure.fingerprint import machine_fingerprint
    from repro.palmed.pipeline import Palmed
    from repro.simulator import PortModelBackend

    registry = ArtifactRegistry(context.registry_root)
    outcomes: List[FleetOutcome] = []
    for spec in specs:
        machine = build_machine(
            spec.machine, n_instructions=spec.isa_size, seed=spec.seed
        )
        backend = PortModelBackend(machine)
        palmed = Palmed(
            backend,
            machine.benchmarkable_instructions(),
            context.config,
            registry=registry,
            resume=context.resume,
        )
        result = palmed.run()
        path = registry.save(MappingArtifact.from_result(result, machine))
        outcomes.append(
            FleetOutcome(
                spec=spec,
                machine_name=machine.name,
                machine_fingerprint=machine_fingerprint(machine),
                stats=result.stats,
                artifact_path=str(path),
                checkpoint_hits=dict(result.stats.stage_checkpoint_hits),
            )
        )
    return outcomes


class FleetRunner:
    """Characterize a fleet of machines over lane-pinned worker processes.

    Parameters
    ----------
    registry_root:
        Directory of the shared artifact registry (stage checkpoints and
        final mapping artifacts for every machine).
    config:
        Pipeline configuration applied to every machine; each machine's
        measurements and LP solves run inside its lane.
    workers:
        Lane processes for the machine fan-out (``0``/``1`` = sequential
        in-process).  Machine ``i`` always runs on lane ``i % workers``;
        one machine never spans two lanes.
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
        self.registry_root = str(registry_root)
        self.config = config if config is not None else PalmedConfig()
        self.workers = workers
        self.resume = resume

    def characterize(self, specs: Sequence[FleetMachine]) -> List[FleetOutcome]:
        """Run the full stage graph for every machine; outcomes in input order."""
        context = _FleetContext(
            registry_root=self.registry_root,
            config=self.config,
            resume=self.resume,
        )
        # One machine per chunk: machines are coarse work items, and the
        # per-chunk overhead (one registry open) is negligible.
        chunks = [[spec] for spec in specs]
        results = run_lanes(
            _characterize_chunk, chunks, context, self.workers, name="fleet-lane"
        )
        return [outcome for chunk in results for outcome in chunk]

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
