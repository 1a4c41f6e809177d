"""Stage-graph pipeline: checkpointable, resumable, fleet-orchestrated.

This package lifts the paper's Fig. 3 pipeline out of a monolithic driver
into an explicit *stage graph*:

* :mod:`repro.pipeline.stage` — the :class:`Stage` protocol: typed
  inputs/outputs, declared configuration reads, content-hashed identity;
* :mod:`repro.pipeline.stages` — the five PALMED stages (quadratic
  benchmarking, basic selection, core mapping, complete mapping, final
  assembly) ported onto the protocol;
* :mod:`repro.pipeline.graph` — the :class:`StageGraph` executor: runs
  stages in dependency order, persists each output as a versioned
  checkpoint through the :class:`~repro.artifacts.ArtifactRegistry`, and
  on re-run skips any stage whose input hash matches a stored checkpoint
  (bitwise-identical results to a cold run);
* :mod:`repro.pipeline.fleet` — :class:`FleetRunner`: one whole stage
  graph per machine on a :class:`concurrent.futures.ProcessPoolExecutor`
  to characterize many machines concurrently into one shared registry.

:class:`repro.palmed.Palmed` remains the user-facing driver — now a thin
facade over this package.  See ``docs/pipeline.md`` for the resume/fleet
walkthrough and ``python -m repro characterize --resume --explain`` for
the CLI surface.
"""

from repro.pipeline.stage import (
    STAGE_SCHEMA_VERSION,
    PipelineInterrupted,
    Stage,
    StageContext,
    StageRecord,
    payload_hash,
)
from repro.pipeline.graph import GraphRun, StageGraph, StageReport
from repro.pipeline.stages import (
    CompleteMappingStage,
    CoreMappingStage,
    FinalOutcome,
    FinalizeStage,
    QuadraticOutcome,
    QuadraticStage,
    SelectionStage,
    load_final_outcome,
    palmed_stages,
)
from repro.pipeline.fleet import FleetMachine, FleetOutcome, FleetRunner

__all__ = [
    "STAGE_SCHEMA_VERSION",
    "CompleteMappingStage",
    "CoreMappingStage",
    "FinalOutcome",
    "FinalizeStage",
    "FleetMachine",
    "FleetOutcome",
    "FleetRunner",
    "GraphRun",
    "PipelineInterrupted",
    "QuadraticOutcome",
    "QuadraticStage",
    "SelectionStage",
    "Stage",
    "StageContext",
    "StageGraph",
    "StageRecord",
    "StageReport",
    "load_final_outcome",
    "palmed_stages",
    "payload_hash",
]
