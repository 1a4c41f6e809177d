"""The PALMED inference pipeline (Sec. V of the paper).

Given only a measurement backend (elapsed cycles / IPC of dependency-free
microkernels) and a list of instructions, the pipeline builds a conjunctive
resource mapping in three stages:

1. **Basic instruction selection** (:mod:`repro.palmed.basic_selection`,
   Algorithm 1) — quadratic benchmarking, low-IPC filtering, equivalence
   classes, very-basic clique and most-greedy selection.
2. **Core mapping** (:mod:`repro.palmed.core_mapping`, Algorithm 2) — the
   LP1 shape ILP iterated with benchmark enrichment, the LP2 bipartite
   weight problem, and per-resource saturating kernels.
3. **Complete mapping** (:mod:`repro.palmed.complete_mapping`, Algorithm 5 /
   LPAUX) — per remaining instruction, a small frozen-core weight problem
   over benchmarks that saturate each resource.

:class:`Palmed` (in :mod:`repro.palmed.pipeline`) drives the stages and
returns a :class:`PalmedResult`.  It is a thin facade over the
checkpointable stage graph of :mod:`repro.pipeline`, which adds per-stage
persistence, content-hash invalidation, incremental resume and fleet
orchestration on top of the algorithms implemented here.
"""

from repro.palmed.config import PalmedConfig
from repro.palmed.benchmarks import BenchmarkRunner, quantize_kernel
from repro.palmed.quadratic import QuadraticBenchmarks
from repro.palmed.basic_selection import BasicSelectionResult, select_basic_instructions
from repro.palmed.core_mapping import CoreMappingResult, compute_core_mapping
from repro.palmed.complete_mapping import (
    CompleteMappingOutcome,
    run_complete_mapping,
)
from repro.palmed.result import PalmedResult, PalmedStats
from repro.palmed.pipeline import Palmed

__all__ = [
    "BasicSelectionResult",
    "BenchmarkRunner",
    "CompleteMappingOutcome",
    "CoreMappingResult",
    "Palmed",
    "PalmedConfig",
    "PalmedResult",
    "PalmedStats",
    "QuadraticBenchmarks",
    "compute_core_mapping",
    "quantize_kernel",
    "run_complete_mapping",
    "select_basic_instructions",
]
