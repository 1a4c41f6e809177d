"""repro — a reproduction of PALMED (CGO 2022).

PALMED automatically builds a *conjunctive resource mapping* of a superscalar
CPU — a bipartite model in which every instruction uses a set of abstract
resources — from nothing but elapsed-cycle measurements of automatically
generated microbenchmarks.  The mapping predicts the steady-state throughput
(IPC) of any dependency-free instruction mix with a closed formula.

This package contains the full system described in the paper plus the
substrates needed to run it without proprietary hardware or tools, and a
serving layer on top: inferred mappings persist as fingerprint-keyed
artifacts (:mod:`repro.artifacts`) and serve batched throughput
predictions through a vectorized engine (:mod:`repro.predictors.batch`).
See ``docs/architecture.md`` for the layer tour, ``docs/serving.md`` for
the characterize-once/predict-forever workflow and ``docs/paper_map.md``
for the module ↔ paper-section map.

Quickstart
----------
>>> from repro import build_toy_machine, PortModelBackend, Palmed
>>> machine = build_toy_machine()
>>> backend = PortModelBackend(machine)
>>> palmed = Palmed(backend, machine.benchmarkable_instructions())
>>> result = palmed.run()                                   # doctest: +SKIP
>>> result.mapping.ipc(...)                                 # doctest: +SKIP
"""

from repro.isa import (
    Extension,
    Instruction,
    InstructionKind,
    build_default_isa,
    build_small_isa,
)
from repro.mapping import (
    ConjunctiveResourceMapping,
    DisjunctivePortMapping,
    Microkernel,
    MicroOp,
    build_dual,
)
from repro.machines import (
    Machine,
    build_machine,
    build_skylake_like_machine,
    build_toy_machine,
    build_zen_like_machine,
)
from repro.measure import (
    MeasurementCache,
    ParallelDispatcher,
)
from repro.simulator import (
    GreedyCycleSimulator,
    LpReferenceBackend,
    MeasurementBackend,
    MeasurementNoise,
    PortModelBackend,
)

__version__ = "1.0.0"

__all__ = [
    "ArtifactRegistry",
    "ConjunctiveResourceMapping",
    "DisjunctivePortMapping",
    "MappingArtifact",
    "Extension",
    "GreedyCycleSimulator",
    "Instruction",
    "InstructionKind",
    "LpReferenceBackend",
    "Machine",
    "MeasurementBackend",
    "MeasurementCache",
    "MeasurementNoise",
    "MicroOp",
    "ParallelDispatcher",
    "Microkernel",
    "Palmed",
    "PalmedConfig",
    "PalmedResult",
    "PortModelBackend",
    "build_default_isa",
    "build_dual",
    "build_machine",
    "build_skylake_like_machine",
    "build_small_isa",
    "build_toy_machine",
    "build_zen_like_machine",
    "__version__",
]


def __getattr__(name):
    # The PALMED pipeline and the artifact registry are imported lazily to
    # keep `import repro` cheap for users who only need the mapping/machine
    # substrates.
    if name in ("Palmed", "PalmedConfig", "PalmedResult"):
        from repro import palmed as _palmed

        return getattr(_palmed, name)
    if name in ("ArtifactRegistry", "MappingArtifact"):
        from repro import artifacts as _artifacts

        return getattr(_artifacts, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
