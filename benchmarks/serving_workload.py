"""The serving workload: machine, artifact, hot corpus and bitwise checks.

perfbench's serve workloads take what a serving node is asked from
here: the SKL-like machine over a 64-instruction ISA, an artifact built
from that machine's ground-truth conjunctive dual, and a hot-content
corpus of large basic blocks (the unrolled/vectorized hot loops that
dominate Fig. 4b-style suites), drawn with seeded RNGs so every run
replays the same blocks.

:func:`scalar_reference_table` and :func:`identical` are the correctness
side: perfbench compares every answer it times, bit for bit, with the
offline scalar prediction of the same block.
"""

from __future__ import annotations

import random
import struct

from repro import Microkernel, build_skylake_like_machine, build_small_isa
from repro.artifacts import MappingArtifact
from repro.measure.fingerprint import machine_fingerprint
from repro.palmed.result import PalmedStats

#: Hot-content corpus size (distinct blocks clients keep asking about).
CORPUS_BLOCKS = 2000
#: Distinct-instruction range per block (large unrolled hot blocks).
BLOCK_DISTINCT = (24, 48)


def serving_machine():
    """The bench machine: SKL-like ports over a 64-instruction ISA."""
    return build_skylake_like_machine(isa=build_small_isa(64, seed=0))


def serving_artifact(machine) -> MappingArtifact:
    """A serving artifact from the machine's ground-truth conjunctive dual."""
    stats = PalmedStats(
        machine_name=machine.name,
        num_instructions_total=len(machine.instructions),
        num_benchmarkable=len(machine.benchmarkable_instructions()),
        num_instructions_mapped=len(machine.benchmarkable_instructions()),
        num_basic_instructions=0,
        num_resources=0,
        num_benchmarks=0,
        num_equivalence_classes=0,
        num_low_ipc=0,
        lp1_iterations=0,
        benchmarking_time=0.0,
        lp_time=0.0,
        total_time=0.0,
    )
    return MappingArtifact(
        machine_name=machine.name,
        machine_fingerprint=machine_fingerprint(machine),
        mapping=machine.true_conjunctive(include_front_end=True),
        stats=stats,
    )


def build_corpus(machine, n_blocks: int = CORPUS_BLOCKS, seed: int = 1):
    rng = random.Random(seed)
    instructions = list(machine.benchmarkable_instructions())
    corpus = []
    for _ in range(n_blocks):
        distinct = rng.randint(*BLOCK_DISTINCT)
        chosen = rng.sample(instructions, min(distinct, len(instructions)))
        corpus.append(
            Microkernel(
                {inst: rng.choice([0.5, 1.0, 2.0, 3.0]) for inst in chosen}
            )
        )
    return corpus


def bits(value) -> bytes:
    return struct.pack("<d", value)


def identical(left, right) -> bool:
    """Bitwise equality of two predictions."""
    if (left.ipc is None) != (right.ipc is None):
        return False
    if left.ipc is not None and bits(left.ipc) != bits(right.ipc):
        return False
    return bits(left.supported_fraction) == bits(right.supported_fraction)


def scalar_reference_table(predictor, corpus):
    """id(kernel) -> scalar prediction, for O(1) identity checks.

    Every request kernel is a corpus element, so 2000 scalar predictions
    cover any number of served responses.
    """
    return {id(kernel): predictor.predict(kernel) for kernel in corpus}
