"""PMEvo baseline: evolutionary inference of a disjunctive port mapping.

PMEvo (Ritter & Hack, PLDI 2020) infers, like PALMED, a throughput model
from runtime measurements only.  The differences the paper highlights:

* PMEvo infers a *disjunctive* bipartite mapping (each instruction owns one
  µOP that may execute on a set of ports), which cannot express non-port
  bottlenecks (front-end, non-pipelined units);
* its benchmarks contain at most two different instructions;
* the mapping is searched with an evolutionary algorithm instead of being
  constructed, which scales poorly with the number of instructions — so its
  published mappings cover only the instructions appearing in its own
  training binaries, giving it low coverage in the paper's evaluation.

The reimplementation below follows that recipe: a genetic algorithm over
port-set assignments, fitness measured as the squared relative error of the
predicted IPC on single- and pair-instruction benchmarks, trained on a
(configurable, possibly restricted) subset of the ISA.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.mapping.conjunctive import ConjunctiveResourceMapping
from repro.mapping.disjunctive import DisjunctivePortMapping, MicroOp
from repro.mapping.dual import build_dual
from repro.mapping.microkernel import Microkernel
from repro.predictors.base import Prediction
from repro.predictors.batch import predict_batch_serial
from repro.simulator.backend import MeasurementBackend


@dataclass
class PMEvoConfig:
    """Parameters of the evolutionary search."""

    num_ports: int = 6
    population_size: int = 60
    generations: int = 80
    mutation_rate: float = 0.15
    crossover_rate: float = 0.7
    tournament_size: int = 3
    elite: int = 4
    seed: int = 0
    coverage_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.num_ports < 1:
            raise ValueError("num_ports must be positive")
        if not 0 < self.coverage_fraction <= 1:
            raise ValueError("coverage_fraction must be in (0, 1]")
        if self.population_size < 2 * self.elite:
            raise ValueError("population_size must be at least twice the elite count")


Genome = Dict[Instruction, FrozenSet[int]]


class _EvolutionState:
    """Internal helper evaluating genomes against the training benchmarks."""

    def __init__(
        self,
        instructions: Sequence[Instruction],
        benchmarks: List[Tuple[Microkernel, float]],
        config: PMEvoConfig,
    ) -> None:
        self.instructions = list(instructions)
        self.benchmarks = benchmarks
        self.config = config
        self.rng = random.Random(config.seed)

    # -- genome manipulation ---------------------------------------------------
    def random_genome(self) -> Genome:
        genome: Genome = {}
        for instruction in self.instructions:
            size = self.rng.randint(1, max(1, self.config.num_ports // 2))
            ports = frozenset(self.rng.sample(range(self.config.num_ports), size))
            genome[instruction] = ports
        return genome

    def mutate(self, genome: Genome) -> Genome:
        mutated = dict(genome)
        for instruction in self.instructions:
            if self.rng.random() >= self.config.mutation_rate:
                continue
            ports = set(mutated[instruction])
            port = self.rng.randrange(self.config.num_ports)
            if port in ports and len(ports) > 1:
                ports.remove(port)
            else:
                ports.add(port)
            mutated[instruction] = frozenset(ports)
        return mutated

    def crossover(self, left: Genome, right: Genome) -> Genome:
        child: Genome = {}
        for instruction in self.instructions:
            parent = left if self.rng.random() < 0.5 else right
            child[instruction] = parent[instruction]
        return child

    # -- fitness ----------------------------------------------------------------
    def fitness(self, genome: Genome) -> float:
        """Mean squared relative IPC error over the training benchmarks (lower is better)."""
        mapping = _genome_to_conjunctive(genome, self.config.num_ports)
        total = 0.0
        for kernel, measured in self.benchmarks:
            cycles = mapping.cycles(kernel)
            predicted = kernel.size / cycles if cycles > 0 else 0.0
            relative = (predicted - measured) / measured
            total += relative * relative
        return total / len(self.benchmarks)

    # -- evolution ----------------------------------------------------------------
    def evolve(self) -> Genome:
        population = [self.random_genome() for _ in range(self.config.population_size)]
        scored = sorted((self.fitness(g), i, g) for i, g in enumerate(population))
        for _ in range(self.config.generations):
            next_population: List[Genome] = [g for _, _, g in scored[: self.config.elite]]
            while len(next_population) < self.config.population_size:
                left = self._tournament(scored)
                if self.rng.random() < self.config.crossover_rate:
                    right = self._tournament(scored)
                    child = self.crossover(left, right)
                else:
                    child = dict(left)
                next_population.append(self.mutate(child))
            population = next_population
            scored = sorted((self.fitness(g), i, g) for i, g in enumerate(population))
            if scored[0][0] < 1e-6:
                break
        return scored[0][2]

    def _tournament(self, scored) -> Genome:
        contenders = [scored[self.rng.randrange(len(scored))] for _ in range(self.config.tournament_size)]
        contenders.sort(key=lambda item: item[0])
        return contenders[0][2]


def _genome_to_conjunctive(genome: Genome, num_ports: int) -> ConjunctiveResourceMapping:
    """Turn a port-set genome into its (exact) conjunctive dual for evaluation."""
    ports = [f"q{i}" for i in range(num_ports)]
    mapping = {
        instruction: (MicroOp(frozenset(ports[p] for p in port_set)),)
        for instruction, port_set in genome.items()
    }
    disjunctive = DisjunctivePortMapping(ports, mapping)
    return build_dual(disjunctive)


def train_pmevo(
    backend: MeasurementBackend,
    instructions: Sequence[Instruction],
    config: Optional[PMEvoConfig] = None,
) -> "PMEvoPredictor":
    """Run the evolutionary inference and return the resulting predictor.

    ``coverage_fraction`` of the (benchmarkable) instructions — chosen
    deterministically from the configured seed — constitute the training
    set; the rest remains unsupported, reproducing the coverage gap the
    paper observes for PMEvo's published mappings.
    """
    config = config if config is not None else PMEvoConfig()
    rng = random.Random(config.seed)
    candidates = sorted(
        (inst for inst in set(instructions) if inst.is_benchmarkable),
        key=lambda inst: inst.name,
    )
    covered_count = max(2, int(round(len(candidates) * config.coverage_fraction)))
    covered = sorted(rng.sample(candidates, min(covered_count, len(candidates))),
                     key=lambda inst: inst.name)

    benchmarks: List[Tuple[Microkernel, float]] = []
    for instruction in covered:
        kernel = Microkernel.single(instruction)
        benchmarks.append((kernel, backend.ipc(kernel)))
    for i, a in enumerate(covered):
        for b in covered[i + 1 :]:
            kernel = Microkernel({a: 1.0, b: 1.0})
            benchmarks.append((kernel, backend.ipc(kernel)))

    state = _EvolutionState(covered, benchmarks, config)
    genome = state.evolve()
    mapping = _genome_to_conjunctive(genome, config.num_ports)
    return PMEvoPredictor(mapping=mapping, covered=covered, genome=genome)


class PMEvoPredictor:
    """Predictor over a PMEvo-style evolved disjunctive mapping."""

    def __init__(
        self,
        mapping: ConjunctiveResourceMapping,
        covered: Sequence[Instruction],
        genome: Optional[Genome] = None,
        name: str = "PMEvo",
    ) -> None:
        self.mapping = mapping
        self.genome = genome or {}
        self._covered = set(covered)
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def supports(self, instruction: Instruction) -> bool:
        return instruction in self._covered and self.mapping.supports(instruction)

    def predict(self, kernel: Microkernel) -> Prediction:
        """Predict IPC, ignoring unsupported instructions (paper's protocol)."""
        supported = {
            instruction: count
            for instruction, count in kernel.items()
            if self.supports(instruction)
        }
        fraction = sum(supported.values()) / kernel.size if kernel.size else 0.0
        if not supported:
            return Prediction(ipc=None, supported_fraction=0.0)
        reduced = Microkernel(supported)
        cycles = self.mapping.cycles(reduced)
        if cycles <= 0:
            return Prediction(ipc=None, supported_fraction=fraction)
        return Prediction(ipc=kernel.size / cycles, supported_fraction=fraction)

    def predict_batch(self, kernels: Sequence[Microkernel]) -> List[Prediction]:
        """Per-kernel predictions via the generic serial fallback."""
        return predict_batch_serial(self, kernels)

