"""The :class:`Machine` container for ground-truth CPU models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.isa.instruction import Extension, Instruction
from repro.mapping.conjunctive import ConjunctiveResourceMapping
from repro.mapping.disjunctive import DisjunctivePortMapping
from repro.mapping.dual import build_dual
from repro.mapping.microkernel import Microkernel

#: Name of the abstract resource modeling the decode/rename front-end.
FRONT_END_RESOURCE = "FrontEnd"


@dataclass(frozen=True)
class Machine:
    """A ground-truth superscalar machine model.

    Attributes
    ----------
    name:
        Human-readable machine name (e.g. ``"SKL-like"``).
    port_mapping:
        The ground-truth disjunctive port mapping for every supported
        instruction.
    front_end_width:
        Maximum number of instructions decoded/issued per cycle.  This is the
        non-port bottleneck the paper highlights: IPC can never exceed it
        regardless of port pressure (4 on SKL-SP, 5 on Zen1).
    description:
        Free-form description used in reports.
    """

    name: str
    port_mapping: DisjunctivePortMapping
    front_end_width: float
    description: str = ""
    _dual_cache: Dict[bool, ConjunctiveResourceMapping] = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.front_end_width <= 0:
            raise ValueError("front_end_width must be positive")

    # -- ISA ----------------------------------------------------------------
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """Every instruction the machine implements, sorted by name."""
        return self.port_mapping.instructions

    @property
    def ports(self) -> Tuple[str, ...]:
        return self.port_mapping.ports

    def supports(self, instruction: Instruction) -> bool:
        return self.port_mapping.supports(instruction)

    def benchmarkable_instructions(self) -> Tuple[Instruction, ...]:
        """Instructions the microbenchmark generator can instrument."""
        return tuple(
            inst for inst in self.instructions if inst.is_benchmarkable
        )

    def extensions(self) -> Tuple[Extension, ...]:
        return tuple(sorted({inst.extension for inst in self.instructions},
                            key=lambda ext: ext.value))

    # -- ground-truth throughput ---------------------------------------------
    def true_conjunctive(self, include_front_end: bool = True) -> ConjunctiveResourceMapping:
        """The ∇-dual conjunctive mapping of the ground-truth port mapping.

        By Theorem A.2 this mapping predicts exactly the same steady-state
        throughput as the disjunctive LP, so it is used as the fast
        "hardware" evaluation path.  When ``include_front_end`` is true an
        extra abstract resource models the decode width (every instruction
        uses it once, its throughput is the front-end width).
        """
        cached = self._dual_cache.get(include_front_end)
        if cached is not None:
            return cached
        dual = build_dual(self.port_mapping)
        if include_front_end:
            dual = dual.with_resource(
                FRONT_END_RESOURCE,
                throughput=self.front_end_width,
                usage_per_instruction={inst: 1.0 for inst in self.instructions},
            )
        self._dual_cache[include_front_end] = dual
        return dual

    def true_cycles(self, kernel: Microkernel) -> float:
        """Ground-truth steady-state cycles per iteration (incl. front-end)."""
        return self.true_conjunctive(include_front_end=True).cycles(kernel)

    def true_ipc(self, kernel: Microkernel) -> float:
        """Ground-truth steady-state IPC (incl. front-end)."""
        return self.true_conjunctive(include_front_end=True).ipc(kernel)

    def restricted(self, instructions) -> "Machine":
        """A copy of the machine supporting only the given instructions."""
        return Machine(
            name=self.name,
            port_mapping=self.port_mapping.restricted(instructions),
            front_end_width=self.front_end_width,
            description=self.description,
        )

    def summary(self) -> str:
        """Short textual description used by examples and reports."""
        lines = [
            f"Machine {self.name}",
            f"  ports             : {', '.join(self.ports)}",
            f"  front-end width   : {self.front_end_width:g} instructions/cycle",
            f"  instructions      : {len(self.instructions)}",
            f"  benchmarkable     : {len(self.benchmarkable_instructions())}",
            f"  abstract resources: {len(self.true_conjunctive().resources)} (ground-truth dual)",
        ]
        if self.description:
            lines.append(f"  description       : {self.description}")
        return "\n".join(lines)
