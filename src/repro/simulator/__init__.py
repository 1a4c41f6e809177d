"""Measurement substrate: "running" microbenchmarks on a machine model.

On real hardware PALMED measures elapsed cycles (``CPU_CLK_UNHALTED``) of
generated microbenchmarks.  The reproduction replaces the hardware with a
ground-truth :class:`~repro.machines.Machine` and exposes the same narrow
interface — *give me the IPC of this kernel*, scalar (``ipc``/``cycles``)
or vectorized (``measure_batch``, consumed by the batched/cached
measurement layer in :mod:`repro.measure`) — through
:class:`MeasurementBackend` implementations:

``PortModelBackend``
    The default backend: steady-state throughput of the machine's
    ground-truth dual conjunctive mapping (provably equal to the disjunctive
    scheduling LP), including the front-end bottleneck, with optional
    multiplicative measurement noise and cycle quantization.
``LpReferenceBackend``
    The same quantity computed by solving the disjunctive port-assignment LP
    directly; slower, used to cross-validate the fast path.
``GreedyCycleSimulator``
    A finite-horizon list-scheduling simulator (greedy µOP-to-port
    assignment, bounded decode width) that approximates what an actual
    out-of-order core would achieve; used for realism checks.
"""

from repro.simulator.backend import MeasurementBackend
from repro.simulator.noise import MeasurementNoise
from repro.simulator.port_simulator import LpReferenceBackend, PortModelBackend
from repro.simulator.cycle_sim import GreedyCycleSimulator

__all__ = [
    "GreedyCycleSimulator",
    "LpReferenceBackend",
    "MeasurementBackend",
    "MeasurementNoise",
    "PortModelBackend",
]
