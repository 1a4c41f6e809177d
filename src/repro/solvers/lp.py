"""Re-export of the solver gateway, kept for perfbench's layer probe.

Every model in the repository is built with
:class:`repro.solvers.ModelBuilder` and solved through
:func:`repro.solvers.builder.solve_milp_arrays`.  Nothing in the library
imports this module; ``perfbench/layers.py`` still imports it and patches
``lp.solve_milp_arrays``, so the name stays until perfbench drops that
import.
"""

from repro.solvers.builder import solve_milp_arrays
