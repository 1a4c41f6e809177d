"""Benchmark-side layer accounting for the traced characterize run.

The program's own code is left untouched: :class:`LayerProbe` wraps the
public boundaries of each layer from the outside for the duration of a
``with`` block and restores the originals afterwards.

* ``pipeline`` — each stage class's ``run`` (the five Fig. 3 stages);
* ``solvers`` — ``solve_milp_arrays`` (the single HiGHS gateway), split by
  model (LP1 = ``lp1-shape``; LP2 = ``lp2-bwp-*`` inside the core stage;
  LPAUX = ``lp2-bwp-*`` inside the complete stage), ``ModelBuilder.build``,
  and HiGHS's ``mip_node_count`` read off ``scipy.optimize.milp``;
* ``measure`` — the dispatcher's ``measure``/``measure_safe`` while a
  stage is running.

Wrapping costs a clock read and a dict update per call, and the traced
run reports that cost together with the program's own telemetry as
``telemetry.overhead_pct``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

STAGES = ("quadratic", "selection", "core", "complete", "finalize")
SOLVE_MODELS = ("lp1", "lp2", "lpaux")


def model_label(name: str, stage: Optional[str]) -> str:
    """The per-layer name of a solve: lp1, lp2, lpaux, or ``other``."""
    if name == "lp1-shape":
        return "lp1"
    if name.startswith("lp2-bwp-"):
        return "lpaux" if stage == "complete" else "lp2"
    return "other"


class LayerProbe:
    """Accumulates time and counts at layer boundaries while installed."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stage: Optional[str] = None

    # -- wrappers ------------------------------------------------------------
    def _stage_run(self, name: str, original):
        probe = self

        def run(stage, context, inputs):
            outer, probe._stage = probe._stage, name
            start = time.perf_counter()
            try:
                return original(stage, context, inputs)
            finally:
                probe.seconds[f"pipeline.{name}_s"] += time.perf_counter() - start
                probe._stage = outer

        return run

    def _solve(self, original):
        probe = self

        def solve_milp_arrays(name, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(name, *args, **kwargs)
            finally:
                label = model_label(name, probe._stage)
                probe.seconds[f"solvers.{label}.solve_s"] += (
                    time.perf_counter() - start
                )
                probe.counts["solvers.backend_solves"] += 1

        return solve_milp_arrays

    def _milp(self, original):
        probe = self

        def milp(*args, **kwargs):
            result = original(*args, **kwargs)
            probe.counts["solvers.mip_nodes"] += int(
                getattr(result, "mip_node_count", 0) or 0
            )
            return result

        return milp

    def _build(self, original):
        probe = self

        def build(builder, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(builder, *args, **kwargs)
            finally:
                probe.seconds["solvers.build_s"] += time.perf_counter() - start

        return build

    def _measure(self, original):
        probe = self

        def measure(dispatcher, backend, kernels):
            kernels = list(kernels)
            if probe._stage is None:
                return original(dispatcher, backend, kernels)
            start = time.perf_counter()
            try:
                return original(dispatcher, backend, kernels)
            finally:
                probe.seconds["measure.busy_s"] += time.perf_counter() - start
                probe.counts["measure.kernels"] += len(kernels)

        return measure

    # -- installation --------------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerProbe"]:
        import scipy.optimize

        from repro.measure.dispatcher import ParallelDispatcher
        from repro.pipeline import stages
        from repro.solvers import builder, lp

        patches: List[Tuple[object, str, object]] = []
        for cls in (
            stages.QuadraticStage,
            stages.SelectionStage,
            stages.CoreMappingStage,
            stages.CompleteMappingStage,
            stages.FinalizeStage,
        ):
            patches.append((cls, "run", self._stage_run(cls.name, cls.run)))
        solve = self._solve(builder.solve_milp_arrays)
        patches.append((builder, "solve_milp_arrays", solve))
        patches.append((lp, "solve_milp_arrays", solve))
        patches.append((scipy.optimize, "milp", self._milp(scipy.optimize.milp)))
        patches.append(
            (builder.ModelBuilder, "build", self._build(builder.ModelBuilder.build))
        )
        for method in ("measure", "measure_safe"):
            original = getattr(ParallelDispatcher, method)
            patches.append((ParallelDispatcher, method, self._measure(original)))

        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- report --------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Every characterize-side per-layer number, zero where untouched."""
        report: Dict[str, float] = {}
        for stage in STAGES:
            report[f"pipeline.{stage}_s"] = self.seconds[f"pipeline.{stage}_s"]
        for model in SOLVE_MODELS:
            report[f"solvers.{model}.solve_s"] = self.seconds[
                f"solvers.{model}.solve_s"
            ]
        report["solvers.build_s"] = self.seconds["solvers.build_s"]
        report["solvers.backend_solves"] = self.counts["solvers.backend_solves"]
        report["solvers.mip_nodes"] = self.counts["solvers.mip_nodes"]
        report["measure.kernels"] = self.counts["measure.kernels"]
        report["measure.busy_s"] = self.seconds["measure.busy_s"]
        return report
