"""Evaluation harness: the metrics, tables and heatmaps of Section VI.

* :mod:`repro.evaluation.metrics` — weighted root-mean-square IPC error,
  Kendall's τ rank correlation, coverage;
* :mod:`repro.evaluation.harness` — run a set of predictors over a
  benchmark suite against native execution and collect per-tool metrics
  (the rows of Fig. 4b); both sides are batched — native IPCs go through
  the batched/cached measurement layer, predictions through
  ``predict_batch`` over one shared suite lowering;
* :mod:`repro.evaluation.heatmap` — the predicted/native IPC-ratio
  density profiles of Fig. 4a;
* :mod:`repro.evaluation.reporting` — plain-text rendering of the tables.
"""

from repro.evaluation.metrics import coverage, kendall_tau, rms_error
from repro.evaluation.harness import (
    BlockRecord,
    EvaluationResult,
    ToolMetrics,
    evaluate_predictors,
)
from repro.evaluation.heatmap import Heatmap, build_heatmap
from repro.evaluation.reporting import (
    PAPER_FIG4B,
    PAPER_TABLE2,
    format_accuracy_table,
    format_comparison_with_paper,
    format_table2_comparison,
)

__all__ = [
    "BlockRecord",
    "EvaluationResult",
    "Heatmap",
    "PAPER_FIG4B",
    "PAPER_TABLE2",
    "ToolMetrics",
    "build_heatmap",
    "coverage",
    "evaluate_predictors",
    "format_accuracy_table",
    "format_comparison_with_paper",
    "format_table2_comparison",
    "kendall_tau",
    "rms_error",
]
