"""The tool-comparison harness producing the rows of Fig. 4b.

For every basic block of a suite the harness measures the native IPC of the
corresponding microkernel on the machine backend, queries every predictor,
and aggregates the per-tool coverage, weighted RMS error and Kendall's τ —
exactly the three columns reported per (machine, suite, tool) in the paper.

Both sides of the comparison are batched.  Native measurements go through
the batched measurement layer (:mod:`repro.measure`): the whole suite is
measured in one in-process batch, optionally served from a persistent
:class:`~repro.measure.MeasurementCache`, so
re-evaluating suites against a machine that a PALMED run already
characterized costs no re-measurement.  Predictions go through
``predict_batch``: the suite is lowered once to its sparse count matrix
(:class:`~repro.predictors.batch.SuiteMatrix`) and shared by every tool, so
mapping-backed predictors evaluate the whole suite with a few numpy
operations instead of one Python call per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.measure import MeasurementCache, ParallelDispatcher, backend_fingerprint
from repro.predictors.base import Prediction, Predictor
from repro.predictors.batch import SuiteMatrix, predict_batch_serial
from repro.evaluation.metrics import coverage as coverage_metric
from repro.evaluation.metrics import kendall_tau, rms_error
from repro.simulator.backend import MeasurementBackend
from repro.workloads.basic_block import BasicBlock, BenchmarkSuite


@dataclass
class BlockRecord:
    """Native measurement and per-tool predictions for one basic block."""

    block: BasicBlock
    native_ipc: float
    predictions: Dict[str, Prediction] = field(default_factory=dict)

    def ratio(self, tool: str) -> Optional[float]:
        """Predicted/native IPC ratio for one tool (None if unsupported)."""
        prediction = self.predictions.get(tool)
        if prediction is None or prediction.ipc is None or self.native_ipc <= 0:
            return None
        return prediction.ipc / self.native_ipc


@dataclass
class ToolMetrics:
    """Aggregated accuracy of one tool over one suite (a cell group of Fig. 4b)."""

    tool: str
    coverage: float
    rms_error: float
    kendall_tau: float
    num_blocks: int
    num_processed: int

    def as_row(self) -> Dict[str, float]:
        return {
            "coverage_percent": 100.0 * self.coverage,
            "rms_error_percent": 100.0 * self.rms_error,
            "kendall_tau": self.kendall_tau,
        }


@dataclass
class EvaluationResult:
    """All records plus per-tool aggregated metrics for one (machine, suite) pair."""

    machine_name: str
    suite_name: str
    records: List[BlockRecord]
    tools: List[str]

    def metrics(self, tool: str) -> ToolMetrics:
        """Aggregate coverage / error / correlation for one tool."""
        processed_records = [
            record
            for record in self.records
            if record.predictions.get(tool) is not None
            and record.predictions[tool].ipc is not None
        ]
        predicted = [record.predictions[tool].ipc for record in processed_records]
        native = [record.native_ipc for record in processed_records]
        weights = [record.block.weight for record in processed_records]
        if processed_records:
            error = rms_error(predicted, native, weights)
            tau = kendall_tau(predicted, native) if len(processed_records) >= 2 else 0.0
        else:
            error = float("nan")
            tau = float("nan")
        return ToolMetrics(
            tool=tool,
            coverage=coverage_metric(len(processed_records), len(self.records)),
            rms_error=error,
            kendall_tau=tau,
            num_blocks=len(self.records),
            num_processed=len(processed_records),
        )

    def all_metrics(self) -> List[ToolMetrics]:
        return [self.metrics(tool) for tool in self.tools]

    def ratios(self, tool: str) -> List[float]:
        """Predicted/native ratios of every processed block (heatmap input)."""
        values = []
        for record in self.records:
            ratio = record.ratio(tool)
            if ratio is not None:
                values.append(ratio)
        return values


def _native_ipcs(
    backend: MeasurementBackend,
    blocks: List[BasicBlock],
    cache: Optional[MeasurementCache],
) -> List[Optional[float]]:
    """Native IPC of every block (``None`` where unmeasurable), batched.

    Persistent-cache hits skip the backend entirely; everything else is
    measured in one dispatcher call.  Failed kernels (an instruction the
    machine does not implement) are never cached.
    """
    fingerprint = backend_fingerprint(backend) if cache is not None else None
    values: List[Optional[float]] = [None] * len(blocks)
    missing: List[int] = []
    for index, block in enumerate(blocks):
        if fingerprint is not None:
            cached = cache.lookup(fingerprint, block.kernel)
            if cached is not None:
                values[index] = cached
                continue
        missing.append(index)
    measured = ParallelDispatcher().measure_safe(
        backend, [blocks[i].kernel for i in missing]
    )
    for index, value in zip(missing, measured):
        values[index] = value
        if value is not None and fingerprint is not None:
            cache.store(fingerprint, blocks[index].kernel, value)
    if cache is not None:
        cache.save()
    return values


def evaluate_predictors(
    backend: MeasurementBackend,
    suite: BenchmarkSuite,
    predictors: Sequence[Predictor],
    machine_name: str = "",
    cache: Optional[MeasurementCache] = None,
) -> EvaluationResult:
    """Run every predictor on every block of a suite against native execution.

    Blocks whose native IPC cannot be measured (e.g. they contain an
    instruction the machine does not implement) are skipped, mirroring the
    paper's restriction to the blocks its back-end can generate.

    Parameters
    ----------
    cache:
        Optional persistent measurement cache; re-running the harness (or
        running it after a PALMED run that used the same cache and backend)
        then skips every already-measured kernel.
    """
    blocks = list(suite)
    natives = _native_ipcs(backend, blocks, cache)
    records: List[BlockRecord] = [
        BlockRecord(block=block, native_ipc=native_ipc)
        for block, native_ipc in zip(blocks, natives)
        if native_ipc is not None
    ]
    # Lower the measurable blocks once; every predictor serves the whole
    # suite from the same sparse count matrix (bitwise-equal to the scalar
    # per-block loop by the predict_batch contract).
    lowered = SuiteMatrix([record.block.kernel for record in records])
    for predictor in predictors:
        batch = getattr(predictor, "predict_batch", None)
        if batch is None:  # pre-batch third-party predictor
            predictions = predict_batch_serial(predictor, lowered)
        else:
            predictions = batch(lowered)
        if len(predictions) != len(records):
            raise ValueError(
                f"predictor {predictor.name!r} returned {len(predictions)} "
                f"predictions for {len(records)} blocks; predict_batch must "
                f"answer every kernel in input order"
            )
        for record, prediction in zip(records, predictions):
            record.predictions[predictor.name] = prediction
    return EvaluationResult(
        machine_name=machine_name or getattr(getattr(backend, "machine", None), "name", ""),
        suite_name=suite.name,
        records=records,
        tools=[predictor.name for predictor in predictors],
    )
