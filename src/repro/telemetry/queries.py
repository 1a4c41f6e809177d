"""Canned warehouse queries behind ``python -m repro stats``.

Each query takes an open :class:`~repro.telemetry.warehouse.Warehouse`
and returns ``(column names, rows)`` — the same shape as
:meth:`Warehouse.query` — so the CLI renders every report through one
table/JSON path.  Anything not canned here is reachable with
``repro stats --sql``.

The serving percentiles are computed in Python from the per-flush
``serving.flush`` metric stream (one sample per micro-batch: the batch's
mean per-kernel latency in ms, with the batch occupancy in the labels),
weighted by occupancy so a 512-kernel flush counts 512× a singleton.
This keeps the warehouse schema free of any sqlite extension (json1)
requirement.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

QueryResult = Tuple[List[str], List[Tuple]]


def list_runs(warehouse) -> QueryResult:
    """Every recorded run, newest first, with span/metric volume."""
    return warehouse.query(
        """
        SELECT r.run_id, r.kind, r.started_at, r.finished_at,
               r.hostname, r.host_cpus, r.machine_name, r.dropped,
               (SELECT COUNT(*) FROM spans s WHERE s.run_id = r.run_id)
                   AS spans,
               (SELECT COUNT(*) FROM metrics m WHERE m.run_id = r.run_id)
                   AS metrics
        FROM runs r
        ORDER BY r.started_at DESC, r.run_id DESC
        """
    )


def stage_wall_clocks(warehouse) -> QueryResult:
    """Per-stage wall clocks across characterize runs (paper Table II)."""
    return warehouse.query(
        """
        SELECT r.run_id, r.machine_name,
               SUBSTR(s.name, 7) AS stage,
               COUNT(*)          AS executions,
               ROUND(SUM(s.duration_s), 6) AS wall_s,
               ROUND(AVG(s.duration_s), 6) AS mean_s
        FROM spans s JOIN runs r ON r.run_id = s.run_id
        WHERE s.name LIKE 'stage:%'
        GROUP BY r.run_id, r.machine_name, stage
        ORDER BY r.started_at, r.run_id, MIN(s.start_s)
        """
    )


def _weighted_percentiles(
    samples: List[Tuple[float, float]], points: Sequence[float]
) -> List[float]:
    """Percentiles of ``(value, weight)`` samples at each point in [0, 100]."""
    ordered = sorted(samples)
    total = sum(weight for _, weight in ordered)
    results = []
    for point in points:
        target = total * (point / 100.0)
        cumulative = 0.0
        chosen = ordered[-1][0]
        for value, weight in ordered:
            cumulative += weight
            if cumulative >= target:
                chosen = value
                break
        results.append(chosen)
    return results


def serving_latency(warehouse) -> QueryResult:
    """Per-run serving latency percentiles and flush occupancy.

    One input sample per micro-batch flush; percentiles are weighted by
    batch occupancy (kernels per flush), so they approximate per-kernel
    latency quantiles without shipping every request through telemetry.
    """
    _, rows = warehouse.query(
        "SELECT run_id, value, labels FROM metrics WHERE name = 'serving.flush'"
    )
    per_run: Dict[str, List[Tuple[float, float]]] = {}
    failures: Dict[str, int] = {}
    for run_id, value, labels_json in rows:
        labels = json.loads(labels_json)
        weight = float(labels.get("kernels", 1) or 1)
        per_run.setdefault(run_id, []).append((float(value), weight))
        failures[run_id] = failures.get(run_id, 0) + int(labels.get("failed", 0))
    columns = [
        "run_id", "flushes", "kernels", "mean_occupancy",
        "p50_ms", "p95_ms", "p99_ms", "max_ms", "failed",
    ]
    out: List[Tuple] = []
    for run_id in sorted(per_run):
        samples = per_run[run_id]
        kernels = sum(weight for _, weight in samples)
        p50, p95, p99 = _weighted_percentiles(samples, (50.0, 95.0, 99.0))
        out.append(
            (
                run_id,
                len(samples),
                int(kernels),
                round(kernels / len(samples), 2),
                round(p50, 4),
                round(p95, 4),
                round(p99, 4),
                round(max(value for value, _ in samples), 4),
                failures.get(run_id, 0),
            )
        )
    return columns, out


def solver_rates(warehouse) -> QueryResult:
    """Solver volume per run: solves, model builds and LP time.

    Reads the end-of-run ``solver.*`` summary metrics that
    ``Palmed.run`` emits from its deterministic counters.
    """
    _, rows = warehouse.query(
        """
        SELECT run_id, name, value FROM metrics
        WHERE name IN ('solver.solves', 'solver.model_builds',
                       'solver.lp_time_s')
        """
    )
    per_run: Dict[str, Dict[str, float]] = {}
    for run_id, name, value in rows:
        per_run.setdefault(run_id, {})[name] = value
    columns = ["run_id", "solves", "model_builds", "lp_time_s"]
    out: List[Tuple] = []
    for run_id in sorted(per_run):
        values = per_run[run_id]
        out.append(
            (
                run_id,
                int(values.get("solver.solves", 0.0)),
                int(values.get("solver.model_builds", 0.0)),
                round(values.get("solver.lp_time_s", 0.0), 6),
            )
        )
    return columns, out


def cluster_events(warehouse) -> QueryResult:
    """Failover / retry / node-failure / sync-failure counts per run."""
    return warehouse.query(
        """
        SELECT run_id,
               SUM(CASE WHEN name = 'cluster.failover' THEN value END)
                   AS failovers,
               SUM(CASE WHEN name = 'cluster.retry' THEN value END)
                   AS retries,
               SUM(CASE WHEN name = 'cluster.node_failure' THEN value END)
                   AS node_failures,
               SUM(CASE WHEN name = 'cluster.sync_failure' THEN value END)
                   AS sync_failures,
               SUM(CASE WHEN name = 'cluster.sync_s' THEN 1 END)
                   AS syncs
        FROM metrics
        WHERE name LIKE 'cluster.%'
        GROUP BY run_id
        ORDER BY run_id
        """
    )


#: name -> (runner, help line) — the ``repro stats`` report registry.
CANNED = {
    "runs": (list_runs, "all recorded runs with span/metric volume"),
    "stages": (stage_wall_clocks, "per-stage wall clocks across runs"),
    "serving": (
        serving_latency,
        "serving latency percentiles (p50/p95/p99) + flush occupancy",
    ),
    "solver": (solver_rates, "solver volume: solves, model builds, LP time"),
    "cluster": (cluster_events, "cluster failover/retry/sync-failure counts"),
}
