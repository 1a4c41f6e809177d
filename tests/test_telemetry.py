"""The telemetry layer: tracer, warehouse, queries, stats CLI.

Four contracts are pinned down here:

1. **Off means off** — with no session active, every hook degrades to a
   shared no-op object and nothing is recorded anywhere.
2. **Observational only** — a telemetry-on characterization produces a
   bitwise-identical mapping and identical deterministic counters to a
   telemetry-off run (the differential test).
3. **Never block the hot path** — a full writer queue drops (and counts)
   records; a broken warehouse path surfaces only at session close.
4. **The warehouse answers the canned questions** — stage wall clocks,
   serving percentiles, solver rates and cluster events all come back
   non-empty from real or synthetic runs.

The stats-merge edge cases (empty / partial snapshots, the SolveStats
max-vs-additive split) ride along, as does the republish-watcher fault
drill: a corrupted sync is logged, counted in ``ServingStats`` and does
not kill the watcher.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import time

import pytest

from repro import PortModelBackend, build_toy_machine
from repro.artifacts import ArtifactRegistry
from repro.cluster import ClusterNode, Failpoints, corrupt
from repro.palmed import Palmed, PalmedConfig
from repro.serving.stats import ServingStats
from repro.solvers.stats import SolveStats
from repro.telemetry import TRACER, TelemetryWriter, Warehouse, telemetry_session
from repro.telemetry.queries import (
    _weighted_percentiles,
    cluster_events,
    serving_latency,
    solver_rates,
    stage_wall_clocks,
)
from repro.telemetry.tracer import _NULL_SPAN, Tracer

from test_serving import make_artifact


class _ListSink:
    """An in-memory sink capturing what a tracer emits."""

    def __init__(self):
        self.spans = []
        self.metrics = []

    def emit_span(self, name, span_id, parent_id, start_s, duration_s, attrs):
        self.spans.append((name, span_id, parent_id, duration_s, dict(attrs)))

    def emit_metric(self, name, t_s, value, labels):
        self.metrics.append((name, value, dict(labels)))


class TestTracer:
    def test_disabled_tracer_returns_the_shared_null_span(self):
        tracer = Tracer()
        assert tracer.span("anything", key=1) is _NULL_SPAN
        assert tracer.span("other") is _NULL_SPAN
        with tracer.span("nested") as span:
            span.set(ignored=True)  # no-op, no error
        tracer.metric("some.metric", 1.0, label="x")  # no sink: no-op

    def test_global_tracer_starts_disabled(self):
        assert TRACER.enabled is False
        assert TRACER.span("x") is _NULL_SPAN

    def test_spans_nest_and_record_parents(self):
        tracer, sink = Tracer(), _ListSink()
        assert tracer.activate(sink)
        with tracer.span("outer", stage="a"):
            with tracer.span("inner") as inner:
                inner.set(rows=3)
        tracer.deactivate()
        # Children finish (and emit) before their parents.
        assert [name for name, *_ in sink.spans] == ["inner", "outer"]
        inner_record, outer_record = sink.spans
        assert outer_record[2] is None  # outer has no parent
        assert inner_record[2] == outer_record[1]  # inner's parent is outer
        assert inner_record[4] == {"rows": 3}
        assert outer_record[4] == {"stage": "a"}

    def test_exception_marks_the_span_and_propagates(self):
        tracer, sink = Tracer(), _ListSink()
        tracer.activate(sink)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        tracer.deactivate()
        (name, _, _, _, attrs), = sink.spans
        assert name == "doomed"
        assert attrs["error"] == "ValueError"

    def test_second_activation_loses(self):
        tracer = Tracer()
        first, second = _ListSink(), _ListSink()
        assert tracer.activate(first) is True
        assert tracer.activate(second) is False
        tracer.metric("m", 1.0)
        assert first.metrics and not second.metrics
        tracer.deactivate()
        tracer.deactivate()  # idempotent
        assert tracer.enabled is False

    def test_metrics_flow_to_the_sink(self):
        tracer, sink = Tracer(), _ListSink()
        tracer.activate(sink)
        tracer.metric("serving.flush", 2.5, lane="skl", kernels=4)
        tracer.deactivate()
        assert sink.metrics == [("serving.flush", 2.5, {"lane": "skl", "kernels": 4})]


class TestWriterAndSession:
    def test_session_round_trips_spans_and_metrics(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        with telemetry_session(db, kind="unit", machine_name="toy") as writer:
            assert writer is not None
            assert TRACER.enabled
            with TRACER.span("stage:alpha") as span:
                with TRACER.span("measure.batch", kernels=7):
                    pass
                span.set(status="ran")
            TRACER.metric("solver.solves", 12, model="LP2")
        assert TRACER.enabled is False

        connection = sqlite3.connect(db)
        runs = connection.execute(
            "SELECT kind, machine_name, finished_at, dropped FROM runs"
        ).fetchall()
        assert runs == [("unit", "toy", runs[0][2], 0)]
        assert runs[0][2] is not None  # close() stamped the finish
        spans = connection.execute(
            "SELECT name, parent_id, attrs FROM spans ORDER BY span_id"
        ).fetchall()
        assert [name for name, *_ in spans] == ["stage:alpha", "measure.batch"]
        assert spans[0][1] is None and spans[1][1] is not None
        assert json.loads(spans[0][2]) == {"status": "ran"}
        metrics = connection.execute(
            "SELECT name, value, labels FROM metrics"
        ).fetchall()
        assert metrics == [("solver.solves", 12.0, '{"model": "LP2"}')]
        connection.close()

    def test_none_path_is_a_no_op_session(self, tmp_path):
        with telemetry_session(None, kind="unit") as writer:
            assert writer is None
            assert TRACER.enabled is False

    def test_inner_session_yields_none_outer_keeps_recording(self, tmp_path):
        outer_db, inner_db = tmp_path / "outer.sqlite", tmp_path / "inner.sqlite"
        with telemetry_session(outer_db, kind="serve") as outer:
            with telemetry_session(inner_db, kind="characterize") as inner:
                assert inner is None
                with TRACER.span("stage:solo"):
                    pass
            # The inner exit must not have torn the outer session down.
            assert TRACER.enabled
            assert outer is not None
        outer_rows = sqlite3.connect(outer_db).execute(
            "SELECT COUNT(*) FROM spans"
        ).fetchone()
        inner_rows = sqlite3.connect(inner_db).execute(
            "SELECT COUNT(*) FROM spans"
        ).fetchone()
        assert outer_rows == (1,)  # recorded once, by the outer writer
        assert inner_rows == (0,)

    def test_full_queue_drops_and_counts_instead_of_blocking(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "wh.sqlite", "unit", queue_capacity=2)
        writer.close()  # writer thread gone: nothing drains the queue
        for index in range(5):
            writer.emit_metric("m", float(index), float(index), {})
        assert writer.dropped == 3  # 2 queued, 3 dropped — and no blocking

    def test_unwritable_warehouse_surfaces_at_close_not_in_hot_path(self, tmp_path):
        # A directory is not a valid sqlite file: the writer thread fails,
        # but emits stay non-blocking and the error waits for close().
        writer = TelemetryWriter(tmp_path, "unit")
        for index in range(100):
            writer.emit_metric("m", float(index), 1.0, {})
        with pytest.raises(sqlite3.OperationalError):
            writer.close()


class TestQueries:
    def test_weighted_percentiles(self):
        # 99 kernels at 1 ms, one 512-kernel flush at 9 ms: the big flush
        # dominates the upper quantiles.
        samples = [(1.0, 99.0), (9.0, 512.0)]
        p50, p95, p99 = _weighted_percentiles(samples, (50.0, 95.0, 99.0))
        assert (p50, p95, p99) == (9.0, 9.0, 9.0)
        flat = [(float(value), 1.0) for value in range(1, 101)]
        assert _weighted_percentiles(flat, (50.0,)) == [50.0]
        assert _weighted_percentiles(flat, (100.0,)) == [100.0]

    def test_canned_queries_over_a_synthetic_run(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        with telemetry_session(db, kind="unit", machine_name="toy"):
            with TRACER.span("stage:quadratic"):
                time.sleep(0.01)
            with TRACER.span("stage:finalize"):
                pass
            TRACER.metric("serving.flush", 1.0, kernels=99, failed=0)
            TRACER.metric("serving.flush", 9.0, kernels=512, failed=2)
            TRACER.metric("solver.solves", 10)
            TRACER.metric("solver.model_builds", 4)
            TRACER.metric("cluster.failover", 1, node="n1")
            TRACER.metric("cluster.sync_failure", 1, node="n2")
        with Warehouse(db) as warehouse:
            columns, stages = stage_wall_clocks(warehouse)
            assert columns[2:] == ["stage", "executions", "wall_s", "mean_s"]
            assert [row[2] for row in stages] == ["quadratic", "finalize"]
            assert stages[0][4] >= 0.01

            columns, latency = serving_latency(warehouse)
            (row,) = latency
            by_column = dict(zip(columns, row))
            assert by_column["flushes"] == 2
            assert by_column["kernels"] == 611
            assert by_column["p50_ms"] == 9.0  # occupancy-weighted
            assert by_column["max_ms"] == 9.0
            assert by_column["failed"] == 2

            columns, solver = solver_rates(warehouse)
            (row,) = solver
            by_column = dict(zip(columns, row))
            assert columns == ["run_id", "solves", "model_builds", "lp_time_s"]
            assert by_column["solves"] == 10
            assert by_column["model_builds"] == 4

            columns, cluster = cluster_events(warehouse)
            (row,) = cluster
            by_column = dict(zip(columns, row))
            assert by_column["failovers"] == 1
            assert by_column["sync_failures"] == 1


def _characterize(tmp_path, label, telemetry):
    machine = build_toy_machine()
    backend = PortModelBackend(machine)
    config = dataclasses.replace(
        PalmedConfig().for_fast_tests(), telemetry=telemetry
    )
    registry = ArtifactRegistry(tmp_path / label)
    return Palmed(
        backend, machine.benchmarkable_instructions(), config, registry=registry
    ).run()


class TestDifferential:
    """Telemetry is observational: on vs off changes no output bit."""

    def test_characterization_is_bitwise_identical_on_vs_off(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        traced = _characterize(tmp_path, "on", telemetry=str(db))
        plain = _characterize(tmp_path, "off", telemetry=None)
        assert traced.mapping.to_json() == plain.mapping.to_json()
        assert (
            traced.stats.deterministic_dict() == plain.stats.deterministic_dict()
        )
        # ... and the traced run actually recorded something queryable.
        with Warehouse(db) as warehouse:
            _, runs = warehouse.query(
                "SELECT kind, machine_name, finished_at FROM runs"
            )
            assert runs and runs[0][0] == "characterize"
            assert runs[0][2] is not None
            _, stages = stage_wall_clocks(warehouse)
            assert len(stages) >= 3
            _, solver = solver_rates(warehouse)
            assert solver and solver[0][1] > 0  # solves counted

    def test_config_telemetry_never_invalidates_checkpoints(self):
        from repro.pipeline import palmed_stages

        config_off = PalmedConfig().for_fast_tests()
        config_on = dataclasses.replace(config_off, telemetry="/tmp/wh.sqlite")
        for stage in palmed_stages():
            assert "telemetry" not in stage.config_fields
            assert config_on.config_hash(stage.config_fields) == (
                config_off.config_hash(stage.config_fields)
            ), stage.name


class TestStatsMergeEdgeCases:
    """Satellite: merge semantics under empty / partial inputs."""

    def test_merge_snapshot_of_empty_dict_changes_nothing(self):
        stats = ServingStats()
        stats.record_admitted("fp", count=2, pending=5)
        stats.record_sync_failure()
        before = stats.snapshot()
        stats.merge_snapshot({})
        assert stats.snapshot() == before

    def test_merge_snapshot_partial_wire_dict(self):
        # A truncated snapshot (an old node, or a hand-built dict) merges
        # what it has; missing keys default to zero contribution.
        stats = ServingStats()
        stats.merge_snapshot(
            {
                "requests_admitted": 3,
                "latency_max_ms": 250.0,
                "replica_sync_failures": 2,
            }
        )
        snap = stats.snapshot()
        assert snap["requests_admitted"] == 3
        assert snap["latency_max_ms"] == pytest.approx(250.0)
        assert snap["replica_sync_failures"] == 2
        assert snap["requests_refused"] == 0
        assert snap["requests_by_fingerprint"] == {}

    def test_sync_failures_merge_additively_not_as_watermarks(self):
        assert "replica_sync_failures" not in ServingStats.WATERMARK_FIELDS
        left, right = ServingStats(), ServingStats()
        for _ in range(2):
            left.record_sync_failure()
        for _ in range(3):
            right.record_sync_failure()
        merged = left.merge(right).snapshot()
        assert merged["replica_sync_failures"] == 5
        # And across the wire path too.
        wire = ServingStats()
        wire.merge_snapshot(merged)
        wire.merge_snapshot(merged)
        assert wire.snapshot()["replica_sync_failures"] == 10

    def test_solve_stats_merge_with_empty_record_is_identity(self):
        record = SolveStats(
            model_builds=2, solves=5, rebinds=3, worst_mip_gap=0.01,
            build_time=0.5, solve_time=1.5,
        )
        before = dataclasses.asdict(record)
        record.merge(SolveStats())
        assert dataclasses.asdict(record) == before
        # Identity also holds the other way around.
        empty = SolveStats()
        empty.merge(record)
        assert dataclasses.asdict(empty) == before

    def test_solve_stats_additive_vs_max_split(self):
        left = SolveStats(
            solves=5, rebinds=2, limit_solves=1, worst_mip_gap=0.02,
            solve_time=1.0,
        )
        right = SolveStats(
            solves=3, rebinds=1, limit_solves=2, worst_mip_gap=0.05,
            solve_time=0.5,
        )
        left.merge(right)
        assert left.solves == 8
        assert left.rebinds == 3
        assert left.limit_solves == 3
        assert left.solve_time == pytest.approx(1.5)
        # The gap is a bound: it takes the max, never the sum.
        assert left.worst_mip_gap == 0.05


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestWatcherSurvivesSyncFailures:
    """Satellite: a corrupted republish sync is loud but survivable."""

    def test_failed_sync_is_counted_logged_and_recovered_from(
        self, tmp_path, toy_machine, caplog
    ):
        source = tmp_path / "source"
        registry = ArtifactRegistry(source)
        registry.save(make_artifact(toy_machine))
        name = next(source.glob("mapping-*.json")).name

        failpoints = Failpoints()
        node = ClusterNode(
            "n0",
            source,
            tmp_path / "replica",
            republish_poll_s=0.05,
            failpoints=failpoints,
        )
        with caplog.at_level("WARNING", logger="repro.cluster.node"), node:
            # Publish v2 but corrupt exactly one sync of it: the watcher's
            # next poll fails, the one after repairs the replica.
            registry.save(make_artifact(toy_machine, include_front_end=False))
            failpoints.arm(("sync.copy", name), corrupt(offset=40), times=1)
            service = node.service
            assert _wait_until(
                lambda: service.stats.snapshot()["replica_sync_failures"] >= 1
            ), "watcher never recorded the failed sync"
            assert _wait_until(lambda: node.last_sync_error is None), (
                "watcher never recovered after the failpoint was spent"
            )
            assert failpoints.hits(("sync.copy", name)) == 1
            # The watcher survived, and the next clean poll repaired the
            # replica byte-for-byte (v2 installed despite the corruption).
            assert node._watcher_thread.is_alive()
            assert _wait_until(
                lambda: (tmp_path / "replica" / name).read_bytes()
                == (source / name).read_bytes()
            ), "recovered sync never repaired the replica"
        snap = service.stats.snapshot()
        assert snap["replica_sync_failures"] >= 1
        assert any(
            "replica sync" in record.getMessage() for record in caplog.records
        )


class TestStatsCli:
    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_reports_and_sql_and_json(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        with telemetry_session(db, kind="unit", machine_name="toy"):
            with TRACER.span("stage:quadratic"):
                pass
            TRACER.metric("serving.flush", 2.0, kernels=3, failed=0)
        assert self._main("stats", "--db", str(db), "runs") == 0
        output = capsys.readouterr().out
        assert "unit" in output and "(1 row)" in output

        assert self._main("stats", "--db", str(db), "stages") == 0
        assert "quadratic" in capsys.readouterr().out

        assert self._main("stats", "--db", str(db), "serving", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["flushes"] == 1 and row["kernels"] == 3

        assert (
            self._main(
                "stats", "--db", str(db), "--sql",
                "SELECT COUNT(*) AS spans FROM spans",
            )
            == 0
        )
        assert "1" in capsys.readouterr().out

    def test_no_report_requested_is_an_error(self, tmp_path, capsys):
        assert self._main("stats", "--db", str(tmp_path / "wh.sqlite")) == 2
        assert "report" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "db_name, argv",
        [
            pytest.param("wh.sqlite", ["--sql", "SELEC 1"], id="bad-sql"),
            pytest.param("no-such-dir/wh.sqlite", ["runs"], id="unopenable-db"),
        ],
    )
    def test_bad_query_or_unopenable_db_is_an_error(
        self, tmp_path, capsys, db_name, argv
    ):
        # The bad query runs against a real warehouse, so it fails on the
        # SQL and not on opening the file.
        with telemetry_session(tmp_path / "wh.sqlite", kind="unit"):
            pass
        assert self._main("stats", "--db", str(tmp_path / db_name), *argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_warehouse_is_an_error_and_not_created(self, tmp_path, capsys):
        typo = tmp_path / "typo.sqlite"
        assert self._main("stats", "--db", str(typo), "runs") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not typo.exists()

    def test_sqlite_file_that_is_no_warehouse_is_refused_untouched(
        self, tmp_path, capsys
    ):
        other = tmp_path / "other.sqlite"
        connection = sqlite3.connect(str(other))
        connection.execute("CREATE TABLE notes (body TEXT)")
        connection.commit()
        connection.close()
        assert self._main("stats", "--db", str(other), "runs") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "not a telemetry warehouse" in captured.err
        assert captured.out == ""
        connection = sqlite3.connect(str(other))
        tables = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
        connection.close()
        assert tables == [("notes",)]

    def test_writing_sql_is_refused_and_changes_nothing(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        with telemetry_session(db, kind="unit"):
            pass
        argv = ["stats", "--db", str(db), "--sql", "DELETE FROM runs"]
        assert self._main(*argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with Warehouse(db) as warehouse:
            _, rows = warehouse.query("SELECT COUNT(*) FROM runs")
        assert rows == [(1,)]

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["bench"], id="bench"),
            pytest.param(["--ingest", "results"], id="ingest"),
            pytest.param(["runs", "--like", "%speedup%"], id="like"),
        ],
    )
    def test_bench_report_and_ingestion_flags_refused(self, tmp_path, argv):
        with pytest.raises(SystemExit) as refused:
            self._main("stats", "--db", str(tmp_path / "wh.sqlite"), *argv)
        assert refused.value.code == 2

    def test_table_the_schema_no_longer_declares_stays_readable(
        self, tmp_path, capsys
    ):
        # A warehouse written by an older version may hold tables this one
        # never creates: it still opens, and --sql still reads them.
        db = tmp_path / "wh.sqlite"
        with telemetry_session(db, kind="unit"):
            pass
        connection = sqlite3.connect(str(db))
        connection.execute(
            "CREATE TABLE retired_records (source TEXT, metric TEXT, value REAL)"
        )
        connection.execute(
            "INSERT INTO retired_records VALUES ('old.json', 'speedup', 4.0)"
        )
        connection.commit()
        connection.close()
        assert self._main("stats", "--db", str(db), "runs") == 0
        assert "(1 row)" in capsys.readouterr().out
        assert (
            self._main(
                "stats", "--db", str(db), "--json",
                "--sql", "SELECT metric, value FROM retired_records",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [["speedup", 4.0]]
