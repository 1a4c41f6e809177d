"""``stats``: query the telemetry warehouse (canned reports + raw SQL).

The read side of :mod:`repro.telemetry`: point it at the sqlite file a
``--telemetry`` run produced and ask questions —

* ``python -m repro stats --db palmed.sqlite runs`` — every recorded run;
* ``... stats --db palmed.sqlite stages`` — per-stage wall clocks across
  characterize runs (the paper's Table II attribution, as a query);
* ``... stats --db palmed.sqlite serving`` — occupancy-weighted serving
  latency percentiles (p50/p95/p99) and flush occupancy per run;
* ``... stats --db palmed.sqlite solver`` — solver volume (solves,
  model builds, LP time) per run;
* ``... stats --db palmed.sqlite cluster`` — failover / retry /
  sync-failure counts;
* ``... stats --db palmed.sqlite --sql 'SELECT ...'`` — anything else.

Output is a text table by default, one JSON object with
``columns``/``rows`` under ``--json``.  The warehouse is opened
read-only: a file that cannot be opened or holds no warehouse, and a
query sqlite rejects (a write included), are reported as ``error: ...``
with exit 2, like any other bad command-line input.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from typing import List, Sequence, Tuple


def format_table(columns: Sequence[str], rows: Sequence[Tuple]) -> str:
    """Render a query result as an aligned text table."""
    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    table: List[List[str]] = [[str(c) for c in columns]]
    table.extend([cell(value) for value in row] for row in rows)
    widths = [
        max(len(row[i]) for row in table) for i in range(len(columns))
    ]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


def run_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import Warehouse
    from repro.telemetry.queries import CANNED

    if args.report is None and args.sql is None:
        print(
            "error: pick a report (" + ", ".join(sorted(CANNED)) + ") "
            "or --sql QUERY",
            file=sys.stderr,
        )
        return 2

    try:
        with Warehouse(args.db) as warehouse:
            if args.sql is not None:
                columns, rows = warehouse.query(args.sql)
            else:
                runner, _ = CANNED[args.report]
                columns, rows = runner(warehouse)
    except sqlite3.Error as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json:
        json.dump({"columns": list(columns), "rows": [list(r) for r in rows]},
                  sys.stdout)
        print()
    else:
        print(format_table(columns, rows))
    return 0


def register(subparsers) -> None:
    """Attach the ``stats`` subcommand."""
    from repro.telemetry.queries import CANNED

    stats = subparsers.add_parser(
        "stats",
        help="query a telemetry warehouse produced by --telemetry runs",
    )
    stats.add_argument(
        "--db",
        metavar="PATH",
        required=True,
        help="the warehouse sqlite file (created by --telemetry runs)",
    )
    stats.add_argument(
        "report",
        nargs="?",
        choices=sorted(CANNED),
        default=None,
        help="canned report: "
        + "; ".join(f"{name} = {help_}" for name, (_, help_) in sorted(CANNED.items())),
    )
    stats.add_argument(
        "--sql",
        metavar="QUERY",
        default=None,
        help="run this SQL instead of a canned report (read-only; "
        "tables: runs, spans, metrics)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit {columns, rows} JSON instead of a text table",
    )
    stats.set_defaults(handler=run_stats)
