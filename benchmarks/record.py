"""Provenance stamping for machine-readable benchmark records.

A performance record is meaningless without knowing *where* it was
measured.  :func:`stamp` fills in:

* ``host_cpus`` — ``os.cpu_count()`` of the measuring host;
* ``hostname`` — ``socket.gethostname()``;
* ``recorded_at`` — an ISO-8601 UTC timestamp.

perfbench stamps every run record it writes to ``.perfbench_records/``
through here.  A payload that already carries one of the stamp keys
keeps its own value.  The module imports only the standard library, so
stamping a record pulls in neither pytest nor ``repro``.
"""

from __future__ import annotations

import os
import socket
from datetime import datetime, timezone


def stamp(payload: dict) -> dict:
    """Return a copy of ``payload`` with the provenance fields filled in."""
    stamped = dict(payload)
    stamped.setdefault("host_cpus", os.cpu_count() or 1)
    stamped.setdefault("hostname", socket.gethostname())
    stamped.setdefault(
        "recorded_at",
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    return stamped
