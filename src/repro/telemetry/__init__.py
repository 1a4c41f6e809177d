"""Zero-dependency tracing + metrics warehouse (the observability tier).

Three pieces:

* :mod:`repro.telemetry.tracer` — the process-global :data:`TRACER`
  emitting hierarchical spans and point metrics from hook points across
  all five runtime tiers; disabled by default, one attribute check per
  hook when off.
* :mod:`repro.telemetry.warehouse` — the sqlite star schema
  (``runs``/``spans``/``metrics``) and its batched bounded-queue writer.
* :mod:`repro.telemetry.queries` — the canned reports behind
  ``python -m repro stats``.

Enable for one run with ``PalmedConfig(telemetry="palmed.sqlite")`` or
``--telemetry palmed.sqlite`` on the CLI; see ``docs/telemetry.md``.
"""

from repro.telemetry.tracer import TRACER, Span, Tracer
from repro.telemetry.warehouse import TelemetryWriter, Warehouse, telemetry_session

__all__ = [
    "TRACER",
    "Span",
    "Tracer",
    "TelemetryWriter",
    "Warehouse",
    "telemetry_session",
]
