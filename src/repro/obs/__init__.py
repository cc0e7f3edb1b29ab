"""repro.obs - zero-dependency observability for the watchdog pipeline.

Five small, composable pieces (see DESIGN.md §7):

- :mod:`repro.obs.metrics`   - process-local counters / gauges /
  histograms with JSON snapshot, merge, and diff
- :mod:`repro.obs.tracing`   - wall-clock spans to JSONL, Chrome
  ``trace_event`` export, per-kind percentile summaries
- :mod:`repro.obs.log`       - structured (optionally JSON) logging
- :mod:`repro.obs.heartbeat` - atomic heartbeat file so the running
  ``repro service`` is inspectable from outside the process
- :mod:`repro.obs.flight`    - simulation-time flight recorder:
  grid-sampled per-connection CCA state and queue telemetry, plus the
  per-trial diagnosis summaries the service site publishes

Every hook either stays off the simulator's per-packet path entirely
(metrics/tracing/log/heartbeat read counters after a trial and time
*wall* regions) or - for the flight recorder - performs pure reads at
existing event boundaries without scheduling anything, so enabling any
of it cannot perturb simulation output (`tests/test_obs.py` and
`tests/test_flight.py` prove this against the golden-identity fixture).
"""

from .flight import (  # noqa: F401
    DIAGNOSIS_SCHEMA_VERSION,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    diagnose,
    explain_unfairness,
)
from .heartbeat import (  # noqa: F401
    HEARTBEAT_SCHEMA_VERSION,
    Heartbeat,
    HeartbeatError,
    HeartbeatWriter,
)
from .log import configure as configure_logging  # noqa: F401
from .log import get_logger  # noqa: F401
from .metrics import (  # noqa: F401
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    get_registry,
    merge_snapshots,
    reset_registry,
)
from .tracing import (  # noqa: F401
    TRACE_SCHEMA_VERSION,
    Tracer,
    configure as configure_tracing,
    disable as disable_tracing,
    get_tracer,
    read_spans,
    span,
    summarize,
    to_chrome_trace,
)
