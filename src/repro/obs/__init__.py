"""repro.obs — observability spine for the serving stack.

Six pieces, all zero-dependency:

* :mod:`repro.obs.trace` — per-request span tracing (enqueue ->
  batch_form -> shm_write -> worker_recv -> compute -> shm_read ->
  complete) with configurable sampling, a bounded in-memory
  buffer, and JSON / Chrome ``trace_event`` export.
* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram primitives, a
  labeled :class:`MetricsRegistry` with collector support and bounded
  cardinality, JSON snapshot + Prometheus text exporters.
* :mod:`repro.obs.profile` — opt-in per-phase compute profiling inside
  the fused inference engine, so traces can descend into the compute
  span.
* :mod:`repro.obs.timeline` — a background sampler turning registry
  snapshots into bounded per-series ring buffers (counter deltas/rates,
  histogram windowed percentiles), queryable and JSON/JSONL-exportable.
* :mod:`repro.obs.slo` — declarative objectives evaluated over the
  timeline with multi-window burn rates and error-budget accounting.
* :mod:`repro.obs.alerts` — threshold / burn-rate / drift rules with
  ``for``-duration hysteresis and a persisted JSONL event journal;
  :mod:`repro.obs.monitor` composes all of it behind one lifecycle.
"""

from repro.obs.alerts import (EVENT_SCHEMA, AlertEngine, AlertError,
                              BurnRateRule, DriftRule, EventJournal,
                              PageHinkley, RollingMeanShift, ThresholdRule)
from repro.obs.metrics import (METRICS_SCHEMA, Counter, Gauge, Histogram,
                               MetricsError, MetricsRegistry)
from repro.obs.monitor import (MONITOR_SCHEMA, Monitor, default_serving_rules,
                               default_serving_slos)
from repro.obs.profile import (SessionProfiler, attach_profiler,
                               detach_profiler, profile_predict)
from repro.obs.slo import SLO_SCHEMA, Slo, SloEngine, SloError
from repro.obs.timeline import (TIMELINE_SCHEMA, Timeline, TimelineError)
from repro.obs.trace import (SPAN_CHAIN, TRACE_SCHEMA, RequestTrace, Span,
                             Tracer, spans_from_stamps, to_chrome)

__all__ = [
    "EVENT_SCHEMA",
    "METRICS_SCHEMA",
    "MONITOR_SCHEMA",
    "SLO_SCHEMA",
    "SPAN_CHAIN",
    "TIMELINE_SCHEMA",
    "TRACE_SCHEMA",
    "AlertEngine",
    "AlertError",
    "BurnRateRule",
    "Counter",
    "DriftRule",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Monitor",
    "PageHinkley",
    "RequestTrace",
    "RollingMeanShift",
    "SessionProfiler",
    "Slo",
    "SloEngine",
    "SloError",
    "Span",
    "ThresholdRule",
    "Timeline",
    "TimelineError",
    "Tracer",
    "attach_profiler",
    "default_serving_rules",
    "default_serving_slos",
    "detach_profiler",
    "profile_predict",
    "spans_from_stamps",
    "to_chrome",
]
