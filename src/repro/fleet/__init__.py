"""Fleet control plane: versioned model registry + multi-tenant serving.

The deployment story of the VITAL reproduction at campus scale — many
buildings, many device groups, models retrained as fingerprints drift —
split into two layers:

* :class:`ModelRegistry` (:mod:`repro.fleet.registry`) — a
  content-addressed, versioned on-disk store of inference snapshots.
  ``publish`` accepts anything :func:`repro.infer.restore_session`
  restores (float32 and quantized snapshots are equally first-class),
  records a manifest (geometry, quantization scheme, caller metadata,
  byte size) and guards every load with a SHA-256 integrity check.
* :class:`FleetServer` (:mod:`repro.fleet.server`) — the multi-tenant
  router over the sharded worker pool of
  :class:`repro.serve.LocalizationServer`: requests carry a model id,
  every worker holds all deployed sessions, ``swap`` rolls a model to a
  new registry version under live traffic with zero lost requests, and
  ``start_canary`` routes a fraction to a candidate and auto-promotes or
  auto-rolls-back on error-rate/p95 evidence (:class:`CanaryPolicy`).
* :mod:`repro.fleet.bench` — the hot-swap / canary drills recorded as
  the ``fleet`` section of ``BENCH_serving.json`` (see
  :mod:`repro.bench`).
"""

from repro.fleet.bench import (
    corrupt_snapshot,
    format_fleet_summary,
    run_fleet_benchmark,
)
from repro.fleet.registry import (
    MANIFEST_SCHEMA,
    IntegrityError,
    ModelRegistry,
    RegistryEntry,
    RegistryError,
    read_snapshot_file,
)
from repro.fleet.server import CanaryPolicy, FleetServer

__all__ = [
    "ModelRegistry",
    "RegistryEntry",
    "RegistryError",
    "IntegrityError",
    "MANIFEST_SCHEMA",
    "read_snapshot_file",
    "FleetServer",
    "CanaryPolicy",
    "run_fleet_benchmark",
    "corrupt_snapshot",
    "format_fleet_summary",
]
