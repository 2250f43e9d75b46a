"""Multi-tenant hot-swap serving: the fleet control plane over the shards.

:class:`FleetServer` turns the sharded worker pool of
:class:`repro.serve.LocalizationServer` into a campus-scale router:

* **Multi-tenant** — every deployed model (one per building, device
  group, or precision) lives under a route key ``model_id@vN``; each
  worker process holds all deployed sessions, requests carry a
  ``model_id`` and the dispatcher coalesces per route.  All routes share
  the pool's shared-memory ring segments (:mod:`repro.serve.shm`): a
  batch for any tenant leases ring space on its target shard, and the
  per-route ``transport`` stats split each model's payload bytes by how
  they crossed the worker boundary.
* **Hot swap** — :meth:`swap` loads the new version on every worker,
  atomically flips the routing table (queued requests follow instantly —
  routes resolve at dispatch time), drains the outgoing version's
  in-flight batches, then unloads it.  Zero requests are lost: the old
  version keeps serving until its last batch returns, and crash
  re-dispatch covers both versions throughout.
* **Canary rollout** — :meth:`start_canary` routes a configurable
  fraction of a model's traffic to a candidate version and compares its
  error rate and p95 latency against the incumbent
  (:class:`CanaryPolicy`).  A failing canary is auto-rolled-back, a
  healthy one auto-promoted (same drain-then-unload dance as a swap).
  A batch that errors on a *non-primary* route is retried on the
  incumbent, so a broken canary version never fails a request at the
  client API — the failure is evidence against the canary, not against
  the client.

Zero-lost guarantees survive the shared-memory transport: a worker that
dies while holding ring leases for swap-drain or canary batches is
restarted by the base server, which keeps the parent-owned ring segment
alive, reclaims nothing early, and re-dispatches every leased batch
under the replacement worker's generation — so a drain always completes
and a canary retry never observes a torn payload.
"""

from __future__ import annotations

import threading
import time

from repro.fleet.registry import ModelRegistry, RegistryError
from repro.serve.admission import QosPolicy, load_qos_file, save_qos_file
from repro.serve.server import DEFAULT_MODEL, LocalizationServer, _Batch
from repro.serve.stats import RouteStats


class CanaryPolicy:
    """Promotion/rollback rules for a canary rollout.

    Parameters
    ----------
    fraction:
        Share of the model's traffic routed to the candidate (0, 1).
    min_requests:
        Canary requests that must finish before a promote decision.
    max_failures:
        Hard trip wire — this many failed canary batches roll back
        immediately, before ``min_requests`` accumulate.
    error_tolerance:
        Allowed canary error-rate excess over the incumbent's.
    p95_tolerance:
        Promote only if canary p95 latency ≤ incumbent p95 × this factor
        (skipped when either side has no latency sample yet).
    """

    def __init__(
        self,
        fraction: float = 0.25,
        min_requests: int = 40,
        max_failures: int = 3,
        error_tolerance: float = 0.02,
        p95_tolerance: float = 3.0,
    ):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if min_requests < 1:
            raise ValueError(f"min_requests must be >= 1, got {min_requests}")
        if max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got {max_failures}")
        self.fraction = float(fraction)
        self.min_requests = int(min_requests)
        self.max_failures = int(max_failures)
        self.error_tolerance = float(error_tolerance)
        self.p95_tolerance = float(p95_tolerance)

    def summary(self) -> dict:
        return {
            "fraction": self.fraction,
            "min_requests": self.min_requests,
            "max_failures": self.max_failures,
            "error_tolerance": self.error_tolerance,
            "p95_tolerance": self.p95_tolerance,
        }


class _Canary:
    """Book-keeping of one in-progress rollout."""

    def __init__(self, model: str, key: str, version: int | None,
                 policy: CanaryPolicy):
        self.model = model
        self.key = key
        self.version = version
        self.policy = policy
        self.acc = 0.0  # deterministic fraction accumulator (dispatcher only)
        self.active = True
        self.decision: str | None = None
        self.reason: str | None = None
        self.batch_errors = 0
        self.started = time.perf_counter()
        self.done = threading.Event()

    def status(self) -> dict:
        return {
            "model": self.model,
            "key": self.key,
            "version": self.version,
            "active": self.active,
            "decision": self.decision,
            "reason": self.reason,
            "batch_errors": self.batch_errors,
            "policy": self.policy.summary(),
        }


class FleetServer(LocalizationServer):
    """Serve many registry models from one shard pool, with hot swaps.

    Parameters
    ----------
    registry:
        A :class:`repro.fleet.ModelRegistry` (or a path to one) that
        ``deploy``/``swap``/``start_canary`` resolve versions from; omit
        it to deploy explicit snapshots only.
    qos_path:
        Optional JSON file of persisted per-model
        :class:`~repro.serve.admission.QosPolicy` entries (the ``fleet
        qos`` CLI surface); loaded at construction, written back by
        :meth:`set_qos_policy`.  Policies are keyed by model id, so they
        survive every swap and canary (route keys change, model ids
        don't).
    workers / max_batch / ...:
        Exactly :class:`repro.serve.LocalizationServer` (the pool is
        shared by every deployed model).
    """

    def __init__(self, registry: ModelRegistry | str | None = None,
                 workers: int = 2, max_batch: int = 32,
                 qos_path: str | None = None, **kwargs):
        super().__init__(None, workers=workers, max_batch=max_batch, **kwargs)
        if isinstance(registry, str):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.qos_path = qos_path
        if qos_path:
            for model_id, policy in load_qos_file(qos_path).items():
                self.qos.set_policy(model_id, policy)
        self._deployed: dict[str, dict] = {}  # model id → {key, version}
        self._canaries: dict[str, _Canary] = {}
        self._swap_log: list[dict] = []
        self._canary_log: list[dict] = []
        # Collector (not direct series): canary RouteStats objects are
        # replaced per rollout for a fresh comparison window, so the
        # registry must read through to the live objects at scrape time.
        self.metrics.add_collector(self._collect_fleet_metrics)

    # -- deployment ----------------------------------------------------
    @staticmethod
    def _route_key(model_id: str, version: int | None) -> str:
        return f"{model_id}@v{version}" if version is not None else model_id

    def _resolve_snapshot(self, model_id: str, version: int | None,
                          snapshot: dict | None) -> tuple[dict, int | None]:
        if snapshot is not None:
            return snapshot, version
        if self.registry is None:
            raise RegistryError(
                "no registry attached: pass snapshot= explicitly or build "
                "FleetServer(registry=...)"
            )
        entry = self.registry.get(model_id, version)
        return entry.load_snapshot(), entry.version

    def deploy(self, model_id: str, version: int | None = None,
               snapshot: dict | None = None, timeout: float = 60.0) -> dict:
        """Load ``model_id`` (at ``version``, default pinned/latest) onto
        every worker and start routing its traffic; returns metadata."""
        snapshot, version = self._resolve_snapshot(model_id, version, snapshot)
        key = self._route_key(model_id, version)
        info = self.load_model(key, snapshot, model=model_id, version=version,
                               timeout=timeout)
        with self._lock:
            self.set_route(model_id, key)
            self._deployed[model_id] = {"key": key, "version": version}
        self._journal_event("deploy", model=model_id, version=version,
                            key=key)
        return info

    def deployments(self) -> dict:
        """Currently routed versions: model id → {key, version}."""
        with self._lock:
            return {model: dict(entry) for model, entry in self._deployed.items()}

    # -- QoS policies (admission control) -------------------------------
    def set_qos_policy(self, model_id: str, policy,
                       persist: bool = True) -> QosPolicy:
        """Install ``policy`` (a :class:`QosPolicy` or its dict/shorthand
        form) for ``model_id``'s traffic, persist it to ``qos_path`` when
        configured, and journal the change.  Takes effect on the next
        submit — no restart, and (being model-keyed) no interaction with
        swaps or canaries."""
        if isinstance(policy, str):
            policy = QosPolicy.parse(policy)
        elif not isinstance(policy, QosPolicy):
            policy = QosPolicy.from_dict(policy)
        self.qos.set_policy(model_id, policy)
        if persist and self.qos_path:
            save_qos_file(self.qos_path, self.qos.policies())
        self._journal_event("qos_policy", model=model_id, **policy.to_dict())
        return policy

    def qos_policies(self) -> dict[str, dict]:
        """Installed per-model policies (model id → policy dict)."""
        return {model: policy.to_dict()
                for model, policy in self.qos.policies().items()}

    def _require_deployment(self, model_id: str) -> dict:
        entry = self._deployed.get(model_id)
        if entry is None:
            raise ValueError(
                f"model {model_id!r} is not deployed "
                f"(deployed: {sorted(self._deployed)})"
            )
        return entry

    def _check_compatible(self, model_id: str, incumbent_key: str,
                          candidate_info: dict) -> None:
        """Swap/canary targets must keep the incumbent's geometry — a
        client mid-stream must never see logits change shape."""
        incumbent = self._model_info[incumbent_key]
        for field in ("image_size", "channels", "num_classes"):
            if candidate_info[field] != incumbent[field]:
                raise ValueError(
                    f"cannot roll {model_id!r} to an incompatible geometry: "
                    f"{field} {incumbent[field]} → {candidate_info[field]}"
                )

    # -- hot swap ------------------------------------------------------
    def swap(self, model_id: str, version: int | None = None,
             snapshot: dict | None = None, timeout: float = 60.0) -> dict:
        """Replace ``model_id``'s serving version with zero lost requests.

        Ships the new snapshot to every worker, flips routing atomically
        (in-flight and queued requests on the old version still complete),
        drains the outgoing version and unloads it.  Returns a swap
        report (latency, traffic in flight at the flip)."""
        entry = self._require_deployment(model_id)
        if model_id in self._canaries:
            raise RuntimeError(
                f"model {model_id!r} has an active canary; promote or roll "
                "it back before swapping"
            )
        old_key, old_version = entry["key"], entry["version"]
        snapshot, version = self._resolve_snapshot(model_id, version, snapshot)
        new_key = self._route_key(model_id, version)
        if new_key == old_key:
            raise ValueError(
                f"model {model_id!r} is already serving version {version}"
            )

        start = time.perf_counter()
        from repro.infer.session import snapshot_info

        self._check_compatible(model_id, old_key, snapshot_info(snapshot))
        self.load_model(new_key, snapshot, model=model_id, version=version,
                        timeout=timeout)
        with self._lock:
            in_flight = sum(
                batch.n for batch in self._in_flight.values()
                if batch.key == old_key
            )
            with self._cond:
                queued = sum(r.n for r in self._pending if r.model == model_id)
            self.set_route(model_id, new_key)
            self._deployed[model_id] = {"key": new_key, "version": version}
            swap_latency_s = time.perf_counter() - start
        drained_s = self._drain_key(old_key, timeout=timeout)
        self.unload_model(old_key)
        report = {
            "model": model_id,
            "from_version": old_version,
            "to_version": version,
            "swap_latency_ms": swap_latency_s * 1e3,
            "in_flight_samples_at_flip": in_flight,
            "queued_samples_at_flip": queued,
            "drain_ms": drained_s * 1e3,
        }
        with self._lock:
            self._swap_log.append(report)
        self._journal_event("swap", **report)
        return report

    def _drain_key(self, key: str, timeout: float = 60.0) -> float:
        """Block until no in-flight batch or queued request targets
        ``key``; returns the elapsed drain time."""
        start = time.perf_counter()
        deadline = start + timeout
        while True:
            with self._lock:
                # _staged covers the hand-off window between a request
                # leaving _pending (or an inline submit taking it) and its
                # batch landing in _in_flight — holding both locks here
                # means every live request is visible in one of the three.
                busy = any(b.key == key for b in self._in_flight.values())
                if not busy:
                    with self._cond:
                        busy = any(
                            key in (r.routed_key, r.forced_key)
                            for r in [*self._pending, *self._staged.values()]
                        )
            if not busy:
                return time.perf_counter() - start
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"route {key!r} did not drain within {timeout}s"
                )
            time.sleep(0.002)

    # -- canary rollout ------------------------------------------------
    def start_canary(self, model_id: str, version: int | None = None,
                     snapshot: dict | None = None,
                     policy: CanaryPolicy | None = None,
                     timeout: float = 60.0, **policy_overrides) -> dict:
        """Route a fraction of ``model_id`` traffic to a candidate version.

        The candidate is compared against the incumbent on error rate and
        p95 latency; it is auto-promoted or auto-rolled-back per
        ``policy`` (keyword overrides build one: ``fraction=0.5`` etc.).
        Requests that fail on the candidate are retried on the incumbent
        — no client-visible failures.  Returns the canary status."""
        entry = self._require_deployment(model_id)
        if model_id in self._canaries:
            raise RuntimeError(f"model {model_id!r} already has a canary")
        if policy is None:
            policy = CanaryPolicy(**policy_overrides)
        elif policy_overrides:
            raise ValueError("pass either policy= or keyword overrides, not both")
        snapshot, version = self._resolve_snapshot(model_id, version, snapshot)
        new_key = self._route_key(model_id, version)
        if new_key == entry["key"]:
            raise ValueError(
                f"model {model_id!r} is already serving version {version}"
            )
        from repro.infer.session import snapshot_info

        self._check_compatible(model_id, entry["key"], snapshot_info(snapshot))
        self.load_model(new_key, snapshot, model=model_id, version=version,
                        timeout=timeout)
        canary = _Canary(model_id, new_key, version, policy)
        with self._lock:
            self._route_stats[new_key] = RouteStats()  # fresh comparison window
            self._canaries[model_id] = canary
        self._journal_event("canary_start", model=model_id, version=version,
                            key=new_key, fraction=policy.fraction)
        return canary.status()

    def canary_status(self, model_id: str) -> dict | None:
        """Live status of the model's canary, or None."""
        with self._lock:
            canary = self._canaries.get(model_id)
            return canary.status() if canary else None

    def wait_canary(self, model_id: str, timeout: float = 120.0) -> dict:
        """Block until the model's canary is decided and finalized;
        returns the logged outcome."""
        with self._lock:
            canary = self._canaries.get(model_id)
        if canary is None:
            for event in reversed(self._canary_log):
                if event["model"] == model_id:
                    return event
            raise ValueError(f"model {model_id!r} has no canary")
        if not canary.done.wait(timeout):
            raise TimeoutError(
                f"canary for {model_id!r} undecided after {timeout}s"
            )
        with self._lock:
            for event in reversed(self._canary_log):
                if event["model"] == model_id:
                    return event
        raise RuntimeError(f"canary for {model_id!r} finalized without a log")

    def decide_canary(self, model_id: str, decision: str,
                      reason: str = "manual") -> dict:
        """Force an immediate ``"promote"`` or ``"rollback"``."""
        if decision not in ("promote", "rollback"):
            raise ValueError(f"decision must be promote|rollback, got {decision!r}")
        with self._lock:
            canary = self._canaries.get(model_id)
            if canary is None or not canary.active:
                raise ValueError(f"model {model_id!r} has no active canary")
            self._settle_canary(canary, decision, reason)
        return self.wait_canary(model_id)

    # -- routing / decision hooks (called by the base server) ----------
    def cache_route(self, model: str | None = None) -> str | None:
        """Route key a result cache may file ``model``'s answers under —
        ``None`` while the model has an active canary.  During a rollout a
        fraction of traffic must actually reach the candidate to gather
        promotion evidence; a result cache replaying incumbent answers
        would starve it, so the gateway skips caching until the canary
        settles (the journal's ``canary`` event then invalidates)."""
        model = model if model is not None else DEFAULT_MODEL
        with self._lock:
            canary = self._canaries.get(model)
            if canary is not None and canary.active:
                return None
            return self._routes.get(model)

    def _resolve_route(self, model: str) -> str:
        # Called under _cond (see _route_for), which guards the fraction
        # accumulator.
        canary = self._canaries.get(model)
        if canary is not None and canary.active:
            canary.acc += canary.policy.fraction
            if canary.acc >= 1.0:
                canary.acc -= 1.0
                return canary.key
        return self._routes[model]

    def _on_batch_done(self, batch: _Batch) -> None:
        model = self._model_info.get(batch.key, {}).get("model")
        canary = self._canaries.get(model) if model else None
        if canary is not None and canary.active:
            self._maybe_decide(canary)

    def _on_batch_error(self, batch: _Batch, text: str) -> bool:
        """Retry any non-primary-route failure on the model's incumbent.

        Covers canary candidates and an outgoing swap version alike; a
        failure on the primary route itself still fails the requests
        (base behavior) — there is nowhere safer to retry."""
        info = self._model_info.get(batch.key)
        model = info.get("model") if info else None
        primary = self._routes.get(model) if model else None
        if primary is None or primary == batch.key:
            return False
        route = self._route_stats_for(batch.key)
        for _request in batch.requests:
            route.record_retry()
        canary = self._canaries.get(model)
        if canary is not None and canary.key == batch.key:
            canary.batch_errors += 1
        self._requeue(batch.requests, forced_key=primary)
        if canary is not None and canary.active:
            self._maybe_decide(canary)
        return True

    def _maybe_decide(self, canary: _Canary) -> None:
        """Auto promote/rollback once the evidence clears the policy bar;
        called under the bookkeeping lock."""
        policy = canary.policy
        stats = self._route_stats.get(canary.key)
        if stats is None:
            return
        bad = stats.failed + stats.retried
        if canary.batch_errors >= policy.max_failures:
            self._settle_canary(
                canary, "rollback",
                f"{canary.batch_errors} failed canary batches "
                f"(max_failures={policy.max_failures})",
            )
            return
        finished = stats.completed + bad
        if finished < policy.min_requests:
            return
        incumbent = self._route_stats.get(self._routes[canary.model])
        incumbent_rate = incumbent.error_rate() if incumbent else 0.0
        if stats.error_rate() > incumbent_rate + policy.error_tolerance:
            self._settle_canary(
                canary, "rollback",
                f"error rate {stats.error_rate():.3f} > incumbent "
                f"{incumbent_rate:.3f} + {policy.error_tolerance}",
            )
            return
        canary_p95 = stats.latency_ms.summary()["p95_ms"]
        incumbent_p95 = incumbent.latency_ms.summary()["p95_ms"] if incumbent else None
        if (canary_p95 is not None and incumbent_p95 is not None
                and canary_p95 > incumbent_p95 * policy.p95_tolerance):
            self._settle_canary(
                canary, "rollback",
                f"p95 {canary_p95:.2f} ms > incumbent {incumbent_p95:.2f} ms "
                f"x {policy.p95_tolerance}",
            )
            return
        self._settle_canary(
            canary, "promote",
            f"{stats.completed} requests, error rate "
            f"{stats.error_rate():.3f} ≤ incumbent + tolerance",
        )

    def _settle_canary(self, canary: _Canary, decision: str, reason: str) -> None:
        """Mark the decision and finalize off-thread (drain/unload block);
        called under the bookkeeping lock."""
        canary.active = False
        canary.decision = decision
        canary.reason = reason
        threading.Thread(
            target=self._finalize_canary, args=(canary,),
            name=f"fleet-canary-{canary.model}", daemon=True,
        ).start()

    def _finalize_canary(self, canary: _Canary) -> None:
        model = canary.model
        outcome = {
            "model": model,
            "version": canary.version,
            "decision": canary.decision,
            "reason": canary.reason,
            "batch_errors": canary.batch_errors,
            "elapsed_ms": (time.perf_counter() - canary.started) * 1e3,
        }
        def capture_stats() -> None:
            # Must run before unload_model(canary.key) — unloading retires
            # the key's RouteStats.
            with self._lock:
                stats = self._route_stats.get(canary.key)
                outcome["canary_stats"] = stats.summary() if stats else None

        try:
            if canary.decision == "promote":
                with self._lock:
                    old_key = self._routes[model]
                    old_version = self._deployed[model]["version"]
                    self.set_route(model, canary.key)
                    self._deployed[model] = {
                        "key": canary.key, "version": canary.version,
                    }
                outcome["from_version"] = old_version
                self._drain_key(old_key)
                self.unload_model(old_key)
            else:
                self._drain_key(canary.key)
                capture_stats()
                self.unload_model(canary.key)
        except Exception as error:  # surface in the log, never hang waiters
            outcome["finalize_error"] = f"{type(error).__name__}: {error}"
        finally:
            if "canary_stats" not in outcome:
                capture_stats()
            with self._lock:
                self._canaries.pop(model, None)
                self._canary_log.append(outcome)
            self._journal_event("canary", **outcome)
            canary.done.set()

    # -- observability -------------------------------------------------
    def _collect_fleet_metrics(self) -> list[dict]:
        """Fleet control-plane series for the unified metrics registry."""
        series: list[dict] = []
        with self._lock:
            series.append({"name": "fleet_deployed_models", "labels": {},
                           "kind": "gauge", "value": len(self._deployed)})
            series.append({
                "name": "fleet_active_canaries", "labels": {},
                "kind": "gauge",
                "value": sum(1 for c in self._canaries.values() if c.active),
            })
            series.append({"name": "fleet_swaps_total", "labels": {},
                           "kind": "counter", "value": len(self._swap_log)})
            series.append({"name": "fleet_canaries_settled_total",
                           "labels": {}, "kind": "counter",
                           "value": len(self._canary_log)})
            for model, entry in self._deployed.items():
                if entry["version"] is not None:
                    series.append({
                        "name": "fleet_route_version",
                        "labels": {"model": model},
                        "kind": "gauge", "value": entry["version"],
                    })
        return series

    def stats(self) -> dict:
        """Base serving stats plus the fleet control-plane section:
        per-model routing counts (each with its transport byte split),
        swap reports, canary outcomes, and a fleet-wide transport rollup
        over the currently deployed routes."""
        base = super().stats()
        with self._lock:
            models = {}
            rollup = {"shm_batches": 0, "shm_bytes": 0,
                      "pickle_batches": 0, "pickle_bytes": 0, "spills": 0}
            for model, entry in self._deployed.items():
                route = self._route_stats.get(entry["key"])
                summary = route.summary() if route else {}
                for field, value in summary.get("transport", {}).items():
                    rollup[field] += value
                models[model] = {
                    "version": entry["version"],
                    "key": entry["key"],
                    "canary": (
                        self._canaries[model].status()
                        if model in self._canaries else None
                    ),
                    **summary,
                }
            base["fleet"] = {
                "models": models,
                "transport": rollup,
                "swaps": list(self._swap_log),
                "canaries": list(self._canary_log),
            }
        return base
