"""Opt-in per-phase compute profiling for inference sessions.

:class:`SessionProfiler` is a tiny accumulator an ``InferenceSession``
(or ``QuantizedSession``) consults inline in ``predict``: when
``session._profiler`` is ``None`` (the default — it lives in the
session's scratch set, so it is never pickled and resets on restore)
the hot path pays one attribute check per phase; when attached, each
phase records call count + wall time.  Phase names follow the engine's
structure: ``patch_gather``, ``embed``, ``block{i}``,
``final_norm_pool``, ``head``.

The worker loop attaches a profiler per restored session when the
server is constructed with ``profile=True`` and drains the per-batch
phase totals into the trace timing it ships back, so a request trace
can descend *into* its compute span.  Shape-level identity comes from
:meth:`InferenceSession.gemm_sites`: the folded ``(m, k, n)`` shape and
weight storage of every dense site (plus scheme/mode on a
``QuantizedSession``).
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["SessionProfiler", "attach_profiler", "detach_profiler",
           "profile_predict"]


class SessionProfiler:
    """Accumulates per-phase call counts and wall time (seconds)."""

    __slots__ = ("_phases",)

    def __init__(self) -> None:
        self._phases: dict[str, list] = {}

    def lap(self, name: str, started: float) -> float:
        """Record ``now - started`` under ``name``; return ``now`` so the
        caller chains laps: ``t0 = prof.lap("embed", t0)``."""
        now = time.perf_counter()
        slot = self._phases.get(name)
        if slot is None:
            self._phases[name] = [1, now - started]
        else:
            slot[0] += 1
            slot[1] += now - started
        return now

    def add(self, name: str, elapsed_s: float) -> None:
        slot = self._phases.get(name)
        if slot is None:
            self._phases[name] = [1, float(elapsed_s)]
        else:
            slot[0] += 1
            slot[1] += float(elapsed_s)

    def summary(self) -> dict:
        """Phase name -> {"calls", "total_ms"}; non-destructive."""
        return {name: {"calls": slot[0], "total_ms": slot[1] * 1e3}
                for name, slot in self._phases.items()}

    def drain(self) -> dict:
        """Like :meth:`summary` but resets the accumulator — the worker
        loop drains once per batch so phases never leak across traces."""
        out = self.summary()
        self._phases.clear()
        return out

    def __bool__(self) -> bool:  # truthy even when empty, like any profiler
        return True


def attach_profiler(session) -> SessionProfiler:
    """Attach a fresh profiler to ``session`` and return it."""
    profiler = SessionProfiler()
    session._profiler = profiler
    return profiler


def detach_profiler(session) -> Optional[SessionProfiler]:
    """Detach and return the session's profiler (``None`` if absent)."""
    profiler = getattr(session, "_profiler", None)
    session._profiler = None
    return profiler


def profile_predict(session, images, repeats: int = 1) -> dict:
    """Run ``session.predict(images)`` ``repeats`` times under a
    profiler and return ``{"phases", "gemm_sites", "elapsed_ms"}``.

    Convenience for the CLI / benchmarks; restores the session's prior
    profiler state afterwards.
    """
    previous = getattr(session, "_profiler", None)
    profiler = attach_profiler(session)
    start = time.perf_counter()
    try:
        for _ in range(max(1, int(repeats))):
            session.predict(images)
    finally:
        session._profiler = previous
    elapsed_ms = (time.perf_counter() - start) * 1e3
    sites = session.gemm_sites() if hasattr(session, "gemm_sites") else []
    return {"phases": profiler.summary(), "gemm_sites": sites,
            "elapsed_ms": elapsed_ms}
