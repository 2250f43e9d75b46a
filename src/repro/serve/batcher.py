"""Adaptive micro-batching policy for the serving dispatcher.

The dispatcher coalesces pending requests into one worker batch.  Waiting
longer fills bigger batches (better throughput); dispatching sooner cuts
queueing latency.  Coalescing only pays while every worker is busy: the
dispatcher is work-conserving, so while some live shard has no
outstanding work whatever is pending dispatches at once, without asking
the policy, and a shard going idle ends a wait in progress.  While every
shard is busy, :class:`AdaptiveBatchPolicy` decides *how long to keep
waiting* from two signals:

* a hard latency deadline (``max_delay_ms`` after the oldest pending
  request arrived) — the worst-case batching delay a request can pay;
* an exponential moving average of request inter-arrival time — the
  wait is the shorter of the remaining deadline and the time the
  observed arrival rate needs to fill the remaining batch slots.  Fast
  traffic therefore waits only as long as the batch takes to fill;
  traffic too slow to fill it waits out the deadline.

The policy is pure (no threads, no clocks of its own): the dispatcher
feeds it timestamps and pending counts, and it answers with a wait budget
in seconds.  This keeps it unit-testable without spawning a server.

:func:`assemble_images` is the other half of batch formation: it writes
the coalesced requests' image blocks straight into the batch's
shared-memory ring lease, so no intermediate stacked array ever exists.
"""

from __future__ import annotations

import numpy as np


def assemble_images(blocks: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Write per-request image blocks into ``out``, one after another.

    ``out`` is a :class:`repro.serve.shm.ShmRing` view over the batch's
    ring lease: the assembly *is* the transport, so the batch crosses the
    process boundary without a pickle pass or a temporary stack.
    """
    offset = 0
    for block in blocks:
        out[offset : offset + len(block)] = block
        offset += len(block)
    return out


class AdaptiveBatchPolicy:
    """Decide how long the dispatcher may keep coalescing a batch.

    The dispatcher only asks while every live shard is busy (see the
    module docstring); an idle shard takes pending work at once.

    Parameters
    ----------
    max_batch:
        Target batch capacity in samples (a single oversized request still
        dispatches alone; the worker chunks it internally).
    max_delay_ms:
        Hard ceiling on how long the oldest pending request may wait,
        while every shard is busy, before its batch is dispatched, full
        or not.
    ema_alpha:
        Smoothing factor of the inter-arrival EMA (higher = adapts
        faster to traffic changes).
    """

    #: Below this wait budget (seconds) the dispatcher should just go.
    MIN_WAIT_S = 1e-4

    def __init__(self, max_batch: int, max_delay_ms: float = 2.0,
                 ema_alpha: float = 0.2):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_ms) / 1e3
        self.ema_alpha = float(ema_alpha)
        self._last_arrival: float | None = None
        self.ema_interarrival_s: float | None = None

    def observe_arrival(self, now: float) -> None:
        """Update the inter-arrival EMA with a request arriving at ``now``."""
        if self._last_arrival is not None:
            gap = max(0.0, now - self._last_arrival)
            if self.ema_interarrival_s is None:
                self.ema_interarrival_s = gap
            else:
                self.ema_interarrival_s += self.ema_alpha * (gap - self.ema_interarrival_s)
        self._last_arrival = now

    def wait_budget(self, pending_samples: int, oldest_age_s: float,
                    deadline_slack_s: float | None = None) -> float:
        """Seconds the dispatcher may keep waiting for more requests.

        ``pending_samples`` is the queued sample count, ``oldest_age_s``
        how long ago the oldest pending request arrived.
        ``deadline_slack_s`` (optional) is the smallest remaining
        QoS-deadline slack among the queued requests: the batching delay
        is clamped to half of it, so a request near its deadline
        dispatches (possibly in a partial batch) instead of expiring in
        the coalescing wait.  Returns 0 when the batch should be
        dispatched immediately: it is full, or the deadline has come.
        Otherwise the budget is the remaining deadline, cut to the
        expected fill time when the inter-arrival EMA says the batch
        fills sooner.
        """
        if pending_samples >= self.max_batch:
            return 0.0  # full batch — never wait
        remaining = self.max_delay_s - oldest_age_s
        if deadline_slack_s is not None:
            remaining = min(remaining, deadline_slack_s * 0.5)
        if remaining <= self.MIN_WAIT_S:
            return 0.0  # deadline hit
        if self.ema_interarrival_s is None:
            return remaining  # no traffic model yet — trust the deadline
        # Time the current arrival rate needs to fill the rest of the batch.
        expected_fill = self.ema_interarrival_s * (self.max_batch - pending_samples)
        if expected_fill <= self.MIN_WAIT_S:
            # Arrivals are far faster than the clock granularity; a single
            # short wait will fill the batch.
            return min(remaining, self.MIN_WAIT_S * 10)
        budget = min(remaining, expected_fill)
        return budget if budget > self.MIN_WAIT_S else 0.0

    def summary(self) -> dict:
        """The policy's current traffic model, for ``stats()`` and the
        metrics collectors (``ema_interarrival_ms`` is ``None`` until at
        least two arrivals have been observed)."""
        return {
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_s * 1e3,
            "ema_interarrival_ms": (
                None if self.ema_interarrival_s is None
                else self.ema_interarrival_s * 1e3
            ),
        }
