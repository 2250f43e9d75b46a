"""Shared test helpers for the serving layer."""

import os
import signal
import time

import numpy as np
import pytest


class StoppedWorkers:
    """Keep a server's requests queued: ``with StoppedWorkers(server):``.

    The dispatcher is work-conserving — while a shard is idle, a lone
    request dispatches at once — so a test cannot hold a request in the
    queue with a long ``max_delay_ms`` alone.  On entry every worker is
    SIGSTOPped and given a one-sample blocker batch; once the blockers
    are in flight every shard is busy, and requests submitted inside the
    block wait in the queue until they fill a batch or ``max_delay_ms``
    passes.  :meth:`release` (also run on exit) resumes the workers and
    collects the blockers, after which the queue drains.
    """

    def __init__(self, server):
        self.server = server
        self.blockers: list[int] = []
        self._pids: list[int] = []

    def __enter__(self) -> "StoppedWorkers":
        server = self.server
        self._pids = [shard.process.pid for shard in server._shards]
        for pid in self._pids:
            os.kill(pid, signal.SIGSTOP)
        info = server.route_info()
        blocker = np.zeros((1, info["image_size"], info["image_size"],
                            info["channels"]), dtype=np.float32)
        for _ in self._pids:
            self.blockers.append(server.submit(blocker))
            deadline = time.monotonic() + 5.0
            busy = len(self.blockers)
            while sum(s.outstanding > 0 for s in server._shards) < busy:
                assert time.monotonic() < deadline, "blocker never dispatched"
                time.sleep(0.002)
        return self

    def release(self) -> None:
        pids, self._pids = self._pids, []
        for pid in pids:
            os.kill(pid, signal.SIGCONT)
        blockers, self.blockers = self.blockers, []
        for request_id in blockers:
            self.server.result(request_id, timeout=10.0)

    def __exit__(self, *_exc) -> None:
        self.release()


@pytest.fixture()
def stopped_workers():
    """The :class:`StoppedWorkers` context manager, for tests that need
    requests to stay queued behind busy shards."""
    return StoppedWorkers
