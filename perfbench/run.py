"""Served-path benchmark of the VITAL reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up (not timed) trains the deployed
model (see ``workload.py``) and builds the workload's inputs from the
seed.  The served stack then runs in its own process (``host.py``) while
this process generates load and checks every answer against the
in-process session.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the gated end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``layers.PER_LAYER``
with ``--trace 1``.  Lines before it report generator health per phase
and the wall-clock figures, which are printed but not gated.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse
import gc
import json
import pickle
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Open-loop arrival rate of the gateway workloads (~25% of capacity).
RATE = 200.0
#: Requests kept outstanding in the saturation phase.
OUTSTANDING = {"gateway": 16, "bulk": 4}
#: Highest saturation capacity the inputs are sized for; past it the phase
#: ends when they run out.  gw_unique sends each of its (at most 15120)
#: field readings once; the others only draw indices.
MAX_RATE = {"gw_unique": 1000.0, "gw_colocated": 5000.0}
#: Serving-host launches per end-to-end run; setup_s is their median.
SETUP_LAUNCHES = 5
#: Served float logits may differ from in-process ones by BLAS summation
#: order (<= 2.6e-6 measured); anything past this is wrong.
TOLERANCE = 1e-4
#: The RPs the gw_colocated phones stand at.
COLOCATED_RPS = (7, 23, 39, 55)
#: bulk_int8 cycles through 32 shuffles of the 189 held-out readings cut
#: into 189 requests of 32, so each reading weighs the same in
#: mean_error_m.  32 chunks drawn at random spread it by 0.05-0.07 of its
#: median across seeds.
BULK_SHUFFLES = 32
#: Units of the end-to-end figures; WALL_CLOCK ones are printed, not gated.
UNITS = {"setup_s": "s", "cpu_ms_per_sample": "ms", "ok_ratio": "ratio",
         "rp_match_ratio": "ratio", "mean_error_m": "m", "peak_rss_mb": "MB",
         "latency_p50_ms": "ms", "latency_p95_ms": "ms",
         "capacity_per_s": "samples/s", "slo_met_ratio": "ratio",
         "error_ratio": "ratio"}
WALL_CLOCK = ("latency_p50_ms", "latency_p95_ms", "capacity_per_s",
              "slo_met_ratio", "error_ratio")


@dataclass(frozen=True)
class Workload:
    why: str
    gateway: bool
    cache: bool
    workers: int
    int8: bool
    #: default_serving_slos' 50 ms per fingerprint; 250 ms per 32 samples.
    limit_ms: float


WORKLOADS = {
    "gw_unique": Workload(
        "phones at distinct places: the cache-miss path socket -> gateway "
        "-> admission -> batcher -> shm -> model and back; cache off, no "
        "fingerprint repeats", True, False, 1, False, 50.0),
    "gw_colocated": Workload(
        "phones standing at a few RPs: the default 2 dB result cache "
        "answers almost every request, so its accuracy cost shows",
        True, True, 1, False, 50.0),
    "bulk_int8": Workload(
        "offline re-localization: 32-sample requests through the int8 "
        "engine over shm, no gateway or cache", False, False, 2, True, 250.0),
}

#: The known defect gw_colocated records as measured (not worked around):
#: every DAM image (values in [0, 1]) buckets to one 2 dB cache key, so
#: each hit returns the first cached answer.
KNOWN_DEFECT = ("gw_colocated: every DAM image lands on one 2 dB cache key "
                "(gateway.cache.entries = 1), so every hit returns the "
                "first cached answer; rp_match_ratio and mean_error_m "
                "show that cost")


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- processes ----------------------------------------------------------

def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _peak_rss_mb(pgid: int) -> float:
    """Summed peak RSS (``VmHWM``) of the processes of group ``pgid``;
    pages shared after ``fork`` count once per process."""
    total_kb = 0
    for pid in _group_members(pgid):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        total_kb += sum(int(line.split()[1]) for line in status.splitlines()
                        if line.startswith("VmHWM:"))
    return total_kb / 1024.0


def _cpu_s(pgid: int) -> float:
    """CPU seconds (user + system, all threads) used so far by the live
    processes of group ``pgid``.  Time the hypervisor stole from a vCPU
    is not charged to the process that was waiting for it."""
    ticks = 0
    for pid in _group_members(pgid):
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        fields = fields.split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _rings_of(pid: int) -> list[Path]:
    return sorted(Path("/dev/shm").glob(f"repro-ring-{pid}-*"))


class Child:
    """A child process in its own process group.  Closing it ends and
    reaps the whole group, on every exit path, then checks that no
    process of the group and no shared-memory ring it created is left
    (``violations`` lists whatever had to be removed by force)."""

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            start_new_session=True)
        self.violations: list[str] = []
        self._buffer = b""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_exc):
        if exc_type is not None and self.proc.poll() is None:
            self.proc.terminate()  # an interrupted run stops it at once
        self.close()

    def readline(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"no reply from pid {self.proc.pid}")
            if select.select([fd], [], [], left)[0]:
                data = os.read(fd, 1 << 16)
                if not data:
                    raise RuntimeError(
                        f"pid {self.proc.pid} exited "
                        f"(code {self.proc.wait(5)})")
                self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def call(self, cmd: dict, timeout: float = 60.0) -> dict:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        self.proc.stdin.flush()
        return self.readline(timeout)

    def close(self, timeout: float = 15.0) -> None:
        pid = self.proc.pid
        try:
            self.proc.stdin.close()  # end of input: the child stops
            self.proc.wait(timeout)
        except (OSError, subprocess.TimeoutExpired):
            self.violations.append(f"pid {pid} did not stop within "
                                   f"{timeout:.0f}s")
        finally:
            deadline = time.monotonic() + 3.0
            while _group_members(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            stragglers = _group_members(pid)
            if stragglers:
                self.violations.append(
                    f"processes {stragglers} of group {pid} outlived it")
                try:
                    os.killpg(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait(5)
            self.proc.stdout.close()
            for ring in _rings_of(pid):
                self.violations.append(f"{ring} left behind")
                ring.unlink(missing_ok=True)


class Host(Child):
    """One serving host (``host.py``); ``ready_s`` is its set-up time."""

    def __init__(self, spec_path: Path):
        started = time.perf_counter()
        super().__init__([sys.executable, str(HERE / "host.py"),
                          str(spec_path)])
        try:
            ready = self.readline(timeout=120.0)
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - started
        self.port = ready["port"]


# -- set-up -------------------------------------------------------------

def prepare(args, work: Path) -> dict:
    """Load (or build) the deployed model and build this run's inputs."""
    import workload
    from repro.infer import restore_session

    began = time.perf_counter()
    wl = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    plan = phase_plan(args)
    model = workload.deployed(work, Child)
    if args.trace:
        # vit.train_s is timed afresh in every traced run, not read back.
        model = {**model, "train_s": workload.train_model()["train_s"]}
    session = restore_session(model["snapshot"])
    held_out = model["held_out_images"]
    prep = {"model": model, "wl": wl, "plan": plan, "rng": rng, "cursor": 0}
    if args.workload == "gw_unique":
        needed = sum(count for _name, count, _s, _sat in plan)
        labels = model["field_labels"]
        pick = rng.choice(len(labels), min(needed, len(labels)),
                          replace=False)
        prep["images"] = model["field_images"][pick]
        prep["labels"] = labels[pick]
        prep["reference"] = model["field_reference"][pick]
        prep["tails"] = [model["field_tails"][i] for i in pick]
    else:
        prep["images"] = held_out
        prep["labels"] = model["held_out_labels"]
        prep["working_set"] = np.flatnonzero(
            np.isin(prep["labels"], COLOCATED_RPS))
        prep["reference"] = session.predict_many(held_out)
    spec = {"snapshot": model["snapshot"], "workers": wl.workers,
            "gateway": wl.gateway, "cache": wl.cache, "int8": wl.int8,
            "calibration": model["calibration"], "probe": held_out[:32]}
    if wl.int8:
        chunks = np.concatenate([rng.permutation(len(held_out))
                                 for _ in range(BULK_SHUFFLES)])
        chunks = chunks.reshape(-1, 32)
        np.savez(work / "pool.npz", images=held_out, chunks=chunks)
        quantized = workload.quantize(session, model["calibration"])
        prep["chunks"] = chunks
        prep["int8_reference"] = [quantized.predict_many(held_out[c])
                                  for c in chunks]
    for traced in (False, True):
        path = work / f"spec{int(traced)}.pkl"
        with open(path, "wb") as handle:
            pickle.dump({**spec, "traced": traced}, handle)
        prep[f"spec{int(traced)}"] = path
    print(f"set-up {time.perf_counter() - began:.1f} s "
          f"({len(prep['images'])} readings)")
    return prep


def phase_plan(args) -> list[tuple[str, int, float, bool]]:
    """``(phase, requests, seconds, saturating)`` per gateway phase, in
    order.  The trace run times the paced phase on an untraced host, for
    the tracing overhead, then on a traced one."""
    if args.trace:
        shares = [("untraced", 0.4, False), ("paced", 0.6, False)]
    else:
        shares = [("paced", 0.5, False), ("saturation", 0.5, True)]
    max_rate = MAX_RATE.get(args.workload, 0.0)
    return [(name, int((max_rate if sat else RATE) * share * args.seconds),
             share * args.seconds, sat)
            for name, share, sat in shares]


# -- driving -------------------------------------------------------------

def drive_gateway(args, prep, host: Host, phases) -> list:
    """Run ``phases`` (entries of the plan) against ``host``'s gateway."""
    import loadgen

    rng, working = prep["rng"], prep.get("working_set")
    n_images = len(prep["images"])
    done = []
    conn = loadgen.Connection(host.port)
    # The generator keeps every decoded response; with the collector on,
    # its full passes over that growing heap stall the receiver for
    # milliseconds and showed up as a p95 spread of 1.35 across runs.
    gc.collect()
    gc.disable()
    try:
        if args.workload == "gw_colocated":
            warm = loadgen.Frames(prep["images"], working, first_id=1)
        else:
            # gw_unique warms on held-out split readings, which the field
            # campaign never repeats; they are not part of any phase.
            held = prep["model"]["held_out_images"][:32]
            warm = loadgen.Frames(held, np.arange(len(held)), first_id=1)
        # gw_colocated warms one request at a time, so the first reading
        # of the working set is the one whose answer the cache holds.
        loadgen.warm(conn, warm,
                     outstanding=1 if args.workload == "gw_colocated" else 8)
        next_id = 1 + len(warm)
        for name, count, seconds, saturating in phases:
            if args.workload == "gw_colocated":
                order = working[rng.integers(len(working), size=count)]
            else:
                order = np.arange(prep["cursor"], prep["cursor"] + count)
                order = order[order < n_images]
                prep["cursor"] += len(order)
            frames = loadgen.Frames(prep["images"], order, next_id,
                                    prep.get("tails"))
            next_id += len(frames)
            cpu_s = _cpu_s(host.proc.pid)
            if saturating:
                phase = loadgen.closed_loop(conn, name, frames,
                                            OUTSTANDING["gateway"], seconds)
            else:
                phase = loadgen.open_loop(conn, name, frames, RATE)
            phase.host_cpu_s = _cpu_s(host.proc.pid) - cpu_s
            done.append(phase)
    finally:
        gc.enable()
        conn.close()
    return done


def drive_bulk(args, host: Host, work: Path, seconds: float) -> dict:
    out = work / f"bulk{host.proc.pid}.npz"
    cpu_s = _cpu_s(host.proc.pid)
    reply = host.call({"cmd": "bulk", "seconds": seconds,
                       "outstanding": OUTSTANDING["bulk"],
                       "pool": str(work / "pool.npz"), "out": str(out)},
                      timeout=seconds + 60)
    reply["host_cpu_s"] = _cpu_s(host.proc.pid) - cpu_s
    data = np.load(out)
    reply["records"], reply["logits"] = data["records"], data["logits"]
    return reply


# -- checks and metrics ----------------------------------------------------

class Answers:
    """Ok answers of a run: served logits with the image index each
    request carried, plus every correctness violation found."""

    def __init__(self):
        self.logits, self.index, self.violations = [], [], []

    def add(self, logits, index):
        self.logits.append(logits)
        self.index.append(index)


def check_gateway(args, prep, phases, answers: Answers) -> None:
    reference = prep["reference"]
    for phase in phases:
        for rid in phase.ok_ids():
            served = np.asarray(phase.responses[rid][1]["logits"],
                                dtype=np.float32)
            index = phase.frames.index_of(rid)
            answers.add(served, index)
            if args.workload == "gw_colocated":
                gaps = np.abs(reference[prep["working_set"]]
                              - served).max(axis=1)
                if gaps.min() > TOLERANCE:
                    answers.violations.append(
                        f"request {rid}: logits match no input sent "
                        f"(closest {gaps.min():.2e})")
                continue
            expected = reference[index]
            gap = float(np.abs(expected - served).max())
            top = np.sort(expected)[-2:]
            tie = top[1] - top[0] <= TOLERANCE
            if gap > TOLERANCE or (served.argmax() != expected.argmax()
                                   and not tie):
                answers.violations.append(
                    f"request {rid}: logits off by {gap:.2e} or RP "
                    f"{served.argmax()} != {expected.argmax()}")


def check_bulk(prep, reply, answers: Answers) -> None:
    ok_rows = reply["records"][reply["records"][:, 3] == 1]
    for (chunk, *_rest), served in zip(ok_rows, reply["logits"]):
        chunk = int(chunk)
        if not np.array_equal(served, prep["int8_reference"][chunk]):
            answers.violations.append(
                f"chunk {chunk}: served int8 logits differ from the "
                "in-process QuantizedSession")
        for row, index in zip(served, prep["chunks"][chunk]):
            answers.add(row, int(index))


def accuracy(prep, answers: Answers) -> dict:
    served_rp = np.array([logits.argmax() for logits in answers.logits])
    index = np.array(answers.index)
    own_rp = prep["reference"][index].argmax(axis=1)
    locations = prep["model"]["rp_locations"]
    truth = locations[prep["labels"][index]]
    return {
        "rp_match_ratio": float((served_rp == own_rp).mean()),
        "mean_error_m": float(np.linalg.norm(locations[served_rp] - truth,
                                             axis=1).mean()),
    }


def summary(latencies, capacity_per_s: float, cpu_s: float,
            cpu_samples: int, sent: int, within_limit: int,
            ok: int) -> dict:
    """End-to-end figures.  ``cpu_ms_per_sample`` is the CPU time the
    serving host's processes used in the paced phase (``bulk_int8``: its
    closed loop, with writing the logits back) per sample answered ok
    there: a fixed amount of work, so batching that varies with the
    host's speed under saturation does not move it.  The wall-clock figures (latency percentiles pooled over the
    ok requests timed, ``capacity_per_s``, ``slo_met_ratio``) are
    printed, not gated; see ``run_end_to_end``."""
    return {
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": float(np.percentile(latencies, 95)),
        "capacity_per_s": capacity_per_s,
        "cpu_ms_per_sample": 1e3 * cpu_s / cpu_samples,
        "slo_met_ratio": within_limit / sent,
        "ok_ratio": ok / sent,
    }


def gateway_metrics(prep, phases) -> dict:
    paced = next(p for p in phases if p.name == "paced")
    sat = next(p for p in phases if p.name == "saturation")
    limit = prep["wl"].limit_ms
    sent = sum(len(p.sent) for p in phases)
    ok = sum(len(p.ok_ids()) for p in phases)
    within = sum(1 for p in phases for rid in p.ok_ids()
                 if p.latency_ms(rid) <= limit)
    # Capacity counts the answers up to the one that stopped the sending;
    # the drain of the window after it is not busy time.
    answered = sum(1 for rid in sat.ok_ids()
                   if sat.responses[rid][0] <= sat.end)
    return summary([paced.latency_ms(r) for r in paced.ok_ids()],
                   answered / (sat.end - sat.start), paced.host_cpu_s,
                   len(paced.ok_ids()), sent, within, ok)


def bulk_metrics(prep, reply) -> dict:
    records = reply["records"]
    ok = records[records[:, 3] == 1]
    latencies = (ok[:, 2] - ok[:, 1]) * 1e3
    answered = int((ok[:, 2] <= reply["end"]).sum())
    return summary(latencies, answered * 32 / (reply["end"] - reply["start"]),
                   reply["host_cpu_s"], len(ok) * 32,
                   len(records) + reply["unanswered"],
                   int((latencies <= prep["wl"].limit_ms).sum()), len(ok))


def bulk_health(reply) -> dict:
    records = reply["records"]
    return {"sent": len(records) + reply["unanswered"],
            "ok": int(records[:, 3].sum()),
            "error": int((records[:, 3] == 0).sum()),
            "unanswered": reply["unanswered"],
            "late_p99_ms": float(np.percentile(reply["late_ms"], 99))
            if reply["late_ms"] else 0.0}


def health_line(name: str, health: dict) -> None:
    print(f"health {name}: " + json.dumps(health))


# -- runs ------------------------------------------------------------------

def run_end_to_end(args, prep, work: Path) -> dict:
    answers = Answers()
    setup_s = []
    violations = []
    for launch in range(SETUP_LAUNCHES):
        with Host(prep["spec0"]) as host:
            setup_s.append(host.ready_s)
            if launch < SETUP_LAUNCHES - 1:
                continue
            if prep["wl"].gateway:
                phases = drive_gateway(args, prep, host, prep["plan"])
                metrics = gateway_metrics(prep, phases)
                check_gateway(args, prep, phases, answers)
                healths = {p.name: p.health() for p in phases}
            else:
                reply = drive_bulk(args, host, work, args.seconds)
                metrics = bulk_metrics(prep, reply)
                check_bulk(prep, reply, answers)
                healths = {"closed": bulk_health(reply)}
            peak_rss_mb = _peak_rss_mb(host.proc.pid)
        violations += host.violations
    metrics.update(accuracy(prep, answers))
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = float(np.median(setup_s))
    attempted = sum(h["sent"] for h in healths.values())
    ok = sum(h["ok"] for h in healths.values())
    for name, health in healths.items():
        health_line(name, health)
    metrics["error_ratio"] = (attempted - ok) / attempted
    # Printed, not gated.  The hypervisor of the 2-vCPU test host took
    # 20-26% of its CPU time (steal) in stretches lasting minutes, and runs
    # of the same code spread these by 0.16-0.56 of their median (gw_unique
    # p50 4.9-41.6 ms over ten seeds), wider than any bound a regression
    # gate may use.  cpu_ms_per_sample, charged only for the time the
    # host's processes ran, spread by 0.05-0.06 over the same seeds.
    for name in WALL_CLOCK:
        print(f"{name} {metrics.pop(name):.6g} {UNITS[name]} (not gated)")
    return finish(answers.violations + violations, attempted,
                  attempted - ok,
                  {k: (v, UNITS[k]) for k, v in metrics.items()})


def run_traced(args, prep, work: Path) -> dict:
    import layers

    answers = Answers()
    violations = []
    with Host(prep["spec0"]) as host:
        if prep["wl"].gateway:
            base = drive_gateway(args, prep, host, prep["plan"][:1])
            base_p50 = np.median([base[0].latency_ms(r)
                                  for r in base[0].ok_ids()])
        else:
            base = drive_bulk(args, host, work, 0.4 * args.seconds)
            check_bulk(prep, base, answers)
            ok = base["records"][base["records"][:, 3] == 1]
            base_p50 = np.median(ok[:, 2] - ok[:, 1]) * 1e3
    violations += host.violations
    with Host(prep["spec1"]) as host:
        if prep["wl"].gateway:
            phases = drive_gateway(args, prep, host, prep["plan"][1:])
            # Per-layer times cover the traced paced phase: the latency
            # waterfall at RATE.
            stats = host.call({"cmd": "stats",
                               "window": [phases[0].start, phases[0].end]})
            check_gateway(args, prep, base + phases, answers)
            paced = phases[0]
            traced_p50 = np.median([paced.latency_ms(r)
                                    for r in paced.ok_ids()])
            gateway_ms = stats["layers"]["coverage"]
            coverage = [gateway_ms[str(rid)]
                        / ((p.responses[rid][0] - p.sent[rid]) * 1e3)
                        for p in phases for rid in p.ok_ids()
                        if str(rid) in gateway_ms]
            healths = {p.name: p.health() for p in base + phases}
            late = paced.health()["late_p99_ms"]
        else:
            reply = drive_bulk(args, host, work, 0.6 * args.seconds)
            check_bulk(prep, reply, answers)
            stats = host.call({"cmd": "stats",
                               "window": [reply["start"], reply["end"]]})
            ok = reply["records"][reply["records"][:, 3] == 1]
            client_ms = (ok[:, 2] - ok[:, 1]) * 1e3
            traced_p50 = np.median(client_ms)
            coverage = ok[:, 4] / client_ms
            healths = {"untraced": bulk_health(base),
                       "closed": bulk_health(reply)}
            late = healths["closed"]["late_p99_ms"]
    violations += host.violations
    print(f"untraced p50 {base_p50:.3f} ms, traced p50 {traced_p50:.3f} ms")
    values = dict(stats["layers"])
    values.update({
        "obs.trace_overhead_ratio": float(traced_p50 / base_p50),
        "obs.span_coverage_ratio": float(np.median(coverage))
        if len(coverage) else 0.0,
        "vit.train_s": prep["model"]["train_s"],
        "loadgen.late_p99_ms": late,
        "loadgen.unanswered": sum(h["unanswered"] for h in healths.values()),
    })
    for name, health in healths.items():
        health_line(name, health)
    for name, unit, _better, layer, moves in layers.PER_LAYER:
        print(f"layer {name} = {values[name]:.6g} {unit} [{layer}] -> {moves}")
    attempted = sum(h["sent"] for h in healths.values())
    ok = sum(h["ok"] for h in healths.values())
    return finish(answers.violations + violations, attempted, attempted - ok,
                  {name: (values[name], unit)
                   for name, unit, *_ in layers.PER_LAYER})


def finish(violations, attempted, failed, metrics) -> dict:
    for violation in violations[:20]:
        print(f"violation: {violation}", file=sys.stderr)
    return {"correct": not violations, "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(1, str(SRC))
    signal.signal(signal.SIGTERM, _on_signal)
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    if args.workload == "gw_colocated":
        print(f"known defect: {KNOWN_DEFECT}")
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        prep = prepare(args, work)
        run = run_traced if args.trace else run_end_to_end
        result = run(args, prep, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
