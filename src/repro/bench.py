"""One harness for every recorded benchmark: ``python -m repro.bench``.

::

    python -m repro.bench run   [section ...] [--quick] [--seed N] [--out PATH]
    python -m repro.bench smoke [section ...] [--seed N]
    python -m repro.bench check [section ...] [--out PATH]

Each benchmark is a *section* of one of two record files.
``BENCH_serving.json`` holds ``serving``, ``fleet``, ``observability``,
``monitoring``, ``gateway`` and ``overload``; ``BENCH_inference.json``
holds ``inference`` and ``quantization``.  :data:`SECTIONS` maps each
name to the file it lives in, the top-level keys it owns, its ``run`` and
``smoke`` lanes, its one ``gates`` predicate and its summary formatter.

* ``run`` measures the named sections (all of them when none are named),
  prints each summary, and writes each through :func:`write`.  A write
  replaces only that section's keys, so the other sections in the file
  survive.  It refuses to put a ``--quick`` record over a full one,
  and says so before running anything (:func:`write_refusal`).
  Exit status 1 when a gate fails.
* ``smoke`` is the CI lane: a short run of each section's drills, gated
  on what a short run can show.  It writes nothing.
* ``check`` re-validates recorded sections without re-running anything.
  With no section names, every section of the file must be present.
  Against the committed records (no ``--out``), a section recorded with
  ``quick`` fails, because quick runs skip the wall-clock floors.

``python -m repro.cli infer-bench`` stays the runner of the ``inference``
section, with its geometry flags and its fresh-vs-recorded ``--check``.
It writes through the same :func:`write`.  Paths default to the record
files in the current directory.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Pin BLAS before NumPy loads, so multi-worker drills measure process
    # sharding, not BLAS oversubscription.
    for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_key, "1")

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

from repro.fleet.bench import format_fleet_summary, run_fleet_benchmark
from repro.infer.benchmark import (
    check_equivalence,
    check_kernel_gates,
    format_summary as format_inference_summary,
    run_inference_benchmark,
    thread_config,
)
from repro.obs import bench as obs_bench
from repro.quant.benchmark import (
    format_quantization_summary,
    run_quantization_benchmark,
)
from repro.serve.bench import (
    format_summary as format_serving_summary,
    run_served_parity,
    run_serving_benchmark,
)
from repro.serve.gateway.bench import (
    format_gateway_summary,
    run_gateway_benchmark,
    run_gateway_smoke,
)
from repro.serve.qos_bench import (
    format_overload_summary,
    run_overload_drill,
    run_overload_smoke,
    run_two_tenant_drill,
)

SERVING, INFERENCE = "BENCH_serving.json", "BENCH_inference.json"

#: Record file → the schema string every record of that file carries.
SCHEMAS = {SERVING: "repro.serve.bench.v7", INFERENCE: "repro.infer.bench.v3"}

#: Fused single-sample p50 must beat the autograd tape by this factor.
FUSED_SPEEDUP_FLOOR = 3.0

#: A smoke-trained VITAL must localize within this fraction of the
#: random-guess error, or its quantization deltas say nothing.
TRAINED_VS_CHANCE = 0.5


@dataclass(frozen=True)
class Section:
    name: str
    file: str
    run: Callable[[bool, int], dict]
    smoke: Callable[[int], list[str]]
    gates: Callable[[dict], list[str]]
    summary: Callable[[dict], str]
    #: Top-level record keys the section owns; empty = just ``name``.
    keys: tuple[str, ...] = ()

    @property
    def schema(self) -> str:
        return SCHEMAS[self.file]

    def take(self, record: dict) -> dict | None:
        """This section's value in ``record``; None when it is missing."""
        owned = self.keys or (self.name,)
        if not all(key in record for key in owned):
            return None
        if not self.keys:
            return record[self.name]
        return {key: record[key] for key in self.keys}

    def put(self, record: dict, value: dict) -> None:
        if self.keys:
            record.update({key: value[key] for key in self.keys})
        else:
            record[self.name] = value


def is_quick(value: dict) -> bool:
    """Whether a section value was recorded by a quick (smoke-sized) run."""
    config = value.get("config") or {}
    return bool(value.get("quick") or config.get("quick")
                or config.get("smoke"))


def load(path: str, schema: str | None = None) -> dict:
    """Read a record file; its schema must be ``schema`` (or, when None,
    either current schema).  Raises FileNotFoundError / ValueError."""
    with open(path) as handle:
        record = json.load(handle)
    expected = (schema,) if schema else tuple(SCHEMAS.values())
    if record.get("schema") not in expected:
        raise ValueError(f"{path}: schema {record.get('schema')!r} is not "
                         f"{' or '.join(expected)}")
    return record


def write_refusal(name: str, quick: bool,
                  path: str | None = None) -> str | None:
    """Why a record of section ``name`` (a quick one when ``quick``) may
    not be written to ``path`` (its own file by default), or None when it
    may.  The file must carry its schema, and a quick value never
    replaces a full one, because quick runs skip the wall-clock floors.
    :func:`write` enforces it; ``run`` and ``infer-bench`` ask it before
    they measure anything, so a refused write costs no benchmark run."""
    section = SECTIONS[name]
    path = path or section.file
    try:
        old = section.take(load(path, section.schema))
    except FileNotFoundError:
        return None
    except ValueError as error:
        return str(error)
    if quick and old is not None and not is_quick(old):
        return (f"refusing to write a quick {name} record over the full "
                f"one in {path}; pass --out")
    return None


def write(name: str, value: dict, path: str | None = None) -> str:
    """Write one section into its record file; returns the path.

    Only the section's own keys are replaced, so every other section in
    the file is kept as it was.  A write :func:`write_refusal` refuses
    raises ValueError and leaves the file as it was."""
    section = SECTIONS[name]
    path = path or section.file
    refusal = write_refusal(name, is_quick(value), path)
    if refusal is not None:
        raise ValueError(refusal)
    try:
        record = load(path, section.schema)
    except FileNotFoundError:
        record = {"schema": section.schema}
    section.put(record, value)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# gates: one predicate per section, each clause written once
# ---------------------------------------------------------------------------


def serving_gates(value: dict) -> list[str]:
    problems = []
    drill = value["fault_tolerance"]
    if drill["lost"] != 0:
        problems.append(f"fault-tolerance drill lost {drill['lost']} "
                        "request(s)")
    if drill["restarts"] < 1:
        problems.append("fault-tolerance drill recorded no worker restart")
    if drill["ring_leases_after"] != 0:
        problems.append(f"fault-tolerance drill leaked "
                        f"{drill['ring_leases_after']} ring lease(s)")
    if not drill["ok"]:
        problems.append("fault-tolerance drill did not pass")
    reduction = value["transport"]["dispatch_overhead_us"]["reduction"]
    if reduction < 0.30:
        problems.append("transport gate failed: the ring must cut per-batch "
                        f"dispatch overhead ≥30% below pickle (got "
                        f"{reduction})")
    scaling = value["scaling"]
    if not scaling["hardware_limited"] and not scaling["gate_2x_at_4_workers"]:
        problems.append(f"scaling gate failed: {scaling['speedup_4_vs_1']}x "
                        "at 4 workers (needs >= 2x)")
    return problems


def fleet_gates(value: dict) -> list[str]:
    problems = []
    swap = value["hot_swap"]
    if swap["lost"] != 0 or not swap["ok"]:
        problems.append(f"hot-swap drill failed: {swap}")
    for drill in ("canary_rollback", "canary_promote"):
        if not value[drill]["ok"]:
            problems.append(f"{drill} drill failed: {value[drill]}")
    return problems


def _overhead_gates(overhead: dict, what: str) -> list[str]:
    problems = []
    if not overhead["enabled_ok"]:
        problems.append(f"{what} must not regress p50 by more than 5% "
                        f"(ratio {overhead['enabled_p50_ratio']})")
    if not overhead["disabled_ok"]:
        problems.append(f"{what}-disabled arms must sit within the A/A "
                        f"noise floor (ratio {overhead['disabled_aa_ratio']})")
    return problems


def observability_gates(value: dict) -> list[str]:
    problems = _overhead_gates(value["overhead"], "tracing at 100%")
    if not value["span_chain"]["ok"]:
        problems.append(
            "span-chain gate failed: every traced request must carry a "
            "complete chain whose span durations sum to within 10% of its "
            f"end-to-end latency ({value['span_chain']})")
    return problems


def monitoring_gates(value: dict) -> list[str]:
    problems = _overhead_gates(value["overhead"], "the timeline sampler")
    if not value["drift_drill"]["ok"]:
        problems.append(
            "drift drill failed: detectors must flag the injected shift "
            "within 3 sampling intervals with zero alerts on the calm arm "
            f"({value['drift_drill']})")
    return problems


def gateway_gates(value: dict) -> list[str]:
    problems = [f"connection scaling lost {row['lost']} request(s) at "
                f"{row['clients']} clients"
                for row in value["connection_scaling"] if row["lost"] != 0]
    cache = value["cache_effectiveness"]
    if not cache["gate_cache_speedup"]:
        problems.append(
            f"cache gate failed: hit-path p50 must be >= "
            f"{cache['required_speedup']}x lower than the miss path (got "
            f"{cache['speedup_hit_vs_miss']}x, hits={cache['total_hits']})")
    if not value["drain_drill"]["gate_drain_zero_lost"]:
        problems.append("drain gate failed: graceful shutdown under live "
                        "clients must answer every accepted request "
                        f"({value['drain_drill']})")
    return problems


def overload_gates(value: dict) -> list[str]:
    problems = []
    for drill in ("overload_drill", "two_tenant_drill"):
        failed = [gate for gate, passed in value[drill]["gates"].items()
                  if not passed]
        if failed or not value[drill]["ok"]:
            problems.append(f"{drill} failed: {failed or 'not ok'}")
    return problems


def inference_gates(value: dict) -> list[str]:
    problems = check_equivalence(value) + check_kernel_gates(value)
    speedup = value["single_sample"]["speedup_fused_vs_tape"]
    if speedup < FUSED_SPEEDUP_FLOOR:
        problems.append(f"fused single-sample speedup {speedup:.2f}x < "
                        f"{FUSED_SPEEDUP_FLOOR}x over the autograd tape")
    return problems


def quantization_gates(value: dict) -> list[str]:
    problems = []
    engine = value["engine"]
    ratio = engine["snapshot_ratio_per_channel"]
    if ratio > 0.35:
        problems.append(f"per-channel snapshot is {ratio:.3f} of float32 "
                        "bytes (> 0.35)")
    agreement = engine["fidelity"]["per_channel"]["argmax_agreement"]
    if agreement < 0.95:
        problems.append(f"per-channel argmax agreement {agreement:.3f} "
                        "< 0.95")
    vital = value["accuracy"]["frameworks"]["VITAL"]
    limit = max(0.5, 0.15 * vital["float32_mean_error_m"])
    if vital["per_channel_delta_m"] > limit:
        problems.append(f"per-channel int8 costs VITAL "
                        f"{vital['per_channel_delta_m']:+.3f} m (> {limit:.3f}"
                        " m)")
    return problems


# ---------------------------------------------------------------------------
# run and smoke lanes
# ---------------------------------------------------------------------------


def _run_observability(quick: bool, seed: int) -> dict:
    return {"quick": quick, "threads": thread_config(),
            "span_chain": obs_bench.run_span_check(quick=quick, seed=seed),
            "overhead": obs_bench.run_trace_overhead(quick=quick, seed=seed)}


def _run_monitoring(quick: bool, seed: int) -> dict:
    return {"quick": quick, "threads": thread_config(),
            "overhead": obs_bench.run_monitor_overhead(quick=quick,
                                                       seed=seed),
            "drift_drill": obs_bench.run_drift_drill(quick=quick, seed=seed)}


def _run_overload(quick: bool, seed: int) -> dict:
    if quick:
        drill = run_overload_drill(flood_s=2.0, capacity_requests=15,
                                   seed=seed)
        tenants = run_two_tenant_drill(hot_s=1.5, cool_s=1.5, seed=seed)
    else:
        drill = run_overload_drill(seed=seed)
        tenants = run_two_tenant_drill(seed=seed)
    return {"quick": quick, "overload_drill": drill,
            "two_tenant_drill": tenants}


def _smoke_by_gates(name: str) -> Callable[[int], list[str]]:
    """A smoke lane that gates one quick run with the section's own gates."""
    def smoke(seed: int) -> list[str]:
        section = SECTIONS[name]
        value = section.run(True, seed)
        print(section.summary(value))
        return section.gates(value)
    return smoke


def _smoke_serving(seed: int) -> list[str]:
    """The section's gates on a quick run, plus served answers equal to
    in-process ``predict_many`` bit for bit."""
    problems = _smoke_by_gates("serving")(seed)
    parity = run_served_parity(seed=seed)
    print(f"served parity: {parity['samples']} samples, "
          f"bit_identical={parity['bit_identical']}")
    if not parity["bit_identical"]:
        problems.append("served predictions differ from in-process "
                        "predict_many")
    return problems


def _smoke_overload(seed: int) -> list[str]:
    """A short flood on a tiny pool: sheds and rejections must happen and
    no accepted request may be lost (the goodput gate needs the full
    drill's windows)."""
    result = run_overload_smoke(seed=seed)
    print(json.dumps({"gates": result["gates"],
                      "shed_counters": result["shed_counters"]}, indent=2))
    return [gate for gate, passed in result["gates"].items() if not passed]


def _smoke_quantization(seed: int) -> list[str]:
    """The section's gates on a quick run, plus: VITAL trained far enough
    to beat a random guess by ``TRAINED_VS_CHANCE``."""
    value = SECTIONS["quantization"].run(True, seed)
    print(format_quantization_summary(value))
    vital = value["accuracy"]["frameworks"]["VITAL"]["float32_mean_error_m"]
    chance = value["accuracy"]["chance_mean_error_m"]
    print(f"  VITAL float32 {vital:.2f} m vs random guess {chance:.2f} m")
    return quantization_gates(value) + (
        [f"smoke-trained VITAL reads {vital:.2f} m, above "
         f"{TRAINED_VS_CHANCE} x the {chance:.2f} m random-guess error"]
        if vital > TRAINED_VS_CHANCE * chance else [])


def _smoke_inference(seed: int) -> list[str]:
    """A quick run: the fused engine must still match the tape forward."""
    result = run_inference_benchmark(quick=True, seed=seed)
    print(format_inference_summary(result))
    return check_equivalence(result)


def _format_overhead(overhead: dict) -> str:
    return (f"p50 disabled {overhead['disabled_p50_ms']:.3f} ms, enabled "
            f"{overhead['p50_ms']['enabled']:.3f} ms (ratio "
            f"{overhead['enabled_p50_ratio']:.4f}), disabled A/A ratio "
            f"{overhead['disabled_aa_ratio']:.4f}")


def _format_observability(value: dict) -> str:
    spans = value["span_chain"]
    return (f"observability: {spans['complete_chains']}/{spans['requests']} "
            "complete span chains\n  tracing overhead: "
            + _format_overhead(value["overhead"]))


def _format_monitoring(value: dict) -> str:
    drill = value["drift_drill"]
    return ("monitoring: sampler overhead "
            + _format_overhead(value["overhead"])
            + f"\n  drift drill: detection latency "
            f"{drill['detection_latency_intervals']} intervals, calm-arm "
            f"alerts {drill['calm_alerts']}")


SECTIONS: dict[str, Section] = {section.name: section for section in (
    Section("serving", SERVING,
            run=lambda quick, seed: run_serving_benchmark(quick=quick,
                                                          seed=seed),
            smoke=_smoke_serving, gates=serving_gates,
            summary=format_serving_summary,
            keys=("config", "throughput_vs_workers", "deadline_sweep",
                  "fault_tolerance", "transport", "scaling")),
    Section("fleet", SERVING,
            run=lambda quick, seed: run_fleet_benchmark(quick=quick,
                                                        seed=seed),
            smoke=_smoke_by_gates("fleet"), gates=fleet_gates,
            summary=format_fleet_summary),
    Section("observability", SERVING, run=_run_observability,
            smoke=obs_bench.trace_smoke, gates=observability_gates,
            summary=_format_observability),
    Section("monitoring", SERVING, run=_run_monitoring,
            smoke=obs_bench.monitor_smoke, gates=monitoring_gates,
            summary=_format_monitoring),
    Section("gateway", SERVING,
            run=lambda quick, seed: run_gateway_benchmark(quick=quick,
                                                          seed=seed),
            smoke=lambda seed: run_gateway_smoke(seed=seed)["problems"],
            gates=gateway_gates, summary=format_gateway_summary),
    Section("overload", SERVING, run=_run_overload, smoke=_smoke_overload,
            gates=overload_gates, summary=format_overload_summary),
    Section("inference", INFERENCE,
            run=lambda quick, seed: run_inference_benchmark(quick=quick,
                                                            seed=seed),
            smoke=_smoke_inference, gates=inference_gates,
            summary=format_inference_summary,
            keys=("config", "single_sample", "batch", "equivalence",
                  "kernels")),
    Section("quantization", INFERENCE,
            run=lambda quick, seed: run_quantization_benchmark(smoke=quick,
                                                               seed=seed),
            smoke=_smoke_quantization, gates=quantization_gates,
            summary=format_quantization_summary),
)}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def check(names: list[str], out: str | None = None) -> list[str]:
    """Gate recorded sections without re-running anything; returns the
    problems found (empty = pass)."""
    if names:
        sections = [SECTIONS[name] for name in names]
    elif out is not None:
        try:
            schema = load(out)["schema"]
        except (OSError, ValueError) as error:
            return [str(error)]
        sections = [s for s in SECTIONS.values() if s.schema == schema]
    else:
        sections = list(SECTIONS.values())
    problems = []
    for section in sections:
        path = out or section.file
        try:
            value = section.take(load(path, section.schema))
        except (OSError, ValueError) as error:
            problems.append(f"{section.name}: {error}")
            continue
        if value is None:
            problems.append(f"{section.name}: missing from {path}")
            continue
        if out is None and is_quick(value):
            problems.append(f"{section.name}: recorded by a quick run; the "
                            "committed record must be a full one")
        try:
            print(section.summary(value))
            problems += [f"{section.name}: {problem}"
                         for problem in section.gates(value)]
        except (KeyError, TypeError) as error:
            problems.append(f"{section.name}: malformed record ({error!r})")
    return problems


def run(names: list[str], quick: bool = False, seed: int = 0,
        out: str | None = None) -> list[str]:
    """Measure, summarize, gate and write each named section.  Raises
    ValueError before anything runs when a write would be refused."""
    for name in names:
        refusal = write_refusal(name, quick, out)
        if refusal is not None:
            raise ValueError(refusal)
    problems = []
    for name in names:
        section = SECTIONS[name]
        value = section.run(quick, seed)
        print(section.summary(value))
        problems += [f"{name}: {problem}" for problem in section.gates(value)]
        print(f"wrote {write(name, value, out)}")
    return problems


def smoke(names: list[str], seed: int = 0) -> list[str]:
    """Run each named section's CI lane; nothing is written."""
    problems = []
    for name in names:
        print(f"== smoke {name}", flush=True)
        problems += [f"{name}: {problem}"
                     for problem in SECTIONS[name].smoke(seed)]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run, smoke-test or check the recorded benchmark "
                    "sections of BENCH_serving.json and BENCH_inference.json.")
    parser.add_argument("command", choices=("run", "smoke", "check"))
    parser.add_argument("sections", nargs="*", metavar="section",
                        help=f"any of {', '.join(SECTIONS)} (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="run: shrink the load so each section runs in "
                             "seconds (never written over a full record)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="record path for run/check (default: the "
                             "section's own file in the current directory)")
    args = parser.parse_args(argv)
    names = args.sections
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        parser.error(f"unknown section(s): {', '.join(unknown)}")
    if args.command == "run" and args.out and len(
            {SECTIONS[name].file for name in names or SECTIONS}) > 1:
        parser.error("--out takes sections of one record file")
    try:
        if args.command == "check":
            problems = check(names, args.out)
        elif args.command == "run":
            problems = run(names or list(SECTIONS), args.quick, args.seed,
                           args.out)
        else:
            problems = smoke(names or list(SECTIONS), args.seed)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{args.command}: {'FAILED' if problems else 'OK'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
