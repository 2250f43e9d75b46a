"""Quantization trade-off benchmark: accuracy vs latency vs footprint.

Runs :func:`repro.quant.run_quantization_benchmark` — snapshot bytes,
logit fidelity and single-sample latency for float32 / per-tensor int8 /
per-channel int8 through the fused engine, plus mean localization error
for VITAL and the dense baselines on a fixed-seed synthetic survey — and
records it under the ``quantization`` section of ``BENCH_inference.json``
(schema ``repro.infer.bench.v3``).  If the target file has no comparable
inference record yet, the inference benchmark is run first so the merged
record stays self-contained.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_quantization.py [--smoke]

``--smoke`` shrinks iteration counts and training epochs so the whole
benchmark runs in CI-friendly seconds while keeping the full record shape.
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.infer import run_inference_benchmark, write_benchmark
from repro.quant import (
    attach_quantization_section,
    format_quantization_summary,
    run_quantization_benchmark,
)


def _load_or_run_base(path: str, smoke: bool) -> dict:
    """Reuse the recorded inference benchmark when present, else run it."""
    if os.path.exists(path):
        try:
            with open(path) as handle:
                record = json.load(handle)
            if record.get("schema", "").startswith("repro.infer.bench."):
                return record
        except (json.JSONDecodeError, OSError):
            pass
    print("no inference record at "
          f"{path}; running the inference benchmark first...")
    return run_inference_benchmark(quick=smoke)


def run(smoke: bool = False, out: str | None = None, seed: int = 0) -> dict:
    destination = out or os.path.join(REPO_ROOT, "BENCH_inference.json")
    base = _load_or_run_base(destination, smoke)
    quantization = run_quantization_benchmark(smoke=smoke, seed=seed)
    merged = attach_quantization_section(base, quantization)
    print()
    print(format_quantization_summary(quantization))
    print(f"wrote {write_benchmark(merged, destination)}")
    return merged


def test_quantization_tradeoff():
    """Acceptance gate: per-channel int8 snapshots ship ≤ 35% of the
    float32 bytes, the quantized engine keeps argmax agreement high, and
    per-channel never degrades localization more than per-tensor does
    beyond noise."""
    smoke = os.environ.get("BENCH_QUICK", "") not in ("", "0")
    merged = run(smoke=smoke, out="/tmp/bench_quantization_test.json")
    record = merged["quantization"]
    engine = record["engine"]
    assert engine["snapshot_ratio_per_channel"] <= 0.35
    assert engine["fidelity"]["per_channel"]["argmax_agreement"] >= 0.95
    vital = record["accuracy"]["frameworks"]["VITAL"]
    gate_m = max(0.5, 0.15 * vital["float32_mean_error_m"])
    assert vital["per_channel_delta_m"] <= gate_m


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: shrink iterations and training epochs "
                             "to run in seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="merged record path "
                             "(default: <repo>/BENCH_inference.json)")
    args = parser.parse_args()
    merged = run(smoke=args.smoke, out=args.out, seed=args.seed)
    record = merged["quantization"]
    ok = (record["engine"]["snapshot_ratio_per_channel"] <= 0.35
          and record["engine"]["fidelity"]["per_channel"]["argmax_agreement"] >= 0.95)
    sys.exit(0 if ok else 1)
