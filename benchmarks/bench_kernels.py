"""Record validation for the ``kernels`` section of ``BENCH_inference.json``.

``--check`` validates the *committed* record without re-timing anything:
the schema must be v3 with a ``kernels`` section present, and
:func:`repro.infer.benchmark.check_kernel_gates` must pass (on full
records, the int8-resident hot-GEMM speedup floor).  A fresh timing of
the same lane runs in ``python -m repro.cli infer-bench --quick``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py --check
"""

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.infer.benchmark import (
    SCHEMA,
    check_kernel_gates,
    format_kernel_summary,
    load_baseline,
)


def run_check(path: str | None = None, verbose: bool = True) -> list[str]:
    """Validate the committed record's ``kernels`` section; returns the
    list of problems (empty = pass).  Never re-times anything."""
    path = path or os.path.join(REPO_ROOT, "BENCH_inference.json")
    record = load_baseline(path)
    problems: list[str] = []
    if record.get("schema") != SCHEMA:
        problems.append(
            f"record schema {record.get('schema')!r} is not {SCHEMA!r}; "
            "re-record with `python -m repro.cli infer-bench --out "
            f"{path}`"
        )
    elif "kernels" not in record:
        problems.append(
            f"v3 record at {path} has no `kernels` section; re-record it"
        )
    else:
        problems.extend(check_kernel_gates(record))
    if verbose:
        print(f"kernel record gate ({path}):")
        if "kernels" in record:
            print(format_kernel_summary(record["kernels"]))
        if problems:
            print("  FAIL:")
            for problem in problems:
                print(f"    - {problem}")
        else:
            print("  PASS")
    return problems


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="validate the committed BENCH_inference.json "
                             "kernels section without re-timing")
    parser.add_argument("--bench", default=None,
                        help="record path for --check "
                             "(default: <repo>/BENCH_inference.json)")
    args = parser.parse_args()
    if not args.check:
        parser.error("pass --check")
    sys.exit(1 if run_check(args.bench) else 0)
