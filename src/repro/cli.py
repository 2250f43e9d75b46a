"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``survey``      simulate an offline fingerprint survey and save it
``train``       train VITAL on a saved survey and save the weights
``evaluate``    localization-error report of saved weights on a survey
``compare``     run the framework comparison on one benchmark building
``buildings``   list the benchmark buildings and device tables
``infer-bench`` fused-inference throughput benchmark → BENCH_inference.json
``serve``       multi-process serving demo under closed-loop load
``quantize``    calibrate + quantize saved weights → int8 serving snapshot
``fleet``       versioned model registry + multi-tenant hot-swap serving
                (``fleet publish|list|serve|swap|gc|qos``)
``obs``         observability: per-request span traces, unified metrics,
                per-phase compute profile, continuous monitoring
                (``obs trace|stats|top|watch|slo|alerts|journal``)
``gateway``     TCP/HTTP network front door with the quantized-RSSI
                result cache (``gateway serve``)

The recorded benchmarks (``BENCH_serving.json``, ``BENCH_inference.json``)
run through ``python -m repro.bench run|smoke|check``.

Every command is deterministic given ``--seed`` (timings aside).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VITAL (DAC 2023) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    survey = sub.add_parser("survey", help="simulate an offline survey")
    survey.add_argument("--building", type=int, default=1, choices=(1, 2, 3, 4))
    survey.add_argument("--n-aps", type=int, default=24)
    survey.add_argument("--devices", default="base", choices=("base", "extended", "all"))
    survey.add_argument("--visits", type=int, default=1)
    survey.add_argument("--seed", type=int, default=0)
    survey.add_argument("--out", required=True, help="output .npz path")
    survey.add_argument("--csv", help="also export a CSV copy")

    train = sub.add_parser("train", help="train VITAL on a saved survey")
    train.add_argument("--data", required=True, help="survey .npz from `survey`")
    train.add_argument("--image-size", type=int, default=24)
    train.add_argument("--epochs", type=int, default=120)
    train.add_argument("--test-fraction", type=float, default=0.2)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="output weights .npz path")

    evaluate = sub.add_parser("evaluate", help="evaluate saved weights")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--weights", required=True)
    evaluate.add_argument("--image-size", type=int, default=24)
    evaluate.add_argument("--test-fraction", type=float, default=0.2)
    evaluate.add_argument("--seed", type=int, default=0)

    compare = sub.add_parser("compare", help="framework comparison on one building")
    compare.add_argument("--building", type=int, default=1, choices=(1, 2, 3, 4))
    compare.add_argument("--frameworks", default="VITAL,ANVIL,SHERPA,CNNLoc,WiDeep")
    compare.add_argument("--extended", action="store_true",
                         help="test on the extended (unseen) devices")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--save", help="write the result JSON here")

    sub.add_parser("buildings", help="list benchmark buildings and devices")

    bench = sub.add_parser(
        "infer-bench",
        help="benchmark the fused inference engine vs the autograd tape",
    )
    bench.add_argument("--image-size", type=int, default=24)
    bench.add_argument("--num-classes", type=int, default=32)
    bench.add_argument("--max-batch", type=int, default=32)
    bench.add_argument("--iters", type=int, default=100,
                       help="single-sample timing iterations")
    bench.add_argument("--samples", type=int, default=256,
                       help="batch-throughput workload size")
    bench.add_argument("--quick", action="store_true",
                       help="smoke mode: shrink iteration counts to run in seconds")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default="BENCH_inference.json",
                       help="record path; the run replaces only its "
                            "`inference` section, and a --quick run never "
                            "replaces a full one (default: "
                            "BENCH_inference.json)")
    bench.add_argument("--check", action="store_true",
                       help="perf regression gate: compare against the recorded "
                            "baseline at --out instead of overwriting it; exits "
                            "non-zero if fused p50 regresses > 25%%")

    serve = sub.add_parser(
        "serve",
        help="run the sharded multi-process serving layer under a "
             "closed-loop synthetic load",
    )
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes (shards)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batcher capacity in samples")
    serve.add_argument("--deadline-ms", type=float, default=2.0,
                       help="max batching delay before a partial batch dispatches")
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop load-generator client threads")
    serve.add_argument("--requests", type=int, default=24,
                       help="requests per client thread")
    serve.add_argument("--request-size", type=int, default=None,
                       help="samples per request (default: --max-batch)")
    serve.add_argument("--image-size", type=int, default=24)
    serve.add_argument("--num-classes", type=int, default=32)
    serve.add_argument("--snapshot", default=None,
                       help="serve a saved engine snapshot .pkl (float32 or "
                            "quantized) instead of compiling a fresh demo "
                            "session in-process")
    serve.add_argument("--transport", default="shm",
                       choices=("shm", "pickle"),
                       help="batch payload transport: zero-copy shared-memory "
                            "rings (default; auto-falls-back to pickle where "
                            "shared_memory is unavailable) or pickled ndarrays")
    serve.add_argument("--qos", action="append", default=None,
                       metavar="MODEL=PRIORITY[:MAX_QUEUE[:DEADLINE_MS]]",
                       help="per-route QoS admission policy (repeatable): "
                            "priority class interactive|standard|batch, "
                            "optional queue bound (samples) and default "
                            "request deadline")
    serve.add_argument("--max-queue", type=int, default=4096,
                       help="server-wide pending-request bound; overload "
                            "rejects synchronously with a structured error")
    serve.add_argument("--trace-sample", type=float, default=0.0,
                       help="fraction of requests to span-trace (0 disables "
                            "tracing; 1.0 traces everything)")
    serve.add_argument("--json", action="store_true",
                       help="emit the final stats as the repro.obs metrics "
                            "snapshot (machine-readable, same schema as "
                            "`obs stats`) instead of the human stats dump")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--quick", action="store_true",
                       help="smoke mode: shrink the load so everything runs "
                            "in seconds")

    quantize = sub.add_parser(
        "quantize",
        help="calibrate + quantize trained weights into an int8 serving "
             "snapshot (repro.quant)",
    )
    quantize.add_argument("--data", required=True,
                          help="survey .npz the weights were trained on "
                               "(drives DAM refit + calibration images)")
    quantize.add_argument("--weights", required=True,
                          help="weights .npz from `train`")
    quantize.add_argument("--image-size", type=int, default=24)
    quantize.add_argument("--test-fraction", type=float, default=0.2)
    quantize.add_argument("--seed", type=int, default=0)
    quantize.add_argument("--scheme", default="per_channel",
                          choices=("per_channel", "per_tensor"),
                          help="weight-scale granularity")
    quantize.add_argument("--mode", default="int8",
                          choices=("int8", "dequant"),
                          help="execution mode recorded in the snapshot: "
                               "int8-resident weights or dequantize-on-load")
    quantize.add_argument("--bits", type=int, default=8)
    quantize.add_argument("--max-batch", type=int, default=32)
    quantize.add_argument("--calibration-samples", type=int, default=64,
                          help="training fingerprints run through the float "
                               "engine before quantizing")
    quantize.add_argument("--out", required=True,
                          help="output snapshot .pkl path")
    quantize.add_argument("--serve-smoke", action="store_true",
                          help="after writing the snapshot, reload it into a "
                               "LocalizationServer and serve the test split")

    fleet = sub.add_parser(
        "fleet",
        help="versioned model registry + multi-tenant hot-swap serving",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    publish = fleet_sub.add_parser(
        "publish", help="publish an engine snapshot as a new model version"
    )
    publish.add_argument("--registry", required=True,
                         help="registry root directory (created if missing)")
    publish.add_argument("--model-id", required=True,
                         help="model identifier, e.g. bldg-1 or bldg-2-int8")
    publish.add_argument("--snapshot", required=True,
                         help="engine snapshot .pkl (float32 from "
                              "InferenceSession.snapshot() or quantized from "
                              "`repro quantize`)")
    publish.add_argument("--building", type=int, default=None,
                         help="building index recorded in the manifest")
    publish.add_argument("--devices", default=None,
                         help="device-set note recorded in the manifest")
    publish.add_argument("--accuracy-m", type=float, default=None,
                         help="mean localization error (m) from evaluation, "
                              "recorded in the manifest")
    publish.add_argument("--note", default=None,
                         help="free-form manifest note")
    publish.add_argument("--pin", action="store_true",
                         help="pin the new version as the serving default")

    listing = fleet_sub.add_parser(
        "list", help="list published models and versions"
    )
    listing.add_argument("--registry", required=True)
    listing.add_argument("--model-id", default=None,
                         help="restrict to one model id")

    fserve = fleet_sub.add_parser(
        "serve",
        help="deploy registry models into a FleetServer and run a "
             "closed-loop synthetic load against each",
    )
    fserve.add_argument("--registry", required=True)
    fserve.add_argument("--models", required=True,
                        help="comma-separated model specs, each "
                             "MODEL_ID[:VERSION] (default version: pinned, "
                             "else latest)")
    fserve.add_argument("--workers", type=int, default=2)
    fserve.add_argument("--max-batch", type=int, default=32)
    fserve.add_argument("--deadline-ms", type=float, default=2.0)
    fserve.add_argument("--clients", type=int, default=4,
                        help="closed-loop client threads per model")
    fserve.add_argument("--requests", type=int, default=16,
                        help="requests per client thread")
    fserve.add_argument("--json", action="store_true",
                        help="emit the final stats as the repro.obs metrics "
                             "snapshot (fleet collector included) instead of "
                             "the human stats dump")
    fserve.add_argument("--seed", type=int, default=0)

    swap = fleet_sub.add_parser(
        "swap",
        help="hot-swap drill: serve one version under load, swap to "
             "another with zero lost requests",
    )
    swap.add_argument("--registry", required=True)
    swap.add_argument("--model-id", required=True)
    swap.add_argument("--to-version", type=int, required=True,
                      help="version to hot-swap to")
    swap.add_argument("--from-version", type=int, default=None,
                      help="incumbent version (default: pinned, else latest)")
    swap.add_argument("--workers", type=int, default=2)
    swap.add_argument("--max-batch", type=int, default=32)
    swap.add_argument("--clients", type=int, default=4)
    swap.add_argument("--requests", type=int, default=16)
    swap.add_argument("--canary", action="store_true",
                      help="roll out via a canary fraction with auto "
                           "promote/rollback instead of an immediate swap")
    swap.add_argument("--canary-fraction", type=float, default=0.25)
    swap.add_argument("--seed", type=int, default=0)

    fqos = fleet_sub.add_parser(
        "qos",
        help="show or set per-model QoS admission policies "
             "(stored at <registry>/qos.json; `fleet serve` applies them)",
    )
    fqos.add_argument("--registry", required=True)
    fqos.add_argument("--model-id", default=None,
                      help="model to show or (with --set) configure")
    fqos.add_argument("--set", default=None,
                      metavar="PRIORITY[:MAX_QUEUE[:DEADLINE_MS]]",
                      help="install this policy for --model-id "
                           "(e.g. interactive:256:500)")

    gc = fleet_sub.add_parser(
        "gc",
        help="garbage-collect the registry: delete blobs unreferenced by "
             "any manifest (pinned versions always survive)",
    )
    gc.add_argument("--registry", required=True)
    gc.add_argument("--keep-latest", type=int, default=None,
                    help="first prune each model's manifests down to its "
                         "newest N versions (the pinned version is always "
                         "kept); blobs those manifests referenced become "
                         "collectable")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be reclaimed without deleting")

    obs = sub.add_parser(
        "obs",
        help="observability demos against a compiled serving stack: span "
             "traces, metrics snapshots, live tail, SLO/alert monitoring",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _obs_common(p):
        p.add_argument("--workers", type=int, default=2)
        p.add_argument("--max-batch", type=int, default=16)
        p.add_argument("--image-size", type=int, default=24)
        p.add_argument("--num-classes", type=int, default=32)
        p.add_argument("--seed", type=int, default=0)

    otrace = obs_sub.add_parser(
        "trace",
        help="serve a few requests at trace_sample=1.0 with worker "
             "profiling and print each request's span chain",
    )
    _obs_common(otrace)
    otrace.add_argument("--requests", type=int, default=8)
    otrace.add_argument("--request-size", type=int, default=4)
    otrace.add_argument("--out", default=None,
                        help="also write the trace buffer as JSON here")
    otrace.add_argument("--chrome", default=None,
                        help="also write a Chrome trace_event file here "
                             "(load in chrome://tracing or Perfetto)")

    ostats = obs_sub.add_parser(
        "stats",
        help="run a short load and print the unified metrics registry",
    )
    _obs_common(ostats)
    ostats.add_argument("--requests", type=int, default=32)
    ostats.add_argument("--prometheus", action="store_true",
                        help="print Prometheus text exposition instead of "
                             "the JSON snapshot")

    otop = obs_sub.add_parser(
        "top",
        help="live-tail per-interval request/trace rates, p95 latency and "
             "queue depth under a background closed-loop load",
    )
    _obs_common(otop)
    otop.add_argument("--duration", type=float, default=5.0,
                      help="seconds to run the background load")
    otop.add_argument("--interval", type=float, default=0.5,
                      help="seconds between refresh lines")
    otop.add_argument("--clients", type=int, default=4)

    owatch = obs_sub.add_parser(
        "watch",
        help="live monitoring dashboard: per-route latency sparklines, SLO "
             "error budgets, firing alerts and recent journal events from "
             "a continuously sampled timeline",
    )
    _obs_common(owatch)
    owatch.add_argument("--duration", type=float, default=6.0,
                        help="seconds to run the background load")
    owatch.add_argument("--interval", type=float, default=0.5,
                        help="dashboard refresh (and timeline sampling) "
                             "interval in seconds")
    owatch.add_argument("--clients", type=int, default=4)
    owatch.add_argument("--journal", default=None,
                        help="persist the event journal as JSONL here")
    owatch.add_argument("--spike-at", type=float, default=None,
                        help="inject a 500 ms latency spike this many "
                             "seconds in, to demo drift/alert firing")
    owatch.add_argument("--gateway", action="store_true",
                        help="put the TCP gateway in front of the server "
                             "and drive part of the load over the network; "
                             "adds a gateway row to the dashboard")

    oslo = obs_sub.add_parser(
        "slo",
        help="run a short load with the monitor attached and print each "
             "SLO's burn rates and remaining error budget",
    )
    _obs_common(oslo)
    oslo.add_argument("--duration", type=float, default=4.0)
    oslo.add_argument("--interval", type=float, default=0.25)
    oslo.add_argument("--clients", type=int, default=4)
    oslo.add_argument("--json", action="store_true",
                      help="print the raw SLO reports as JSON")

    oalerts = obs_sub.add_parser(
        "alerts",
        help="demo the alert engine: calm load, then an injected latency "
             "spike; prints rule states and the journal tail",
    )
    _obs_common(oalerts)
    oalerts.add_argument("--duration", type=float, default=6.0)
    oalerts.add_argument("--interval", type=float, default=0.25)
    oalerts.add_argument("--clients", type=int, default=4)
    oalerts.add_argument("--no-spike", action="store_true",
                         help="skip the injected spike (expect no alerts)")

    ojournal = obs_sub.add_parser(
        "journal",
        help="pretty-print a persisted JSONL event journal "
             "(written via `obs watch --journal` or journal_path=)",
    )
    ojournal.add_argument("path", help="journal JSONL file to read")
    ojournal.add_argument("--limit", type=int, default=None,
                          help="only the last N events")
    ojournal.add_argument("--kind", default=None,
                          help="filter by event kind (alert, drift, swap, ...)")

    gateway = sub.add_parser(
        "gateway",
        help="TCP/HTTP network front door over the serving layer: "
             "length-prefixed JSON frames + POST /localize, with the "
             "quantized-RSSI result cache",
    )
    gateway_sub = gateway.add_subparsers(dest="gateway_command",
                                         required=True)

    gserve = gateway_sub.add_parser(
        "serve",
        help="serve a compiled session (or a saved snapshot) behind the "
             "gateway until interrupted",
    )
    gserve.add_argument("--host", default="127.0.0.1")
    gserve.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral, printed at start)")
    gserve.add_argument("--workers", type=int, default=2)
    gserve.add_argument("--max-batch", type=int, default=32)
    gserve.add_argument("--image-size", type=int, default=24)
    gserve.add_argument("--num-classes", type=int, default=32)
    gserve.add_argument("--seed", type=int, default=0)
    gserve.add_argument("--snapshot", default=None,
                        help="serve this saved session snapshot (from "
                             "`quantize` or `fleet publish`) instead of a "
                             "random-weight demo session")
    gserve.add_argument("--max-connections", type=int, default=256)
    gserve.add_argument("--max-inflight", type=int, default=32,
                        help="per-connection in-flight window (backpressure)")
    gserve.add_argument("--cache-step-db", type=float, default=2.0,
                        help="RSSI quantization step for the result cache")
    gserve.add_argument("--cache-entries", type=int, default=4096,
                        help="result-cache LRU capacity (0 disables caching)")
    gserve.add_argument("--cache-ttl-s", type=float, default=60.0)
    gserve.add_argument("--request-timeout-s", type=float, default=30.0)
    gserve.add_argument("--duration", type=float, default=None,
                        help="stop after this many seconds "
                             "(default: run until Ctrl-C)")

    return parser


def _load_building(index: int, n_aps: int | None = None):
    from repro.data import buildings as building_presets

    factory = {
        1: building_presets.make_building_1,
        2: building_presets.make_building_2,
        3: building_presets.make_building_3,
        4: building_presets.make_building_4,
    }[index]
    return factory(n_aps=n_aps) if n_aps else factory()


def _device_set(name: str):
    from repro.data import ALL_DEVICES, BASE_DEVICES, EXTENDED_DEVICES

    return {"base": BASE_DEVICES, "extended": EXTENDED_DEVICES, "all": ALL_DEVICES}[name]


def _cmd_survey(args) -> int:
    from repro.data import SurveyConfig, collect_fingerprints, export_csv, save_dataset

    building = _load_building(args.building, args.n_aps)
    config = SurveyConfig(n_visits=args.visits, seed=args.seed)
    dataset = collect_fingerprints(building, _device_set(args.devices), config)
    path = save_dataset(dataset, args.out)
    print(f"surveyed {dataset.summary()}")
    print(f"wrote {path}")
    if args.csv:
        print(f"wrote {export_csv(dataset, args.csv)}")
    return 0


def _split(args):
    from repro.data import load_dataset, train_test_split

    dataset = load_dataset(args.data)
    return train_test_split(dataset, test_fraction=args.test_fraction, seed=args.seed)


def _cmd_train(args) -> int:
    from repro import nn
    from repro.vit import VitalConfig, VitalLocalizer

    train, test = _split(args)
    config = VitalConfig.fast(args.image_size, epochs=args.epochs)
    localizer = VitalLocalizer(config, seed=args.seed)
    print(f"training VITAL on {len(train)} records ({args.epochs} epochs)...")
    localizer.fit(train)
    nn.save_state_dict(localizer.model, args.out)
    errors = localizer.errors_m(test)
    print(f"test mean error {errors.mean():.2f} m (max {errors.max():.2f} m)")
    print(f"wrote weights to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro import nn
    from repro.eval import error_stats
    from repro.vit import VitalConfig, VitalLocalizer

    train, test = _split(args)
    config = VitalConfig.fast(args.image_size, epochs=1)
    localizer = VitalLocalizer(config, seed=args.seed)
    # Build the model without spending a real training budget, then load.
    quick = config.with_updates(train=type(config.train)(
        **{**config.train.__dict__, "epochs": 1}
    ))
    localizer.config = quick
    localizer.fit(train)
    nn.load_state_dict(localizer.model, args.weights)
    stats = error_stats(localizer.errors_m(test))
    print(f"evaluation: {stats.row()}")
    return 0


def _cmd_compare(args) -> int:
    from repro.eval import EvalProtocol, run_comparison
    from repro.eval.reporting import cdf_table, save_result, summary_table

    frameworks = [f.strip() for f in args.frameworks.split(",") if f.strip()]
    building = _load_building(args.building, n_aps=24)
    result = run_comparison(
        frameworks,
        buildings=[building],
        protocol=EvalProtocol(seed=args.seed),
        extended=args.extended,
        verbose=True,
    )
    print()
    print(summary_table(result))
    print()
    print(cdf_table(result))
    if args.save:
        print(f"\nwrote {save_result(result, args.save)}")
    return 0


def _cmd_infer_bench(args) -> int:
    from repro import bench
    from repro.infer import (
        check_regression,
        format_check,
        format_summary,
        run_inference_benchmark,
    )

    baseline = None
    if args.check:
        try:
            baseline = bench.SECTIONS["inference"].take(
                bench.load(args.out, bench.SECTIONS["inference"].schema))
        except FileNotFoundError:
            print(f"no recorded baseline at {args.out}; run infer-bench "
                  "without --check first")
            return 2
        if baseline is None:
            print(f"{args.out} has no inference section; run infer-bench "
                  "without --check first")
            return 2
    result = run_inference_benchmark(
        image_size=args.image_size,
        num_classes=args.num_classes,
        max_batch=args.max_batch,
        single_iters=args.iters,
        batch_samples=args.samples,
        seed=args.seed,
        quick=args.quick,
    )
    print(format_summary(result))
    if args.check:
        problems = check_regression(result, baseline)
        print()
        print(format_check(result, baseline, problems, path=args.out))
        return 1 if problems else 0
    try:
        print(f"wrote {bench.write('inference', result, args.out)}")
    except ValueError as error:
        print(error)
        return 2
    return 0


#: BLAS pinning for the timing-sensitive commands: one BLAS thread per
#: worker process, so multi-worker runs measure process sharding rather
#: than BLAS oversubscription (the same pinning as ``repro.bench``).
_BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def _reexec_with_pinned_blas() -> None:
    """Re-exec ``python -m repro.cli ...`` with BLAS thread pinning set.

    NumPy is already loaded by the time a subcommand runs (importing the
    ``repro`` package pulls it in), so setting the environment here would
    be too late for the current process; a one-time re-exec applies it
    before the interpreter starts.  ``_REPRO_BLAS_PINNED`` guards against
    looping."""
    import os

    if os.environ.get("_REPRO_BLAS_PINNED") or all(
        os.environ.get(k) == v for k, v in _BLAS_PIN.items()
    ):
        return
    env = {**os.environ, **_BLAS_PIN, "_REPRO_BLAS_PINNED": "1"}
    os.execve(sys.executable,
              [sys.executable, "-m", "repro.cli", *sys.argv[1:]], env)


def _cmd_serve(args) -> int:
    import json

    import numpy as np

    from repro.serve import LocalizationServer
    from repro.serve.bench import closed_loop_load, make_session

    if args.snapshot:
        # Serve a saved snapshot — no retraining or compiling in-process.
        # `fleet serve` deploys registry blobs through the same loader.
        from repro.fleet import read_snapshot_file
        from repro.infer import snapshot_info

        session = read_snapshot_file(args.snapshot)
        info = snapshot_info(session)
        image_size, channels = info["image_size"], info["channels"]
        print(f"loaded {args.snapshot}: {info['format']} "
              f"(image={image_size}, channels={channels}, "
              f"classes={info['num_classes']})")
    else:
        session = make_session(args.image_size, args.num_classes,
                               args.max_batch, args.seed)
        image_size, channels = args.image_size, 3
    qos = None
    if args.qos:
        from repro.serve import QosPolicy

        qos = {}
        for spec in args.qos:
            model, sep, policy = spec.partition("=")
            if not sep or not model.strip():
                print(f"bad --qos {spec!r} "
                      "(want MODEL=PRIORITY[:MAX_QUEUE[:DEADLINE_MS]])")
                return 2
            try:
                qos[model.strip()] = QosPolicy.parse(policy)
            except ValueError as error:
                print(f"bad --qos {spec!r}: {error}")
                return 2
    request_size = args.request_size or args.max_batch
    requests = max(2, args.requests // 4) if args.quick else args.requests
    pool = np.random.default_rng(args.seed + 1).standard_normal(
        (4 * args.max_batch, image_size, image_size, channels)
    ).astype(np.float32)
    print(f"starting {args.workers} worker(s), max_batch={args.max_batch}, "
          f"deadline={args.deadline_ms}ms, transport={args.transport} ...")
    with LocalizationServer(session, workers=args.workers,
                            max_batch=args.max_batch,
                            max_delay_ms=args.deadline_ms,
                            transport=args.transport,
                            trace_sample=args.trace_sample,
                            qos=qos, max_queue=args.max_queue) as server:
        run = closed_loop_load(
            server, pool, clients=args.clients,
            requests_per_client=requests,
            request_size=request_size, seed=args.seed,
        )
        metrics = server.metrics_snapshot()
    if args.json:
        # Machine-readable: the unified obs metrics snapshot (same schema
        # as `repro obs stats` and the Prometheus exporter's source).
        print(json.dumps(metrics, indent=2))
        return 1 if run["errors"] else 0
    print(f"served {run['total_samples']} samples in {run['elapsed_s']:.2f}s "
          f"→ {run['samples_per_s']:.0f} samples/s "
          f"({args.clients} closed-loop clients)")
    print("server stats:")
    print(json.dumps(run["stats"], indent=2))
    return 1 if run["errors"] else 0


def _cmd_quantize(args) -> int:
    """Calibration → quantized snapshot → (optionally) quantized serving."""
    import pickle

    from repro import nn
    from repro.quant import quantize_session
    from repro.vit import VitalConfig, VitalLocalizer

    train, test = _split(args)
    config = VitalConfig.fast(args.image_size, epochs=1)
    localizer = VitalLocalizer(config, seed=args.seed)
    # Build the model + DAM without spending a real training budget, then
    # load the trained weights (same recipe as `evaluate`).
    localizer.fit(train)
    nn.load_state_dict(localizer.model, args.weights)

    float_session = localizer.compile_inference(max_batch=args.max_batch)
    calibration_images = localizer.dam.process(
        train.features[: args.calibration_samples], training=False, as_image=True
    )
    quantized = quantize_session(
        float_session,
        scheme=args.scheme,
        mode=args.mode,
        bits=args.bits,
        calibration_images=calibration_images,
    )

    float_bytes = len(pickle.dumps(float_session.snapshot()))
    snapshot = quantized.snapshot()
    quant_bytes = len(pickle.dumps(snapshot))
    print(f"calibrated on {quantized.calibration['samples']} fingerprints; "
          f"quantized {args.scheme}/int{args.bits}, mode={args.mode}")
    print(f"snapshot: float32 {float_bytes:,} B -> int8 {quant_bytes:,} B "
          f"({quant_bytes / float_bytes:.1%} of float32, "
          f"{float_bytes / quant_bytes:.1f}x smaller)")

    float_error = float(localizer.errors_m(test).mean())
    localizer._session = quantized
    quant_error = float(localizer.errors_m(test).mean())
    print(f"test mean error: float32 {float_error:.2f} m | "
          f"quantized {quant_error:.2f} m (Δ {quant_error - float_error:+.3f} m)")

    with open(args.out, "wb") as handle:
        pickle.dump(snapshot, handle)
    print(f"wrote {args.out}")

    if args.serve_smoke:
        import numpy as np

        from repro.serve import LocalizationServer

        with open(args.out, "rb") as handle:
            reloaded = pickle.load(handle)
        images = localizer.dam.process(test.features, training=False, as_image=True)
        local = quantized.predict_many(images.astype(np.float32))
        print("serve smoke: 2 workers restoring the int8 snapshot...")
        with LocalizationServer(reloaded, workers=2,
                                max_batch=args.max_batch) as server:
            served = server.predict_many(images, timeout=60.0)
            stats = server.stats()
        match = bool((served == local).all())
        print(f"  served {len(served)} test fingerprints, bit-identical to "
              f"the local quantized session: {match}")
        print(f"  snapshot transport: {stats['snapshot']}")
        if not match:
            return 1
    return 0


def _fleet_publish(args) -> int:
    from repro.fleet import ModelRegistry, read_snapshot_file

    registry = ModelRegistry(args.registry)
    snapshot = read_snapshot_file(args.snapshot)
    metadata = {
        key: value
        for key, value in (
            ("building", args.building),
            ("devices", args.devices),
            ("accuracy_m", args.accuracy_m),
            ("note", args.note),
            ("source", args.snapshot),
        )
        if value is not None
    }
    version = registry.publish(args.model_id, snapshot, metadata=metadata)
    entry = registry.get(args.model_id, version)
    print(f"published {entry!r}")
    if args.pin:
        registry.pin(args.model_id, version)
        print(f"pinned {args.model_id} to v{version}")
    return 0


def _fleet_list(args) -> int:
    from repro.fleet import ModelRegistry

    registry = ModelRegistry(args.registry)
    entries = registry.list(args.model_id)
    if not entries:
        scope = f"model {args.model_id!r}" if args.model_id else "registry"
        print(f"{scope} has no published versions ({registry.root})")
        return 0
    print(f"{'model':<20} {'ver':>4} {'format':<26} {'classes':>7} "
          f"{'bytes':>12}  metadata")
    for entry in entries:
        pinned = registry.pinned(entry.model_id)
        marker = " *pinned" if pinned == entry.version else ""
        meta = ", ".join(
            f"{key}={value}" for key, value in sorted(entry.metadata.items())
            if key != "source"
        )
        print(f"{entry.model_id:<20} {entry.version:>4} "
              f"{entry.info['format']:<26} {entry.info['num_classes']:>7} "
              f"{entry.bytes:>12,}  {meta}{marker}")
    return 0


def _fleet_serve(args) -> int:
    import json
    import os
    import threading

    import numpy as np

    from repro.fleet import FleetServer, ModelRegistry
    from repro.serve.bench import closed_loop_load

    registry = ModelRegistry(args.registry)
    specs = []
    for raw in args.models.split(","):
        raw = raw.strip()
        if not raw:
            continue
        model_id, _, version = raw.partition(":")
        specs.append((model_id, int(version) if version else None))
    if not specs:
        print("no models given (--models MODEL_ID[:VERSION],...)")
        return 2

    with FleetServer(registry, workers=args.workers,
                     max_batch=args.max_batch,
                     max_delay_ms=args.deadline_ms,
                     qos_path=os.path.join(args.registry, "qos.json")
                     ) as server:
        pools = {}
        for index, (model_id, version) in enumerate(specs):
            info = server.deploy(model_id, version)
            # Per-model offset keeps pools distinct yet deterministic
            # under --seed (never the salted built-in hash()).
            rng = np.random.default_rng(args.seed + index)
            pools[model_id] = rng.standard_normal(
                (4 * args.max_batch, info["image_size"], info["image_size"],
                 info["channels"])
            ).astype(np.float32)
            print(f"deployed {model_id}@v{info['version']} "
                  f"({info['format']}, classes={info['num_classes']})")

        runs: dict[str, dict] = {}

        def hammer(model_id: str) -> None:
            runs[model_id] = closed_loop_load(
                server, pools[model_id], clients=args.clients,
                requests_per_client=args.requests,
                request_size=max(1, args.max_batch // 4),
                seed=args.seed, model=model_id,
            )

        threads = [threading.Thread(target=hammer, args=(model_id,),
                                    daemon=True)
                   for model_id, _ in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
        metrics = server.metrics_snapshot()

    errors = sum(len(run["errors"]) for run in runs.values())
    if args.json:
        print(json.dumps(metrics, indent=2))
        return 1 if errors else 0
    for model_id, run in sorted(runs.items()):
        print(f"  {model_id}: {run['total_samples']} samples at "
              f"{run['samples_per_s']:.0f} samples/s, "
              f"errors={len(run['errors'])}")
    print("fleet stats:")
    print(json.dumps(stats["fleet"], indent=2, default=str))
    return 1 if errors else 0


def _fleet_swap(args) -> int:
    import json
    import threading

    import numpy as np

    from repro.fleet import FleetServer, ModelRegistry
    from repro.serve.bench import closed_loop_load

    registry = ModelRegistry(args.registry)
    with FleetServer(registry, workers=args.workers,
                     max_batch=args.max_batch, max_delay_ms=1.0) as server:
        info = server.deploy(args.model_id, args.from_version)
        print(f"serving {args.model_id}@v{info['version']}; streaming "
              f"{args.clients}x{args.requests} requests...")
        rng = np.random.default_rng(args.seed)
        pool = rng.standard_normal(
            (4 * args.max_batch, info["image_size"], info["image_size"],
             info["channels"])
        ).astype(np.float32)
        out: list[dict] = []
        stream = threading.Thread(
            target=lambda: out.append(closed_loop_load(
                server, pool, clients=args.clients,
                requests_per_client=args.requests,
                request_size=max(1, args.max_batch // 4),
                seed=args.seed, model=args.model_id,
            )),
            daemon=True,
        )
        stream.start()
        import time as _time

        _time.sleep(0.05)
        if args.canary:
            # Ask for at most half the canary-routed share of the stream so
            # the decision can land before traffic runs out; if the stream
            # still ends undecided, settle from the evidence gathered
            # rather than hanging a server with no remaining traffic.
            expected_canary = args.clients * args.requests * args.canary_fraction
            server.start_canary(args.model_id, args.to_version,
                                fraction=args.canary_fraction,
                                min_requests=max(4, int(expected_canary / 2)))
            stream.join()
            status = server.canary_status(args.model_id)
            if status is not None and status["active"]:
                decision = "rollback" if status["batch_errors"] else "promote"
                try:
                    server.decide_canary(args.model_id, decision,
                                         reason="stream ended before "
                                                "min_requests")
                except ValueError:
                    pass  # decided itself between status() and here
            outcome = server.wait_canary(args.model_id, timeout=120.0)
            print(f"canary decision: {outcome['decision']} "
                  f"({outcome['reason']})")
        else:
            report = server.swap(args.model_id, args.to_version)
            stream.join()
            print(f"swap report: {json.dumps(report, indent=2)}")
        run = out[0]
        print(f"streamed {run['total_samples']} samples, "
              f"lost={len(run['errors'])}")
        deployments = server.deployments()
    print(f"now serving: {deployments}")
    return 1 if run["errors"] else 0


def _fleet_gc(args) -> int:
    from repro.fleet import ModelRegistry

    registry = ModelRegistry(args.registry)
    report = registry.gc(keep_latest=args.keep_latest, dry_run=args.dry_run)
    verb = "would reclaim" if args.dry_run else "reclaimed"
    for entry in report["removed_versions"]:
        print(f"  pruned {entry['model_id']}@v{entry['version']}")
    for digest in report["removed_blobs"]:
        print(f"  removed blob {digest[:12]}…")
    print(f"gc: {len(report['removed_versions'])} version(s) pruned, "
          f"{len(report['removed_blobs'])} blob(s) removed — {verb} "
          f"{report['bytes_reclaimed']:,} bytes"
          + (" (dry run)" if args.dry_run else ""))
    return 0


def _fleet_qos(args) -> int:
    """Show or set the per-model admission policies a registry's
    ``fleet serve`` runs will apply (persisted at <registry>/qos.json)."""
    import os

    from repro.serve import QosPolicy, load_qos_file, save_qos_file

    qos_path = os.path.join(args.registry, "qos.json")
    policies = load_qos_file(qos_path)
    if args.set is not None:
        if not args.model_id:
            print("--set needs --model-id")
            return 2
        try:
            policies[args.model_id] = QosPolicy.parse(args.set)
        except ValueError as error:
            print(f"bad --set {args.set!r}: {error}")
            return 2
        save_qos_file(qos_path, policies)
        print(f"wrote {qos_path}")
    shown = policies
    if args.model_id:
        if args.model_id not in policies:
            print(f"no QoS policy for {args.model_id!r}")
            return 0 if args.set is None else 1
        shown = {args.model_id: policies[args.model_id]}
    if not shown:
        print("no QoS policies recorded")
        return 0
    for model_id in sorted(shown):
        entry = shown[model_id].to_dict()
        print(f"{model_id}: priority={entry['priority']} "
              f"max_queue={entry.get('max_queue')} "
              f"deadline_ms={entry.get('deadline_ms')}")
    return 0


def _cmd_fleet(args) -> int:
    handlers = {
        "publish": _fleet_publish,
        "list": _fleet_list,
        "serve": _fleet_serve,
        "swap": _fleet_swap,
        "gc": _fleet_gc,
        "qos": _fleet_qos,
    }
    return handlers[args.fleet_command](args)


def _obs_server(args, **kwargs):
    """A demo LocalizationServer + request pool for the obs subcommands."""
    import numpy as np

    from repro.serve import LocalizationServer
    from repro.serve.bench import make_session

    session = make_session(args.image_size, args.num_classes,
                           args.max_batch, args.seed)
    pool = np.random.default_rng(args.seed + 1).standard_normal(
        (4 * args.max_batch, args.image_size, args.image_size, 3)
    ).astype(np.float32)
    server = LocalizationServer(session, workers=args.workers,
                                max_batch=args.max_batch, max_delay_ms=2.0,
                                **kwargs)
    return server, pool


def _obs_trace(args) -> int:
    import json

    from repro.obs import to_chrome

    server, pool = _obs_server(args, trace_sample=1.0,
                               trace_buffer=max(64, args.requests),
                               profile=True)
    with server:
        for index in range(args.requests):
            offset = (index * args.request_size) % len(pool)
            block = pool[offset:offset + args.request_size]
            request_id = server.submit(block)
            _logits, breakdown = server.result_with_breakdown(
                request_id, timeout=60.0)
            print(f"request {breakdown['request_id']} "
                  f"(n={breakdown['n']}, transport={breakdown['transport']}, "
                  f"shard={breakdown['shard']}): "
                  f"{breakdown['total_ms']:.3f} ms total")
            for span in breakdown["spans"]:
                bar = "#" * max(1, int(40 * (span["end"] - span["start"])
                                       / (breakdown["total_ms"] / 1e3)))
                print(f"    {span['name']:<14} {span['duration_ms']:>9.3f} ms "
                      f"{bar}")
            phases = breakdown.get("compute_phases") or {}
            if phases:
                inside = ", ".join(
                    f"{name} {entry['total_ms']:.3f}ms"
                    for name, entry in phases.items())
                print(f"    `- compute phases: {inside}")
        traces = server.traces()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(server.export_traces_json())
            print(f"wrote {args.out}")
        if args.chrome:
            with open(args.chrome, "w") as handle:
                json.dump(to_chrome(traces), handle, indent=2)
            print(f"wrote {args.chrome} (open in chrome://tracing)")
        summary = server.stats()["tracing"]
    print(f"tracer: {summary['recorded']} recorded, "
          f"{summary['buffered']} buffered, {summary['dropped']} dropped")
    return 0


def _obs_stats(args) -> int:
    import json

    server, pool = _obs_server(args, trace_sample=1.0)
    with server:
        for index in range(args.requests):
            offset = (index * 4) % len(pool)
            server.result(server.submit(pool[offset:offset + 4]),
                          timeout=60.0)
        if args.prometheus:
            output = server.to_prometheus()
        else:
            output = json.dumps(server.metrics_snapshot(), indent=2)
    print(output, end="" if args.prometheus else "\n")
    return 0


def _background_load(server, pool, args):
    """Start a closed-loop hammer thread; returns (stop_event, thread)."""
    import threading

    from repro.serve.bench import closed_loop_load

    stop = threading.Event()

    def hammer() -> None:
        while not stop.is_set():
            closed_loop_load(server, pool, clients=args.clients,
                             requests_per_client=8, request_size=4,
                             seed=args.seed)

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    return stop, thread


def _obs_top(args) -> int:
    import time

    server, pool = _obs_server(args, trace_sample=0.1)
    with server:
        stop, load = _background_load(server, pool, args)
        print(f"{'time':>6} {'queue':>6} {'inflight':>8} {'p50_ms':>8} "
              f"{'p95_ms':>8} {'req/s':>8} {'traced/s':>8} {'completed':>10}")
        started = time.perf_counter()
        # Rates come from diffing consecutive stats() snapshots: lifetime
        # counters say what the server has done since birth, the per-interval
        # delta says what it is doing *now*.
        prev_t = started
        prev = server.stats()
        while time.perf_counter() - started < args.duration:
            time.sleep(args.interval)
            now = time.perf_counter()
            stats = server.stats()
            dt = max(1e-9, now - prev_t)
            req_rate = (stats["requests"]["completed"]
                        - prev["requests"]["completed"]) / dt
            traced_rate = (stats["tracing"]["recorded"]
                           - prev["tracing"]["recorded"]) / dt
            latency = stats["request_latency_ms"]
            print(f"{now - started:>6.1f} "
                  f"{stats['queue_depth']:>6} "
                  f"{stats['in_flight_batches']:>8} "
                  f"{(latency['p50_ms'] or 0.0):>8.2f} "
                  f"{(latency['p95_ms'] or 0.0):>8.2f} "
                  f"{req_rate:>8.1f} "
                  f"{traced_rate:>8.1f} "
                  f"{stats['requests']['completed']:>10}")
            prev, prev_t = stats, now
        stop.set()
        load.join(timeout=30.0)
    print("done")
    return 0


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values, width: int = 24) -> str:
    """Unicode sparkline of the last ``width`` values."""
    vals = [v for v in values if v is not None][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(vals)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, int((v - lo) / span * top + 0.5))]
        for v in vals)


def _monitored_server(args, **kwargs):
    return _obs_server(args, trace_sample=0.1, monitor=True,
                       monitor_interval_s=args.interval, **kwargs)


def _format_gateway_row(gw: dict | None) -> str | None:
    """One dashboard line for a ``stats()["gateway"]`` section; None when
    no gateway is attached (the watch loop then prints nothing)."""
    if not gw:
        return None
    conns = gw["connections"]
    requests = gw["requests"]
    cache = gw["cache"]
    lookups = cache["hits"] + cache["misses"]
    hit = gw["latency_ms"]["hit"]["p50_ms"]
    miss = gw["latency_ms"]["miss"]["p50_ms"]
    row = (f"  gateway :{gw['listening']['port']}  "
           f"conns {conns['open']}/{conns['limit']}  "
           f"inflight {gw['inflight']['current']}  "
           f"req {requests['responded']}/{requests['received']}  "
           f"cache {cache['hits']}/{lookups} hits")
    if hit is not None:
        row += f"  hit p50 {hit:.2f} ms"
    if miss is not None:
        row += f"  miss p50 {miss:.2f} ms"
    if gw["draining"]:
        row += "  DRAINING"
    return row


def _gateway_load(gateway, pool, stop):
    """One network client looping cache-friendly requests through the
    gateway (repeats from a small fingerprint set → visible hits)."""
    import threading

    def hammer() -> None:
        from repro.serve import GatewayClient

        try:
            client = GatewayClient(gateway.host, gateway.port, timeout=10.0)
        except OSError:
            return
        index = 0
        with client:
            while not stop.is_set():
                try:
                    client.localize(pool[index % 8])
                except Exception:
                    return
                index += 1

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    return thread


def _obs_watch(args) -> int:
    import time

    server, pool = _monitored_server(args, journal_path=args.journal)
    spiked = False
    with server:
        gateway = net_thread = None
        if args.gateway:
            from repro.serve import GatewayServer

            gateway = GatewayServer(server, max_connections=32).start()
        stop, load = _background_load(server, pool, args)
        if gateway is not None:
            net_thread = _gateway_load(gateway, pool, stop)
        started = time.perf_counter()
        while time.perf_counter() - started < args.duration:
            time.sleep(args.interval)
            elapsed = time.perf_counter() - started
            if (args.spike_at is not None and not spiked
                    and elapsed >= args.spike_at):
                # Inject straight into the latency reservoir the sampler
                # scrapes, so the spike flows through the real
                # reservoir -> registry -> timeline -> alert path.
                with server._lock:
                    for _ in range(256):
                        server._request_latency.add(500.0)
                spiked = True
            stats = server.stats()
            mon = stats["monitor"]
            timeline = server.monitor.timeline
            req_rate = timeline.latest("serve_requests_total",
                                       {"status": "completed"}, "rate") or 0.0
            print(f"t={elapsed:>5.1f}s  queue {stats['queue_depth']}  "
                  f"inflight {stats['in_flight_batches']}  "
                  f"{req_rate:7.1f} req/s")
            for route in sorted(stats["route_stats"]):
                series = timeline.values("serve_route_latency_ms",
                                         {"route": route}, "p95")
                last = series[-1][1] if series else 0.0
                print(f"  route {route:<10} p95 {last:>8.2f} ms  "
                      f"{_sparkline([v for _, v in series])}")
            for report in mon["slos"]:
                print(f"  slo {report['slo']:<16} "
                      f"budget {report['budget_remaining'] * 100:>5.1f}%  "
                      f"burn {report['fast']['burn_rate']:.1f}x/"
                      f"{report['slow']['burn_rate']:.1f}x"
                      f"{'  BREACHING' if report['breaching'] else ''}")
            firing = [r["rule"] for r in mon["alerts"]["rules"]
                      if r.get("state") == "firing"]
            events = server.monitor.journal.events(limit=3)
            tail = ", ".join(
                f"{e['kind']}:{e.get('rule', e.get('model', ''))}"
                for e in events)
            print(f"  alerts: {', '.join(firing) if firing else 'none firing'}"
                  f" · {mon['journal']['events']} events ({tail})")
            row = _format_gateway_row(stats.get("gateway"))
            if row:
                print(row)
            admission = stats.get("admission") or {}
            totals = {"admitted": 0, "rejected": 0, "shed": 0, "expired": 0}
            for cell in (admission.get("counters") or {}).values():
                for key in totals:
                    totals[key] += cell.get(key, 0)
            line = ("  admission: " + " ".join(
                f"{key} {value}" for key, value in totals.items()))
            shares = admission.get("route_shares") or {}
            if shares:
                line += "  shares " + " ".join(
                    f"{model}:{share:.2f}"
                    for model, share in sorted(shares.items()))
            shedding = admission.get("shedding") or {}
            if shedding:
                line += "  SHEDDING " + " ".join(
                    f"{model}@{state['fraction']:.2f}"
                    for model, state in sorted(shedding.items()))
            print(line)
        stop.set()
        if net_thread is not None:
            net_thread.join(timeout=15.0)
        if gateway is not None:
            gateway.close()
        load.join(timeout=30.0)
    if args.journal:
        print(f"journal written to {args.journal}")
    return 0


def _obs_slo(args) -> int:
    import json
    import time

    server, pool = _monitored_server(args)
    with server:
        stop, load = _background_load(server, pool, args)
        time.sleep(args.duration)
        stop.set()
        load.join(timeout=30.0)
        reports = server.monitor.slo_engine.last_reports()
        if args.json:
            print(json.dumps(reports, indent=2))
        else:
            print(f"{'slo':<18} {'kind':<10} {'budget':>7} {'fast':>7} "
                  f"{'slow':>7} {'state':>10}")
            for r in reports:
                state = "BREACHING" if r["breaching"] else "ok"
                print(f"{r['slo']:<18} {r['kind']:<10} "
                      f"{r['budget_remaining'] * 100:>6.1f}% "
                      f"{r['fast']['burn_rate']:>6.1f}x "
                      f"{r['slow']['burn_rate']:>6.1f}x {state:>10}")
    return 0


def _obs_alerts(args) -> int:
    import time

    server, pool = _monitored_server(args)
    with server:
        stop, load = _background_load(server, pool, args)
        time.sleep(args.duration / 2)
        if not args.no_spike:
            with server._lock:
                for _ in range(256):
                    server._request_latency.add(500.0)
            print(f"[{args.duration / 2:.1f}s] injected 500 ms latency spike")
        time.sleep(args.duration / 2)
        stop.set()
        load.join(timeout=30.0)
        status = server.monitor.alerts.status()
        print(f"{'rule':<18} {'type':<14} {'state':>8}  value")
        for rule in status["rules"]:
            print(f"{rule['rule']:<18} {rule['type']:<14} "
                  f"{rule['state']:>8}  {rule.get('value', '-')}")
        print(f"\n{status['fired']} fired, {status['resolved']} resolved; "
              "journal tail:")
        for event in server.monitor.journal.events(limit=8):
            rule = event.get("rule", event.get("model", ""))
            print(f"  #{event['seq']} t={event['ts']:.3f} "
                  f"{event['kind']:<10} {rule} "
                  f"{event.get('state', '')}")
    return 0


def _obs_journal(args) -> int:
    from repro.obs import EventJournal

    events = EventJournal.read(args.path, limit=args.limit, kind=args.kind)
    if not events:
        print("no events")
        return 0
    for event in events:
        extra = {k: v for k, v in event.items()
                 if k not in ("schema", "seq", "ts", "kind")}
        parts = []
        for key, value in extra.items():
            if isinstance(value, dict) and all(
                    not isinstance(inner, (dict, list))
                    for inner in value.values()):
                # Flat per-route maps (rebalance shares/loads, shed
                # counters) render inline instead of being dropped.
                inner = ",".join(
                    f"{ik}:{round(iv, 3) if isinstance(iv, float) else iv}"
                    for ik, iv in sorted(value.items()))
                parts.append(f"{key}=[{inner}]")
            elif not isinstance(value, (dict, list)):
                parts.append(f"{key}={value}")
        print(f"#{event['seq']:>4} ts={event['ts']:.3f} "
              f"{event['kind']:<14} {' '.join(parts)}")
    return 0


def _cmd_obs(args) -> int:
    handlers = {
        "trace": _obs_trace,
        "stats": _obs_stats,
        "top": _obs_top,
        "watch": _obs_watch,
        "slo": _obs_slo,
        "alerts": _obs_alerts,
        "journal": _obs_journal,
    }
    return handlers[args.obs_command](args)


def _gateway_serve(args) -> int:
    from repro.serve import GatewayServer, LocalizationServer
    from repro.serve.bench import make_session

    if args.snapshot:
        from repro.fleet import read_snapshot_file
        from repro.infer import snapshot_info

        session = read_snapshot_file(args.snapshot)
        info = snapshot_info(session)
        print(f"loaded {args.snapshot}: {info['format']} "
              f"(image={info['image_size']}, channels={info['channels']}, "
              f"classes={info['num_classes']})")
    else:
        session = make_session(args.image_size, args.num_classes,
                               args.max_batch, args.seed)
    with LocalizationServer(session, workers=args.workers,
                            max_batch=args.max_batch,
                            max_delay_ms=2.0) as server:
        gateway = GatewayServer(
            server, host=args.host, port=args.port,
            max_connections=args.max_connections,
            max_inflight=args.max_inflight,
            request_timeout_s=args.request_timeout_s,
            cache_step_db=args.cache_step_db,
            cache_entries=args.cache_entries,
            cache_ttl_s=args.cache_ttl_s if args.cache_ttl_s > 0 else None,
        ).start()
        try:
            info = server.route_info()
            n = info["image_size"] ** 2 * info["channels"]
            print(f"gateway listening on {gateway.host}:{gateway.port} "
                  f"({args.workers} workers, cache step "
                  f"{args.cache_step_db} dB, {args.cache_entries} entries)")
            print(f"  framed JSON: 4-byte BE length + "
                  f'{{"id": 1, "fingerprint": [{n} floats]}}')
            print(f"  HTTP: curl -s http://{gateway.host}:{gateway.port}"
                  f"/localize -d '{{\"fingerprint\": [...]}}'")
            import time

            started = time.monotonic()
            while args.duration is None \
                    or time.monotonic() - started < args.duration:
                time.sleep(0.5)
        except KeyboardInterrupt:
            print("\ndraining ...")
        finally:
            gateway.close()
            summary = gateway.summary()
            requests = summary["requests"]
            cache = summary["cache"]
            print(f"served {requests['responded']} responses over "
                  f"{summary['connections']['total']} connections "
                  f"({cache['hits']} cache hits, "
                  f"{requests['timeouts']} timeouts, "
                  f"{requests['shed']} shed)")
    return 0


def _cmd_gateway(args) -> int:
    handlers = {"serve": _gateway_serve}
    return handlers[args.gateway_command](args)


def _cmd_buildings(_args) -> int:
    from repro.data import ALL_DEVICES
    from repro.data.buildings import benchmark_buildings

    print("benchmark buildings (Fig. 4):")
    for building in benchmark_buildings():
        print(f"  {building.describe()}")
    print("\ndevices (Tables I & II):")
    for device in ALL_DEVICES:
        print(f"  {device.describe()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if argv is None and args.command in ("serve", "infer-bench", "obs",
                                         "gateway"):
        # Real CLI invocation only (never when main() is called with an
        # explicit argv, e.g. from tests): pin BLAS threads for the
        # timing-sensitive benchmark commands via a one-time re-exec.
        _reexec_with_pinned_blas()
    handlers = {
        "survey": _cmd_survey,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "compare": _cmd_compare,
        "buildings": _cmd_buildings,
        "infer-bench": _cmd_infer_bench,
        "serve": _cmd_serve,
        "quantize": _cmd_quantize,
        "fleet": _cmd_fleet,
        "obs": _cmd_obs,
        "gateway": _cmd_gateway,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
