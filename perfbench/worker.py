"""One workload in a fresh interpreter: set-up, then a closed loop of ops.

Set-up is the import of gqdkit, panel construction and one warm-up op; it is
timed from before the import. `--mode setup` stops there and also reports
set-up corrected for host speed (hostspeed.py). `--mode measure`
runs ops one at a time, in whole panel cycles, for at least the given seconds
with tracing off. `--mode trace` runs half the time untraced and half traced,
and checks the trace. The worker prints one JSON object on its last stdout
line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import time
from pathlib import Path

import tracing

TRACE_DIR = Path(".perfbench-traces")

# Per-op call counts that follow from each pipeline's structure.
EXPECTED_CALLS = {
    "exact-panel": {
        "contraction.expect_layout": 22,
        "estimator.outcomes_exact": 2,
        "contraction.joint_distribution": 0,
    },
    "sampled-compare": {"contraction.joint_distribution": 3, "contraction.expect_layout": 0},
    "oracle-check": {"contraction.expect_layout_dense_oracle": 7},
    "cli": {"cli.main": 1},
}


def closed_loop(op, panel, seconds: float, cycle: int, probe=None) -> dict:
    """Ops 0, 1, 2, ... one at a time, in whole cycles (at least one), for at least `seconds`.

    With a `probe`, the host factor is taken before each op and after the last.
    """
    outputs, latencies, errors, factors = [], [], {}, []
    start = time.perf_counter()
    i = 0
    while i < cycle or i % cycle or time.perf_counter() - start < seconds:
        if probe:
            factors.append(probe())
        t0 = time.perf_counter_ns()
        try:
            out = op(panel, i)
        except Exception as exc:  # a failed op is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append((time.perf_counter_ns() - t0) / 1e6)
        outputs.append(out)
        i += 1
    if probe:
        factors.append(probe())
    return {
        "outputs": outputs,
        "latencies_ms": latencies,
        "factors": factors,
        "errors": errors,
        "elapsed_s": time.perf_counter() - start,
    }


def digest(outputs: list) -> str:
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rms(errors: list[float]) -> float:
    return math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else 0.0


def check_run(wl, panel, run: dict) -> dict:
    """Per-op checks, the digest, and RMS route errors over the first cycle."""
    failed = dict(run["errors"])
    est_err, qst_err = [], []
    for i, out in enumerate(run["outputs"]):
        if out is None:
            continue
        try:
            problems, est, qst = wl.check(panel, i, out)
        except Exception as exc:  # an output the check cannot read is a failure
            problems, est, qst = [f"check raised {type(exc).__name__}: {exc}"], [], []
        if problems:
            failed[i] = "; ".join(problems)
        if i < wl.cycle:
            est_err += est
            qst_err += qst
    return {
        "attempted": len(run["outputs"]),
        "failed": len(failed),
        "failures": {str(k): v for k, v in sorted(failed.items())[:5]},
        "digest": digest(run["outputs"][: wl.cycle]),
        "est_rmse": _rms(est_err),
        "qst_rmse": _rms(qst_err),
    }


def latency_summary(run: dict) -> dict:
    """Throughput, median and tail over every op, each op divided by its host factor.

    An op's host factor is the mean of the factors taken just before and just
    after it (see hostspeed.py). The tail is the highest percentile with ten
    samples beyond it, clamped to [p90, p99] by nearest rank: below p90 it
    would be near a median (cli and oracle-check runs hold 16-32 ops), and
    above p99 a handful of host stalls decide it.
    """
    raw = run["latencies_ms"]
    f = run["factors"]
    lat = [x / ((f[i] + f[i + 1]) / 2) for i, x in enumerate(raw)]
    ordered = sorted(lat)
    n = len(ordered)
    k = min(max(n - 11, (9 * n + 9) // 10 - 1), (99 * n + 99) // 100 - 1)
    return {
        "throughput_ops_s": 1e3 * n / sum(lat),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "samples": n,
        "host_factor_p50": statistics.median(f),
        "raw_throughput_ops_s": 1e3 * n / sum(raw),
        "raw_op_ms_p50": statistics.median(raw),
        "raw_op_ms_tail": sorted(raw)[k],
    }


def measure(wl, panel, seconds: float, probe) -> dict:
    run = closed_loop(wl.op, panel, seconds, wl.cycle, probe)
    usage = resource.RUSAGE_CHILDREN if wl.runs_in_child else resource.RUSAGE_SELF
    result = check_run(wl, panel, run)
    result.update(latency_summary(run))
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    return result


def trace(wl, panel, seconds: float, seed: int, name: str) -> dict:
    problems = tracing.check_self_time_arithmetic()
    op = wl.traced_op or wl.op
    untraced = closed_loop(op, panel, seconds / 2, wl.cycle)
    plain = check_run(wl, panel, untraced)

    tracer = tracing.Tracer()
    tracer.install()
    traced = closed_loop(tracer.traced_op(op), panel, seconds / 2, wl.cycle)
    result = check_run(wl, panel, traced)
    summary = tracer.summary()

    if result["digest"] != plain["digest"]:
        problems.append(f"traced digest {result['digest']} != untraced {plain['digest']}")
    for fn, want in EXPECTED_CALLS[name].items():
        for op_i, calls in summary["per_op_calls"].items():
            if calls.get(fn, 0) != want:
                problems.append(f"{fn}: op {op_i} made {calls.get(fn, 0)} calls, expected {want}")
                break

    rate_plain = len(untraced["outputs"]) / untraced["elapsed_s"]
    rate_traced = len(traced["outputs"]) / traced["elapsed_s"]
    metrics = summary["metrics"]
    metrics["trace.overhead_pct"] = 100.0 * (rate_plain / rate_traced - 1.0)
    metrics["estimator.est_rmse"] = result["est_rmse"]
    metrics["qst_baseline.qst_rmse"] = result["qst_rmse"]

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{name}-seed{seed}.jsonl")
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    result["failures"] = {**plain["failures"], **result["failures"]}
    result["trace_problems"] = problems
    result["metrics"] = metrics
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import gqdkit  # noqa: F401  (the import is part of set-up)

    import workloads

    import_s = time.perf_counter() - t0
    import hostspeed  # it imports numpy, so not before the import is timed

    wl = workloads.WORKLOADS[args.workload]
    probe = hostspeed.child_factor if wl.runs_in_child else hostspeed.kernel_factor
    if args.mode == "setup":
        # each part of set-up against a reference job of its own kind, taken next to it
        import_factor, before = hostspeed.import_factor(), probe()
    t1 = time.perf_counter()
    panel = wl.build(args.seed)
    wl.op(panel, 0)
    rest_s = time.perf_counter() - t1
    if args.mode == "setup":
        result = {"setup_s": import_s + rest_s,
                  "corrected_setup_s": import_s / import_factor + rest_s / ((before + probe()) / 2),
                  "import_factor": import_factor}
    elif args.mode == "measure":
        result = measure(wl, panel, args.seconds, probe)
    else:
        result = trace(wl, panel, args.seconds, args.seed, args.workload)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
