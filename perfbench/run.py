"""gqdkit benchmark: one workload and one seed per run, a JSON result last.

    python3 perfbench/run.py --workload exact-panel --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout against its `src/`. Every workload runs in
fresh interpreters (perfbench/worker.py) with BLAS threads pinned to 1, as a
closed loop: one client, one op at a time. `--trace 0` reports the
end-to-end metrics with tracing off, each timing corrected for the host's
speed (perfbench/hostspeed.py); `--trace 1` reports the per-module metrics
of a traced run. The line before the result holds the run's fields: seed
digest, error rate, route errors, tail percentile and sample count, and the
raw timings.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact-panel", "sampled-compare", "cli", "oracle-check")
SETUP_RUNS = 5  # set-ups per run, each in a fresh interpreter; setup_s is their median
IMPORT_RUNS = 3  # child processes per import timing in a traced run
DEADLINE_S = 170  # every child is stopped by then, so a run ends within 180 s
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

UNITS = {
    "throughput_ops_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace.unattributed_ms": "ms/op",
    "trace.overhead_pct": "%",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "estimator.est_rmse": "1",
    "qst_baseline.qst_rmse": "1",
}


def unit(name: str) -> str:
    """Unit of a metric; per-module `<module>.<function>.calls|self_ms` by suffix."""
    if name in UNITS:
        return UNITS[name]
    return {"calls": "calls/op", "self_ms": "ms/op"}[name.rsplit(".", 1)[1]]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up times a cached import, as an installed package has
    env.update({name: "1" for name in PINNED})
    return env


def run_child(cmd: list[str], deadline: float) -> str:
    """Stdout of a child process; it and its own children are killed at `deadline`."""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[1:])} ran past the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    return json.loads(run_child(cmd, deadline).strip().splitlines()[-1])


def child_wall_ms(code: str, deadline: float) -> float:
    """Median wall time of a child interpreter that runs `code`."""
    times = []
    for _ in range(IMPORT_RUNS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", code], deadline)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    m = run_worker(args, "measure", deadline)
    setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_RUNS)]
    metrics = {name: m[name] for name in ("throughput_ops_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(s["corrected_setup_s"] for s in setups)
    fields = {k: m[k] for k in ("samples", "tail_percentile", "host_factor_p50", "raw_throughput_ops_s",
                                "raw_op_ms_p50", "raw_op_ms_tail", "digest", "est_rmse", "qst_rmse")}
    fields["error_rate"] = m["failed"] / m["attempted"]
    fields["raw_setup_s"] = [s["setup_s"] for s in setups]
    fields["setup_import_factors"] = [s["import_factor"] for s in setups]
    return m, metrics, fields


def traced(args, deadline: float) -> tuple[dict, dict, dict]:
    t = run_worker(args, "trace", deadline)
    metrics = dict(t["metrics"])
    metrics["cli.import_ms"] = child_wall_ms("import gqdkit", deadline)
    metrics["cli.numpy_import_ms"] = child_wall_ms("import numpy", deadline)
    fields = {k: t[k] for k in ("digest", "trace_problems")}
    fields["error_rate"] = t["failed"] / t["attempted"]
    return t, metrics, fields


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gqdkit" / "__init__.py").is_file():
        print(f"perfbench: no gqdkit sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        raw, metrics, fields = (traced if args.trace else end_to_end)(args, deadline)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    fields = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **fields,
              "failures": raw["failures"]}
    print(json.dumps(fields))
    print(json.dumps({
        "correct": raw["failed"] == 0 and not fields.get("trace_problems"),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
