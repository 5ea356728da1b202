"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --out perfbench/baseline.json

For each workload of BENCHMARK.json and each of seeds 1-10 it runs
perfbench/run.py for BENCHMARK.json's run_seconds with tracing off, then
once per workload with tracing on (unless --no-trace). It writes: machine
info, git SHA and src/ line count; each end-to-end metric's unit, direction
and bound from BENCHMARK.json; its median, quartiles and spread (quartile
distance over median) across seeds; and each workload's digests and traced
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha, "src_lines": src_lines}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run per workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    record = {"machine": machine(), "run_seconds": seconds, "seeds": SEEDS,
              "metrics": {m["name"]: {k: m[k] for k in ("unit", "better", "bound")} for m in spec["end_to_end"]},
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            fields, result = run(workload, seed, seconds, 0)
            runs.append((fields, result))
            print(workload, seed, result["correct"], {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        entry = {
            "correct": all(r["correct"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "digests": {str(f["seed"]): f["digest"] for f, _ in runs},
            "tail_percentile": [f["tail_percentile"] for f, _ in runs],
            "samples": [f["samples"] for f, _ in runs],
            "est_rmse": [f["est_rmse"] for f, _ in runs],
            "qst_rmse": [f["qst_rmse"] for f, _ in runs],
            "end_to_end": {name: spread([r["metrics"][name]["value"] for _, r in runs])
                           for name in record["metrics"]},
        }
        if not args.no_trace:
            fields, result = run(workload, SEEDS[0], seconds, 1)
            entry["traced"] = {"seed": SEEDS[0], "correct": result["correct"], "digest": fields["digest"],
                               "trace_problems": fields["trace_problems"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        record["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["workloads"].items():
        print(workload, "correct" if entry["correct"] else "INCORRECT",
              {k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()})


if __name__ == "__main__":
    main()
