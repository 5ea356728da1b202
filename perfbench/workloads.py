"""The four benchmark workloads: seeded inputs, one op each, per-op checks.

Each workload's panel holds `cycle` op inputs, made from the seed alone; op i
runs on panel entry i mod cycle. A run ends only after whole cycles, so every
run of a seed measures the same set of ops however fast the program runs,
and the outputs of the first cycle fingerprint the program's numbers (the
seed contract). Checks run after the timed loop, at the repository's own
tolerances, and return (problems, route errors, tomography errors); the
errors are route value minus the closed-form value.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gqdkit as g
from gqdkit import cli

SCHEME_TOL = 1e-8  # scheme-exact against gqd_exact, sides A and B
DENSE_TOL = 1e-10  # fast contraction against the dense oracle
MIN_BAND = (-1e-6, 1e-4)  # gqd_by_minimization minus gqd_exact
SHOTS = 100_000
REPEATS = 20
CLI_TIMEOUT_S = 120
EXACT_CYCLE = 64  # random states of ranks 1-4
ORACLE_CYCLE = 16  # random states of ranks 1-4, four of each


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # panel length: runs end after whole cycles; the digest covers the first
    build: Callable[[int], dict]
    op: Callable[[dict, int], object]
    check: Callable[[dict, int, object], tuple[list[str], list[float], list[float]]]
    # in-process op for traced runs, for a workload whose `op` is a child process
    traced_op: Callable[[dict, int], object] | None = None

    @property
    def runs_in_child(self) -> bool:
        return self.traced_op is not None


def _bell_diagonal_point(rng: np.random.Generator) -> list[float]:
    # Bell weights from a Dirichlet draw: strictly inside the tetrahedron
    w = rng.dirichlet(np.ones(4))
    return [
        float(w[2] + w[3] - w[0] - w[1]),
        float(w[1] + w[3] - w[0] - w[2]),
        float(w[1] + w[2] - w[0] - w[3]),
    ]


def _in_half(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 0.5


# ---------------------------------------------------------------------------
# exact-panel: gqd_exact plus scheme-exact on sides A and B


def _exact_build(seed: int) -> dict:
    return {"states": [g.random_state([seed, 1, k], rank=1 + k % 4) for k in range(EXACT_CYCLE)]}


def _exact_op(panel: dict, i: int) -> list[float]:
    s = panel["states"][i % len(panel["states"])]
    return [
        g.gqd_exact(s, "A").value,
        g.estimate_gqd(s, "scheme-exact", which="A").value,
        g.gqd_exact(s, "B").value,
        g.estimate_gqd(s, "scheme-exact", which="B").value,
    ]


def _exact_check(panel, i, out):
    errs = [out[1] - out[0], out[3] - out[2]]
    problems = [
        f"scheme-exact side {side} off by {e:.3e}"
        for side, e in zip("AB", errs)
        if not abs(e) <= SCHEME_TOL
    ]
    return problems, errs, []


# ---------------------------------------------------------------------------
# sampled-compare: the in-process equivalent of `gqd compare`


def _sampled_build(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    states = [g.make_family("werner", [p]) for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    states += [g.make_family("bell_diagonal", _bell_diagonal_point(rng)) for _ in range(6)]
    states += [g.random_state([seed, 2, k], rank=1 + k % 4) for k in range(12)]
    return {"seed": seed, "states": states}


def _sampled_op(panel: dict, i: int) -> list[float]:
    s = panel["states"][i % len(panel["states"])]
    exact = g.gqd_exact(s).value
    est = g.estimate_gqd(s, "scheme-sampled", shots=SHOTS, repeats=REPEATS, seed=(panel["seed"], i))
    _, qst = g.qst_estimate(s, shots_per_setting=SHOTS, seed=(panel["seed"], i, 1))
    g.resource_report()
    return [exact, est.value, est.std_err, qst.value]


def _sampled_check(panel, i, out):
    exact, value, std_err, qst = out
    problems = []
    if not _in_half(value):
        problems.append(f"scheme-sampled value {value!r} not finite in [0, 1/2]")
    if not (math.isfinite(std_err) and std_err >= 0.0):
        problems.append(f"scheme-sampled std_err {std_err!r} not finite and >= 0")
    if not _in_half(qst):
        problems.append(f"tomography value {qst!r} not finite in [0, 1/2]")
    return problems, [value - exact], [qst - exact]


# ---------------------------------------------------------------------------
# oracle-check: minimization oracle plus the dense contraction oracle


def _oracle_build(seed: int) -> dict:
    return {
        "states": [g.random_state([seed, 3, k], rank=1 + k % 4) for k in range(ORACLE_CYCLE)],
        "layouts": [lay for lay in g.standard_layouts() if lay.n_copies <= 4],
    }


def _oracle_op(panel: dict, i: int) -> list[float]:
    k = i % len(panel["states"])
    s = panel["states"][k]
    found = g.gqd_by_minimization(s, restarts=4, seed=k)
    return [found] + [g.expect_layout_dense_oracle(lay, s) for lay in panel["layouts"]]


def _oracle_check(panel, i, out):
    s = panel["states"][i % len(panel["states"])]
    dev = out[0] - g.gqd_exact(s).value
    problems = []
    if not MIN_BAND[0] <= dev <= MIN_BAND[1]:
        problems.append(f"minimization - exact = {dev:.3e} outside {MIN_BAND}")
    worst = max(
        abs(g.expect_layout(lay, s) - dense) for lay, dense in zip(panel["layouts"], out[1:])
    )
    if not worst <= DENSE_TOL:
        problems.append(f"fast contraction off the dense oracle by {worst:.3e}")
    return problems, [dev], []


# ---------------------------------------------------------------------------
# cli: one `python -m gqdkit.cli` process per op, from a fixed command mix

CLI_KINDS = ("exact", "scheme-exact", "scheme-sampled", "sweep", "layouts", "compare")


def _csv_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cli_command(seed: int, i: int) -> list[str]:
    rng = np.random.default_rng([seed, 4, i])
    kind = CLI_KINDS[i % len(CLI_KINDS)]
    run_seed = str(int(rng.integers(0, 2**31)))
    if kind == "exact":
        side = "AB"[int(rng.integers(2))]
        return ["exact", "--family", "pure", "--params=" + _csv_floats(rng.normal(size=8)), "--side", side]
    if kind == "scheme-exact":
        return ["scheme", "--family", "bell_diagonal", "--params=" + _csv_floats(_bell_diagonal_point(rng))]
    if kind == "scheme-sampled":
        return ["scheme", "--family", "werner", "--params=" + _csv_floats([rng.uniform()]),
                "--shots", str(SHOTS), "--repeats", str(REPEATS), "--seed", run_seed]
    if kind == "sweep":
        lo = float(rng.uniform(0.0, 0.5))
        return ["sweep", "--family", "werner", "--start", repr(lo), "--stop", repr(lo + 0.5),
                "--num", "4", "--shots", "10000", "--repeats", "5", "--seed", run_seed]
    if kind == "layouts":
        return ["layouts"] if rng.uniform() < 0.5 else ["layouts", "--name", f"P{rng.integers(1, 12)}"]
    return ["compare", "--family", "bell_diagonal", "--params=" + _csv_floats(_bell_diagonal_point(rng)),
            "--shots", str(SHOTS), "--seed", run_seed]


def _cli_build(seed: int) -> dict:
    return {"commands": [_cli_command(seed, i) for i in range(len(CLI_KINDS))]}


def _cli_op(panel: dict, i: int) -> dict:
    argv = panel["commands"][i % len(panel["commands"])]
    proc = subprocess.run(
        [sys.executable, "-m", "gqdkit.cli", *argv],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return {"rc": proc.returncode, "out": proc.stdout}


def _cli_inprocess_op(panel: dict, i: int) -> dict:
    argv = panel["commands"][i % len(panel["commands"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "out": buf.getvalue()}


def _flag(argv: list[str], name: str, default=None):
    for k, arg in enumerate(argv):
        if arg == name:
            return argv[k + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def _family_state(argv: list[str]):
    return g.make_family(_flag(argv, "--family"), [float(v) for v in _flag(argv, "--params").split(",")])


def _cli_check(panel, i, out):
    argv = panel["commands"][i % len(panel["commands"])]
    if out["rc"] != 0:
        return [f"{argv[0]} exited {out['rc']}"], [], []
    kind = CLI_KINDS[i % len(CLI_KINDS)]
    text = out["out"]
    problems, est_err, qst_err = [], [], []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{argv[0]} {label}: CLI {got!r} != in-process {want!r}")

    if kind == "layouts":
        layouts = g.standard_layouts()
        name = _flag(argv, "--name")
        want = "\n\n".join(g.render_layout(lay) for lay in layouts if name in (None, lay.label))
        expect("text", text, want + "\n")
        return problems, est_err, qst_err
    if kind == "sweep":
        seed, start, stop = int(_flag(argv, "--seed")), float(_flag(argv, "--start")), float(_flag(argv, "--stop"))
        shots, repeats = int(_flag(argv, "--shots")), int(_flag(argv, "--repeats"))
        rows = list(csv.DictReader(io.StringIO(text)))
        grid = np.linspace(start, stop, int(_flag(argv, "--num")))
        expect("row count", len(rows), len(grid))
        for k, (row, p) in enumerate(zip(rows, grid)):
            s = g.make_family("werner", [float(p)])
            exact = g.gqd_exact(s).value
            est = g.estimate_gqd(s, "scheme-sampled", shots=shots, repeats=repeats, seed=(seed, k))
            expect(f"row {k} D_exact", float(row["D_exact"]), exact)
            expect(f"row {k} D_scheme_exact", float(row["D_scheme_exact"]),
                   g.estimate_gqd(s, "scheme-exact").value)
            expect(f"row {k} D_sampled_mean", float(row["D_sampled_mean"]), est.value)
            expect(f"row {k} D_sampled_stderr", float(row["D_sampled_stderr"]), est.std_err)
            if not _in_half(float(row["D_sampled_mean"])):
                problems.append(f"sweep row {k} sampled mean not finite in [0, 1/2]")
            est_err.append(est.value - exact)
        return problems, est_err, qst_err

    payload = json.loads(text)
    state = _family_state(argv)
    side = _flag(argv, "--side", "A")
    exact = g.gqd_exact(state, side).value
    if kind == "exact":
        expect("value", payload["value"], exact)
    elif kind == "scheme-exact":
        expect("value", payload["value"], g.estimate_gqd(state, "scheme-exact", which=side).value)
    elif kind == "scheme-sampled":
        est = g.estimate_gqd(state, "scheme-sampled", which=side, shots=int(_flag(argv, "--shots")),
                             repeats=int(_flag(argv, "--repeats")), seed=int(_flag(argv, "--seed")))
        expect("value", payload["value"], est.value)
        expect("std_err", payload["std_err"], est.std_err)
        if not _in_half(payload["value"]):
            problems.append(f"scheme-sampled value {payload['value']!r} not finite in [0, 1/2]")
        est_err.append(payload["value"] - exact)
    else:  # compare
        seed, shots = int(_flag(argv, "--seed")), int(_flag(argv, "--shots"))
        est = g.estimate_gqd(state, "scheme-sampled", which=side, shots=shots, repeats=REPEATS, seed=seed)
        _, qst = g.qst_estimate(state, shots_per_setting=shots, seed=(seed, 1), which=side)
        expect("exact_value", payload["exact_value"], exact)
        expect("scheme value", payload["scheme"]["value"], est.value)
        expect("qst value", payload["qst"]["value"], qst.value)
        for label, v in (("scheme", payload["scheme"]["value"]), ("qst", payload["qst"]["value"])):
            if not _in_half(v):
                problems.append(f"compare {label} value {v!r} not finite in [0, 1/2]")
        est_err.append(payload["scheme"]["value"] - exact)
        qst_err.append(payload["qst"]["value"] - exact)
    return problems, est_err, qst_err


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("exact-panel", EXACT_CYCLE, _exact_build, _exact_op, _exact_check),
        Workload("sampled-compare", 24, _sampled_build, _sampled_op, _sampled_check),
        Workload("cli", len(CLI_KINDS), _cli_build, _cli_op, _cli_check, _cli_inprocess_op),
        Workload("oracle-check", ORACLE_CYCLE, _oracle_build, _oracle_op, _oracle_check),
    )
}
