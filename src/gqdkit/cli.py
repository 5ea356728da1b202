"""Command-line front end: exact values, scheme simulation, sweeps, diagrams.

Exit codes: 0 success, 2 invalid input, 3 internal numerical-contract
violation. Every command is deterministic given its full flag set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import NumericalContractError, StateValidationError
from .estimator import estimate_gqd
from .gqd_core import gqd_exact, k_matrix
from .pairing import render_layout, standard_layouts
from .qst_baseline import qst_estimate, resource_report
from .statekit import TwoQubitState, decompose, make_family, state_from_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

SWEEP_CSV_HEADER = "param,D_exact,D_scheme_exact,D_sampled_mean,D_sampled_stderr"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, output: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        raise StateValidationError(f"cannot write --output {output!r}: {exc.strerror}") from exc


def _parse_params(raw: str | None) -> list[float]:
    if raw is None or raw.strip() == "":
        return []
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise StateValidationError(f"could not parse --params {raw!r}: {exc}") from exc


def _resolve_state(args) -> TwoQubitState:
    if args.file is not None and args.family is not None:
        raise StateValidationError("give either --file or --family, not both")
    if args.file is not None:
        path = Path(args.file)
        if not path.exists():
            raise StateValidationError(f"state file {args.file!r} does not exist")
        return state_from_json(path.read_text())
    if args.family is not None:
        return make_family(args.family, _parse_params(args.params))
    raise StateValidationError("a state source is required: --file or --family")


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", help="state file (JSON)")
    p.add_argument("--family", help="named family (werner, bell_diagonal, ...)")
    p.add_argument("--params", help="comma-separated family parameters")


def _add_io_args(p: argparse.ArgumentParser, formats=("json", "csv"), default="json") -> None:
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--output", help="write to this path instead of stdout")


def cmd_exact(args) -> int:
    state = _resolve_state(args)
    bloch = decompose(state)
    k = k_matrix(bloch, args.side)
    g = gqd_exact(state, args.side)
    if args.format == "json":
        payload = {
            "route": "bloch-exact",
            "side": args.side,
            "value": g.value,
            "std_err": 0.0,
            "eigenvalues": list(g.eigenvalues),
            "outcomes": None,
            "moments": None,
            "bloch": {
                "x": [float(v) for v in bloch.x],
                "y": [float(v) for v in bloch.y],
                "T": [[float(v) for v in row] for row in bloch.T],
            },
            "k_matrix": [[float(v) for v in row] for row in k.entries],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        header = "side,value,lambda1,lambda2,lambda3"
        row = ",".join([args.side] + [_fmt(v) for v in (g.value, *g.eigenvalues)])
        _emit(f"{header}\n{row}", args.output)
    return EXIT_OK


def _check_sampling(args) -> None:
    """Reject sampling flags the sampled route cannot run with."""
    if args.shots is None:
        return
    if args.shots < 1:
        raise StateValidationError(f"--shots must be >= 1, got {args.shots}")
    if args.repeats < 2:
        raise StateValidationError(f"--repeats must be >= 2, got {args.repeats}")
    if args.seed is None:
        raise StateValidationError("--seed is required when --shots is given")


def _scheme_estimate(args, state: TwoQubitState):
    _check_sampling(args)
    if args.shots is None:
        return estimate_gqd(state, "scheme-exact", which=args.side)
    return estimate_gqd(
        state,
        "scheme-sampled",
        which=args.side,
        shots=args.shots,
        repeats=args.repeats,
        seed=args.seed,
    )


def cmd_scheme(args) -> int:
    state = _resolve_state(args)
    est = _scheme_estimate(args, state)
    if args.format == "json":
        payload = est.to_dict()
        payload["side"] = args.side
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        cols = (
            ["route", "side", "value", "std_err", "lambda1", "lambda2", "lambda3"]
            + [f"c{i}" for i in range(1, 12)]
            + ["M1", "M2", "M3"]
        )
        row = [est.route, args.side, _fmt(est.value), _fmt(est.std_err)]
        row += [_fmt(v) for v in est.eigenvalues]
        row += [_fmt(v) for v in est.outcomes.c]
        row += [_fmt(v) for v in (est.moments.m1, est.moments.m2, est.moments.m3)]
        _emit(",".join(cols) + "\n" + ",".join(row), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.num < 1:
        raise StateValidationError(f"--num must be >= 1, got {args.num}")
    _check_sampling(args)
    base = _parse_params(args.params)
    grid = np.linspace(args.start, args.stop, args.num)

    rows = []
    for i, value in enumerate(grid):
        params = list(base) if base else [0.0] * max(1, args.sweep_index + 1)
        if args.sweep_index >= len(params):
            raise StateValidationError(
                f"--sweep-index {args.sweep_index} outside the parameter list"
            )
        params[args.sweep_index] = float(value)
        state = make_family(args.family, params)
        d_exact = gqd_exact(state, args.side).value
        d_scheme = estimate_gqd(state, "scheme-exact", which=args.side).value
        if args.shots is None:
            sampled_mean, sampled_err = None, None
        else:
            est = estimate_gqd(
                state,
                "scheme-sampled",
                which=args.side,
                shots=args.shots,
                repeats=args.repeats,
                seed=(args.seed, i),
            )
            sampled_mean, sampled_err = est.value, est.std_err
        rows.append((float(value), d_exact, d_scheme, sampled_mean, sampled_err))

    if args.format == "csv":
        lines = [SWEEP_CSV_HEADER]
        for row in rows:
            lines.append(
                ",".join("" if v is None else _fmt(v) for v in row)
            )
        _emit("\n".join(lines), args.output)
    else:
        payload = [
            {
                "param": r[0],
                "D_exact": r[1],
                "D_scheme_exact": r[2],
                "D_sampled_mean": r[3],
                "D_sampled_stderr": r[4],
            }
            for r in rows
        ]
        _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def cmd_layouts(args) -> int:
    layouts = standard_layouts()
    if args.name is not None:
        by_label = {lay.label: lay for lay in layouts}
        if args.name not in by_label:
            raise StateValidationError(
                f"unknown layout {args.name!r}; expected one of {sorted(by_label)}"
            )
        _emit(render_layout(by_label[args.name]), args.output)
    else:
        _emit("\n\n".join(render_layout(lay) for lay in layouts), args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_sampling(args)
    state = _resolve_state(args)
    exact = gqd_exact(state, args.side).value
    scheme = estimate_gqd(
        state,
        "scheme-sampled",
        which=args.side,
        shots=args.shots,
        repeats=args.repeats,
        seed=args.seed,
    )
    _, qst = qst_estimate(state, shots_per_setting=args.shots, seed=(args.seed, 1), which=args.side)
    report = resource_report()
    payload = {
        "side": args.side,
        "shots_per_setting": args.shots,
        "repeats": args.repeats,
        "seed": args.seed,
        "exact_value": exact,
        "scheme": scheme.to_dict(),
        "scheme_abs_error": abs(scheme.value - exact),
        "qst": qst.to_dict(),
        "qst_abs_error": abs(qst.value - exact),
        "resources": report.to_dict(),
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqd",
        description="Geometric quantum discord of two-qubit states: closed form, "
        "pair-measurement scheme simulation, sweeps, and diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="closed-form discord from the Bloch form")
    _add_state_args(p)
    p.add_argument("--side", choices=("A", "B"), default="A")
    _add_io_args(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("scheme", help="discord through the pair-measurement scheme")
    _add_state_args(p)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--shots", type=int, help="samples per setting (omit for exact)")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--seed", type=int)
    _add_io_args(p)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("sweep", help="sweep one family parameter over a grid")
    p.add_argument("--family", required=True)
    p.add_argument("--params", help="base parameter list; the swept entry is replaced")
    p.add_argument("--sweep-index", type=int, default=0)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--shots", type=int)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--seed", type=int)
    _add_io_args(p, formats=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("layouts", help="render the standard pair layouts")
    p.add_argument("--name", help="render a single layout, e.g. P11")
    p.add_argument("--output")
    p.set_defaults(func=cmd_layouts)

    p = sub.add_parser("compare", help="scheme vs tomography at equal shot budgets")
    _add_state_args(p)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    try:
        return args.func(args)
    except StateValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
