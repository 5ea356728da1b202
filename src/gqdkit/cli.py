"""Command-line front end: exact values, scheme simulation, sweeps, diagrams.

Exit codes: 0 success, 2 invalid input, 3 internal numerical-contract
violation. Every command is deterministic given its full flag set.

Each command imports the modules it calls, so start-up loads only those:
`gqd layouts` never loads numpy, and `gqd exact` only statekit and gqd_core.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import NumericalContractError, StateValidationError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

SWEEP_CSV_HEADER = "param,D_exact,D_scheme_exact,D_sampled_mean,D_sampled_stderr"

# Flags whose value may start with "-": a number or a comma-separated list of numbers.
NUMERIC_FLAGS = ("--params", "--start", "--stop")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, output: str | None, mode: str = "w") -> None:
    """Write text, newline-terminated, to --output or stdout.

    _emit("", output, "a") checks up front that --output can be written.
    """
    text = text if text.endswith("\n") or not text else text + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, mode) as handle:
            handle.write(text)
    except OSError as exc:
        raise StateValidationError(f"cannot write --output {output!r}: {exc.strerror}") from exc


def _parse_params(raw: str | None) -> list[float]:
    if raw is None or raw.strip() == "":
        return []
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise StateValidationError(f"could not parse --params {raw!r}: {exc}") from exc


def _resolve_state(args):
    from .statekit import make_family, state_from_json

    if args.file is not None and args.family is not None:
        raise StateValidationError("give either --file or --family, not both")
    if args.file is not None:
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 ({exc.reason})"
            raise StateValidationError(f"cannot read state file {args.file!r}: {reason}") from exc
        return state_from_json(text)
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
    from .gqd_core import gqd_from_k, k_matrix
    from .statekit import decompose

    state = _resolve_state(args)
    bloch = decompose(state)
    k = k_matrix(bloch, args.side)
    g = gqd_from_k(k)
    if args.format == "json":
        # "side" goes right after "route"; the later "route" keeps its place
        payload = {"route": g.route, "side": args.side, **g.to_dict()}
        payload["bloch"] = {
            "x": [float(v) for v in bloch.x],
            "y": [float(v) for v in bloch.y],
            "T": [[float(v) for v in row] for row in bloch.T],
        }
        payload["k_matrix"] = [[float(v) for v in row] for row in k.entries]
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        header = "side,value,lambda1,lambda2,lambda3"
        row = ",".join([args.side] + [_fmt(v) for v in (g.value, *g.eigenvalues)])
        _emit(f"{header}\n{row}", args.output)
    return EXIT_OK


def _check_sampling(args) -> None:
    """Reject sampling flags the sampled route cannot run with, and, without --shots, any
    --repeats or --seed: no samples are drawn, so they would be ignored."""
    from .statekit import _sampling_inputs

    if args.shots is None:
        given = " or ".join(flag for flag in ("--repeats", "--seed") if getattr(args, flag[2:]) is not None)
        if given:
            raise StateValidationError(f"without --shots no samples are drawn, so it takes no {given}")
        return
    if args.shots < 1:
        raise StateValidationError(f"--shots must be >= 1, got {args.shots}")
    if args.repeats is not None and args.repeats < 2:
        raise StateValidationError(f"--repeats must be >= 2, got {args.repeats}")
    if args.seed is None:
        raise StateValidationError("--seed is required when --shots is given")
    if not 0 <= args.seed < 2**63:
        raise StateValidationError(f"--seed must be in [0, 2**63), got {args.seed}")
    _sampling_inputs(args.shots, args.seed, "scheme-sampled")  # the library's shot bound


def _sampled_estimate(args, state, seed):
    """scheme-sampled estimate with the command's --side, --shots and --repeats."""
    from .estimator import estimate_gqd

    return estimate_gqd(
        state, "scheme-sampled", which=args.side, shots=args.shots, repeats=args.repeats, seed=seed
    )


def cmd_scheme(args) -> int:
    from .estimator import estimate_gqd

    state = _resolve_state(args)
    _check_sampling(args)
    _emit("", args.output, mode="a")
    if args.shots is None:
        est = estimate_gqd(state, "scheme-exact", which=args.side)
    else:
        est = _sampled_estimate(args, state, args.seed)
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
    import math

    import numpy as np

    from .estimator import estimate_gqd
    from .gqd_core import gqd_exact
    from .statekit import make_family

    if args.num < 1:
        raise StateValidationError(f"--num must be >= 1, got {args.num}")
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            raise StateValidationError(f"{flag} must be finite, got {value}")
    _check_sampling(args)
    params = _parse_params(args.params) or [0.0] * max(1, args.sweep_index + 1)
    if not -len(params) <= args.sweep_index < len(params):
        raise StateValidationError(f"--sweep-index {args.sweep_index} outside the parameter list")
    grid = np.linspace(args.start, args.stop, args.num).tolist()
    states = []
    for value in grid:  # every grid point is checked before --output is opened
        params[args.sweep_index] = value
        states.append(make_family(args.family, params))
    _emit("", args.output, mode="a")

    rows = []
    for i, (value, state) in enumerate(zip(grid, states)):
        row = [value, gqd_exact(state, args.side).value]
        row.append(estimate_gqd(state, "scheme-exact", which=args.side).value)
        if args.shots is None:
            row += [None, None]
        else:
            est = _sampled_estimate(args, state, (args.seed, i))
            row += [est.value, est.std_err]
        rows.append(row)

    if args.format == "csv":
        lines = [SWEEP_CSV_HEADER]
        lines += [",".join("" if v is None else _fmt(v) for v in row) for row in rows]
        _emit("\n".join(lines), args.output)
    else:
        payload = [dict(zip(SWEEP_CSV_HEADER.split(","), row)) for row in rows]
        _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def cmd_layouts(args) -> int:
    from .pairing import render_layout, standard_layouts

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
    from .gqd_core import gqd_exact
    from .qst_baseline import qst_estimate, resource_report

    _check_sampling(args)
    state = _resolve_state(args)
    _emit("", args.output, mode="a")
    exact = gqd_exact(state, args.side).value
    scheme = _sampled_estimate(args, state, args.seed)
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


def _is_number_list(raw: str) -> bool:
    try:
        return bool(_parse_params(raw))
    except StateValidationError:
        return False


def _is_numeric_flag(arg: str) -> bool:
    """A NUMERIC_FLAGS entry or an abbreviation of exactly one, as argparse accepts."""
    return arg.startswith("--") and sum(flag.startswith(arg) for flag in NUMERIC_FLAGS) == 1


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--params -0.5,0.2` as `--params=-0.5,0.2` for NUMERIC_FLAGS and their abbreviations.

    argparse reads a value that starts with "-" as a flag unless the whole value
    looks like a plain negative number, so "-0.5,0.2" and "-1e-3" would fail.
    A value that is not a list of numbers, such as a real flag, is left alone;
    the flag keeps its spelling, so argparse still resolves an abbreviation itself.
    """
    out: list[str] = []
    for arg in argv:
        if out and _is_numeric_flag(out[-1]) and arg.startswith("-") and _is_number_list(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


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
    p.add_argument("--repeats", type=int, help="sampled repeats (default 20); needs --shots")
    p.add_argument("--seed", type=int, help="needs --shots")
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
    p.add_argument("--shots", type=int, help="samples per setting (omit for no sampled columns)")
    p.add_argument("--repeats", type=int, help="sampled repeats (default 20); needs --shots")
    p.add_argument("--seed", type=int, help="needs --shots")
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
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
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
