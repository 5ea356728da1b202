import json
import math
import warnings
from pathlib import Path

import pytest

from gqdkit import estimator, gqd_core, qst_baseline, statekit
from gqdkit import gqd_exact, random_state
from gqdkit.cli import SWEEP_CSV_HEADER, main


def state_file_text(state):
    # the state file's matrix form, written out by hand: one [re, im] pair per entry
    return json.dumps({"matrix": [[[v.real, v.imag] for v in row] for row in state.matrix.tolist()]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_werner_one(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "werner", "--params", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.5) <= 1e-12
    assert payload["route"] == "bloch-exact"


@pytest.mark.parametrize("side", ["A", "B"])
def test_exact_json_keys_in_fixed_order(capsys, side):
    code, out, _ = run_cli(capsys, "exact", "--family", "werner", "--params", "0.5", "--side", side)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "route", "side", "value", "std_err", "eigenvalues", "outcomes", "moments", "bloch", "k_matrix"
    ]
    assert payload["side"] == side
    assert (payload["std_err"], payload["outcomes"], payload["moments"]) == (0.0, None, None)


def test_exact_werner_zero(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "werner", "--params", "0")
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 1e-12


def test_exact_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[[1.0, 0.0]] * 4] * 4}))
    code, _, err = run_cli(capsys, "exact", "--file", str(bad))
    assert code == 2
    assert "Hermitian" in err or "trace" in err or "positive" in err


def test_a_near_hermitian_state_file_exits_two_and_writes_nothing(tmp_path, capsys):
    # Hermitian to 9e-11, inside the tolerance, but its Pauli expectations carry an
    # imaginary residue of 1.8e-10: bad input, not a broken internal contract
    m = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    m[0][1] = m[2][3] = [9e-11, 0.0]
    path, target = tmp_path / "state.json", tmp_path / "out.json"
    path.write_text(json.dumps({"matrix": m}))
    code, out, err = run_cli(capsys, "exact", "--file", str(path), "--output", str(target))
    assert code == 2
    assert out == ""
    assert "imaginary residue 1.800e-10" in err
    assert not target.exists()


@pytest.mark.parametrize("entry", [[1.0, 0.0, 5.0], [True, False]], ids=["three-values", "booleans"])
def test_exact_rejects_an_entry_that_is_not_two_numbers(tmp_path, capsys, entry):
    # a valid |00><00| but for the form of its one nonzero entry
    matrix = [[[0.0, 0.0] for j in range(4)] for i in range(4)]
    matrix[0][0] = entry
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run_cli(capsys, "exact", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "matrix entries must be [re, im] pairs in a 4x4 grid" in err


def matrix_with(entry):
    # the maximally mixed state with one off-diagonal pair set to `entry`
    m = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    m[0][1] = m[1][0] = [entry, 0.0]
    return {"matrix": m}


@pytest.mark.parametrize(
    "source, needle",
    [
        (("--family", "pure", "--params=nan,0,0,0,0,0,0,0"), "parameters must be finite"),
        (("--family", "product", "--params=nan,0,0,0,0,0"), "parameters must be finite"),
        (("--family", "classical_AB", "--params=0.5,0,0,nan,0,0,0,0,0"), "parameters must be finite"),
        (("--family", "bell_diagonal", "--params=nan,0,0"), "parameters must be finite"),
        ((matrix_with(float("nan")),), "entries must be finite"),
        ((matrix_with(float("inf")),), "entries must be finite"),
    ],
    ids=["pure", "product", "classical_AB", "bell_diagonal", "matrix-nan", "matrix-inf"],
)
def test_non_finite_state_exits_two(tmp_path, capsys, source, needle):
    if isinstance(source[0], dict):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(source[0]))  # NaN and Infinity, as Python's json writes them
        source = ("--file", str(path))
    code, out, err = run_cli(capsys, "exact", *source)
    assert code == 2
    assert out == ""
    assert needle in err


@pytest.mark.parametrize(
    "data, needle",
    [({"family": "werner", "params": p}, "params must be a list of numbers") for p in ("0.5", 0.5, ["x"], [None])]
    + [({"family": ["werner"], "params": [0.5]}, "family must be a string")],
    ids=["string", "number", "text", "null", "family-list"],
)
def test_malformed_family_file_exits_two(tmp_path, capsys, data, needle):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "exact", "--file", str(path))
    assert code == 2
    assert out == ""
    assert needle in err


def test_exact_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "exact")
    assert code == 2
    assert "state source" in err
    code, _, err = run_cli(
        capsys, "exact", "--family", "werner", "--params", "1", "--file", "x.json"
    )
    assert code == 2


def test_exact_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--family", "werner", "--params", "0.5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "side,value,lambda1,lambda2,lambda3"
    assert abs(float(lines[1].split(",")[1]) - 0.125) <= 1e-12


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exact_builds_the_bloch_form_once(capsys, monkeypatch, fmt):
    calls = []
    original = statekit.decompose

    def counting(state):
        calls.append(state)
        return original(state)

    # the commands import what they call when they run, so they read statekit's name
    for module in (statekit, gqd_core, estimator, qst_baseline):
        monkeypatch.setattr(module, "decompose", counting)
    code, _, _ = run_cli(capsys, "exact", "--family", "werner", "--params", "0.5", "--format", fmt)
    assert code == 0
    assert len(calls) == 1


def test_scheme_exact_value(capsys):
    code, out, _ = run_cli(capsys, "scheme", "--family", "werner", "--params", "0.6")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.18) <= 1e-8
    assert set(payload["outcomes"]) == {f"c{i}" for i in range(1, 12)}
    assert set(payload["moments"]) == {"M1", "M2", "M3"}


def test_scheme_sampled_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "scheme", "--family", "werner", "--params", "0.6", "--shots", "100"
    )
    assert code == 2
    assert "seed" in err


def test_scheme_sampled_deterministic(capsys):
    argv = [
        "scheme",
        "--family",
        "werner",
        "--params",
        "0.6",
        "--shots",
        "20000",
        "--repeats",
        "5",
        "--seed",
        "7",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert abs(payload["value"] - 0.18) <= 3 * payload["std_err"] + 0.05


def test_scheme_side_b_matches_closed_form(tmp_path, capsys):
    state = random_state(321, rank=3)
    path = tmp_path / "state.json"
    path.write_text(state_file_text(state))
    code, out, _ = run_cli(capsys, "scheme", "--file", str(path), "--side", "B")
    assert code == 0
    assert abs(json.loads(out)["value"] - gqd_exact(state, "B").value) <= 1e-8


def test_sweep_werner(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--family",
        "werner",
        "--start",
        "0",
        "--stop",
        "1",
        "--num",
        "11",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 12
    for line in lines[1:]:
        cells = line.split(",")
        p = float(cells[0])
        assert abs(float(cells[1]) - p * p / 2.0) <= 1e-12
        assert abs(float(cells[2]) - float(cells[1])) <= 1e-8
        assert cells[3] == "" and cells[4] == ""


def test_sweep_with_sampling_fills_all_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--family",
        "werner",
        "--start",
        "0.2",
        "--stop",
        "0.8",
        "--num",
        "3",
        "--shots",
        "5000",
        "--repeats",
        "4",
        "--seed",
        "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[3] != "" and cells[4] != ""


def test_sweep_rejects_empty_grid(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--family",
        "werner",
        "--start",
        "0",
        "--stop",
        "1",
        "--num",
        "0",
    )
    assert code == 2
    assert "num" in err


@pytest.mark.parametrize(
    "start, stop, flag",
    [("0", "inf", "--stop"), ("nan", "1", "--start"), ("-inf", "inf", "--start")],
    ids=["stop-inf", "start-nan", "both"],
)
def test_sweep_rejects_a_non_finite_endpoint(capsys, monkeypatch, start, stop, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid point was computed before the endpoints were checked")

    monkeypatch.setattr(statekit, "make_family", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.linspace would warn on an infinite span
        code, out, err = run_cli(
            capsys, "sweep", "--family", "werner", f"--start={start}", f"--stop={stop}", "--num", "2"
        )
    assert code == 2
    assert out == ""
    assert f"{flag} must be finite" in err


def test_exact_accepts_a_parameter_list_that_starts_negative(capsys):
    # argparse alone reads "-0.5,0.2,0.1" as a flag; a real flag there still exits 2
    code, out, _ = run_cli(capsys, "exact", "--family", "bell_diagonal", "--params", "-0.5,0.2,0.1")
    assert code == 0
    state = statekit.make_family("bell_diagonal", [-0.5, 0.2, 0.1])
    assert json.loads(out)["value"] == gqd_exact(state).value
    assert run_cli(capsys, "exact", "--family", "bell_diagonal", "--params=-0.5,0.2,0.1")[1] == out
    assert run_cli(capsys, "exact", "--family", "bell_diagonal", "--par", "-0.5,0.2,0.1")[1] == out
    code, out, err = run_cli(capsys, "exact", "--family", "werner", "--params", "--side", "A")
    assert (code, out) == (2, "")
    assert "argument --params: expected one argument" in err


def test_sweep_accepts_endpoints_that_argparse_reads_as_flags(capsys):
    argv = ["sweep", "--family", "bell_diagonal", "--params", "-0.5,0.2,0.1", "--num", "2"]
    code, out, _ = run_cli(capsys, *argv, "--start", "-1e-3", "--stop", "-0.5")
    assert code == 0
    assert [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]] == [-1e-3, -0.5]
    assert run_cli(capsys, *argv, "--start=-1e-3", "--stop=-0.5")[1] == out
    assert run_cli(capsys, *argv, "--sta", "-1e-3", "--sto", "-0.5")[1] == out
    # "--st" abbreviates both endpoints: argparse names the ambiguity
    code, _, err = run_cli(capsys, *argv, "--st", "-1e-3", "--stop", "-0.5")
    assert code == 2
    assert "ambiguous option: --st" in err
    # the value reaches the family, which names the invariant it breaks
    code, _, err = run_cli(
        capsys, "sweep", "--family", "werner", "--start", "-1e-3", "--stop", "0.5", "--num", "2"
    )
    assert code == 2
    assert "werner: p = -0.001 outside [0, 1]" in err


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("werner", "1.0000000000001", "werner: p = 1.0000000000001 outside [0, 1]"),
        ("classical_AB", "1.0000000000001,0,0,0,0,0,0,0,0", "classical_AB: p1 = 1.0000000000001 outside [0, 1]"),
        ("product", "0,0,1.000000000002,0,0,0", "product: single-qubit Bloch vector has norm 1.000000000002 > 1"),
    ],
    ids=["werner", "classical_AB", "product"],
)
def test_family_rejection_prints_the_value_in_full(capsys, family, params, message):
    code, out, err = run_cli(capsys, "exact", "--family", family, f"--params={params}")
    assert (code, out) == (2, "")
    assert message in err


def test_layouts_all(capsys):
    code, out, _ = run_cli(capsys, "layouts")
    assert code == 0
    for label in (f"P{i}" for i in range(1, 12)):
        assert f"{label}  copies=" in out


def test_layouts_single(capsys):
    code, out, _ = run_cli(capsys, "layouts", "--name", "P11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P11  copies=6"
    rows = {int(line.split()[0]): line for line in lines[2:]}
    assert rows[1].split()[1] == "I"
    assert rows[6].rstrip().endswith("I")


def test_layouts_unknown_name(capsys):
    code, _, err = run_cli(capsys, "layouts", "--name", "P12")
    assert code == 2
    assert "unknown layout" in err


def test_compare_reports_resources_and_is_deterministic(capsys):
    argv = [
        "compare",
        "--family",
        "werner",
        "--params",
        "0.7",
        "--shots",
        "20000",
        "--repeats",
        "4",
        "--seed",
        "9",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["resources"]["r_scheme"] == 132
    assert payload["resources"]["r_qst"] == 225
    assert abs(payload["exact_value"] - 0.245) <= 1e-12
    assert payload["scheme"]["route"] == "scheme-sampled"
    assert payload["qst"]["route"] == "bloch-exact"


def test_compare_draws_a_product_state(capsys):
    # tomography meets a -1.4e-17 outcome probability on this state; it draws as 0
    code, out, _ = run_cli(
        capsys, "compare", "--family", "product", "--params", "0.1,0.2,0.3,0,0,1",
        "--shots", "1000", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["qst"]["route"] == "bloch-exact"


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "exact",
        "--family",
        "werner",
        "--params",
        "1",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert abs(json.loads(target.read_text())["value"] - 0.5) <= 1e-12


WERNER = ("--family", "werner", "--params", "0.5")
SWEEP = ("--family", "werner", "--start", "0", "--stop", "1", "--num", "2")
MISSING = "{missing}"
# the estimates a command must not start on bad input, at the modules that define them
REFUSED = ((estimator, "estimate_gqd"), (gqd_core, "gqd_exact"), (qst_baseline, "qst_estimate"))


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("scheme", *WERNER, "--shots", "0", "--seed", "1"), "--shots must be >= 1"),
        (("scheme", *WERNER, "--shots", "100", "--repeats", "1", "--seed", "1"), "--repeats"),
        (("sweep", *SWEEP, "--shots", "0", "--seed", "1"), "--shots must be >= 1"),
        (("sweep", *SWEEP, "--shots", "100", "--repeats", "1", "--seed", "1"), "--repeats"),
        (("compare", *WERNER, "--shots", "0", "--seed", "1"), "--shots must be >= 1"),
        (("compare", *WERNER, "--shots", "100", "--repeats", "1", "--seed", "1"), "--repeats"),
        (("exact", *WERNER, "--output", MISSING), MISSING),
        (("scheme", *WERNER, "--output", MISSING), MISSING),
        (("sweep", *SWEEP, "--output", MISSING), MISSING),
        (("compare", *WERNER, "--shots", "100", "--seed", "1", "--output", MISSING), MISSING),
        (("layouts", "--output", MISSING), MISSING),
    ],
    ids=[
        "scheme-shots", "scheme-repeats", "sweep-shots", "sweep-repeats",
        "compare-shots", "compare-repeats", "exact-output", "scheme-output",
        "sweep-output", "compare-output", "layouts-output",
    ],
)
def test_bad_sampling_flags_and_output_paths_exit_two(tmp_path, capsys, argv, needle):
    missing = str(tmp_path / "no_such_dir" / "out.txt")
    argv = [missing if a == MISSING else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert needle.replace(MISSING, missing) in err


@pytest.mark.parametrize("seed", ["-1", str(2**63)], ids=["negative", "2^63"])
@pytest.mark.parametrize(
    "argv", [("scheme", *WERNER), ("sweep", *SWEEP), ("compare", *WERNER)],
    ids=["scheme", "sweep", "compare"],
)
def test_seed_outside_the_stream_key_range_exits_two(capsys, argv, seed):
    code, out, err = run_cli(capsys, *argv, "--shots", "100", "--repeats", "2", "--seed", seed)
    assert code == 2
    assert out == ""
    assert f"--seed must be in [0, 2**63), got {seed}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scheme", "--family", "product", "--params", "0,0,1,0,0,1", "--shots", str(2**60)),
        ("compare", *WERNER, "--shots", str(2**63)),
        ("scheme", *WERNER, "--shots", str(2**53 + 1)),
        ("sweep", *SWEEP, "--shots", str(2**53 + 1)),
        ("compare", *WERNER, "--shots", str(2**53 + 1)),
    ],
    ids=["scheme-2^60", "compare-2^63", "scheme", "sweep", "compare"],
)
def test_shots_above_the_bound_exit_two(capsys, argv):
    # past 2**53 shots the sampled read-off can leave int64, where numpy wraps or raises
    code, out, err = run_cli(capsys, *argv, "--repeats", "2", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "shots must be an integer in [1, 2**53]" in err


def test_compare_takes_a_single_shot(capsys):
    code, out, _ = run_cli(capsys, "compare", *WERNER, "--shots", "1", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    for route in ("scheme", "qst"):
        assert all(map(math.isfinite, [payload[route]["value"], *payload[route]["eigenvalues"]]))
    assert all(map(math.isfinite, payload["scheme"]["moments"].values()))


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "no-permission"])
def test_unreadable_state_file_exits_two(tmp_path, capsys, monkeypatch, kind):
    path = tmp_path / "state.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe\x00")
    else:
        path.write_text(state_file_text(random_state(1)))
        path.chmod(0)

        def refuse(self, *args, **kwargs):  # a superuser reads past mode 000
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
    code, out, err = run_cli(capsys, "exact", "--file", str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err


@pytest.mark.parametrize(
    "extra, needle",
    [
        (("--output", MISSING), MISSING),
        (("--params", "0.5", "--sweep-index", "3"), "--sweep-index"),
    ],
    ids=["output", "sweep-index"],
)
def test_sweep_rejects_bad_flags_before_any_grid_point(
    tmp_path, capsys, monkeypatch, extra, needle
):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid point was computed before the flags were checked")

    monkeypatch.setattr(estimator, "estimate_gqd", refuse)
    monkeypatch.setattr(gqd_core, "gqd_exact", refuse)
    missing = str(tmp_path / "no_such_dir" / "out.csv")
    extra = [missing if a == MISSING else a for a in extra]
    code, out, err = run_cli(capsys, "sweep", *SWEEP, "--shots", "100", "--seed", "1", *extra)
    assert code == 2
    assert out == ""
    assert needle.replace(MISSING, missing) in err


@pytest.mark.parametrize(
    "command",
    [
        ("scheme",),
        ("scheme", "--shots", "100", "--seed", "1"),
        ("compare", "--shots", "100", "--seed", "1"),
    ],
    ids=["scheme-exact", "scheme-sampled", "compare"],
)
def test_unwritable_output_is_rejected_before_any_estimate(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("an estimate was computed before --output was checked")

    for module, name in REFUSED:
        monkeypatch.setattr(module, name, refuse)
    missing = str(tmp_path / "no_such_dir" / "out.json")
    code, out, err = run_cli(
        capsys, *command, "--family", "werner", "--params", "0.5", "--output", missing
    )
    assert code == 2
    assert out == ""
    assert missing in err


@pytest.mark.parametrize(
    "argv", [("scheme", *WERNER), ("sweep", *SWEEP), ("compare", *WERNER)],
    ids=["scheme", "sweep", "compare"],
)
def test_shots_above_the_bound_leave_no_output_file(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("an estimate was computed before the shot count was checked")

    for module, name in REFUSED:
        monkeypatch.setattr(module, name, refuse)
    target = tmp_path / "out"
    code, out, err = run_cli(
        capsys, *argv, "--shots", str(2**53 + 1), "--seed", "1", "--output", str(target)
    )
    assert code == 2
    assert out == ""
    assert "shots must be an integer in [1, 2**53]" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--family", "werner", "--start", "0", "--stop", "2", "--num", "3"), "werner: p = 2.0 outside [0, 1]"),
        (("--family", "bell_diagonal", "--params", "0,0", "--start", "0", "--stop", "1", "--num", "2"),
         "family 'bell_diagonal' takes 3 parameters, got 2"),
    ],
    ids=["out-of-domain", "arity"],
)
def test_a_bad_grid_point_leaves_no_sweep_output_file(tmp_path, capsys, monkeypatch, argv, message):
    # every grid point's state is built before --output is opened, as scheme, exact and compare
    # check their input first
    def refuse(*args, **kwargs):
        raise AssertionError("an estimate was computed before every grid point was checked")

    for module, name in REFUSED:
        monkeypatch.setattr(module, name, refuse)
    target = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "sweep", *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert message in err
    assert not target.exists()


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--repeats", "1"), "--repeats"),
        (("--seed", "3"), "--seed"),
        (("--repeats", "20", "--seed", "3"), "--repeats or --seed"),
    ],
    ids=["repeats", "seed", "both"],
)
def test_the_exact_scheme_refuses_sampling_flags_without_shots(capsys, monkeypatch, flags, named):
    # without --shots the scheme is exact and would ignore them, as estimate_gqd refuses to
    def refuse(*args, **kwargs):
        raise AssertionError("an estimate started on bad input")

    monkeypatch.setattr(estimator, "estimate_gqd", refuse)
    code, out, err = run_cli(capsys, "scheme", *WERNER, *flags)
    assert code == 2 and out == ""
    assert f"takes no {named}\n" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--repeats", "1"), "--repeats"),
        (("--repeats", "20"), "--repeats"),
        (("--seed", "3"), "--seed"),
        (("--seed", "3", "--repeats", "1"), "--repeats or --seed"),
    ],
    ids=["repeats", "valid-repeats", "seed", "both"],
)
def test_sweep_refuses_sampling_flags_without_shots(capsys, monkeypatch, flags, named):
    # without --shots the sweep fills no sampled columns, so the flags would be ignored
    def refuse(*args, **kwargs):
        raise AssertionError("a grid point started on bad input")

    for module, name in REFUSED:
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, "sweep", *SWEEP, *flags)
    assert code == 2 and out == ""
    assert f"takes no {named}\n" in err


def test_sweep_and_compare_keep_twenty_repeats_by_default(capsys):
    code, out, _ = run_cli(capsys, "compare", *WERNER, "--shots", "100", "--seed", "1")
    assert code == 0 and json.loads(out)["repeats"] == 20
    # sweep's default, and scheme's unset --repeats, which the library reads as its 20
    for argv in (("sweep", *SWEEP), ("scheme", *WERNER)):
        runs = [run_cli(capsys, *argv, "--shots", "100", "--seed", "1", *more) for more in ((), ("--repeats", "20"))]
        assert runs[0] == runs[1] and runs[0][0] == 0
