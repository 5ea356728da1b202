import json

import pytest

from gqdkit import gqd_exact, random_state, state_to_json
from gqdkit.cli import SWEEP_CSV_HEADER, main


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
    path.write_text(state_to_json(state))
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


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
