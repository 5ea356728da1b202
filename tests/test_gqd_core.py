import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gqdkit import (
    GqdEstimate,
    NumericalContractError,
    StateValidationError,
    TwoQubitState,
    decompose,
    gqd_by_minimization,
    gqd_exact,
    k_matrix,
    make_family,
    qst_estimate,
    random_state,
)
from gqdkit import gqd_core
from gqdkit.gqd_core import (
    _GRID_AXES,
    _GRID_POINTS,
    _GRID_PROJ,
    KMatrix,
    _distance_sq,
    _fibonacci_axes,
    _pinched,
    _projectors,
)
from gqdkit.statekit import MAXIMALLY_MIXED, PAULI

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def haar_qubit_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_k_matrix_trivial_and_named_cases():
    assert np.allclose(k_matrix(decompose(TwoQubitState(MAXIMALLY_MIXED))).entries, 0.0)
    for p in (0.2, 0.8):
        k = k_matrix(decompose(make_family("werner", [p])))
        assert np.allclose(k.entries, p * p * np.eye(3), atol=1e-12)
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    k = k_matrix(decompose(TwoQubitState(np.outer(ket, ket))))
    assert np.allclose(k.entries, np.diag([0.0, 0.0, 2.0]), atol=1e-12)


def test_k_matrix_side_b_uses_transposed_correlations():
    state = random_state(11, rank=3)
    b = decompose(state)
    kb = k_matrix(b, "B").entries
    assert np.allclose(kb, np.outer(b.y, b.y) + b.T.T @ b.T, atol=1e-12)


def test_k_matrix_rejects_bad_input():
    with pytest.raises(StateValidationError, match="side marker"):
        k_matrix(decompose(random_state(0)), "C")
    with pytest.raises(StateValidationError, match="symmetric"):
        KMatrix(np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]), "A")
    with pytest.raises(StateValidationError, match="positive"):
        KMatrix(-np.eye(3), "A")


def test_exact_spectrum_matches_k_invariants():
    # trace, trace of the square and determinant of K fix its spectrum
    for trial in range(250):
        state = random_state(5400 + trial, rank=1 + trial % 4)
        for side in ("A", "B"):
            k = k_matrix(decompose(state), side).entries
            lam = np.array(gqd_exact(state, side).eigenvalues)
            assert lam[0] >= lam[1] >= lam[2]
            assert abs(lam.sum() - np.trace(k)) <= 1e-12
            assert abs(lam @ lam - np.trace(k @ k)) <= 1e-12
            assert abs(lam.prod() - np.linalg.det(k)) <= 1e-12


RANK1_DEGENERATE = [(477, "A"), (1110, "B"), (1236, "A"), (1970, "B")]


@pytest.mark.parametrize(
    "state, side, expected",
    [
        (make_family("werner", [0.5]), "A", [0.25, 0.25, 0.25]),
        (make_family("bell_diagonal", [-1.0, -1.0, -1.0]), "A", [1.0, 1.0, 1.0]),
        (make_family("product", [0.1, 0.2, 0.3, -0.4, 0.1, 0.5]), "B", [0.4788, 0.0, 0.0]),
    ]
    + [(random_state([11, i], rank=1), side, None) for i, side in RANK1_DEGENERATE],
    ids=["werner-0.5", "bell-corner", "product"] + [f"rank1-{i}" for i, _ in RANK1_DEGENERATE],
)
def test_exact_spectrum_degenerate_cases(state, side, expected):
    # every case has lambda_2 = lambda_3 (a pure state's K spectrum is
    # (l1, l2, l2)); the rank-1 states have a near-zero characteristic
    # discriminant, where a trigonometric 3x3 solver splits the pair by ~3e-8
    lam = gqd_exact(state, side).eigenvalues
    assert lam[1] - lam[2] <= 1e-12
    if expected is not None:
        assert np.allclose(lam, expected, rtol=0, atol=1e-12)


def test_werner_closed_form():
    for p in (0.0, 0.3, 0.7, 1.0):
        g = gqd_exact(make_family("werner", [p]))
        assert abs(g.value - p * p / 2.0) <= 1e-12


def test_singlet_value_is_one_half():
    g = gqd_exact(make_family("werner", [1.0]))
    assert abs(g.value - 0.5) <= 1e-12
    assert np.allclose(g.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)


def test_product_states_have_zero_discord():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r1 = rng.normal(size=3)
        r1 *= rng.uniform(0, 1) / np.linalg.norm(r1)
        r2 = rng.normal(size=3)
        r2 *= rng.uniform(0, 1) / np.linalg.norm(r2)
        state = make_family("product", [*r1, *r2])
        assert gqd_exact(state).value <= 1e-10
        assert gqd_exact(state, "B").value <= 1e-10


def test_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for trial in range(100):
        state = random_state(3000 + trial, rank=1 + trial % 4)
        u = np.kron(haar_qubit_unitary(rng), haar_qubit_unitary(rng))
        rotated = TwoQubitState(u @ state.matrix @ u.conj().T)
        for side in ("A", "B"):
            assert abs(gqd_exact(state, side).value - gqd_exact(rotated, side).value) <= 1e-9


def test_side_b_equals_side_a_of_swapped_state():
    for trial in range(50):
        state = random_state(4000 + trial, rank=1 + trial % 4)
        swapped = TwoQubitState(SWAP @ state.matrix @ SWAP)
        assert abs(gqd_exact(state, "B").value - gqd_exact(swapped, "A").value) <= 1e-10


def test_gqd_value_structure():
    g = gqd_exact(random_state(123))
    assert g.value == (g.eigenvalues[1] + g.eigenvalues[2]) / 4.0
    assert 0.0 <= g.value <= 0.5
    assert g.eigenvalues[0] >= g.eigenvalues[1] >= g.eigenvalues[2] >= 0.0


RESULT_SCHEMA = {"route", "value", "std_err", "eigenvalues", "outcomes", "moments"}


@pytest.mark.parametrize("which", ["A", "B"])
def test_closed_form_and_tomography_return_the_shared_result_type(which):
    state = random_state(125, rank=3)
    results = [gqd_exact(state, which), qst_estimate(state, which=which)[1]]
    results.append(qst_estimate(state, shots_per_setting=500, seed=4, which=which)[1])
    for g in results:
        assert isinstance(g, GqdEstimate)
        assert (g.route, g.std_err, g.outcomes, g.moments) == ("bloch-exact", 0.0, None, None)
        assert set(g.to_dict()) == RESULT_SCHEMA


def test_result_rejects_unsorted_eigenvalues():
    GqdEstimate(0.1, 0.0, (0.5, 0.2, 0.2), "bloch-exact")
    for lam in [(0.2, 0.5, 0.1), (0.5, 0.1, 0.2)]:
        with pytest.raises(NumericalContractError, match="sorted descending"):
            GqdEstimate(0.1, 0.0, lam, "bloch-exact")


def test_dephased_state_is_valid_zero_discord_state():
    rng = np.random.default_rng(2)
    for trial in range(25):
        axis = rng.normal(size=3)
        rho = random_state(6000 + trial, rank=1 + trial % 4).matrix
        chi = _pinched(rho, _projectors((axis / np.linalg.norm(axis))[None])[1])[0]
        assert np.max(np.abs(chi - chi.conj().T)) <= 1e-12
        assert abs(np.trace(chi) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(chi)[0] >= -1e-12
        assert gqd_exact(TwoQubitState(chi), "A").value <= 1e-10


def dephased_by_definition(rho, axis):
    # chi_n = sum_k Pi_k (x) tr_A[(Pi_k (x) I) rho], Pi_k = (I +- n.sigma)/2
    n_sigma = np.einsum("i,iab->ab", axis / np.linalg.norm(axis), PAULI)
    chi = np.zeros((4, 4), dtype=complex)
    for sign in (1.0, -1.0):
        proj = (np.eye(2) + sign * n_sigma) / 2.0
        block = (np.kron(proj, np.eye(2)) @ rho).reshape(2, 2, 2, 2)
        chi += np.kron(proj, np.einsum("abad->bd", block))
    return chi


def test_dephased_and_distance_match_the_definition():
    rng = np.random.default_rng(3)
    axes = np.vstack([rng.normal(size=(40, 3)), _GRID_AXES])
    for trial in range(4):
        rho = random_state(6100 + trial, rank=1 + trial % 4).matrix
        chis = np.array([dephased_by_definition(rho, axis) for axis in axes])
        unit, proj = _projectors(axes)
        dist = _distance_sq(rho, proj)
        assert np.max(np.abs(unit - axes / np.linalg.norm(axes, axis=1, keepdims=True))) <= 1e-15
        assert np.max(np.abs(_pinched(rho, proj) - chis)) <= 1e-14
        assert np.max(np.abs(dist - np.sum(np.abs(rho - chis) ** 2, axis=(1, 2)))) <= 1e-14


def test_grid_operands_are_built_once_and_read_only():
    axes, proj = _projectors(_fibonacci_axes(_GRID_POINTS))
    assert np.array_equal(_GRID_AXES, axes) and np.array_equal(_GRID_PROJ, proj)
    assert _GRID_PROJ.shape == (_GRID_POINTS, 2, 2, 2)
    for cached in (_GRID_AXES, _GRID_PROJ):
        assert not cached.flags.writeable


def test_minimization_on_classical_states():
    state = make_family(
        "classical_AB", [0.35, 1.1, 0.4, 0.3, -0.2, 0.4, -0.5, 0.1, 0.6]
    )
    assert gqd_by_minimization(state, restarts=4, seed=0) <= 1e-6


def minimize_on_side(state, side, **kwargs):
    """The oracle searches side A; side B is side A of SWAP rho SWAP."""
    if side == "B":
        state = TwoQubitState(SWAP @ state.matrix @ SWAP)
    return gqd_by_minimization(state, **kwargs)


def rotated_on_a(state, seed):
    u = np.kron(haar_qubit_unitary(np.random.default_rng(seed)), np.eye(2))
    return TwoQubitState(u @ state.matrix @ u.conj().T)


# (state, side): a triply degenerate K (werner 0.5), a rank-1 state, the
# singlet corner of the Bell tetrahedron, side B of a random state, and two
# largest K eigenvalues 1e-4 apart with their axes turned off the grid's.
ORACLE_CASES = {
    "werner-0.8": (make_family("werner", [0.8]), "A"),
    "werner-0.5": (make_family("werner", [0.5]), "A"),
    "pure": (make_family("pure", [0.3, 0.1, 0.5, 0.0, 0.2, 0.7, 0.1, 0.3]), "A"),
    "bell-corner": (make_family("bell_diagonal", [-1.0, -1.0, -1.0]), "A"),
    "side-B": (random_state(5100, rank=3), "B"),
    "near-degenerate": (rotated_on_a(make_family("bell_diagonal", [0.5, 0.4999, -0.2]), 5), "A"),
}


@pytest.mark.parametrize("state, side", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_minimization_matches_closed_form_on_werner(state, side):
    val = minimize_on_side(state, side, restarts=4, seed=1)
    assert abs(val - gqd_exact(state, side).value) <= 1e-12


@pytest.mark.parametrize(
    "states, side",
    [([random_state(5000 + t, rank=1 + t % 4) for t in range(6)], "A")]
    + [([state], side) for state, side in ORACLE_CASES.values()],
    ids=["random", *ORACLE_CASES],
)
def test_minimization_never_undershoots(states, side):
    for trial, state in enumerate(states):
        exact = gqd_exact(state, side).value
        found = minimize_on_side(state, side, restarts=4, seed=trial)
        assert found >= exact - 1e-12
        assert found - exact <= 1e-4


def test_minimization_is_independent_of_closed_form_and_rng(monkeypatch):
    state = random_state(5200, rank=2)
    expected = gqd_by_minimization(state)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the closed form or drew random numbers")

    for name in ("decompose", "k_matrix"):
        monkeypatch.setattr(gqd_core, name, refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert gqd_by_minimization(state, restarts=1, seed=0) == expected
    assert gqd_by_minimization(state, restarts=200, seed=12345) == expected


def test_minimization_rejects_bad_restarts():
    with pytest.raises(ValueError):
        gqd_by_minimization(random_state(0), restarts=0, seed=0)


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import gqdkit, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_import_loads_numpy_random_only_where_numpy_does():
    # numpy >= 2 imports numpy.random on first use; the RNG streams wait for theirs
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, numpy; eager = 'numpy.random' in sys.modules; import gqdkit; "
        "assert eager or 'numpy.random' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_gqd_exact_reads_the_spectrum_of_the_psd_check(monkeypatch):
    state = random_state(5300, rank=3)
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for side in ("A", "B"):
        calls.clear()
        value = gqd_exact(state, side)
        assert len(calls) == 1
        assert value.eigenvalues == tuple(k_matrix(decompose(state), side).spectrum)
    k = k_matrix(decompose(state))
    assert np.array_equal(k.spectrum, eigvalsh(k.entries)[::-1])
    assert not k.spectrum.flags.writeable
