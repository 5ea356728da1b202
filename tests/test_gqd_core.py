import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
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
    _LOCAL_INTERP,
    _LOCAL_OFFSETS,
    _START_STEP,
    _STEP_TOL,
    K_POSITIVITY_TOL,
    K_SYMMETRY_TOL,
    KMatrix,
    _check_side,
    _dephased,
    _distance_sq,
    _fibonacci_axes,
    _newton_shift,
    _sandwiches,
)
from gqdkit.statekit import BLOCH_ENTRY_TOL, I2, MAXIMALLY_MIXED, PAULI, _frozen

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_k_matrix_rejects_non_finite_entries_without_a_warning(bad):
    # checked before the symmetry test and LAPACK: inf - inf warns, and eigvalsh fails on NaN
    one_entry = [np.eye(3) for _ in range(3)]
    for entries, (i, j) in zip(one_entry, [(0, 0), (1, 1), (2, 2)]):  # first, middle, last
        entries[i, j] = bad
    for entries in (np.full((3, 3), bad), *one_entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                StateValidationError, match=r"^K entries must be finite: the matrix holds NaN or infinity$"
            ):
                KMatrix(entries, "A")


def test_a_k_the_psd_check_admits_gives_a_non_negative_discord():
    # -1e-10 is not below -K_POSITIVITY_TOL, so K passes; its lambda_3 reads as 0
    k = KMatrix(np.diag([0.5, 0.0, -1e-10]), "A")
    g = gqd_core.gqd_from_k(k)
    assert g.value == 0.0
    assert g.eigenvalues == (0.5, 0.0, 0.0)


# The closed form's path before its checks were cut to fewer numpy calls, verbatim but for the
# ref_ prefix: decompose, BlochForm, k_matrix with its own symmetrization, KMatrix and
# gqd_from_k's numpy tail. gqd_exact must reproduce it bit for bit.
@dataclass(frozen=True, eq=False)
class ref_BlochForm:
    """Local Bloch vectors x, y and the 3x3 correlation matrix T."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        T = np.asarray(self.T, dtype=float)
        if x.shape != (3,) or y.shape != (3,) or T.shape != (3, 3):
            raise StateValidationError(
                f"Bloch data must be two 3-vectors and a 3x3 matrix, got "
                f"{x.shape}, {y.shape}, {T.shape}"
            )
        worst = float(np.max(np.abs(np.concatenate([x, y, T.ravel()]))))
        if not worst <= 1.0 + BLOCH_ENTRY_TOL:  # NaN fails too
            raise StateValidationError(
                f"Bloch entries must lie in [-1, 1]; largest magnitude is {worst:.12g}"
            )
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "T", _frozen(T))


def ref_decompose(state: TwoQubitState) -> ref_BlochForm:
    """Bloch form of a state: x_i, y_i, and t_ij, the blocks of its Bloch matrix R."""
    r = state.R
    return ref_BlochForm(r[1:, 0], r[0, 1:], r[1:, 1:])


@dataclass(frozen=True, eq=False)
class ref_KMatrix:
    """Symmetric PSD 3x3 matrix whose `spectrum` (descending) carries the discord."""

    entries: np.ndarray
    which: str
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_side(self.which)
        k = np.asarray(self.entries, dtype=float)
        if k.shape != (3, 3):
            raise StateValidationError(f"K must be 3x3, got shape {k.shape}")
        if not np.isfinite(k).all():
            raise StateValidationError("K entries must be finite: the matrix holds NaN or infinity")
        asym = float(np.max(np.abs(k - k.T)))
        if asym > K_SYMMETRY_TOL:
            raise StateValidationError(f"K not symmetric: asymmetry {asym:.3e}")
        spectrum = np.linalg.eigvalsh((k + k.T) / 2.0)[::-1]
        if spectrum[-1] < -K_POSITIVITY_TOL:
            raise StateValidationError(
                f"K not positive semidefinite: smallest eigenvalue {spectrum[-1]:.3e}"
            )
        object.__setattr__(self, "entries", _frozen(k))
        object.__setattr__(self, "spectrum", _frozen(spectrum))


def ref_k_matrix(bloch: ref_BlochForm, which: str = "A") -> ref_KMatrix:
    """K = x x^t + T T^t for side A, K' = y y^t + T^t T for side B."""
    _check_side(which)
    if which == "A":
        k = np.outer(bloch.x, bloch.x) + bloch.T @ bloch.T.T
    else:
        k = np.outer(bloch.y, bloch.y) + bloch.T.T @ bloch.T
    return ref_KMatrix((k + k.T) / 2.0, which)


def ref_gqd_from_k(k: ref_KMatrix) -> GqdEstimate:
    """(lambda_2 + lambda_3) / 4 of K's spectrum, clamped and checked as gqd_exact reports it."""
    lam = k.spectrum
    lam = np.maximum(lam, 0.0)  # KMatrix already refused any below -K_POSITIVITY_TOL
    value = (lam[1] + lam[2]) / 4.0
    if not 0.0 <= value <= 0.5 + 1e-12:
        raise StateValidationError(f"discord value {value:.12g} outside [0, 1/2]")
    return GqdEstimate(float(value), 0.0, (float(lam[0]), float(lam[1]), float(lam[2])), "bloch-exact")


BIT_STATES = [random_state([26, t], rank=1 + t % 4) for t in range(64)] + [
    make_family("werner", [0.3]),
    make_family("bell_diagonal", [0.5, -0.3, 0.2]),
    make_family("pure", [0.6, 0.1, 0.2, -0.3, 0.0, 0.5, 0.3, 0.4]),
    make_family("product", [0.1, 0.2, 0.3, 0.0, 0.0, 1.0]),
    make_family("classical_AB", [0.3, 0.4, 0.2, 0.1, 0.2, 0.3, 0.5, -0.1, 0.2]),
]


@pytest.mark.parametrize("which", ["A", "B"])
def test_closed_form_is_bit_identical_to_the_reference(which):
    for state in BIT_STATES:
        got = gqd_exact(state, which)
        expected = ref_gqd_from_k(ref_k_matrix(ref_decompose(state), which))
        assert type(got.value) is float and all(type(v) is float for v in got.eigenvalues)
        assert (got.value, got.eigenvalues) == (expected.value, expected.eigenvalues)
        # the JSON text also tells -0.0 from 0.0
        assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())
        # K comes out exactly symmetric, so k_matrix's dropped symmetrization changed no entry
        k, ref_k = k_matrix(decompose(state), which), ref_k_matrix(ref_decompose(state), which)
        assert np.array_equal(k.entries, ref_k.entries)
        assert np.array_equal(k.spectrum, ref_k.spectrum)


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_closed_form_shares_one_bloch_form_in_either_order(order):
    # the second side reads the Bloch form decompose kept for the first, and each side runs
    # again after cache_clear(): every result equal to the reference, which decomposes anew
    for state in BIT_STATES:
        for cold in (False, True):
            for which in order:
                if cold:
                    decompose.cache_clear()
                got = gqd_exact(state, which)
                expected = ref_gqd_from_k(ref_k_matrix(ref_decompose(state), which))
                assert (got.value, got.eigenvalues) == (expected.value, expected.eigenvalues)
                assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())


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


@pytest.mark.parametrize(
    "value, std_err, lam, error, message",
    [
        (math.nan, 0.0, (1.0, 0.0, 0.0), NumericalContractError, "estimate"),
        (math.inf, 0.0, (1.0, 0.0, 0.0), NumericalContractError, "estimate"),
        (0.1, math.nan, (1.0, 0.0, 0.0), ValueError, "std_err"),
        (0.1, math.inf, (1.0, 0.0, 0.0), ValueError, "std_err"),
        (0.1, 0.0, (math.inf, 0.0, 0.0), NumericalContractError, "eigenvalues must be finite"),
        (0.1, 0.0, (1.0, 0.0, -math.inf), NumericalContractError, "eigenvalues must be finite"),
    ],
    ids=["value-nan", "value-inf", "std-err-nan", "std-err-inf", "lam-inf", "lam-neg-inf"],
)
def test_result_rejects_non_finite_numbers(value, std_err, lam, error, message):
    # to_dict() would emit NaN or Infinity, which is not JSON
    with pytest.raises(error, match=message):
        GqdEstimate(value, std_err, lam, "scheme-sampled")


def dephased(rho, axes):
    """The unit axes and chi_n per axis as (N, 4, 4) complex matrices, from the oracle's kernel."""
    unit, chi = _dephased(rho, _sandwiches(rho), axes)
    return unit, chi.view(complex).reshape(-1, 4, 4)


def test_dephased_state_is_valid_zero_discord_state():
    rng = np.random.default_rng(2)
    for trial in range(25):
        axis = rng.normal(size=3)
        rho = random_state(6000 + trial, rank=1 + trial % 4).matrix
        chi = dephased(rho, (axis / np.linalg.norm(axis))[None])[1][0]
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
        unit, chi = dephased(rho, axes)
        unit_d, dist = _distance_sq(rho, _sandwiches(rho), axes)
        assert np.array_equal(unit, unit_d)
        assert np.max(np.abs(unit - axes / np.linalg.norm(axes, axis=1, keepdims=True))) <= 1e-15
        assert np.max(np.abs(chi - chis)) <= 1e-14
        assert np.max(np.abs(dist - np.sum(np.abs(rho - chis) ** 2, axis=(1, 2)))) <= 1e-14


def test_grid_operands_are_built_once_and_read_only():
    # the grid's axes are the only operand cached at import; rho's sandwiches are per call
    assert np.array_equal(_GRID_AXES, _fibonacci_axes(_GRID_POINTS))
    assert _GRID_AXES.shape == (_GRID_POINTS, 3)
    assert not _GRID_AXES.flags.writeable
    rho = random_state(6200, rank=3).matrix
    unit = _distance_sq(rho, _sandwiches(rho), _GRID_AXES)[0]
    assert np.array_equal(unit, ref_projectors(_fibonacci_axes(_GRID_POINTS))[0])


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


def rotated_on_b(state, seed):
    u = np.kron(np.eye(2), haar_qubit_unitary(np.random.default_rng(seed)))
    return TwoQubitState(u @ state.matrix @ u.conj().T)


# (state, side): a triply degenerate K (werner 0.5), a rank-1 state, the
# singlet corner of the Bell tetrahedron, side B of a random state, two
# largest K eigenvalues 1e-4 apart with their axes turned off the grid's,
# a random state turned by a local unitary on B, and random states of ranks 1-4.
ORACLE_CASES = {
    "werner-0.8": (make_family("werner", [0.8]), "A"),
    "werner-0.5": (make_family("werner", [0.5]), "A"),
    "pure": (make_family("pure", [0.3, 0.1, 0.5, 0.0, 0.2, 0.7, 0.1, 0.3]), "A"),
    "bell-corner": (make_family("bell_diagonal", [-1.0, -1.0, -1.0]), "A"),
    "side-B": (random_state(5100, rank=3), "B"),
    "near-degenerate": (rotated_on_a(make_family("bell_diagonal", [0.5, 0.4999, -0.2]), 5), "A"),
    "rotated-on-B": (rotated_on_b(random_state(5300, rank=2), 7), "A"),
    **{f"random-rank-{r}": (random_state(5400 + r, rank=r), "A") for r in range(1, 5)},
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


# The oracle as it was before the sandwich kernel, kept verbatim up to a `ref` prefix on its
# names and its eigh/pinv Newton step moved into ref_pinv_step: per axis a projector pair
# Pi_k = (I +- n.sigma)/2 and two complex contractions per batch. The kernel must reproduce
# it to rounding.


def ref_projectors(axes: np.ndarray):
    """The normalized axes and, per axis, Pi_k = (I +- n.sigma)/2, shape (N, 2, 2, 2)."""
    axes = axes / np.linalg.norm(axes, axis=-1, keepdims=True)
    n_sigma = np.einsum("ni,iab->nab", axes, PAULI)
    return axes, (I2 + np.stack([n_sigma, -n_sigma], axis=1)) / 2.0


def ref_pinched(rho: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """sum_k (Pi_k (x) I) rho (Pi_k (x) I) per projector pair, as two contractions."""
    half = np.einsum("nkac,cbde->nkabde", proj, rho.reshape(2, 2, 2, 2))
    return np.einsum("nkabde,nkdf->nabfe", half, proj).reshape(-1, 4, 4)


def ref_distance_sq(rho: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """||rho - chi_n||_F^2 for each axis n, given its projector pair from ref_projectors."""
    diff = (rho - ref_pinched(rho, proj)).view(np.float64).reshape(len(proj), -1)
    return np.einsum("ij,ij->i", diff, diff)


# The global grid's unit axes and projectors, built once.
REF_GRID_AXES, REF_GRID_PROJ = map(_frozen, ref_projectors(_fibonacci_axes(_GRID_POINTS)))


def ref_cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.array(
        [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    )


def ref_pinv_step(hessian, gradient) -> np.ndarray:
    mu, vec = np.linalg.eigh(hessian)
    # pinv of vec |mu| vec^T, with pinv's cutoff (1e-15 of the largest)
    size = np.abs(mu)
    inv = np.divide(1.0, size, out=np.zeros(2), where=size > 1e-15 * size.max())
    return vec @ (inv * (vec.T @ gradient))


def ref_gqd_by_minimization(
    state: TwoQubitState, restarts: int = 200, seed: int = 0
) -> float:
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rho = state.matrix
    dist = ref_distance_sq(rho, REF_GRID_PROJ)
    axis, value = REF_GRID_AXES[np.argmin(dist)], dist.min()
    step = _START_STEP
    while step > _STEP_TOL:
        e1 = ref_cross(axis, np.eye(3)[np.argmin(np.abs(axis))])
        frame = np.stack([e1, ref_cross(axis, e1)]) / np.linalg.norm(e1)
        grid, proj = ref_projectors(axis + step * _LOCAL_OFFSETS @ frame)
        dist = ref_distance_sq(rho, proj)
        c = (_LOCAL_INTERP @ dist).reshape(5, 5)
        shift = ref_pinv_step([[2.0 * c[2, 0], c[1, 1]], [c[1, 1], 2.0 * c[0, 2]]], [c[1, 0], c[0, 1]])
        newton, proj = ref_projectors((axis - step * shift @ frame)[None])
        cands, dist = np.vstack([grid, newton]), np.append(dist, ref_distance_sq(rho, proj))
        if dist.min() < value:
            axis, value = cands[np.argmin(dist)], dist.min()
        step /= 2.0
    return float(value)


def test_newton_shift_matches_the_eigh_pinv_form():
    # random symmetric Hessians over twelve decades, then the zero matrix, a = d with b = 0,
    # a |mu| under the cutoff (diagonal and rotated rank 1), indefinite and negative definite
    rng = np.random.default_rng(19)
    cases = list(rng.normal(size=(3000, 3)) * 10.0 ** rng.integers(-6, 7, size=(3000, 1)))
    cases += [(0.0, 0.0, 0.0), (2.0, 0.0, 2.0), (-3.0, 0.0, -3.0), (1.0, 0.0, 1e-16)]
    cases += [(0.36, 0.48, 0.64), (1.0, 2.0, 1.0), (0.0, 1.0, 0.0), (-1.0, 0.5, -2.0)]
    for a, b, d in cases:
        gradient = rng.normal(size=2)
        expected = ref_pinv_step([[a, b], [b, d]], gradient)
        mu = np.abs(np.linalg.eigvalsh([[a, b], [b, d]]))
        kept = mu[mu > 1e-15 * mu.max()]
        # relative to the step's bound, |gradient| over the smallest |mu| kept
        scale = np.linalg.norm(gradient) / kept.min() if len(kept) else 1.0
        assert np.max(np.abs(_newton_shift(a, b, d, *gradient) - expected)) <= 1e-15 * scale


@pytest.mark.parametrize("seed", range(1, 11))
def test_minimization_matches_the_reference_on_oracle_panels(seed):
    # the benchmark's oracle-check panel of this seed: four states of each rank 1-4
    for k in range(16):
        state = random_state([seed, 3, k], rank=1 + k % 4)
        found = gqd_by_minimization(state, restarts=4, seed=k)
        assert abs(found - ref_gqd_by_minimization(state, restarts=4, seed=k)) <= 1e-14


@pytest.mark.parametrize("state, side", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_minimization_matches_the_reference_on_oracle_cases(state, side):
    if side == "B":
        state = TwoQubitState(SWAP @ state.matrix @ SWAP)
    assert abs(gqd_by_minimization(state) - ref_gqd_by_minimization(state)) <= 1e-14


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


def test_minimization_reads_a_fortran_ordered_state_as_its_c_ordered_copy():
    rho = random_state(5500, rank=3).matrix
    for matrix in (np.asfortranarray(rho), rho.T.conj()):  # rho.T.conj() is rho, F-ordered
        state = TwoQubitState(matrix)
        assert state.matrix.flags.c_contiguous
        assert gqd_by_minimization(state) == gqd_by_minimization(TwoQubitState(rho.copy()))


def test_minimization_rejects_bad_restarts():
    with pytest.raises(ValueError):
        gqd_by_minimization(random_state(0), restarts=0, seed=0)
    for restarts in (True, 2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match="restarts must be an integer"):
            gqd_by_minimization(random_state(0), restarts=restarts, seed=0)
    assert gqd_by_minimization(random_state(0), restarts=np.int64(4)) == gqd_by_minimization(
        random_state(0)
    )


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # every submodule: `import gqdkit` alone loads none of them
    code = "import sys; from gqdkit import *; import gqdkit.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_import_loads_numpy_random_only_where_numpy_does():
    # numpy >= 2 imports numpy.random on first use; the RNG streams wait for theirs. The star
    # import and gqdkit.cli load every submodule, which `import gqdkit` alone does not
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, numpy; eager = 'numpy.random' in sys.modules; "
        "from gqdkit import *; import gqdkit.cli; "
        "assert eager or 'numpy.random' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_gqd_exact_reads_the_spectrum_of_the_psd_check(monkeypatch):
    # one eigvalsh of K and K' stacked serves both sides of a state, each side reading the
    # spectrum its own KMatrix checks
    state = random_state(5300, rank=3)
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    values = {side: gqd_exact(state, side) for side in ("A", "B", "A")}
    assert len(calls) == 1 and calls[0].shape == (2, 3, 3)
    for side, value in values.items():
        assert value.eigenvalues == tuple(k_matrix(decompose(state), side).spectrum)
    k = k_matrix(decompose(state))
    assert np.array_equal(k.spectrum, eigvalsh(k.entries)[::-1])
    assert not k.spectrum.flags.writeable


RECORD_STATES = [
    make_family("product", [0.1, 0.2, 0.3, 0.0, 0.0, 1.0]),
    make_family("product", [0, 0, 1, 0, 0, 1]),
    make_family("pure", [0.6, 0.1, 0.2, -0.3, 0.0, 0.5, 0.3, 0.4]),
    make_family("pure", [1, 0, 0, 0, 0, 0, 0, 0]),
    TwoQubitState(MAXIMALLY_MIXED),
] + [random_state([36, t], rank=1 + t % 4) for t in range(64)]


@pytest.mark.parametrize("which", ["A", "B"])
def test_the_stacked_record_is_bit_identical_to_one_k_matrix_per_side(which):
    # gqd_exact reads both sides off one stacked check and eigvalsh; each side equals its own
    # KMatrix's 3x3 check and eigvalsh through gqd_from_k, to the JSON text's sign of zero
    for state in RECORD_STATES:
        gqd_core._spectra.cache_clear()
        got = gqd_exact(state, which)
        expected = gqd_core.gqd_from_k(k_matrix(decompose(state), which))
        assert (got.value, got.eigenvalues) == (expected.value, expected.eigenvalues)
        assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())
        assert np.array_equal(np.signbit(got.eigenvalues), np.signbit(expected.eigenvalues))


def test_gqd_exact_checks_the_side_before_decompose(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decomposed before the side check")

    monkeypatch.setattr(gqd_core, "decompose", refuse)
    for side in ("C", "a", None):
        with pytest.raises(StateValidationError, match="side marker"):
            gqd_exact(random_state(5310, rank=2), side)


def test_one_spectrum_check_serves_a_stack_and_a_single_k():
    # the stacked check refuses what KMatrix refuses, with its message, whichever matrix holds it
    good = k_matrix(decompose(random_state(5320, rank=3))).entries
    cases = [
        (np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]), "K not symmetric: asymmetry 2.000e\\+00"),
        (-np.eye(3), "K not positive semidefinite: smallest eigenvalue -1.000e\\+00"),
        (np.diag([1.0, np.nan, 0.0]), "K entries must be finite"),
    ]
    for bad, message in cases:
        with pytest.raises(StateValidationError, match=message):
            KMatrix(bad, "A")
        for stack in (np.array([good, bad]), np.array([bad, good])):
            with pytest.raises(StateValidationError, match=message):
                gqd_core._checked_spectra(stack)
    spectra = gqd_core._checked_spectra(np.array([good, good.copy()]))
    assert np.array_equal(spectra[0], KMatrix(good, "A").spectrum) and np.array_equal(spectra[0], spectra[1])
