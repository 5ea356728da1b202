import json
import re
from fractions import Fraction

import numpy as np
import pytest

from gqdkit import (
    BlochForm,
    StateValidationError,
    TwoQubitState,
    decompose,
    gqd_exact,
    make_family,
    random_state,
    state_from_dict,
    state_from_json,
)
from gqdkit.statekit import MAXIMALLY_MIXED, PAULI, SIGMA, SINGLET, _bloch_matrix


def purity(state):
    return np.trace(state.matrix @ state.matrix).real


def matrix_file(state):
    # the state file's matrix form, written out by hand: one [re, im] pair per entry
    return {"matrix": [[[v.real, v.imag] for v in row] for row in state.matrix.tolist()]}


def ket_state(amplitudes):
    ket = np.asarray(amplitudes, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return TwoQubitState(np.outer(ket, ket.conj()))


def test_maximally_mixed_decomposes_to_zero():
    b = decompose(TwoQubitState(MAXIMALLY_MIXED))
    assert np.allclose(b.x, 0.0)
    assert np.allclose(b.y, 0.0)
    assert np.allclose(b.T, 0.0)


def test_decompose_builds_one_bloch_form_per_state_object():
    # the last state's Bloch form is returned as is; an equal-matrix copy, another object,
    # gets its own, with equal entries, and only the last state is kept
    state = random_state(1990, rank=2)
    first = decompose(state)
    assert decompose(state) is first
    twin = TwoQubitState(state.matrix.copy())
    other = decompose(twin)
    assert other is not first
    assert all(np.array_equal(getattr(other, f), getattr(first, f)) for f in ("x", "y", "T"))
    assert decompose.cache_info().currsize == 1
    assert decompose(state) is not first


def test_basis_state_decompose():
    b = decompose(ket_state([1, 0, 0, 0]))
    assert np.allclose(b.x, [0, 0, 1], atol=1e-12)
    assert np.allclose(b.y, [0, 0, 1], atol=1e-12)
    expected_t = np.zeros((3, 3))
    expected_t[2, 2] = 1.0
    assert np.allclose(b.T, expected_t, atol=1e-12)


def test_singlet_decompose():
    b = decompose(TwoQubitState(SINGLET))
    assert np.allclose(b.x, 0.0, atol=1e-12)
    assert np.allclose(b.y, 0.0, atol=1e-12)
    assert np.allclose(b.T, -np.eye(3), atol=1e-12)


def test_sigma_is_the_table_of_pauli_products():
    sigma = [np.eye(2), *PAULI]
    assert SIGMA.shape == (4, 4, 4, 4)
    for mu in range(4):
        for nu in range(4):
            assert np.array_equal(SIGMA[mu, nu], np.kron(sigma[mu], sigma[nu]))


@pytest.mark.parametrize(
    "state, x, y, T",
    [
        (TwoQubitState(SINGLET), np.zeros(3), np.zeros(3), -np.eye(3)),
        # |0> (x) |+>: x = (0, 0, 1), y = (1, 0, 0), T = x y^T
        (ket_state([1, 1, 0, 0]), [0, 0, 1], [1, 0, 0], np.outer([0, 0, 1], [1, 0, 0])),
    ],
    ids=["singlet", "product"],
)
def test_decompose_on_textbook_states(state, x, y, T):
    b = decompose(state)
    assert np.max(np.abs(b.x - x)) <= 1e-15
    assert np.max(np.abs(b.y - y)) <= 1e-15
    assert np.max(np.abs(b.T - T)) <= 1e-15


def test_reconstruct_trivial_cases():
    mm = _bloch_matrix(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert np.allclose(mm, MAXIMALLY_MIXED)
    singlet = _bloch_matrix(np.zeros(3), np.zeros(3), -np.eye(3))
    assert np.allclose(singlet, SINGLET, atol=1e-12)


def test_round_trip_on_random_states():
    for seed in range(100):
        state = random_state(seed, rank=1 + seed % 4)
        b = decompose(state)
        again = TwoQubitState(_bloch_matrix(b.x, b.y, b.T))
        assert np.max(np.abs(again.matrix - state.matrix)) <= 1e-12


def test_bloch_matrix_inverts_decompose():
    for seed in range(100):
        state = random_state([17, seed], rank=1 + seed % 4)
        b = decompose(state)
        assert np.max(np.abs(_bloch_matrix(b.x, b.y, b.T) - state.matrix)) <= 1e-14


def test_bloch_norm_purity_identity():
    for seed in range(100):
        state = random_state(1000 + seed, rank=1 + seed % 4)
        b = decompose(state)
        rhs = (1 + b.x @ b.x + b.y @ b.y + np.sum(b.T * b.T)) / 4.0
        assert abs(purity(state) - rhs) <= 1e-10


def test_bloch_entries_within_unit_interval():
    for seed in range(50):
        b = decompose(random_state(2000 + seed))
        worst = max(np.max(np.abs(b.x)), np.max(np.abs(b.y)), np.max(np.abs(b.T)))
        assert worst <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "matrix,fragment",
    [
        (np.eye(4) / 4 + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3), "Hermitian"),
        (np.eye(4) / 2, "trace"),
        (np.diag([0.6, 0.5, -0.1, 0.0]), "positive semidefinite"),
        (np.eye(2) / 2, "4x4"),
    ],
)
def test_invalid_matrices_name_the_violated_invariant(matrix, fragment):
    with pytest.raises(StateValidationError, match=fragment):
        TwoQubitState(matrix)


def test_constructor_checks_the_imaginary_residue():
    # Hermitian to 9e-11, inside HERMITICITY_TOL, but rho_01 and rho_23 each put 9e-11 i
    # into tr(rho I (x) Y): its Pauli expectations carry an imaginary residue of 1.8e-10
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[2, 3] = 9e-11
    with pytest.raises(StateValidationError, match="imaginary residue 1.800e-10"):
        TwoQubitState(rho)
    state = TwoQubitState((rho + rho.conj().T) / 2)  # its Hermitian part passes
    assert state.R.dtype == float


def bloch_reference(rho):
    # R_mu,nu = tr(rho sigma_mu (x) sigma_nu), entry by entry
    sigma = np.concatenate([np.eye(2)[None], PAULI])
    return np.array([[np.trace(rho @ np.kron(sm, sn)) for sn in sigma] for sm in sigma])


def test_the_bloch_matrix_is_read_only_and_matches_the_pauli_expectations():
    states = [random_state(2100 + seed, rank=1 + seed % 4) for seed in range(200)]
    states += [
        make_family("werner", [0.3]),
        make_family("bell_diagonal", [0.2, -0.3, 0.4]),
        make_family("pure", [0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8]),
        make_family("product", [0.1, 0.2, 0.3, -0.4, 0.5, 0.1]),
        make_family("classical_AB", [0.3, 0.4, 1.1, 0.1, 0.2, 0.3, -0.2, 0.1, 0.5]),
    ]
    for state in states:
        assert state.R.shape == (4, 4) and state.R.dtype == float
        with pytest.raises(ValueError):
            state.R[0, 0] = 2.0
        assert np.max(np.abs(state.R - bloch_reference(state.matrix))) <= 1e-15
        b = decompose(state)
        for block, expected in ((b.x, state.R[1:, 0]), (b.y, state.R[0, 1:]), (b.T, state.R[1:, 1:])):
            assert np.array_equal(block, expected)


def test_reconstruct_rejects_nonphysical_bloch_data():
    # valid Bloch entries whose matrix is not a state: the state constructor refuses it
    bad = BlochForm(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.eye(3))
    with pytest.raises(StateValidationError, match="not positive semidefinite"):
        TwoQubitState(_bloch_matrix(bad.x, bad.y, bad.T))


@pytest.mark.parametrize("where", ["x", "y", "T"])
def test_bloch_form_rejects_nan(where):
    data = {"x": np.zeros(3), "y": np.zeros(3), "T": np.zeros((3, 3))}
    data[where].flat[1] = np.nan
    with pytest.raises(StateValidationError, match="Bloch entries"):
        BlochForm(**data)


BLOCK_ENDS = [("x", 0), ("x", 2), ("y", 0), ("y", 2), ("T", 0), ("T", 8)]
BLOCK_END_IDS = ["x-first", "x-last", "y-first", "y-last", "T-first", "T-last"]


def _bloch_data(where, index, value):
    data = {"x": np.zeros(3), "y": np.zeros(3), "T": np.zeros((3, 3))}
    data[where].flat[index] = value
    return data


@pytest.mark.parametrize("where, index", BLOCK_ENDS, ids=BLOCK_END_IDS)
@pytest.mark.parametrize(
    "bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")], ids=["nan", "inf", "-inf"]
)
def test_bloch_form_rejects_a_non_finite_entry_at_either_end(where, index, bad, shown):
    message = f"Bloch entries must lie in [-1, 1]; largest magnitude is {shown}"
    with pytest.raises(StateValidationError, match=f"^{re.escape(message)}$"):
        BlochForm(**_bloch_data(where, index, bad))


@pytest.mark.parametrize("where, index", BLOCK_ENDS, ids=BLOCK_END_IDS)
def test_bloch_form_entry_tolerance_on_both_signs(where, index):
    # BLOCH_ENTRY_TOL is 1e-12: 1 + 5e-13 passes, 1 + 2e-12 does not, either sign
    for sign in (1.0, -1.0):
        BlochForm(**_bloch_data(where, index, sign * (1.0 + 5e-13)))
        message = "Bloch entries must lie in [-1, 1]; largest magnitude is 1.000000000002"
        with pytest.raises(StateValidationError, match=f"^{re.escape(message)}$"):
            BlochForm(**_bloch_data(where, index, sign * (1.0 + 2e-12)))


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("werner", [1.0000000000001], "werner: p = 1.0000000000001 outside [0, 1]"),
        ("werner", [-0.001], "werner: p = -0.001 outside [0, 1]"),
        ("classical_AB", [1.0000000000001] + [0.0] * 8, "classical_AB: p1 = 1.0000000000001 outside [0, 1]"),
        ("product", [0, 0, 1 + 2e-12, 0, 0, 0], "product: single-qubit Bloch vector has norm 1.000000000002 > 1"),
        (
            "classical_AB",
            [0.5, 0, 0, 0, 0, 0, -(1 + 2e-12), 0, 0],
            "classical_AB: single-qubit Bloch vector has norm 1.000000000002 > 1",
        ),
    ],
    ids=["werner-above", "werner-below", "classical-p1", "product-norm", "classical-norm"],
)
def test_family_rejections_print_the_value_in_full(family, params, message):
    # the shortest round-trip form: a value just past its bound must not read as the bound
    with pytest.raises(StateValidationError, match=f"^{re.escape(message)}$"):
        make_family(family, params)


@pytest.mark.parametrize(
    "params",
    ["1", "0.5", b"1", 0.5, None, [None], [True], [np.bool_(True)], ["0.5"], [[0.5]], np.array(0.5), {0.5: 1}],
    ids=["text", "text-float", "bytes", "scalar", "none", "none-entry", "bool", "numpy-bool", "text-entry",
         "nested", "numpy-scalar", "dict"],
)
def test_family_params_must_be_a_sequence_of_reals(params):
    with pytest.raises(StateValidationError, match="^family 'werner': params must be a sequence of reals"):
        make_family("werner", params)


def test_family_params_take_any_real_entries():
    expected = make_family("werner", [0.5]).matrix
    for params in ((0.5,), [np.float64(0.5)], [np.float32(0.5)], np.array([0.5]), [Fraction(1, 2)]):
        assert np.array_equal(make_family("werner", params).matrix, expected)
    assert np.array_equal(make_family("werner", [np.int64(1)]).matrix, make_family("werner", [1.0]).matrix)


def test_werner_endpoints():
    assert np.allclose(make_family("werner", [0.0]).matrix, MAXIMALLY_MIXED)
    assert np.allclose(make_family("werner", [1.0]).matrix, SINGLET)


def test_werner_rejects_out_of_range():
    with pytest.raises(StateValidationError, match="outside"):
        make_family("werner", [1.2])


def test_bell_diagonal_tetrahedron():
    state = make_family("bell_diagonal", [0.5, -0.5, 0.5])
    b = decompose(state)
    assert np.allclose(np.diag(b.T), [0.5, -0.5, 0.5], atol=1e-12)
    with pytest.raises(StateValidationError, match="tetrahedron"):
        make_family("bell_diagonal", [1.0, 1.0, 1.0])


def test_pure_family_normalizes():
    state = make_family("pure", [2.0, 0, 0, 0, 0, 0, 2.0, 0])
    assert abs(purity(state) - 1.0) <= 1e-12
    with pytest.raises(StateValidationError, match="zero"):
        make_family("pure", [0.0] * 8)


def test_product_family():
    state = make_family("product", [0, 0, 1, 1, 0, 0])
    expected = np.kron(np.diag([1.0, 0.0]), np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(state.matrix, expected, atol=1e-12)
    with pytest.raises(StateValidationError, match="norm"):
        make_family("product", [2, 0, 0, 0, 0, 0])


def test_classical_family_has_zero_discord():
    rng = np.random.default_rng(7)

    def ball_point():
        v = rng.normal(size=3)
        return v * rng.uniform(0, 0.95) / np.linalg.norm(v)

    for _ in range(25):
        params = [
            rng.uniform(0, 1),
            rng.uniform(0, np.pi),
            rng.uniform(0, 2 * np.pi),
            *ball_point(),
            *ball_point(),
        ]
        state = make_family("classical_AB", params)
        assert gqd_exact(state).value <= 1e-10


def test_unknown_family_and_arity():
    with pytest.raises(StateValidationError, match="unknown family"):
        make_family("ghz", [0.5])
    with pytest.raises(StateValidationError, match="parameters"):
        make_family("werner", [0.5, 0.1])


def test_random_state_deterministic():
    a = random_state(42, rank=3)
    b = random_state(42, rank=3)
    assert np.array_equal(a.matrix, b.matrix)


def test_random_state_rank_one_is_pure():
    for seed in range(20):
        assert abs(purity(random_state(seed, rank=1)) - 1.0) <= 1e-10


@pytest.mark.parametrize("rank", [0, 5, 2.0, True], ids=["zero", "five", "float", "bool"])
def test_random_state_rejects_a_bad_rank(rank):
    with pytest.raises(StateValidationError, match="rank must be 1..4"):
        random_state(1, rank=rank)


@pytest.mark.parametrize(
    "seed",
    [-1, [1, -2], 2**63, 1.5, 2.0, "x", None, True, [3, False]],
    ids=["negative", "negative-entry", "2^63", "fraction", "integral-float", "string", "none",
         "bool", "bool-entry"],
)
def test_random_state_rejects_a_bad_seed(seed):
    with pytest.raises(StateValidationError, match="seed entry"):
        random_state(seed)


def test_random_state_seeds_numpy_with_the_seed_as_given():
    # the seed check leaves numpy's seed as given, so every panel state keeps its bits
    for seed in (0, 5, 2**40, [17, 3], (2**63 - 1, 0), np.int64(9)):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        m = g @ g.conj().T
        assert np.array_equal(random_state(seed, rank=2).matrix, m / np.trace(m))


def test_random_state_sweep_passes_invariants():
    # constructor validates Hermiticity, trace, positivity
    for seed in range(1000):
        random_state(seed, rank=4)


def test_state_json_round_trip():
    state = random_state(5, rank=2)
    again = state_from_json(json.dumps(matrix_file(state)))
    assert np.array_equal(again.matrix, state.matrix)


def test_state_file_family_form():
    state = state_from_dict({"family": "werner", "params": [0.3]})
    assert np.allclose(state.matrix, make_family("werner", [0.3]).matrix)


def test_state_file_rejects_unknown_fields():
    payload = matrix_file(random_state(6))
    payload["comment"] = "nope"
    with pytest.raises(StateValidationError, match="unrecognized"):
        state_from_dict(payload)
    with pytest.raises(StateValidationError, match="unrecognized"):
        state_from_dict({"family": "werner", "params": [0.1], "seed": 3})


def test_state_file_rejects_bad_json_and_shapes():
    with pytest.raises(StateValidationError, match="JSON"):
        state_from_json("{not json")
    with pytest.raises(StateValidationError):
        state_from_dict({"matrix": [[1, 2], [3, 4]]})


def test_state_file_rejects_entries_that_are_not_two_numbers():
    # a valid |00><00| but for the form of its one nonzero entry: no value may be dropped,
    # a bool is not a number, and a JSON object must not escape as a KeyError
    for entry in ([1.0, 0.0, 5.0], [True, False], [1.0], {"0": 1.0, "1": 0.0}, ["1", "0"]):
        matrix = [[[0.0, 0.0] for j in range(4)] for i in range(4)]
        matrix[0][0] = entry
        with pytest.raises(StateValidationError, match=r"\[re, im\] pairs in a 4x4 grid"):
            state_from_dict({"matrix": matrix})


def test_matrices_are_immutable():
    state = random_state(9)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0
    b = decompose(state)
    with pytest.raises(ValueError):
        b.T[0, 0] = 2.0
