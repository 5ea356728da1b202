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
    reconstruct,
    state_from_dict,
    state_from_json,
    state_to_dict,
    state_to_json,
)
from gqdkit.statekit import MAXIMALLY_MIXED, SINGLET, _bloch_matrix


def ket_state(amplitudes):
    ket = np.asarray(amplitudes, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return TwoQubitState(np.outer(ket, ket.conj()))


def test_maximally_mixed_decomposes_to_zero():
    b = decompose(TwoQubitState(MAXIMALLY_MIXED))
    assert np.allclose(b.x, 0.0)
    assert np.allclose(b.y, 0.0)
    assert np.allclose(b.T, 0.0)


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


def test_reconstruct_trivial_cases():
    mm = reconstruct(BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3))))
    assert np.allclose(mm.matrix, MAXIMALLY_MIXED)
    singlet = reconstruct(BlochForm(np.zeros(3), np.zeros(3), -np.eye(3)))
    assert np.allclose(singlet.matrix, SINGLET, atol=1e-12)


def test_round_trip_on_random_states():
    for seed in range(100):
        state = random_state(seed, rank=1 + seed % 4)
        again = reconstruct(decompose(state))
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
        assert abs(state.purity() - rhs) <= 1e-10


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


def test_reconstruct_rejects_nonphysical_bloch_data():
    bad = BlochForm(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.eye(3))
    with pytest.raises(StateValidationError, match="not physical"):
        reconstruct(bad)


@pytest.mark.parametrize("where", ["x", "y", "T"])
def test_bloch_form_rejects_nan(where):
    data = {"x": np.zeros(3), "y": np.zeros(3), "T": np.zeros((3, 3))}
    data[where].flat[1] = np.nan
    with pytest.raises(StateValidationError, match="Bloch entries"):
        BlochForm(**data)


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
    assert abs(state.purity() - 1.0) <= 1e-12
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
        assert abs(random_state(seed, rank=1).purity() - 1.0) <= 1e-10


@pytest.mark.parametrize("rank", [0, 5, 2.0, True], ids=["zero", "five", "float", "bool"])
def test_random_state_rejects_a_bad_rank(rank):
    with pytest.raises(StateValidationError, match="rank must be 1..4"):
        random_state(1, rank=rank)


def test_random_state_sweep_passes_invariants():
    # constructor validates Hermiticity, trace, positivity
    for seed in range(1000):
        random_state(seed, rank=4)


def test_state_json_round_trip():
    state = random_state(5, rank=2)
    again = state_from_json(state_to_json(state))
    assert np.max(np.abs(again.matrix - state.matrix)) <= 1e-15


def test_state_file_family_form():
    state = state_from_dict({"family": "werner", "params": [0.3]})
    assert np.allclose(state.matrix, make_family("werner", [0.3]).matrix)


def test_state_file_rejects_unknown_fields():
    payload = state_to_dict(random_state(6))
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
