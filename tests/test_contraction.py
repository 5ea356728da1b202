import tracemalloc
from functools import reduce

import numpy as np
import pytest

from gqdkit import (
    TwoQubitState,
    decompose,
    expect_layout,
    expect_layout_dense_oracle,
    joint_distribution,
    k_matrix,
    make_family,
    random_state,
)
from gqdkit import contraction
from gqdkit.contraction import (
    P_MINUS,
    PAIR_KIND_MATRICES,
    _contract,
    _dense_operator,
    _walk_plan,
    build_u,
    build_v,
    pauli_exchange_sum,
)
from gqdkit.errors import NumericalContractError
from gqdkit.estimator import _hit_matrix, outcomes_exact
from gqdkit.pairing import PairingLayout, PairOp, Setting, settings, standard_layouts
from gqdkit.statekit import MAXIMALLY_MIXED, PAULI


def test_pair_operator_identities():
    assert np.max(np.abs(build_u() - pauli_exchange_sum())) <= 1e-14
    assert np.max(np.abs(build_v() - (np.eye(4) + pauli_exchange_sum()))) <= 1e-14


def pauli_coefficients(op):
    # c[mu, nu] with op = sum c[mu, nu] sigma_mu (x) sigma_nu, sigma_0 = I
    sigma = np.concatenate([np.eye(2)[None], PAULI])
    return np.array([[np.trace(op @ np.kron(sm, sn)) / 4 for sn in sigma] for sm in sigma])


def test_pair_operators_are_diagonal_in_the_bloch_basis():
    for kind, d in contraction._BLOCH_DIAGONALS.items():
        assert np.max(np.abs(pauli_coefficients(PAIR_KIND_MATRICES[kind]) - np.diag(d))) <= 1e-15
    # U = Pi = diag(0, 1, 1, 1) and V = I, so a moment cycle measures tr((Pi R R^T)^k)
    assert np.max(np.abs(pauli_coefficients(build_u()) - np.diag([0, 1, 1, 1]))) <= 1e-15
    assert np.max(np.abs(pauli_coefficients(build_v()) - np.eye(4))) <= 1e-15


def test_factor_stack_holds_the_correlation_matrix():
    # against R = [[1, y^T], [x, T]] from decompose, a separate code path
    for trial in range(12):
        state = random_state(1950 + trial, rank=1 + trial % 4)
        b = decompose(state)
        r = np.block([[np.ones((1, 1)), b.y[None]], [b.x[:, None], b.T]])
        factors = (contraction._FACTOR_MAP @ state.matrix.reshape(16)).reshape(2, 4, 12)
        for t, c in enumerate((r, r.T)):
            for kind, d in contraction._BLOCH_DIAGONALS.items():
                block = factors[t][:, contraction._FACTOR_COLUMNS[kind]]
                assert np.max(np.abs(block - np.diag(d) @ c)) <= 1e-15


def test_singlet_projector_properties():
    assert np.max(np.abs(P_MINUS @ P_MINUS - P_MINUS)) <= 1e-15
    assert abs(np.trace(P_MINUS) - 1.0) <= 1e-15


def test_fast_contraction_matches_dense_oracle():
    layouts = [lay for lay in standard_layouts() if lay.n_copies <= 4]
    for trial in range(8):
        state = random_state(100 + trial, rank=1 + trial % 4)
        for lay in layouts:
            fast = expect_layout(lay, state)
            dense = expect_layout_dense_oracle(lay, state)
            assert abs(fast - dense) <= 1e-10


def random_four_copy_layout(rng):
    a_copies = rng.permutation([1, 2, 3, 4])
    b_copies = rng.permutation([1, 2, 3, 4])
    kinds = ["singlet", "identity"]
    pairs = (
        PairOp("a", (int(a_copies[0]), int(a_copies[1])), kinds[rng.integers(2)]),
        PairOp("a", (int(a_copies[2]), int(a_copies[3])), kinds[rng.integers(2)]),
        PairOp("b", (int(b_copies[0]), int(b_copies[1])), kinds[rng.integers(2)]),
        PairOp("b", (int(b_copies[2]), int(b_copies[3])), kinds[rng.integers(2)]),
    )
    return PairingLayout(4, pairs)


def test_random_matchings_match_dense_oracle():
    rng = np.random.default_rng(8)
    for trial in range(15):
        lay = random_four_copy_layout(rng)
        state = random_state(300 + trial, rank=1 + trial % 4)
        assert abs(expect_layout(lay, state) - expect_layout_dense_oracle(lay, state)) <= 1e-10


def test_dense_oracle_refuses_six_copies():
    with pytest.raises(ValueError, match="n_copies"):
        expect_layout_dense_oracle(standard_layouts()[7], random_state(0))


def test_maximally_mixed_expectations():
    mm = TwoQubitState(MAXIMALLY_MIXED)
    for lay in standard_layouts():
        n_singlet = sum(1 for p in lay.pairs if p.kind == "singlet")
        assert abs(expect_layout(lay, mm) - 0.25**n_singlet) <= 1e-14


def test_p2_expectation_formula():
    p2 = standard_layouts()[1]
    for trial in range(25):
        state = random_state(500 + trial, rank=1 + trial % 4)
        x = decompose(state).x
        assert abs(expect_layout(p2, state) - (1.0 - x @ x) / 4.0) <= 1e-12


def test_p1_on_werner():
    p1 = standard_layouts()[0]
    for p in (0.0, 0.4, 1.0):
        state = make_family("werner", [p])
        assert abs(expect_layout(p1, state) - (1.0 + 3.0 * p * p) / 16.0) <= 1e-12


def test_first_moment_identity_against_k_matrix():
    p1, p2, p3 = standard_layouts()[:3]
    for trial in range(200):
        state = random_state(700 + trial, rank=1 + trial % 4)
        lhs = (
            16.0 * expect_layout(p1, state)
            - 8.0 * expect_layout(p2, state)
            - 4.0 * expect_layout(p3, state)
            + 2.0
        )
        rhs = float(np.trace(k_matrix(decompose(state)).entries))
        assert abs(lhs - rhs) <= 1e-9


def test_expectation_is_pair_order_insensitive():
    state = random_state(901, rank=3)
    for lay in standard_layouts():
        shuffled = PairingLayout(lay.n_copies, tuple(reversed(lay.pairs)))
        assert abs(expect_layout(lay, state) - expect_layout(shuffled, state)) <= 1e-12


def test_joint_distribution_on_maximally_mixed():
    mm = TwoQubitState(MAXIMALLY_MIXED)
    dist = joint_distribution(settings()[0], mm)
    expected = {
        (1, 1): 1 / 16,
        (0, 1): 3 / 16,
        (1, 0): 3 / 16,
        (0, 0): 9 / 16,
    }
    for pattern, prob in expected.items():
        assert abs(dist.probs[pattern] - prob) <= 1e-12


def test_joint_distribution_sums_to_one():
    for trial in range(5):
        state = random_state(1100 + trial, rank=1 + trial % 4)
        for setting in settings():
            assert abs(sum(joint_distribution(setting, state).probs.values()) - 1.0) <= 1e-9


def _relabel(setting, kinds):
    pairs = tuple(PairOp(p.side, p.copies, kind) for p, kind in zip(setting.pairs, kinds))
    return PairingLayout(setting.n_copies, pairs)


def test_marginals_match_single_singlet_layouts():
    state = random_state(1200, rank=4)
    for setting in settings():
        dist = joint_distribution(setting, state)
        n = len(setting.pairs)
        for k in range(n):
            kinds = ["singlet" if i == k else "identity" for i in range(n)]
            single = expect_layout(_relabel(setting, kinds), state)
            assert abs(dist.marginal_singlet(k) - single) <= 1e-10


def _inclusion_exclusion(setting, state, expect):
    # complement = identity - singlet per pair: a pattern's probability is the
    # signed sum over the singlet/identity layouts that agree on its singlets
    n = len(setting.pairs)
    kinds = [["singlet" if (m >> i) & 1 else "identity" for i in range(n)] for m in range(2**n)]
    by_mask = [expect(_relabel(setting, k), state) for k in kinds]
    probs = []
    for pattern in range(2**n):
        zeros = (2**n - 1) & ~pattern
        probs.append(
            sum(
                (-1.0) ** bin(sub).count("1") * by_mask[pattern | sub]
                for sub in range(2**n)
                if sub & zeros == sub
            )
        )
    return np.array(probs)


REFERENCE_STATES = [random_state(1300 + t, rank=1 + t % 4) for t in range(12)] + [
    make_family("werner", [0.5]),
    make_family("bell_diagonal", [-1.0, -1.0, -1.0]),
]


@pytest.mark.parametrize("index", range(3), ids=["2-copy", "4-copy", "6-copy"])
def test_joint_distribution_matches_inclusion_exclusion(index):
    setting = settings()[index]
    n = len(setting.pairs)
    expected_keys = [tuple((j >> i) & 1 for i in range(n)) for j in range(2**n)]
    oracles = [expect_layout] + ([expect_layout_dense_oracle] if setting.n_copies <= 4 else [])
    for state in REFERENCE_STATES:
        dist = joint_distribution(setting, state)
        assert list(dist.probs) == expected_keys
        for expect in oracles:
            reference = _inclusion_exclusion(setting, state, expect)
            assert np.max(np.abs(dist.vector() - reference)) <= 1e-12


def test_all_singlet_probability_vanishes_for_pure_product():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    state = TwoQubitState(np.outer(ket, ket))
    dist = joint_distribution(settings()[2], state)
    assert dist.probs[(1,) * 6] <= 1e-12


@pytest.mark.parametrize(
    "edges, message",
    [
        (
            (("a", 1, 2, "singlet"), ("a", 2, 3, "singlet"), ("b", 1, 2, "singlet")),
            r"slot \(2, 'a'\) appears in more than one pair",
        ),
        (
            (("a", 1, 2, "singlet"), ("b", 1, 3, "outcome")),
            "copy 2 is not covered on both sides",
        ),
    ],
    ids=["slot-used-twice", "uncovered-copy"],
)
def test_bad_edges_raise_on_every_call(edges, message):
    rho = random_state(1400).matrix
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            _contract(edges, rho)


def random_matching(rng, n_copies, kinds=("singlet", "identity")):
    pairs = []
    for side in ("a", "b"):
        copies = rng.permutation(np.arange(1, n_copies + 1))
        for j in range(0, n_copies, 2):
            kind = kinds[rng.integers(len(kinds))]
            pairs.append(PairOp(side, (int(copies[j]), int(copies[j + 1])), kind))
    order = rng.permutation(len(pairs))
    return PairingLayout(n_copies, tuple(pairs[i] for i in order))


def test_cached_walk_plans_give_bit_identical_results():
    # each result on a cold plan cache (a miss) against the same call once the
    # cache holds the plans of every other layout and setting (a hit)
    rng = np.random.default_rng(14)
    layouts = [random_matching(rng, n) for n in (2, 4, 6) for _ in range(12)]
    matchings = [random_matching(rng, n, ("singlet",)) for n in (2, 4, 6) for _ in range(4)]
    setups = [Setting(lay, ()) for lay in matchings] + settings()
    state = random_state(1500, rank=3)
    misses = []
    for lay in layouts:
        _walk_plan.cache_clear()
        misses.append(expect_layout(lay, state))
    dist_misses = []
    for setting in setups:
        _walk_plan.cache_clear()
        dist_misses.append(joint_distribution(setting, state).probs)
    for _ in range(2):  # the first pass fills the cache, the second only hits
        hits = _walk_plan.cache_info().hits
        assert [expect_layout(lay, state) for lay in layouts] == misses
        assert [joint_distribution(s, state).probs for s in setups] == dist_misses
    assert _walk_plan.cache_info().hits - hits == len(layouts) + len(setups)


def einsum_reference(layout, rho):
    # tr(O rho^(x)n) as one einsum over n copies of rho and the pair operators, no walk
    # and no 4^n operator: qubit 2(c-1) is copy c's a side, 2(c-1)+1 its b side; label q
    # is qubit q's row index in O and label 2n + q its column index, so tr(O R) takes
    # each rho's rows on O's columns and its columns on O's rows
    n_qubits = 2 * layout.n_copies
    operands = []
    for a in range(0, n_qubits, 2):
        operands += [rho.reshape(2, 2, 2, 2), [n_qubits + a, n_qubits + a + 1, a, a + 1]]
    for p in layout.pairs:
        q1, q2 = (2 * (copy - 1) + (p.side == "b") for copy in p.copies)
        op = PAIR_KIND_MATRICES[p.kind].reshape(2, 2, 2, 2)
        operands += [op, [q1, q2, n_qubits + q1, n_qubits + q2]]
    return np.einsum(*operands, [], optimize=True)


def test_walk_matches_an_einsum_reference_up_to_six_copies():
    rng = np.random.default_rng(15)
    layouts = standard_layouts() + [random_matching(rng, 6) for _ in range(12)]
    states = [random_state(1550 + trial, rank=1 + trial % 4) for trial in range(8)]
    for lay in layouts:
        for state in states:
            reference = einsum_reference(lay, state.matrix)
            assert abs(reference.imag) <= 1e-12
            assert abs(expect_layout(lay, state) - reference.real) <= 1e-12


STEP_FORM_STATES = [random_state(1560 + t, rank=1 + t % 4) for t in range(50)] + [
    make_family("werner", [1.0])
]


def test_outcome_leg_walks_agree_with_closed_walks():
    # the c's a setting covers, read off its joint distribution (walked with outcome
    # legs) against the same c's from expect_layout (walked with closed edges only)
    for state in STEP_FORM_STATES:
        c = outcomes_exact(state).c
        for setting in settings():
            indices, hit = _hit_matrix(setting)
            read_off = joint_distribution(setting, state).vector() @ hit
            assert np.max(np.abs(read_off - c[indices])) <= 1e-13


def test_closed_edges_and_outcome_legs_mix_in_one_cycle():
    # a closed edge of one kind is the outcome axis it picks (complement 0, singlet 1),
    # and a closed identity edge is the sum of both
    rng = np.random.default_rng(18)
    state = random_state(1590, rank=3)
    for setting in settings():
        edges = [(p.side, *p.copies, "outcome") for p in setting.pairs]
        full = _contract(tuple(edges), state.matrix)
        for _ in range(6):
            kinds = rng.choice(["outcome", "complement", "singlet", "identity"], len(edges)).tolist()
            expected = full
            for axis, kind in enumerate(kinds):
                if kind == "identity":
                    expected = expected.sum(axis=axis, keepdims=True)
                elif kind != "outcome":
                    expected = expected.take([kind == "singlet"], axis=axis)
            mixed = tuple(edge[:3] + (kind,) for edge, kind in zip(edges, kinds))
            assert np.max(np.abs(_contract(mixed, state.matrix) - expected)) <= 1e-13


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / abs(np.diag(r)))


def test_outcomes_are_invariant_under_local_unitaries():
    # P^- is invariant under U (x) U, so each pair operator commutes with the same
    # unitary on both of its slots: U_A (x) U_B on every copy leaves all c's fixed
    rng = np.random.default_rng(17)
    for trial in range(20):
        state = random_state(1580 + trial, rank=1 + trial % 4)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = TwoQubitState(u @ state.matrix @ u.conj().T)
        assert np.max(np.abs(outcomes_exact(rotated).c - outcomes_exact(state).c)) <= 1e-12


def test_dense_operator_is_built_once_and_read_only():
    layout = standard_layouts()[3]
    op = _dense_operator(layout.n_copies, layout.pairs)
    assert op is _dense_operator(layout.n_copies, tuple(layout.pairs))
    assert op.dtype == np.float64 and op.shape == (256, 256)
    assert not op.flags.writeable


def textbook_dense(layout, states):
    # tr(O rho^(x)n) per state, O built entry by entry from the bits of its row and
    # column indices: qubit 2(c-1) is copy c's a side, 2(c-1)+1 its b side, qubit 0 first
    n_qubits = 2 * layout.n_copies
    bits = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)[::-1]) & 1
    op = np.ones((2**n_qubits, 2**n_qubits))
    for p in layout.pairs:
        q1, q2 = (2 * (copy - 1) + (p.side == "b") for copy in p.copies)
        sub = 2 * bits[:, q1] + bits[:, q2]
        op = op * PAIR_KIND_MATRICES[p.kind].real[sub[:, None], sub[None, :]]
    return np.array([np.trace(op @ reduce(np.kron, [s.matrix] * layout.n_copies)) for s in states])


def test_dense_oracle_matches_the_textbook_trace():
    rng = np.random.default_rng(16)
    layouts = [lay for lay in standard_layouts() if lay.n_copies <= 4]
    layouts += [random_matching(rng, n) for n in (2, 4) for _ in range(6)]
    states = [random_state(1600 + trial, rank=1 + trial % 4) for trial in range(4)]
    for lay in layouts:
        reference = textbook_dense(lay, states)
        assert np.max(np.abs(reference.imag)) <= 1e-14
        dense = [expect_layout_dense_oracle(lay, state) for state in states]
        assert np.max(np.abs(dense - reference.real)) <= 1e-14


def test_dense_oracle_never_walks_the_cycles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense oracle used the cycle walk")

    monkeypatch.setattr(contraction, "_contract", refuse)
    monkeypatch.setattr(contraction, "_walk_plan", refuse)
    state = random_state(1700, rank=2)
    for lay in standard_layouts()[:7]:
        assert abs(expect_layout_dense_oracle(lay, state) - textbook_dense(lay, [state])[0].real) <= 1e-14


def fake_realigned_operator(n, pairs):
    # a real operator that pairs a's entries 1 and 2: a^T O a = a_1 a_2, which is
    # rho_10 rho_20 on 2 copies and rho_00^2 rho_10 rho_20 on 4, complex for a generic rho
    op = np.zeros((4**n, 4**n))
    op[1, 2] = 1.0
    return op


def test_dense_oracle_checks_the_imaginary_residue(monkeypatch):
    # only the symmetric part of the realigned operator enters a^T O a, so the fake pairs
    # two off-diagonal entries of rho rather than breaking the operator's symmetry
    monkeypatch.setattr(contraction, "_dense_operator", fake_realigned_operator)
    for lay in (standard_layouts()[0], standard_layouts()[3]):
        with pytest.raises(NumericalContractError, match="imaginary residue"):
            expect_layout_dense_oracle(lay, random_state(1800, rank=3))


def test_walk_checks_the_imaginary_residue():
    # a non-Hermitian rho has complex Pauli expectations: rho_01 = 1e-3 puts 1e-3 i in
    # R's (0, y) entry, so the factors built from rho carry an imaginary part
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 1e-3
    closed = tuple((p.side, *p.copies, p.kind) for p in standard_layouts()[0].pairs)
    legs = tuple((p.side, *p.copies, "outcome") for p in settings()[1].pairs)
    for edges in (closed, legs):
        with pytest.raises(NumericalContractError, match="imaginary residue"):
            _contract(edges, rho)
        _contract(edges, (rho + rho.conj().T) / 2)  # its Hermitian part passes


def test_dense_oracle_never_forms_the_copies_product():
    # once the operator is cached, a 4-copy call holds a (256,) vector and a (256, 2)
    # product, a few KiB; rho^(x)4 alone is 256 x 256 complex, 1 MiB
    layout, state = standard_layouts()[3], random_state(1900, rank=4)
    expect_layout_dense_oracle(layout, state)
    tracemalloc.start()
    try:
        expect_layout_dense_oracle(layout, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
