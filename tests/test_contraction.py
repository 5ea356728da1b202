import json
import tracemalloc
from collections import namedtuple
from functools import lru_cache, reduce

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
from gqdkit import contraction, estimate_gqd
from gqdkit.contraction import (
    P_MINUS,
    OutcomeDistribution,
    PAIR_KIND_MATRICES,
    _BLOCH_DIAGONALS,
    _dense_operator,
    _leg_stack,
    _standard_values,
    _walked,
    build_u,
    build_v,
    pauli_exchange_sum,
)
from gqdkit.errors import NumericalContractError
from gqdkit.estimator import _READOFF, outcomes_exact
from gqdkit.pairing import PairingLayout, PairOp, Setting, settings, standard_layouts
from gqdkit.statekit import MAXIMALLY_MIXED, PAULI, SINGLET, _frozen


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
    # the leg stack against R computed here entry by entry, not by the state's constructor: for
    # C = R, then C = R^T, the factors (complement, singlet) side by side
    assert not contraction._LEG_INDEX.flags.writeable and not contraction._LEG_WEIGHT.flags.writeable
    for trial in range(12):
        state = random_state(1950 + trial, rank=1 + trial % 4)
        r = 4 * pauli_coefficients(state.matrix).real  # R_mu,nu = tr(rho sigma_mu (x) sigma_nu)
        legs = _leg_stack(state)
        assert legs.shape == (2, 4, 8) and legs.flags.c_contiguous
        for t, c in enumerate((r, r.T)):
            for j, kind in enumerate(("complement", "singlet")):
                block = legs[t][:, 4 * j : 4 * j + 4]
                assert np.max(np.abs(block - np.diag(_BLOCH_DIAGONALS[kind]) @ c)) <= 1e-15


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


def test_joint_distribution_on_maximally_mixed():
    mm = TwoQubitState(MAXIMALLY_MIXED)
    dist = joint_distribution(settings()[0], mm)
    # patterns 0..3 are (pair 0, pair 1) = 00, 10, 01, 11, a 1 for the singlet
    expected = [9 / 16, 3 / 16, 3 / 16, 1 / 16]
    assert np.max(np.abs(dist.p - expected)) <= 1e-12


def test_joint_distribution_sums_to_one():
    for trial in range(5):
        state = random_state(1100 + trial, rank=1 + trial % 4)
        for setting in settings():
            assert abs(joint_distribution(setting, state).p.sum() - 1.0) <= 1e-9


def _two_pair_vector(p00, p10, p01, p11):
    return np.array([p00, p10, p01, p11])


FINITE_MESSAGE = r"^pattern probabilities must be finite and nonnegative$"


@pytest.mark.parametrize(
    "p, message",
    [
        (np.full(3, 1 / 3), "expected 4 patterns"),
        (np.full((2, 2), 0.25), "expected 4 patterns"),
        (_two_pair_vector(np.nan, 0.5, 0.25, 0.25), "finite and nonnegative"),
        (_two_pair_vector(np.inf, 0.5, 0.25, 0.25), "finite and nonnegative"),
        (_two_pair_vector(-0.25, 0.5, 0.5, 0.25), "finite and nonnegative"),
        (_two_pair_vector(0.25, 0.25, 0.25, 0.3), "sum to"),
        (_two_pair_vector(0.5, 0.25, 0.25, np.nan), FINITE_MESSAGE),
        (_two_pair_vector(0.5, 0.25, 0.25, np.inf), FINITE_MESSAGE),
        (_two_pair_vector(-np.inf, 0.5, 0.25, 0.25), FINITE_MESSAGE),
        (_two_pair_vector(0.5, 0.25, 0.25, -np.inf), FINITE_MESSAGE),
    ],
    ids=[
        "short", "matrix", "nan", "inf", "negative", "sum-off",
        "nan-last", "inf-last", "-inf-first", "-inf-last",
    ],
)
def test_outcome_distribution_rejects_a_bad_vector(p, message):
    with pytest.raises(NumericalContractError, match=message):
        OutcomeDistribution(settings()[0], p)


def test_joint_distribution_rejects_a_nan_walk(monkeypatch):
    # a NaN pattern survives the clamp; OutcomeDistribution's own check catches it on a protocol
    # setting's rows of the chained walk
    def nan_walk(legs):
        return np.full(84, np.nan)

    monkeypatch.setattr(contraction, "_walk_legs", nan_walk)
    with pytest.raises(NumericalContractError, match="finite and nonnegative"):
        joint_distribution(settings()[0], random_state(1150))


def test_outcome_distribution_holds_one_read_only_vector():
    dist = joint_distribution(settings()[1], random_state(1160, rank=3))
    assert dist.p.shape == (16,) and dist.p.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        dist.p[0] = 0.5


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
            single = ref_expect(_relabel(setting, kinds), state)
            # bit k of pattern j is pair k's outcome, 1 for the singlet (see pattern_product)
            marginal = dist.p[(np.arange(2**n) >> k) & 1 == 1].sum()
            assert abs(marginal - single) <= 1e-10


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
    oracles = [ref_expect] + ([expect_layout_dense_oracle] if setting.n_copies <= 4 else [])
    for state in REFERENCE_STATES:
        dist = joint_distribution(setting, state)
        assert dist.p.shape == (2**n,)
        for expect in oracles:
            reference = _inclusion_exclusion(setting, state, expect)
            assert np.max(np.abs(dist.p - reference)) <= 1e-12


def test_all_singlet_probability_vanishes_for_pure_product():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    state = TwoQubitState(np.outer(ket, ket))
    dist = joint_distribution(settings()[2], state)
    assert dist.p[2**6 - 1] <= 1e-12  # every bit 1: all six pairs singlet


def random_matching(rng, n_copies, kinds=("singlet", "identity")):
    pairs = []
    for side in ("a", "b"):
        copies = rng.permutation(np.arange(1, n_copies + 1))
        for j in range(0, n_copies, 2):
            kind = kinds[rng.integers(len(kinds))]
            pairs.append(PairOp(side, (int(copies[j]), int(copies[j + 1])), kind))
    order = rng.permutation(len(pairs))
    return PairingLayout(n_copies, tuple(pairs[i] for i in order))


# The generic stacked walk the package's walks replaced, verbatim but for the ref_ prefix: one
# path for closed edges and outcome legs. The leg walk must reproduce it bit for bit, and a
# layout's value, read off its leg walk, its closed walk to rounding.
# Each kind's columns in a (4, 12) block of the factor stack; an outcome leg takes the
# adjacent (complement, singlet)
ref_FACTOR_COLUMNS = {kind: slice(4 * k, 4 * k + 4) for k, kind in enumerate(_BLOCH_DIAGONALS)}
ref_FACTOR_COLUMNS["outcome"] = slice(4, 12)


# Entry (c, mu, 4k + nu) of the factor stack is d_k[mu] C[mu, nu], C = (R, R^T)[c]:
# C[mu, nu] sits at _FACTOR_INDEX among R's raveled entries, d_k[mu] at _FACTOR_WEIGHT
ref_FACTOR_INDEX = _frozen(np.tile([np.arange(16).reshape(4, 4), np.arange(16).reshape(4, 4).T], 3))
ref_FACTOR_WEIGHT = _frozen(np.tile(np.array(list(_BLOCH_DIAGONALS.values())).T.repeat(4, 1), (2, 1, 1)))


def ref_factor_stack(r: np.ndarray) -> np.ndarray:
    """The (2, 4, 12) factor stack of a Bloch matrix r = R by one gather and one real product:
    for C = R, then C = R^T, the three factors diag(d) C side by side in _BLOCH_DIAGONALS order."""
    return r.take(ref_FACTOR_INDEX) * ref_FACTOR_WEIGHT


@lru_cache(maxsize=256)
def ref_walk_plan(edges: tuple[tuple[str, int, int, str], ...]):
    """Validated slots and cycle order of a walk; not state-dependent.

    Per cycle: the first edge's factor-stack index and the others' in walk order; then
    the result shape in walk order and the axis order restoring edge order. An index
    picks diag(d) C for the edge's kind (both outcome kinds for a leg), C = R^T where
    the walk crosses the next copy from its b slot, else R. A failed validation raises
    and is not cached.
    """
    incident: dict[tuple[int, str], tuple[int, int]] = {}  # slot -> (edge, the edge's other copy)
    for idx, (side, lo, hi, _) in enumerate(edges):
        for copy, other in ((lo, hi), (hi, lo)):
            slot = (copy, side)
            if slot in incident:
                raise ValueError(f"slot {slot} appears in more than one pair")
            incident[slot] = (idx, other)
    for copy in {copy for _, lo, hi, _ in edges for copy in (lo, hi)}:
        if (copy, "a") not in incident or (copy, "b") not in incident:
            raise ValueError(f"copy {copy} is not covered on both sides")

    cycles, order = [], []
    for start in range(len(edges)):
        if start in order:
            continue
        side, _, copy, _ = edges[start]
        idx, steps = start, []
        while True:
            # the edge, then across the copy tensor (transposed from the b slot) to the other slot
            steps.append((int(side == "b"), slice(None), ref_FACTOR_COLUMNS[edges[idx][3]]))
            order.append(idx)
            side = "b" if side == "a" else "a"
            idx, copy = incident[(copy, side)]
            if idx == start:
                break
        cycles.append((steps[0], tuple(steps[1:])))
    shape = tuple(2 if edges[i][3] == "outcome" else 1 for i in order)
    return tuple(cycles), shape, tuple(sorted(range(len(order)), key=order.__getitem__))


def ref_contract(edges: tuple[tuple[str, int, int, str], ...], r: np.ndarray) -> np.ndarray:
    """tr[(tensor of pair ops)(rho^(x) n)] for edges (side, lo, hi, kind | "outcome"), given
    rho's real Bloch matrix r = R (TwoQubitState.R, whose constructor checked it is real).

    An "outcome" edge carries the stack (complement, singlet); one result axis per
    edge, in edge order, picks its operator. Per call _factor_stack forms the six
    factors. The running stack holds row i of partial product k at row (i, k); a
    step multiplies it, as (4K, 4), by a (4, 4) factor or a leg's (4, 8) pair, read
    back as (8K, 4): k -> 2k + bit. A cycle closes with a trace per product.
    """
    cycles, shape, axes = ref_walk_plan(edges)
    factors = ref_factor_stack(r)
    parts = []
    for first, steps in cycles:
        prod = factors[first]
        for step in steps:
            # ndarray.dot dispatches faster than @ on small operands
            prod = prod.reshape(-1, 4).dot(factors[step])
        parts.append(prod.reshape(4, -1, 4).trace(axis1=0, axis2=2))
    return reduce(np.multiply.outer, parts).reshape(shape).transpose(axes)


def ref_expect(layout, state):
    """The layout's expectation by the generic closed walk: any matching, any kind."""
    return ref_contract(tuple((p.side, *p.copies, p.kind) for p in layout.pairs), state.R).item()


def ref_patterns(setting, state):
    """The setting's patterns by the generic walk with an outcome leg on every pair, in pattern
    order (see pattern_product): pair 0's bit lowest, so the last pair's axis first."""
    return ref_contract(tuple((p.side, *p.copies, "outcome") for p in setting.pairs), state.R).T.reshape(-1)


# PairOp admits only singlet and identity; the generic walk's plan also takes the complement
# kind, which a stand-in pair reaches (a layout reads a pair's side, copies and kind)
StandInPair = namedtuple("StandInPair", "side copies kind")

BIT_STATES = [random_state(1960 + t, rank=1 + t % 4) for t in range(16)] + [
    make_family("werner", [0.3]),
    make_family("bell_diagonal", [0.5, -0.3, 0.2]),
    make_family("pure", [0.6, 0.1, 0.2, -0.3, 0.0, 0.5, 0.3, 0.4]),
    make_family("product", [0.1, 0.2, 0.3, 0.0, 0.0, 1.0]),
    make_family("classical_AB", [0.3, 0.4, 0.2, 0.1, 0.2, 0.3, 0.5, -0.1, 0.2]),
]


def same_bits(values, expected):
    # equal, and equal in the sign of a zero
    return values == expected and np.signbit(values).tolist() == np.signbit(expected).tolist()


ZERO_STATES = [make_family("product", [0, 0, 1, 0, 0, 1]), make_family("product", [1, 0, 0, 0, 1, 0])]


def test_every_layout_is_within_rounding_of_the_generic_walk():
    # P1..P11, read off the chained walk: each value within 1e-15 of the generic closed walk, and
    # where both read an exact zero, a zero of the same sign
    layouts = standard_layouts()
    zeros = 0
    for state in BIT_STATES + ZERO_STATES:
        values = [expect_layout(lay, state) for lay in layouts]
        assert all(type(v) is float for v in values)
        expected = [ref_expect(lay, state) for lay in layouts]
        assert np.max(np.abs(np.subtract(values, expected))) <= 1e-15
        at_zero = [i for i, (v, e) in enumerate(zip(values, expected)) if v == 0.0 == e]
        zeros += len(at_zero)
        assert same_bits([values[i] for i in at_zero], [expected[i] for i in at_zero])
    assert zeros > 0


def test_every_layout_keeps_the_cycles_of_the_generic_walk():
    # a layout walks its copy graph once, at construction: per cycle, each pair's index and its
    # b-slot flag, in the generic walk's order, for the standard layouts, the settings and
    # random matchings, single- and multi-cycle, stand-in pairs among them
    rng = np.random.default_rng(21)
    kinds = ("singlet", "identity", "complement")
    matchings = standard_layouts() + settings()
    for n in (2, 4, 6):
        for _ in range(12):
            lay = random_matching(rng, n)
            relabeled = tuple(StandInPair(p.side, p.copies, kinds[rng.integers(3)]) for p in lay.pairs)
            matchings += [lay, PairingLayout(n, relabeled)]
    assert sum(len(m.cycles) > 1 for m in matchings) > 10
    for m in matchings:
        cycles, _, axes = ref_walk_plan(tuple((p.side, *p.copies, p.kind) for p in m.pairs))
        assert [i for cycle in m.cycles for i, _ in cycle] == np.argsort(axes).tolist()
        flags = [[step[0] for step in (first, *rest)] for first, rest in cycles]
        assert [[b for _, b in cycle] for cycle in m.cycles] == flags
        assert type(m.cycles) is tuple and all(type(cycle) is tuple for cycle in m.cycles)
    assert settings()[2].cycles is standard_layouts()[7].cycles
    with pytest.raises(TypeError):
        PairingLayout(2, standard_layouts()[0].pairs, cycles=())


def test_leg_walk_is_bit_identical_to_the_generic_walk():
    for state in BIT_STATES:
        for setting in settings():
            expected = np.maximum(ref_patterns(setting, state), 0.0)
            assert joint_distribution(setting, state).p.tolist() == expected.tolist()


def counted(monkeypatch, *names):
    # calls of contraction's own functions, counted where its other functions look them up
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _original=getattr(contraction, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(contraction, name, counting)
    return calls


def test_leg_stack_is_gathered_once_per_state_object(monkeypatch):
    # a state's eleven standard values and three distributions share one gather of R and one
    # chained walk; the next state, or an equal-matrix copy of it (a state compares by identity),
    # gathers and walks anew, and each cache keeps only the last state
    a, b = BIT_STATES[1], BIT_STATES[6]
    twin = TwoQubitState(a.matrix.copy())
    _standard_values.cache_clear()
    _walked.cache_clear()
    calls = counted(monkeypatch, "_leg_stack", "_walk_legs")
    for state in (a, b, a, twin):
        before = dict(calls)
        for _ in range(2):
            for lay in standard_layouts():
                assert abs(expect_layout(lay, state) - ref_expect(lay, state)) <= 1e-15
            for setting in settings():
                joint_distribution(setting, state)
            assert _standard_values.cache_info().currsize == _walked.cache_info().currsize == 1
        assert {name: calls[name] - before[name] for name in calls} == {"_leg_stack": 1, "_walk_legs": 1}


def test_walked_values_are_kept_for_the_last_state_only(monkeypatch):
    # states A, B, A: each visit makes one chained walk of the three settings and reads the second
    # pass back, and the caches hold the visited state's 84 patterns and eleven values only; an
    # equal-matrix copy walks anew
    walked, walk = [], contraction._walk_legs

    def recording(legs):
        walked.append(legs.shape)
        return walk(legs)

    monkeypatch.setattr(contraction, "_walk_legs", recording)
    a, b = BIT_STATES[2], BIT_STATES[9]
    _standard_values.cache_clear()
    _walked.cache_clear()
    for state in (a, b, a, TwoQubitState(a.matrix.copy())):
        walked.clear()
        passes = [[expect_layout(lay, state) for lay in standard_layouts()] for _ in range(2)]
        assert walked == [(2, 4, 8)]
        assert passes[0] == passes[1] == list(_standard_values(state)[0])
        assert _walked(state).shape == (84,) and not _walked(state).flags.writeable
        assert _standard_values.cache_info().currsize == _walked.cache_info().currsize == 1
        for lay, value in zip(standard_layouts(), passes[0]):
            assert abs(value - einsum_reference(lay, state.matrix).real) <= 1e-12


CHAIN_STATES = [random_state([35, t], rank=1 + t % 4) for t in range(200)]


def test_the_chained_walk_is_bit_identical_to_the_generic_walk():
    # one walk of setting 3's cycle, traced after legs 2, 4 and 6, against each setting walked
    # apart by the generic walk, signs of zero included; and a protocol setting's distribution
    # is its rows of the chained walk
    for state in CHAIN_STATES + BIT_STATES + ZERO_STATES:
        chained = contraction._walk_legs(_leg_stack(state))
        apart = np.concatenate([ref_patterns(s, state) for s in settings()])
        assert chained.shape == (84,) and np.array_equal(chained.view(np.int64), apart.view(np.int64))
    state = CHAIN_STATES[-1]
    for setting, rows in zip(settings(), np.split(_walked(state), [4, 20])):
        assert np.array_equal(joint_distribution(setting, state).p, np.maximum(rows, 0.0))


def test_the_settings_must_nest_to_share_one_walk():
    # the protocol's settings nest, each a proper prefix of the next; a reordered triple, a repeated
    # setting, one walked from its b side and one of two cycles do not
    s1, s2, s3 = settings()
    first, steps, closes, gather = contraction._chain_plan((s1, s2, s3))
    assert (first, steps, closes) == (0, (1, 0, 1, 0, 1), (2, 4, 6))
    assert gather.shape == (84,) and sorted(gather) == list(range(84)) and not gather.flags.writeable
    b_first = Setting(PairingLayout(2, s1.pairs[::-1]), ())
    two_cycles = Setting(PairingLayout(4, tuple(
        PairOp(side, copies, "singlet") for side in "ab" for copies in ((1, 2), (3, 4)))), ())
    assert len(two_cycles.cycles) == 2
    for chain in ((s1, s3, s2), (s2, s1), (s1, s1, s3), (b_first, s2, s3), (two_cycles, s3)):
        with pytest.raises(NumericalContractError, match="do not nest"):
            contraction._chain_plan(chain)


def test_layouts_and_settings_outside_the_protocol_are_refused(monkeypatch):
    # layouts and settings compare by identity: a fresh layout with P1's pairs, a reversed-pair
    # copy of each of P1..P11 and a setting rebuilt on a protocol setting's pairs each raise a
    # ValueError naming it, as does an unhashable stand-in, before any walk, and the state's
    # cached values stay as they were
    state = BIT_STATES[4]
    values = _standard_values(state)

    def refuse(*args):
        raise AssertionError("walked a layout or setting outside the protocol")

    monkeypatch.setattr(contraction, "_walk_legs", refuse)
    p1 = standard_layouts()[0]
    layouts = [(PairingLayout(2, p1.pairs), "layout"), (list(p1.pairs), "layout")] + [
        (PairingLayout(lay.n_copies, lay.pairs[::-1], f"{lay.label} reversed"), f"{lay.label} reversed")
        for lay in standard_layouts()]
    for lay, name in layouts:
        with pytest.raises(ValueError, match=f"^{name} is not one of P1..P11$"):
            expect_layout(lay, state)
    for s in settings():
        for rebuilt, name in ((Setting(PairingLayout(s.n_copies, s.pairs), s.covered), "setting"),
                              (Setting(s.layout, s.covered), s.layout.label)):
            with pytest.raises(ValueError, match=f"^{name} is not one of the three protocol settings$"):
                joint_distribution(rebuilt, state)
    assert _standard_values(state) is values and _standard_values.cache_info().currsize == 1
    assert [expect_layout(lay, state) for lay in standard_layouts()] == list(values[0])


@pytest.mark.parametrize("which", ["A", "B"])
def test_exact_zeros_read_plus_zero_on_both_sides(which):
    # a pure product state's eleven values are exact zeros, each +0.0, and scheme-exact's JSON
    # reads a discord of 0.0, never -0.0, on either side
    for state in ZERO_STATES:
        assert list(_standard_values(state)[0]) == [0.0] * 11
        assert not np.signbit(_standard_values(state)[0]).any()
        text = json.dumps(estimate_gqd(state, "scheme-exact", which=which).to_dict())
        assert '"value": 0.0,' in text and "-0.0" not in text


# the oracle's pair operators, from SINGLET alone: per kind, and as the (complement,
# singlet) outcome stack a measured pair carries
KIND_OPERATORS = {"singlet": SINGLET, "identity": np.eye(4)}
OUTCOME_OPERATORS = np.stack([np.eye(4) - SINGLET, SINGLET])


def einsum_reference(layout, rho, outcomes=False):
    # tr(O rho^(x)n) as one einsum over n copies of rho and the pair operators in the
    # computational basis, reading no Bloch form, walk or 4^n operator: qubit 2(c-1) is
    # copy c's a side, 2(c-1)+1 its b side; label q is qubit q's row index in O and label
    # 2n + q its column index, so tr(O R) takes each rho's rows on O's columns and its
    # columns on O's rows. With `outcomes`, pair i carries the (complement, singlet)
    # stack on label 4n + i whatever its kind, and the result holds every outcome
    # pattern in pattern order: pair 0's bit lowest, so the last pair's axis first
    n_qubits = 2 * layout.n_copies
    operands, out = [], []
    for a in range(0, n_qubits, 2):
        operands += [rho.reshape(2, 2, 2, 2), [n_qubits + a, n_qubits + a + 1, a, a + 1]]
    for i, p in enumerate(layout.pairs):
        q1, q2 = (2 * (copy - 1) + (p.side == "b") for copy in p.copies)
        labels = [q1, q2, n_qubits + q1, n_qubits + q2]
        if outcomes:
            operands += [OUTCOME_OPERATORS.reshape(2, 2, 2, 2, 2), [2 * n_qubits + i, *labels]]
            out.insert(0, 2 * n_qubits + i)
        else:
            operands += [KIND_OPERATORS[p.kind].reshape(2, 2, 2, 2), labels]
    return np.einsum(*operands, out, optimize=True).reshape(-1 if outcomes else ())


ORACLE_STATES = [random_state(1550 + trial, rank=1 + trial % 4) for trial in range(20)]


def test_walk_matches_an_einsum_reference_up_to_six_copies():
    for lay in standard_layouts():
        for state in ORACLE_STATES:
            reference = einsum_reference(lay, state.matrix)
            assert abs(reference.imag) <= 1e-12
            assert abs(expect_layout(lay, state) - reference.real) <= 1e-12


def test_joint_distribution_matches_an_einsum_reference():
    # all 84 patterns of the three settings, 64 of them on six copies
    for state in ORACLE_STATES:
        for setting in settings():
            reference = einsum_reference(setting.layout, state.matrix, outcomes=True)
            assert reference.shape == (2 ** len(setting.pairs),)
            assert np.max(np.abs(reference.imag)) <= 1e-12
            assert np.max(np.abs(joint_distribution(setting, state).p - reference.real)) <= 1e-12


STEP_FORM_STATES = [random_state(1560 + t, rank=1 + t % 4) for t in range(50)] + [
    make_family("werner", [1.0])
]


def test_outcome_leg_walks_agree_with_closed_walks():
    # the c's read off the three joint distributions (clamped at zero) by the sampled
    # route's read-off matrix, against the c's expect_layout reads off the same walks
    # unclamped; side B's columns sit at the relabeled outcomes
    for state in STEP_FORM_STATES:
        p = np.concatenate([joint_distribution(s, state).p for s in settings()])
        for which in ("A", "B"):
            read_off = p @ _READOFF[which][:, :11]
            assert np.max(np.abs(read_off - outcomes_exact(state, which).c)) <= 1e-13


def test_closed_walk_is_a_pick_or_sum_of_the_leg_walk():
    # a closed singlet pair is the outcome it picks (bit 1), and a closed identity pair is
    # the sum over both outcomes: the closed walk of a setting relabeled with random kinds
    # against the matching patterns of the leg walk
    rng = np.random.default_rng(18)
    for state in REFERENCE_STATES:
        for setting in settings():
            p = joint_distribution(setting, state).p
            n = len(setting.pairs)
            bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # bit i: pair i's outcome
            for _ in range(4):
                singlet = rng.integers(2, size=n).astype(bool)
                lay = _relabel(setting, ["singlet" if s else "identity" for s in singlet])
                keep = (bits[:, singlet] == 1).all(axis=1)
                assert abs(ref_expect(lay, state) - p[keep].sum()) <= 1e-13


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

    for walk in ("expect_layout", "_standard_values", "_leg_stack", "_walk_legs"):
        monkeypatch.setattr(contraction, walk, refuse)
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
