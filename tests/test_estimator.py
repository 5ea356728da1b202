import json
import itertools
import re
from dataclasses import dataclass

import numpy as np
import pytest

from gqdkit import cli, contraction, estimator, gqd_core, statekit
from gqdkit import (
    GqdEstimate,
    NumericalContractError,
    StateValidationError,
    TwoQubitState,
    decompose,
    eigenvalues_from_moments,
    estimate_gqd,
    gqd_exact,
    joint_distribution,
    k_matrix,
    make_family,
    moments_from_outcomes,
    outcomes_exact,
    qst_estimate,
    random_state,
    settings,
    standard_layouts,
    verify_moment_formulas,
)
from gqdkit.estimator import (
    BASELINE_MOMENT_TABLE,
    COMPLEX_ROOT_TOL,
    EXACT_OUTCOME_TOL,
    MOMENT_ORDERS,
    MOMENT_TABLE,
    N_OUTCOMES,
    REPEATED_ROOT_DISC,
    MomentTriple,
    OutcomeVector,
    _SIDE_B_ORDER,
    _READOFF,
    derive_moment_table,
)
from gqdkit.statekit import MAXIMALLY_MIXED, _draw, _frozen, stream_key
from test_contraction import einsum_reference, ref_patterns

MM_OUTCOMES = np.array(
    [
        1 / 16,
        1 / 4,
        1 / 4,
        1 / 256,
        1 / 64,
        1 / 64,
        1 / 16,
        1 / 4096,
        1 / 1024,
        1 / 1024,
        1 / 256,
    ]
)


def power_sums(lam):
    lam = np.asarray(lam, dtype=float)
    return MomentTriple(*(float(np.sum(lam**k)) for k in (1, 2, 3)))


def test_outcomes_exact_on_maximally_mixed():
    c = outcomes_exact(TwoQubitState(MAXIMALLY_MIXED)).c
    assert np.max(np.abs(c - MM_OUTCOMES)) <= 1e-14


def test_outcomes_exact_on_pure_product():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    c = outcomes_exact(TwoQubitState(np.outer(ket, ket))).c
    assert np.max(np.abs(c[:3])) <= 1e-12


def test_outcomes_exact_on_werner():
    for p in (0.0, 0.5, 1.0):
        c = outcomes_exact(make_family("werner", [p])).c
        assert abs(c[1] - 0.25) <= 1e-12
        assert abs(c[2] - 0.25) <= 1e-12


def test_derived_table_structure():
    assert MOMENT_TABLE[1] == {(1,): 16.0, (2,): -8.0, (3,): -4.0, (): 2.0}
    assert MOMENT_TABLE[2] == BASELINE_MOMENT_TABLE[2]
    # the only divergence from the baseline table is the linear c3 term of
    # the third moment
    diffs = {
        mono
        for mono in set(MOMENT_TABLE[3]) | set(BASELINE_MOMENT_TABLE[3])
        if MOMENT_TABLE[3].get(mono) != BASELINE_MOMENT_TABLE[3].get(mono)
    }
    assert diffs == {(3,)}
    assert MOMENT_TABLE[3][(3,)] == -48.0
    assert derive_moment_table(3) == MOMENT_TABLE[3]


def test_derived_table_keeps_its_monomial_order():
    # the monomials in the order the expansion meets them, pair subsets by increasing mask
    assert [list(MOMENT_TABLE[k]) for k in MOMENT_ORDERS] == [
        [(), (2,), (3,), (1,)],
        [(), (2,), (2, 2), (3,), (7,), (6,), (3, 3), (5,), (4,)],
        [(), (2,), (2, 2), (2, 2, 2), (3,), (7,), (6,), (2, 3), (2, 7), (2, 6), (3, 3), (3, 7), (5,),
         (11,), (7, 7), (10,), (3, 3, 3), (3, 5), (9,), (8,)],
    ]


def test_moments_on_maximally_mixed():
    m = moments_from_outcomes(outcomes_exact(TwoQubitState(MAXIMALLY_MIXED)))
    assert np.max(np.abs([m.m1, m.m2, m.m3])) <= 1e-12


def test_moments_on_pure_product():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    m = moments_from_outcomes(outcomes_exact(TwoQubitState(np.outer(ket, ket))))
    assert abs(m.m1 - 2.0) <= 1e-12
    assert abs(m.m2 - 4.0) <= 1e-12
    assert abs(m.m3 - 8.0) <= 1e-12


def test_moments_on_werner():
    for p in (0.25, 0.6, 0.9):
        m = moments_from_outcomes(outcomes_exact(make_family("werner", [p])))
        assert abs(m.m1 - 3 * p**2) <= 1e-9
        assert abs(m.m2 - 3 * p**4) <= 1e-9
        assert abs(m.m3 - 3 * p**6) <= 1e-9


def test_moments_match_k_matrix_oracle():
    for trial in range(200):
        state = random_state(1500 + trial, rank=1 + trial % 4)
        m = moments_from_outcomes(outcomes_exact(state))
        k = k_matrix(decompose(state)).entries
        assert abs(m.m1 - np.trace(k)) <= 1e-9
        assert abs(m.m2 - np.trace(k @ k)) <= 1e-9
        assert abs(m.m3 - np.trace(k @ k @ k)) <= 1e-9


def test_exact_moments_satisfy_power_mean_bounds():
    for trial in range(200):
        state = random_state(1800 + trial, rank=1 + trial % 4)
        m = moments_from_outcomes(outcomes_exact(state))
        assert m.m1**2 / 3.0 - 1e-9 <= m.m2 <= m.m1**2 + 1e-9


def test_verify_moment_formulas_flags_the_baseline():
    report = verify_moment_formulas(trials=60, seed=3)
    assert report.baseline_max_dev[1] <= 1e-9
    assert report.baseline_max_dev[2] <= 1e-9
    assert report.baseline_max_dev[3] > 1e-6
    assert not report.baseline_ok
    assert report.diff == [
        {"order": 3, "monomial": [3], "baseline": 48.0, "corrected": -48.0}
    ]
    assert all(dev <= 1e-9 for dev in report.corrected_max_dev.values())
    for k, table in report.corrected_table.items():
        assert table == MOMENT_TABLE[k]
        assert table is not MOMENT_TABLE[k]
    # the schema archived at build/moment_formula_audit.json by criterion 4
    assert set(report.to_dict()) == {
        "trials",
        "seed",
        "tolerance",
        "baseline_ok",
        "baseline_max_dev",
        "corrected_table",
        "corrected_max_dev",
        "diff",
    }


def test_verify_moment_formulas_is_deterministic():
    a = verify_moment_formulas(trials=40, seed=9)
    b = verify_moment_formulas(trials=40, seed=9)
    assert a.to_dict() == b.to_dict()


def test_verify_moment_formulas_reports_numpy_integers_as_json_ints():
    report = verify_moment_formulas(trials=np.int64(30), seed=np.int64(1))
    assert json.loads(json.dumps(report.to_dict())) == verify_moment_formulas(30, 1).to_dict()


def test_verify_moment_formulas_rejects_tiny_trials():
    with pytest.raises(ValueError):
        verify_moment_formulas(trials=10, seed=0)


@pytest.mark.parametrize("trials", [200.0, 30.5, "200"], ids=["float", "fraction", "string"])
def test_verify_moment_formulas_rejects_trials_that_are_not_integers(trials):
    with pytest.raises(ValueError, match="trials"):
        verify_moment_formulas(trials=trials, seed=0)


def test_eigenvalues_from_moment_examples():
    assert np.allclose(
        eigenvalues_from_moments(MomentTriple(2.0, 4.0, 8.0)), [2.0, 0.0, 0.0], atol=1e-9
    )
    assert np.allclose(
        eigenvalues_from_moments(MomentTriple(0.0, 0.0, 0.0)), [0.0, 0.0, 0.0]
    )
    for p in (0.3, 0.8):
        lam = eigenvalues_from_moments(
            MomentTriple(3 * p**2, 3 * p**4, 3 * p**6)
        )
        assert np.allclose(lam, [p**2] * 3, atol=1e-9)


def test_eigenvalue_round_trip_on_random_triples():
    rng = np.random.default_rng(4)
    for _ in range(200):
        lam = np.sort(rng.uniform(0.0, 2.0, size=3))[::-1]
        recovered = eigenvalues_from_moments(power_sums(lam))
        assert np.max(np.abs(recovered - lam)) <= 1e-9


def test_exact_route_rejects_complex_spectrum():
    with pytest.raises(NumericalContractError, match="complex"):
        eigenvalues_from_moments(MomentTriple(0.0, -1.0, 0.0))
    # x^3 + x / 2: the real parts are 0, 0, 0 and the conjugate pair is +-i / sqrt(2)
    roots, imag = estimator._spectrum_roots(0.0, -1.0, 0.0)
    assert np.max(np.abs(roots)) <= 1e-15
    assert abs(imag - np.sqrt(0.5)) <= 1e-15


@pytest.mark.parametrize(
    "m", [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (np.inf, 1.0, 1.0), (1.0, 1.0, -np.inf)],
    ids=["m1-nan", "m2-nan", "m1-inf", "m3-neg-inf"],
)
def test_eigenvalues_from_moments_rejects_non_finite_moments(m):
    with pytest.raises(NumericalContractError, match="moments must be finite"):
        eigenvalues_from_moments(MomentTriple(*m))


# The numpy spectrum solver that estimator._spectrum_roots replaced, verbatim:
# the reference the plain-float kernel must reproduce bit for bit.
def _monic_cubic_roots(p: float, q: float, r: float) -> np.ndarray:
    """Roots of x^3 + p x^2 + q x + r via the depressed cubic.

    A discriminant within REPEATED_ROOT_DISC of zero together with a
    noise-level linear coefficient marks a spectrum degenerate at floating
    point resolution and returns the exact triple root. Otherwise the
    trigonometric branch covers three real roots (its clamped arccos
    degenerates gracefully to the double-root configuration), and the
    Cardano branch returns the real root plus a conjugate pair. Closed
    repeated-root formulas are deliberately not used for resolvable
    clustered spectra: at a discriminant near 1e-12 they can be off by
    1e-3 while the trigonometric form stays exact to rounding.
    """
    shift = p / 3.0
    a = q - p * p / 3.0
    b = 2.0 * p**3 / 27.0 - p * q / 3.0 + r
    disc = -4.0 * a**3 - 27.0 * b * b
    if abs(disc) < REPEATED_ROOT_DISC and abs(a) < 1e-10:
        t = np.zeros(3, dtype=complex)
    elif disc >= 0.0:
        amp = 2.0 * np.sqrt(-a / 3.0)
        arg = np.clip(3.0 * b / (2.0 * a) * np.sqrt(-3.0 / a), -1.0, 1.0)
        theta = np.arccos(arg)
        t = amp * np.cos((theta - 2.0 * np.pi * np.arange(3)) / 3.0)
        t = t.astype(complex)
    else:
        sq = np.sqrt(b * b / 4.0 + a**3 / 27.0)
        u3 = -b / 2.0 + sq if abs(-b / 2.0 + sq) >= abs(-b / 2.0 - sq) else -b / 2.0 - sq
        u = np.sign(u3) * abs(u3) ** (1.0 / 3.0)
        v = 0.0 if u == 0.0 else -a / (3.0 * u)
        real_root = u + v
        re = -(u + v) / 2.0
        im = np.sqrt(3.0) * (u - v) / 2.0
        t = np.array([real_root, re + 1j * im, re - 1j * im], dtype=complex)
        if abs(disc) < REPEATED_ROOT_DISC:
            # a conjugate pair this close to real is a double root at
            # floating point resolution; its real part is the root
            t = t.real.astype(complex)
    return t - shift


def reference_eigenvalues_from_moments(m: MomentTriple, noisy: bool = False) -> np.ndarray:
    """Recover the K spectrum from its power sums, descending.

    Newton's identities give the elementary symmetric polynomials, whose
    characteristic cubic is solved in closed form. With noisy=False a
    complex residue beyond COMPLEX_ROOT_TOL is an error; with noisy=True
    real parts are taken unconditionally. Negative roots are clamped to
    zero after root-finding.
    """
    e1 = m.m1
    e2 = (m.m1**2 - m.m2) / 2.0
    e3 = (m.m1**3 - 3.0 * m.m1 * m.m2 + 2.0 * m.m3) / 6.0
    roots = _monic_cubic_roots(-e1, e2, -e3)
    worst_imag = float(np.max(np.abs(roots.imag)))
    if not noisy and worst_imag >= COMPLEX_ROOT_TOL:
        raise NumericalContractError(
            f"moment cubic has complex residue {worst_imag:.3e} on the exact route"
        )
    lam = np.clip(roots.real, 0.0, None)
    return np.sort(lam)[::-1]


def reference_roots(m: MomentTriple) -> np.ndarray:
    """The complex roots reference_eigenvalues_from_moments solves for."""
    e2 = (m.m1**2 - m.m2) / 2.0
    e3 = (m.m1**3 - 3.0 * m.m1 * m.m2 + 2.0 * m.m3) / 6.0
    return _monic_cubic_roots(-m.m1, e2, -e3)


def cubic_branch(m: MomentTriple) -> str:
    """The branch of the cubic solver a moment triple takes, by its tests in order."""
    p = -m.m1
    q = (m.m1**2 - m.m2) / 2.0
    a = q - p * p / 3.0
    b = 2.0 * p**3 / 27.0 - p * q / 3.0 - (m.m1**3 - 3.0 * m.m1 * m.m2 + 2.0 * m.m3) / 6.0
    disc = -4.0 * a**3 - 27.0 * b * b
    if abs(disc) < REPEATED_ROOT_DISC and abs(a) < 1e-10:
        return "triple"
    if disc >= 0.0:
        return "trigonometric"
    return "cardano-snap" if abs(disc) < REPEATED_ROOT_DISC else "cardano"


def test_spectrum_kernel_equals_the_numpy_solver_bit_for_bit(monkeypatch):
    solved = []
    kernel = estimator._spectrum_roots

    def record(*m):
        solved.append(MomentTriple(*m))
        return kernel(*m)

    monkeypatch.setattr(estimator, "_spectrum_roots", record)
    # sampled rows, as the route passes them to the kernel: 1e5 shots x 20 repeats
    for t in range(4):
        state = random_state(2700 + t, rank=1 + t % 4)
        for which in ("A", "B"):
            estimate_gqd(state, "scheme-sampled", which=which, shots=100_000, repeats=20, seed=t)
    sampled = list(solved)
    # exact rows: rank-1 states (where the repeated-root snap fires) and werner states
    exact = [
        moments_from_outcomes(outcomes_exact(state, which))
        for t in range(60)
        for state in (random_state(2800 + t, rank=1),)
        for which in ("A", "B")
    ]
    exact += [moments_from_outcomes(outcomes_exact(make_family("werner", [p]))) for p in (0.2, 0.5, 0.9)]
    corpus = sampled + exact + [MomentTriple(0.0, -1.0, 0.0)]
    branches = {cubic_branch(m) for m in corpus}
    assert branches == {"triple", "trigonometric", "cardano", "cardano-snap"}
    assert {cubic_branch(m) for m in sampled} >= {"trigonometric", "cardano"}
    for m in corpus:
        roots, imag = kernel(m.m1, m.m2, m.m3)
        want = reference_roots(m)
        assert np.array_equal(roots, want.real)  # a zero's sign may differ before the clamp
        assert np.array_equal(np.abs(want.imag).max().view(np.int64), np.float64(imag).view(np.int64))
        if imag >= COMPLEX_ROOT_TOL:
            with pytest.raises(NumericalContractError, match="complex residue"):
                eigenvalues_from_moments(m)
            continue
        got = eigenvalues_from_moments(m)
        want = reference_eigenvalues_from_moments(m, noisy=True)
        assert got.shape == (3,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), m
    for m in exact:
        want = reference_eigenvalues_from_moments(m)
        assert np.array_equal(eigenvalues_from_moments(m).view(np.int64), want.view(np.int64))
    with pytest.raises(NumericalContractError, match="complex residue"):
        eigenvalues_from_moments(MomentTriple(0, -1, 0))


def test_side_b_outcomes_are_the_documented_swap():
    # side B reads P3, P2, P6, P5, P10, P9 where side A reads P2, P3, P5, P6, P9, P10: the
    # same floats, swapped, and swapping twice is the identity
    state = random_state(2090, rank=3)
    c, swapped = outcomes_exact(state).c, outcomes_exact(state, "B").c
    assert len(set(c.tolist())) == 11
    assert swapped[1] == c[2] and swapped[2] == c[1]
    assert swapped[4] == c[5] and swapped[5] == c[4]
    assert swapped[8] == c[9] and swapped[9] == c[8]
    for idx in (0, 3, 6, 7, 10):
        assert swapped[idx] == c[idx]
    assert np.array_equal(swapped[_SIDE_B_ORDER], c)


def test_permute_is_identity_on_symmetric_states():
    state = TwoQubitState(MAXIMALLY_MIXED)
    assert np.max(np.abs(outcomes_exact(state, "B").c - outcomes_exact(state).c)) <= 1e-14


def test_permuted_moments_give_side_b_spectrum():
    for trial in range(200):
        state = random_state(2100 + trial, rank=1 + trial % 4)
        m = moments_from_outcomes(outcomes_exact(state, "B"))
        kp = k_matrix(decompose(state), "B").entries
        assert abs(m.m1 - np.trace(kp)) <= 1e-9
        assert abs(m.m2 - np.trace(kp @ kp)) <= 1e-9
        assert abs(m.m3 - np.trace(kp @ kp @ kp)) <= 1e-9



def test_moment_observable_reads_trace_powers_off_one_setting():
    # the sampled route reads M_k off setting k's own counts, read-off column 11 + k - 1;
    # on exact distributions that read-off must be tr(K^k) and tr(K'^k)
    for trial in range(60):
        state = random_state(2300 + trial, rank=1 + trial % 4)
        dists = [joint_distribution(s, state) for s in settings()]
        rows = np.repeat(np.arange(3), [len(d.p) for d in dists])
        p = np.concatenate([d.p for d in dists])
        for which in ("A", "B"):
            k = k_matrix(decompose(state), which).entries
            for order in (1, 2, 3):
                column = _READOFF[which][:, 10 + order]
                assert not column[rows != order - 1].any()
                oracle = np.trace(np.linalg.matrix_power(k, order)).real
                assert abs(p @ column - oracle) <= 1e-8

def test_outcomes_sampled_is_deterministic():
    state = make_family("werner", [0.4])
    a, b = (estimate_gqd(state, "scheme-sampled", shots=2000, repeats=2, seed=5).outcomes for _ in range(2))
    assert np.array_equal(a.c, b.c)
    assert a.provenance == "sampled" and a.shots == 2000 and a.seed == (5,)


def test_outcomes_sampled_single_shot_values():
    # one shot per setting: each repeat's c_i is a hit or a miss
    c = estimator._sampled(random_state(3), (0,), 4, 1, "A")[:, :N_OUTCOMES]
    assert set(np.unique(c)) <= {0.0, 1.0}


@pytest.mark.parametrize("route", ["scheme-A", "scheme-B", "tomography"])
def test_a_single_shot_gives_finite_values_on_every_sampled_route(route):
    for t in range(8):
        state = random_state([9, t], rank=1 + t % 4)
        if route == "tomography":
            est = qst_estimate(state, shots_per_setting=1, seed=t)[1]
        else:
            est = estimate_gqd(state, "scheme-sampled", which=route[-1], shots=1, repeats=2, seed=t)
            assert np.isfinite(est.outcomes.c).all()
            assert np.isfinite(list(est.moments.as_dict().values())).all()
        assert np.isfinite([est.value, est.std_err, *est.eigenvalues]).all()


def test_a_single_shot_estimate_is_not_clamped_to_the_discord_range():
    # D lies in [0, 1/2], and an honest estimate from two single-shot repeats may leave it
    state = random_state([9, 12], rank=1)
    est = estimate_gqd(state, "scheme-sampled", shots=1, repeats=2, seed=2)
    assert (est.value, est.std_err) == (0.7500000000000001, 0.3535533905932736)


def test_outcomes_sampled_converges_to_exact():
    state = make_family("werner", [0.6])
    exact = outcomes_exact(state).c
    sampled = estimator._sampled(state, (21,), 1, 1_000_000, "A")[0, :N_OUTCOMES]
    for i in range(11):
        se = np.sqrt(max(exact[i] * (1 - exact[i]), 1e-12) / 1_000_000)
        assert abs(sampled[i] - exact[i]) <= 5 * se



def test_scheme_sampled_follows_streams_and_pattern_loop_reference():
    # repeat r, setting k is row r of stream (seed, k + 1); c_i counts the
    # patterns with every singlet pair of P_i singlet, M_k is the mean pair
    # value product; side B swaps the pair values and permutes the c's
    state = random_state(2600, rank=3)
    layouts = {lay.label: lay for lay in standard_layouts()}
    values = {"A": {"a": (-3.0, 1.0), "b": (-2.0, 2.0)}}
    values["B"] = {"a": values["A"]["b"], "b": values["A"]["a"]}
    # repeats 2, 9 and 20: the mean over repeats adds eight or more rows pairwise when
    # they are not contiguous, so a column-strided c or M array would show at 9 and 20
    shots, seed = 5000, 41
    for which, repeats in itertools.product(("A", "B"), (2, 9, 20)):
        cs, ms = [], []
        rngs = [np.random.default_rng([seed, k + 1]) for k in range(3)]
        for rep in range(repeats):
            c, m = np.zeros(11), []
            for k, setting in enumerate(settings()):
                dist = joint_distribution(setting, state)
                # the draw rule: raw p on the grid 2**-32, drawn from q / q.sum()
                q = np.rint(dist.p * 2**32)
                counts = rngs[k].multinomial(shots, q / q.sum())
                # pattern j's bit i is pair i's outcome, 1 for the singlet (see pattern_product)
                patterns = [[(j >> i) & 1 for i in range(len(setting.pairs))] for j in range(len(q))]
                for label in setting.covered:
                    kinds = {(p.side, p.copies): p.kind for p in layouts[label].pairs}
                    singlets = [
                        i
                        for i, sp in enumerate(setting.pairs)
                        if kinds[(sp.side, sp.copies)] == "singlet"
                    ]
                    hit = sum(
                        counts[j]
                        for j, pat in enumerate(patterns)
                        if all(pat[i] == 1 for i in singlets)
                    )
                    c[int(label[1:]) - 1] = hit / shots
                total = 0.0
                for j, pat in enumerate(patterns):
                    term = float(counts[j])
                    for sp, bit in zip(setting.pairs, pat):
                        term *= values[which][sp.side][0 if bit else 1]
                    total += term
                m.append(total / shots)
            if which == "B":
                c = c[_SIDE_B_ORDER]
            cs.append(c)
            ms.append(m)
        est = estimate_gqd(
            state, "scheme-sampled", which=which, shots=shots, repeats=repeats, seed=seed
        )
        assert np.array_equal(est.outcomes.c, np.mean(cs, axis=0))
        got = [est.moments.m1, est.moments.m2, est.moments.m3]
        assert np.array_equal(got, np.mean(ms, axis=0))
        lams = np.array([reference_eigenvalues_from_moments(MomentTriple(*m), noisy=True) for m in ms])
        discord = (lams[:, 1] + lams[:, 2]) / 4.0
        assert np.array_equal(est.value, discord.mean())
        assert np.array_equal(est.std_err, discord.std(ddof=1))
        assert np.array_equal(est.eigenvalues, lams.mean(axis=0))


@pytest.mark.parametrize(
    "key",
    [(0,), (1, 2, 3, 0), (2**32 - 1,), (2**32,), (2**63 - 1, 5), (7, 2**40 + 3, 0, 2**32 - 1, 12)],
    ids=["zero", "small", "one-word-max", "two-words", "int64-max", "mixed"],
)
def test_stream_draws_equal_default_rng(key):
    # random_state draws from the seed's own stream (_draw's streams: the key-by-key test)
    numpy_rng = np.random.default_rng(list(key))
    g = numpy_rng.normal(size=(4, 2)) + 1j * numpy_rng.normal(size=(4, 2))
    m = g @ g.conj().T
    assert np.array_equal(random_state(key, rank=2).matrix, m / np.trace(m))


# prefixes of 1 to 7 uint32 words; with the vector's word, keys of 2 to 8 words,
# so both sides of numpy's 4-word pool
STREAM_PREFIXES = [
    (0,),
    (2**32 - 1,),
    (2**32,),
    (2**63 - 1,),
    (0, 2**32 - 1),
    (2**32, 7, 0),
    (2**63 - 1, 2**32, 0),
    (2**63 - 1, 2**32, 2**32 - 1, 2**63 - 1),
]


def _stream_state(key) -> tuple[int, int]:
    state = np.random.default_rng(list(key)).bit_generator.state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize(
    "repeats, n", [(None, 1), (None, 3), (None, 9), (20, 3)], ids=["one", "3", "9", "20x3"]
)
@pytest.mark.parametrize("prefix", STREAM_PREFIXES, ids=[f"p{i}" for i in range(8)])
def test_streams_equal_default_rng_key_by_key(prefix, repeats, n):
    pvecs = [np.arange(1.0, 5 + k) / np.arange(1.0, 5 + k).sum() for k in range(n)]
    expected = []
    for k, p in enumerate(pvecs):
        q = np.rint(p * 2**32)
        numpy_rng = np.random.default_rng([*prefix, k + 1])
        expected.append(numpy_rng.multinomial(1000, q / q.sum(), size=repeats))
    assert np.array_equal(_draw(prefix, pvecs, 1000, repeats), np.concatenate(expected, axis=-1))
    # a last key word that is never 0: no stream is the prefix's own, zero-padded or not
    drawn = {_stream_state((*prefix, k + 1)) for k in range(n)}
    assert len(drawn) == n
    assert not drawn & {_stream_state(prefix), _stream_state((*prefix, 0))}


def _recording_generators(monkeypatch) -> list[tuple[int, ...]]:
    """The keys statekit seeds generators with from now on, in call order."""
    drawn, default_rng = [], np.random.default_rng

    def recording(key):
        drawn.append(tuple(key))
        return default_rng(key)

    monkeypatch.setattr(statekit.np.random, "default_rng", recording)
    return drawn


def test_sampled_routes_draw_the_documented_stream_keys(monkeypatch):
    state = random_state(2700, rank=2)  # before the patch: random_state draws a stream too
    drawn = _recording_generators(monkeypatch)
    estimate_gqd(state, "scheme-sampled", shots=100, repeats=4, seed=(9, 3))
    assert drawn == [(9, 3, k + 1) for k in range(3)]
    drawn.clear()
    qst_estimate(state, shots_per_setting=100, seed=6)
    assert drawn == [(6, 3 * i + j + 1) for i in range(3) for j in range(3)]


def test_compare_draws_scheme_and_tomography_from_distinct_streams(monkeypatch, capsys):
    # gqd compare draws the scheme at seed s and tomography at (s, 1); numpy pads a key
    # of up to 4 words with zeros, so equal states would mean two routes share draws
    drawn = _recording_generators(monkeypatch)
    for s in (0, 7, 2**40):
        argv = ["compare", "--family", "werner", "--params", "0.5", "--shots", "100"]
        assert cli.main([*argv, "--repeats", "3", "--seed", str(s)]) == 0
    capsys.readouterr()
    monkeypatch.undo()  # seed the generators below unrecorded
    assert len(drawn) == 3 * (3 + 9)
    assert len(set(map(_stream_state, drawn))) == len(drawn)


def test_draw_rows_do_not_depend_on_the_repeat_count():
    state = random_state(2750, rank=3)
    pvecs = [joint_distribution(s, state).p for s in settings()]
    ten, twenty, one = (_draw((5, 2), pvecs, 1000, r) for r in (10, 20, None))
    assert ten.shape == (10, 84) and twenty.shape == (20, 84) and one.shape == (84,)
    assert np.array_equal(ten, twenty[:10])
    assert np.array_equal(one, twenty[0])


# werner(0.5), which has no zero pattern, werner(1.0), 20 rank-1 states, ranks 1-4
ULP_PANEL = [make_family("werner", [0.5]), make_family("werner", [1.0])] + [
    random_state(2800 + t, rank=1 if t < 20 else 1 + t % 4) for t in range(28)
]


def _nudged(p, ulps):
    """p with every nonzero entry moved `ulps` ulps, up for ulps > 0 and down otherwise."""
    out = p.copy()
    for _ in range(abs(ulps)):
        out = np.where(p != 0.0, np.nextafter(out, np.inf if ulps > 0 else -np.inf), out)
    return out


@pytest.mark.parametrize("ulps", [1, 3, -2], ids=["up-1", "up-3", "down-2"])
def test_draws_do_not_move_with_the_last_bits_of_the_probabilities(ulps):
    for n, state in enumerate(ULP_PANEL):
        pvecs = [joint_distribution(s, state).p for s in settings()]
        nudged = [_nudged(p, ulps) for p in pvecs]
        assert all((a != b).sum() == (a != 0).sum() for a, b in zip(pvecs, nudged))
        draws = [_draw((n, 7), vecs, 10**5, 4) for vecs in (pvecs, nudged)]
        assert all(map(np.array_equal, *draws))


def test_draw_takes_a_rounding_level_negative_as_zero():
    p, zeroed = [0.5, -1e-17, 0.25, 0.25], [0.5, 0.0, 0.25, 0.25]
    assert np.array_equal(_draw((3,), [p], 1000), _draw((3,), [zeroed], 1000))


@pytest.mark.parametrize("bad", [np.nan, -1e-9], ids=["nan", "negative"])
def test_draw_rejects_nan_and_negative_probabilities(bad):
    with pytest.raises(NumericalContractError, match="NaN or below -2"):
        _draw((3,), [[0.5, bad, 0.25, 0.25]], 1000)


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64, (3, -2)], ids=["neg", "2^63", "2^64", "pair"])
def test_stream_key_rejects_entries_outside_the_int64_range(seed):
    entry = seed[1] if isinstance(seed, tuple) else seed
    with pytest.raises(ValueError, match=f"seed entry {entry} "):
        stream_key(seed)


@pytest.mark.parametrize(
    "seed, entry", [(1.0, 1.0), (1.7, 1.7), ((3, 2.0), 2.0), (np.float64(4.0), 4.0)],
    ids=["integral", "fraction", "pair", "numpy"],
)
def test_stream_key_rejects_float_entries(seed, entry):
    with pytest.raises(ValueError, match=f"seed entry {entry} is not an integer"):
        stream_key(seed)
    with pytest.raises(TypeError):
        np.random.default_rng(seed)  # numpy refuses the same seeds


@pytest.mark.parametrize("seed, entry", [(True, True), ((3, False), False)], ids=["true", "pair"])
def test_stream_key_rejects_bool_entries(seed, entry):
    # a bool is an int subclass: seed=True would key the streams of seed 1
    with pytest.raises(ValueError, match=f"seed entry {entry} is not an integer"):
        stream_key(seed)
    with pytest.raises(ValueError, match=f"seed entry {entry} is not an integer"):
        estimate_gqd(make_family("werner", [0.5]), "scheme-sampled", shots=100, repeats=2, seed=seed)


def test_stream_key_accepts_numpy_integers():
    assert stream_key(np.int64(5)) == (5,)
    assert stream_key(np.array([1, 2], dtype=np.uint32)) == (1, 2)
    assert all(type(s) is int for s in stream_key((np.int32(3), 4)))


SAMPLED_ENTRY_POINTS = {
    "estimate_gqd": lambda s, shots, seed=1: estimate_gqd(
        s, "scheme-sampled", shots=shots, repeats=2, seed=seed
    ),
    "qst_estimate": lambda s, shots, seed=1: qst_estimate(s, shots_per_setting=shots, seed=seed),
}


@pytest.mark.parametrize("seed", [[], ()], ids=["list", "tuple"])
@pytest.mark.parametrize("entry", ["random_state", *sorted(SAMPLED_ENTRY_POINTS)])
def test_an_empty_seed_is_rejected(entry, seed):
    # an empty key would draw from the streams keyed (r, k) alone, the streams of other seeds
    with pytest.raises(StateValidationError, match="seed has no entries"):
        if entry == "random_state":
            random_state(seed)
        else:
            SAMPLED_ENTRY_POINTS[entry](make_family("werner", [0.5]), 100, seed)


@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
def test_sampled_entry_points_require_a_seed(entry):
    with pytest.raises(ValueError, match="requires a seed"):
        SAMPLED_ENTRY_POINTS[entry](make_family("werner", [0.5]), 100, None)


@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
@pytest.mark.parametrize(
    "shots",
    [100.5, 100.0, np.float64(100.0), "100", 0, True],
    ids=["fraction", "float", "numpy-float", "text", "zero", "bool"],
)
def test_sampled_entry_points_reject_a_non_integer_shot_count(entry, shots):
    with pytest.raises(ValueError, match="shots"):
        SAMPLED_ENTRY_POINTS[entry](make_family("werner", [0.5]), shots)


@pytest.mark.parametrize(
    "route, kwargs, named",
    [
        ("scheme-exact", {"shots": 1000}, "shots"),
        ("scheme-exact", {"seed": 0}, "seed"),
        ("scheme-exact", {"shots": 1000, "seed": 1, "repeats": 1}, "shots or repeats or seed"),
        ("scheme-exact", {"repeats": 1}, "repeats"),
        ("scheme-exact", {"repeats": 20}, "repeats"),
        ("scheme-exact", {"repeats": "x"}, "repeats"),
        ("scheme-exact", {"shots": 1000, "seed": 1}, "shots or seed"),
        ("tomography", {"seed": 3}, "seed"),
    ],
    ids=[
        "exact-shots", "exact-seed", "exact-both", "exact-repeats", "exact-default-repeats",
        "exact-text-repeats", "exact-shots-and-seed", "tomography-seed",
    ],
)
def test_exact_routes_refuse_sampling_arguments(route, kwargs, named):
    # an exact route draws nothing, so a shot count, repeat count or seed it would ignore is an
    # error, even one equal to the sampled route's default
    state = make_family("werner", [0.5])
    with pytest.raises(ValueError, match=f"takes no {named}$"):
        if route == "tomography":
            qst_estimate(state, **kwargs)
        else:
            estimate_gqd(state, route, **kwargs)


def test_the_shot_bound_keeps_the_read_off_inside_int64():
    largest = max(int(np.abs(_READOFF[which]).max()) for which in ("A", "B"))
    assert largest == 216 and largest * statekit.MAX_SHOTS < 2**61


@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
def test_sampled_entry_points_take_at_most_2_to_the_53_shots(entry):
    state = make_family("product", [0, 0, 1, 0, 0, 1])
    with pytest.raises(StateValidationError, match=r"integer in \[1, 2\*\*53\], got 9007199254740993"):
        SAMPLED_ENTRY_POINTS[entry](state, 2**53 + 1)
    SAMPLED_ENTRY_POINTS[entry](state, 2**53)


def test_the_product_state_reads_exact_moments_at_2_to_the_53_shots():
    # the bound's reason: at 2**60 shots, 216 * counts wraps past 2**63 (D 0.409, M3 -8)
    state = make_family("product", [0, 0, 1, 0, 0, 1])
    est = estimate_gqd(state, "scheme-sampled", shots=2**53, repeats=2, seed=1)
    assert est.value == 0.0 and est.std_err == 0.0
    assert est.moments.as_dict() == {"M1": 2.0, "M2": 4.0, "M3": 8.0}


@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
def test_sampled_entry_points_accept_numpy_integer_shots(entry):
    state = make_family("werner", [0.5])
    plain, numpy_int = (SAMPLED_ENTRY_POINTS[entry](state, n) for n in (100, np.int64(100)))
    if entry == "qst_estimate":
        plain, numpy_int = plain[1], numpy_int[1]
    assert plain.to_dict() == numpy_int.to_dict()


@pytest.mark.parametrize(
    "repeats, message",
    [
        (2.5, "repeats must be an integer, got 2.5"),
        (20.0, "repeats must be an integer, got 20.0"),
        ("20", "repeats must be an integer, got '20'"),
        (1, "requires repeats >= 2"),
        (0, "requires repeats >= 2"),
        (True, "repeats must be an integer, got True"),
    ],
    ids=["fraction", "float", "text", "one", "zero", "bool"],
)
def test_scheme_sampled_rejects_a_bad_repeat_count_up_front(monkeypatch, repeats, message):
    def refuse(*args):
        raise AssertionError("a joint distribution was built before repeats was checked")

    monkeypatch.setattr(estimator, "joint_distribution", refuse)
    with pytest.raises(ValueError, match=message):
        estimate_gqd(make_family("werner", [0.5]), "scheme-sampled", shots=100, repeats=repeats, seed=1)


def test_scheme_sampled_accepts_a_numpy_integer_repeat_count():
    state = make_family("werner", [0.5])
    plain, numpy_int = (
        estimate_gqd(state, "scheme-sampled", shots=100, repeats=r, seed=1) for r in (3, np.int64(3))
    )
    assert plain.to_dict() == numpy_int.to_dict()


@pytest.mark.parametrize(
    "route, kwargs, expected",
    [
        ("scheme-exact", {}, {"expect_layout": 11, "joint_distribution": 0}),
        ("scheme-sampled", {"shots": 1000, "repeats": 3, "seed": 1}, {"expect_layout": 0, "joint_distribution": 3}),
    ],
    ids=["exact", "sampled"],
)
@pytest.mark.parametrize("which", ["A", "B"])
def test_each_scheme_route_makes_its_fixed_number_of_walks(monkeypatch, route, kwargs, expected, which):
    # one walk per standard layout on the exact route, one distribution per setting on
    # the sampled one, on either side; a benchmark pins these per-op counts too
    calls = {name: 0 for name in expected}
    for name in expected:
        def counting(*args, _name=name, _original=getattr(estimator, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(estimator, name, counting)
    estimate_gqd(random_state(2700, rank=3), route, which=which, **kwargs)
    assert calls == expected


# The scheme-exact route from the eleven layout values on, before its checks were cut to fewer
# numpy calls, verbatim but for the ref_ prefix: OutcomeVector, permute_outcomes and
# estimate_gqd's scheme-exact tail, its moments read off the three settings' raw walks by the
# sampled read-off's moment columns. Fed the walks made anew, outside the state's cache, the
# route must reproduce it bit for bit; the c's themselves are held to the einsum reference,
# which shares no code with the walks.
@dataclass(frozen=True, eq=False)
class ref_OutcomeVector:
    """The eleven measurement outcome values c1..c11."""

    c: np.ndarray
    provenance: str
    shots: int | None = None
    seed: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.shape != (N_OUTCOMES,):
            raise ValueError(f"outcome vector must have shape (11,), got {c.shape}")
        # each range check is written so that NaN fails it
        if self.provenance == "exact":
            if not (np.min(c) >= -EXACT_OUTCOME_TOL and np.max(c) <= 1.0 + EXACT_OUTCOME_TOL):
                raise NumericalContractError(
                    f"exact outcome outside [0, 1]: range [{c.min():.3e}, {c.max():.3e}]"
                )
            c = np.clip(c, 0.0, 1.0)
        elif self.provenance == "sampled":
            if not (np.min(c) >= 0.0 and np.max(c) <= 1.0):
                raise ValueError("sampled outcomes must lie in [0, 1]")
        else:
            raise ValueError(f"provenance must be 'exact' or 'sampled', got {self.provenance!r}")
        object.__setattr__(self, "c", _frozen(c))

    def as_dict(self) -> dict[str, float]:
        return {f"c{i + 1}": float(self.c[i]) for i in range(N_OUTCOMES)}


def ref_outcomes_exact(state) -> ref_OutcomeVector:
    """c_i = expectation of standard layout P_i on state copies."""
    c = np.array(contraction._standard_values.__wrapped__(state)[0])
    return ref_OutcomeVector(c, "exact")


def ref_permute_outcomes(c: ref_OutcomeVector) -> ref_OutcomeVector:
    """Swap (c2, c5, c9) with (c3, c6, c10): the side-B outcome relabeling."""
    return ref_OutcomeVector(c.c[_SIDE_B_ORDER], c.provenance, shots=c.shots, seed=c.seed)


def ref_scheme_exact(state, which) -> GqdEstimate:
    c = ref_outcomes_exact(state)
    if which == "B":
        c = ref_permute_outcomes(c)
    walks = np.concatenate([ref_patterns(s, state) for s in settings()])
    m = MomentTriple(*(walks @ _READOFF[which][:, N_OUTCOMES:]).tolist())
    lam = eigenvalues_from_moments(m)
    value = (lam[1] + lam[2]) / 4.0
    return GqdEstimate(float(value), 0.0, tuple(lam.tolist()), "scheme-exact", c, m)


def einsum_outcomes(state) -> dict[str, np.ndarray]:
    # per side, the eleven c's by one einsum per standard layout over copies of the density
    # matrix, side B's relabeled
    c = np.array([einsum_reference(lay, state.matrix).real for lay in standard_layouts()])
    return {"A": c, "B": c[_SIDE_B_ORDER]}


BIT_STATES = [random_state([26, t], rank=1 + t % 4) for t in range(64)] + [
    make_family("werner", [0.3]),
    make_family("bell_diagonal", [0.5, -0.3, 0.2]),
    make_family("pure", [0.6, 0.1, 0.2, -0.3, 0.0, 0.5, 0.3, 0.4]),
    make_family("product", [0.1, 0.2, 0.3, 0.0, 0.0, 1.0]),
    make_family("classical_AB", [0.3, 0.4, 0.2, 0.1, 0.2, 0.3, 0.5, -0.1, 0.2]),
]


@pytest.mark.parametrize("which", ["A", "B"])
def test_scheme_exact_is_bit_identical_to_the_reference(which):
    for state in BIT_STATES:
        got = estimate_gqd(state, "scheme-exact", which=which)
        expected = ref_scheme_exact(state, which)
        assert np.max(np.abs(got.outcomes.c - einsum_outcomes(state)[which])) <= 1e-15
        assert type(got.value) is float and all(type(v) is float for v in got.eigenvalues)
        assert (got.value, got.eigenvalues) == (expected.value, expected.eigenvalues)
        assert np.array_equal(got.outcomes.c, expected.outcomes.c)
        # the JSON text also tells -0.0 from 0.0
        assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_both_sides_read_one_exact_evaluation_in_either_order(order):
    # an exact-panel op's calls, the second side reading the first side's walked values and
    # Bloch form, then each side again after cache_clear(): scheme-exact equal to the
    # reference, which walks every layout anew, its c's within rounding of the einsum
    # reference, and gqd_exact equal on warm and cold caches
    for state in BIT_STATES:
        closed, reference = {}, einsum_outcomes(state)
        for cold in (False, True):
            for which in order:
                if cold:
                    contraction._standard_values.cache_clear()
                    decompose.cache_clear()
                value = gqd_exact(state, which)
                got = estimate_gqd(state, "scheme-exact", which=which)
                expected = ref_scheme_exact(state, which)
                assert np.max(np.abs(got.outcomes.c - reference[which])) <= 1e-15
                assert (got.value, got.eigenvalues) == (expected.value, expected.eigenvalues)
                assert np.array_equal(got.outcomes.c, expected.outcomes.c)
                assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())
                text = json.dumps(value.to_dict())
                assert closed.setdefault(which, text) == text


def _count_calls(monkeypatch, calls, name, original):
    # a counting wrapper bound wherever a gqdkit module holds the function, as the
    # benchmark's tracer binds its spans
    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in (contraction, estimator, statekit, gqd_core, cli):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)


def test_an_exact_panel_op_makes_the_pinned_calls_and_walks_each_layout_once(monkeypatch):
    # the per-op counts the benchmark pins for exact-panel (22 expect_layout, 2 outcomes_exact,
    # 0 joint_distribution) hold, while side A's outcomes make one chained walk of the three
    # settings and side B's walk none, and side A's gqd_exact builds the one Bloch form and runs
    # the one eigvalsh that side B's reads
    state = random_state(2750, rank=3)  # a new object: no cache holds it
    originals = {
        "expect_layout": contraction.expect_layout,
        "outcomes_exact": estimator.outcomes_exact,
        "joint_distribution": contraction.joint_distribution,
        "decompose": statekit.decompose,
        "bloch_forms": statekit.BlochForm,
    }
    calls = dict.fromkeys(originals, 0)
    for name, original in originals.items():
        _count_calls(monkeypatch, calls, name, original)
    walks, eigvalsh_shapes = [], []
    walk, eigvalsh = contraction._walk_legs, np.linalg.eigvalsh

    def walking(legs):
        walks.append(legs.shape)
        return walk(legs)

    def solving(a):
        eigvalsh_shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(contraction, "_walk_legs", walking)
    monkeypatch.setattr(np.linalg, "eigvalsh", solving)
    values = [gqd_exact(state, "A").value, estimate_gqd(state, "scheme-exact", which="A").value]
    assert walks == [(2, 4, 8)] and eigvalsh_shapes == [(2, 3, 3)]
    values += [gqd_exact(state, "B").value, estimate_gqd(state, "scheme-exact", which="B").value]
    assert walks == [(2, 4, 8)] and eigvalsh_shapes == [(2, 3, 3)]
    assert calls == {
        "expect_layout": 22,
        "outcomes_exact": 2,
        "joint_distribution": 0,
        "decompose": 1,
        "bloch_forms": 1,
    }
    assert abs(values[1] - values[0]) <= 1e-8 and abs(values[3] - values[2]) <= 1e-8


def test_scheme_exact_matches_closed_form():
    for trial in range(50):
        state = random_state(2500 + trial, rank=1 + trial % 4)
        est = estimate_gqd(state, "scheme-exact")
        assert est.route == "scheme-exact"
        assert est.std_err == 0.0
        assert abs(est.value - gqd_exact(state).value) <= 1e-8


def test_scheme_exact_side_b_matches_closed_form():
    for trial in range(50):
        state = random_state(2600 + trial, rank=1 + trial % 4)
        est = estimate_gqd(state, "scheme-exact", which="B")
        assert abs(est.value - gqd_exact(state, "B").value) <= 1e-8


MOMENT_PATH_STATES = [random_state([33, t], rank=1 + t % 4) for t in range(200)]


@pytest.mark.parametrize("which", ["A", "B"])
def test_scheme_exact_reads_trace_powers_off_the_walks(which):
    # the route's M1..M3, read off the walks by the sampled read-off's moment columns, are
    # tr(K^k) of the side's K; the paper's table on the side's own outcomes reads the same
    # moments to rounding; and side B's outcomes are side A's floats relabeled
    for state in MOMENT_PATH_STATES:
        m = estimate_gqd(state, "scheme-exact", which=which).moments
        k = k_matrix(decompose(state), which).entries
        oracle = [np.trace(np.linalg.matrix_power(k, order)).real for order in (1, 2, 3)]
        assert np.max(np.abs(np.array([m.m1, m.m2, m.m3]) - oracle)) <= 1e-12
        table = moments_from_outcomes(outcomes_exact(state, which))
        assert max(abs(table.m1 - m.m1), abs(table.m2 - m.m2), abs(table.m3 - m.m3)) <= 1e-12
        c = outcomes_exact(state).c
        assert np.array_equal(outcomes_exact(state, which).c, c if which == "A" else c[_SIDE_B_ORDER])


def test_outcomes_exact_checks_the_side_before_any_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked before the side check")

    for name in ("_leg_stack", "_walk_legs", "_standard_values"):
        monkeypatch.setattr(contraction, name, refuse)
    monkeypatch.setattr(estimator, "expect_layout", refuse)
    with pytest.raises(StateValidationError, match="side marker"):
        outcomes_exact(random_state(2095, rank=2), "C")


@pytest.mark.parametrize("which", ["A", "B"])
def test_the_classical_ab_reproducer_agrees_with_the_closed_form(which):
    # a classical state: K is small, with a degenerate zero pair; the paper's table cancels
    # large terms there (1.68e-8 off on side A), the read-off sums smaller ones
    state = make_family("classical_AB", [0.3, 0.4, 0.2, 0.1, 0.2, 0.3, 0.5, -0.1, 0.2])
    scheme = estimate_gqd(state, "scheme-exact", which=which).value
    assert abs(scheme - gqd_exact(state, which).value) <= 1e-8


def test_scheme_sampled_statistics_on_werner():
    # moments read off each setting's counts narrow like 1/sqrt(shots), but
    # near a degenerate K spectrum moment noise e moves the eigenvalues by
    # about sqrt(e), so std_err stays well above the smooth-propagation
    # scale; see the shot-noise acceptance criterion
    state = make_family("werner", [0.8])
    est = estimate_gqd(state, "scheme-sampled", shots=1_000_000, repeats=20, seed=77)
    assert est.route == "scheme-sampled"
    assert 0.0 < est.std_err < 0.1
    assert abs(est.value - 0.32) <= 3 * est.std_err


def test_scheme_sampled_is_deterministic():
    state = make_family("werner", [0.5])
    a = estimate_gqd(state, "scheme-sampled", shots=5000, repeats=5, seed=13)
    b = estimate_gqd(state, "scheme-sampled", shots=5000, repeats=5, seed=13)
    assert a.value == b.value and a.std_err == b.std_err


def test_side_b_route_on_swap_symmetric_state():
    state = make_family("werner", [0.7])
    a = estimate_gqd(state, "scheme-exact", which="A")
    b = estimate_gqd(state, "scheme-exact", which="B")
    assert abs(a.value - b.value) <= 1e-8


def test_estimate_argument_validation():
    state = make_family("werner", [0.5])
    with pytest.raises(ValueError, match="repeats"):
        estimate_gqd(state, "scheme-sampled", shots=100, repeats=1, seed=0)
    with pytest.raises(ValueError, match="seed"):
        estimate_gqd(state, "scheme-sampled", shots=100, repeats=5)
    with pytest.raises(ValueError, match="shots"):
        estimate_gqd(state, "scheme-sampled", seed=0)
    with pytest.raises(ValueError, match="which"):
        estimate_gqd(state, "scheme-exact", which="C")
    with pytest.raises(ValueError, match="mode"):
        estimate_gqd(state, "monte-carlo")


@pytest.mark.parametrize("route", ["scheme-exact", "scheme-sampled", "tomography"])
def test_a_bad_side_is_rejected_before_any_draw(route, monkeypatch):
    def no_draw(key):
        raise AssertionError(f"drew stream {key} before checking the side")

    state = make_family("werner", [0.5])
    monkeypatch.setattr(statekit.np.random, "default_rng", no_draw)
    with pytest.raises(StateValidationError, match="which"):
        if route == "tomography":
            qst_estimate(state, shots_per_setting=100, seed=1, which="C")
        else:
            estimate_gqd(state, route, which="C", shots=100, repeats=2, seed=1)


def test_estimate_json_schema():
    state = make_family("werner", [0.6])
    exact = estimate_gqd(state, "scheme-exact").to_dict()
    assert set(exact) == {"route", "value", "std_err", "eigenvalues", "outcomes", "moments"}
    assert set(exact["outcomes"]) == {f"c{i}" for i in range(1, 12)}
    assert set(exact["moments"]) == {"M1", "M2", "M3"}
    sampled = estimate_gqd(state, "scheme-sampled", shots=1000, repeats=3, seed=1).to_dict()
    assert sampled["route"] == "scheme-sampled"
    assert sampled["std_err"] >= 0.0


@pytest.mark.parametrize("index", [0, 10], ids=["first", "last"])
@pytest.mark.parametrize(
    "bad, exact_range",
    [(np.nan, "nan, nan"), (np.inf, "5.000e-01, inf"), (-np.inf, "-inf, 5.000e-01")],
    ids=["nan", "inf", "-inf"],
)
def test_outcome_vector_rejects_a_non_finite_entry_at_either_end(bad, exact_range, index):
    c = np.full(11, 0.5)
    c[index] = bad
    message = f"exact outcome outside [0, 1]: range [{exact_range}]"
    with pytest.raises(NumericalContractError, match=f"^{re.escape(message)}$"):
        OutcomeVector(c, "exact")
    with pytest.raises(ValueError, match=r"^sampled outcomes must lie in \[0, 1\]$"):
        OutcomeVector(c, "sampled")


def test_outcome_vector_validation():
    with pytest.raises(NumericalContractError):
        OutcomeVector(np.full(11, 1.5), "exact")
    with pytest.raises(ValueError):
        OutcomeVector(np.full(11, -0.2), "sampled")
    clamped = OutcomeVector(np.full(11, -1e-13), "exact")
    assert np.all(clamped.c == 0.0)
    for bad in (np.nan, np.inf):
        c = np.full(11, 0.1)
        c[4] = bad
        with pytest.raises(NumericalContractError, match="outside"):
            OutcomeVector(c, "exact")
        with pytest.raises(ValueError, match="must lie in"):
            OutcomeVector(c, "sampled")


def test_outcome_vector_checks_and_clips_as_numpy_did():
    # the plain-float check and clip against ref_OutcomeVector's numpy, bit for bit: entries just
    # outside [0, 1] read 0.0 and 1.0 and entries inside keep their bits; -0.0 stays -0.0, as
    # np.clip leaves it, whether or not another entry is clipped
    edges = [-1e-12, -1e-13, -5e-324, 0.0, 5e-324, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, 1 + 1e-12, 0.25]
    for c in (np.array(edges), np.array(edges[::-1]), np.linspace(0.0, 1.0, 11)):
        got, want = OutcomeVector(c, "exact").c, ref_OutcomeVector(c, "exact").c
        assert np.array_equal(got.view(np.int64), want.view(np.int64)) and not got.flags.writeable
    for c, signs in (([-0.0] * 11, [True] * 11), ([-0.0] * 10 + [-1e-13], [True] * 10 + [False])):
        assert np.signbit(OutcomeVector(np.array(c), "exact").c).tolist() == signs
    for c in ([-1e-12 - 1e-15] + [0.5] * 10, [0.5] * 10 + [1.0 + 2e-12]):
        with pytest.raises(NumericalContractError, match="exact outcome outside"):
            OutcomeVector(np.array(c), "exact")


def ref_readoff(which):
    # the read-off as estimator built it before contraction held its moment columns, verbatim
    # but for the ref_ prefix and the imported names
    sides = {"a": "a", "b": "b"} if which == "A" else {"a": "b", "b": "a"}
    hits = contraction._HIT_TABLE if which == "A" else contraction._HIT_TABLE[:, _SIDE_B_ORDER]
    readoff = np.concatenate((hits, np.zeros((len(hits), len(MOMENT_ORDERS)), dtype=np.int64)), axis=1)
    row = 0
    for k, setting in enumerate(settings()):
        weights = [contraction.PAIR_WEIGHTS[sides[p.side]] for p in setting.pairs]
        observable = contraction.pattern_product([(w_i, w_i + w_s) for w_i, w_s in weights])
        readoff[row : row + len(observable), N_OUTCOMES + k] = observable
        row += len(observable)
    return readoff


@pytest.mark.parametrize("which", ["A", "B"])
def test_the_read_off_equals_its_earlier_construction(which):
    # the moment columns now come from contraction, which reads the exact moments with them:
    # the sampled read-off is unchanged in every entry and in dtype
    reference = ref_readoff(which)
    assert _READOFF[which].dtype == reference.dtype == np.int64
    assert np.array_equal(_READOFF[which], reference)
    assert np.array_equal(_READOFF[which][:, N_OUTCOMES:], contraction._MOMENT_COLUMNS[which])


def test_the_read_off_takes_its_hit_columns_from_the_shared_hit_table():
    # the sampled read-off's c columns are the table the exact c's are read with: as they are on
    # side A, at the relabeled outcomes on side B
    table = contraction._HIT_TABLE
    assert table.shape == (84, 11) and not table.flags.writeable
    assert np.array_equal(_READOFF["A"][:, :11], table)
    assert np.array_equal(_READOFF["B"][:, :11], table[:, _SIDE_B_ORDER])


def test_cached_hit_and_observable_arrays_are_read_only():
    # one (84, 14) integer read-off per side: 0/1 hit columns, then the moment observables
    for which in ("A", "B"):
        readoff = _READOFF[which]
        assert readoff.shape == (84, 14) and readoff.dtype == np.int64
        assert set(np.unique(readoff[:, :11])) == {0, 1}
        with pytest.raises(ValueError, match="read-only"):
            readoff[0, 0] = 7
