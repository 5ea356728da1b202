import numpy as np
import pytest

from gqdkit import estimator, qst_baseline
from gqdkit import (
    NumericalContractError,
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
    outcomes_sampled,
    permute_outcomes,
    qst_estimate,
    random_state,
    settings,
    standard_layouts,
    verify_moment_formulas,
)
from gqdkit.estimator import (
    BASELINE_MOMENT_TABLE,
    COMPLEX_ROOT_TOL,
    MOMENT_TABLE,
    REPEATED_ROOT_DISC,
    MomentTriple,
    OutcomeVector,
    _hit_matrix,
    _streams,
    derive_moment_table,
    moment_observable,
    stream_key,
)
from gqdkit.statekit import MAXIMALLY_MIXED

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


def test_verify_moment_formulas_rejects_tiny_trials():
    with pytest.raises(ValueError):
        verify_moment_formulas(trials=10, seed=0)


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
    lam = eigenvalues_from_moments(MomentTriple(0.0, -1.0, 0.0), noisy=True)
    assert lam.shape == (3,)
    assert np.all(lam >= 0.0)


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
        moments_from_outcomes(c)
        for t in range(60)
        for c in (outcomes_exact(random_state(2800 + t, rank=1)),)
        for c in (c, permute_outcomes(c))
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
        got = eigenvalues_from_moments(m, noisy=True)
        want = reference_eigenvalues_from_moments(m, noisy=True)
        assert got.shape == (3,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), m
    for m in exact:
        want = reference_eigenvalues_from_moments(m)
        assert np.array_equal(eigenvalues_from_moments(m).view(np.int64), want.view(np.int64))
    with pytest.raises(NumericalContractError, match="complex residue"):
        eigenvalues_from_moments(MomentTriple(0, -1, 0))


def test_permute_outcomes_is_the_documented_swap():
    c = OutcomeVector(np.arange(11) / 11.0, "exact")
    swapped = permute_outcomes(c)
    assert swapped.c[1] == c.c[2] and swapped.c[2] == c.c[1]
    assert swapped.c[4] == c.c[5] and swapped.c[5] == c.c[4]
    assert swapped.c[8] == c.c[9] and swapped.c[9] == c.c[8]
    for idx in (0, 3, 6, 7, 10):
        assert swapped.c[idx] == c.c[idx]
    back = permute_outcomes(swapped)
    assert np.array_equal(back.c, c.c)


def test_permute_is_identity_on_symmetric_states():
    c = outcomes_exact(TwoQubitState(MAXIMALLY_MIXED))
    assert np.max(np.abs(permute_outcomes(c).c - c.c)) <= 1e-14


def test_permuted_moments_give_side_b_spectrum():
    for trial in range(200):
        state = random_state(2100 + trial, rank=1 + trial % 4)
        m = moments_from_outcomes(permute_outcomes(outcomes_exact(state)))
        kp = k_matrix(decompose(state), "B").entries
        assert abs(m.m1 - np.trace(kp)) <= 1e-9
        assert abs(m.m2 - np.trace(kp @ kp)) <= 1e-9
        assert abs(m.m3 - np.trace(kp @ kp @ kp)) <= 1e-9



def test_moment_observable_reads_trace_powers_off_one_setting():
    # the sampled route reads M_k off setting k's own counts; on exact
    # distributions that read-off must be tr(K^k) and tr(K'^k)
    for trial in range(60):
        state = random_state(2300 + trial, rank=1 + trial % 4)
        dists = [joint_distribution(s, state) for s in settings()]
        for which in ("A", "B"):
            k = k_matrix(decompose(state), which).entries
            for order, dist in enumerate(dists, start=1):
                read = dist.vector() @ moment_observable(dist, which)
                oracle = np.trace(np.linalg.matrix_power(k, order)).real
                assert abs(read - oracle) <= 1e-8

def test_outcomes_sampled_is_deterministic():
    state = make_family("werner", [0.4])
    a = outcomes_sampled(state, 2000, seed=5)
    b = outcomes_sampled(state, 2000, seed=5)
    assert np.array_equal(a.c, b.c)
    assert a.provenance == "sampled" and a.shots == 2000


def test_outcomes_sampled_single_shot_values():
    c = outcomes_sampled(random_state(3), 1, seed=0).c
    assert set(np.unique(c)) <= {0.0, 1.0}


def test_outcomes_sampled_converges_to_exact():
    state = make_family("werner", [0.6])
    exact = outcomes_exact(state).c
    sampled = outcomes_sampled(state, 1_000_000, seed=21).c
    for i in range(11):
        se = np.sqrt(max(exact[i] * (1 - exact[i]), 1e-12) / 1_000_000)
        assert abs(sampled[i] - exact[i]) <= 5 * se



def test_scheme_sampled_follows_streams_and_pattern_loop_reference():
    # repeat r, setting k draws from stream (seed, r, k); c_i counts the
    # patterns with every singlet pair of P_i singlet, M_k is the mean pair
    # value product; side B swaps the pair values and permutes the c's
    state = random_state(2600, rank=3)
    layouts = {lay.label: lay for lay in standard_layouts()}
    values = {"A": {"a": (-3.0, 1.0), "b": (-2.0, 2.0)}}
    values["B"] = {"a": values["A"]["b"], "b": values["A"]["a"]}
    # nine repeats: the mean over repeats adds eight or more rows pairwise
    # when they are not contiguous, so a column-strided c array would show
    shots, seed, repeats = 5000, 41, 9
    for which in ("A", "B"):
        cs, ms = [], []
        for rep in range(repeats):
            c, m = np.zeros(11), []
            for k, setting in enumerate(settings()):
                dist = joint_distribution(setting, state)
                pvec = dist.vector()
                counts = np.random.default_rng([seed, rep, k]).multinomial(
                    shots, pvec / pvec.sum()
                )
                patterns = dist.patterns()
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
                c = permute_outcomes(OutcomeVector(c, "sampled")).c
            cs.append(c)
            ms.append(m)
        est = estimate_gqd(
            state, "scheme-sampled", which=which, shots=shots, repeats=repeats, seed=seed
        )
        assert np.array_equal(est.outcomes.c, np.mean(cs, axis=0))
        got = [est.moments.m1, est.moments.m2, est.moments.m3]
        assert np.array_equal(got, np.mean(ms, axis=0))
        lams = np.array([eigenvalues_from_moments(MomentTriple(*m), noisy=True) for m in ms])
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
    (ours,), numpy_rng = _streams(key, ()), np.random.default_rng(list(key))
    assert np.array_equal(ours.integers(0, 2**62, 16), numpy_rng.integers(0, 2**62, 16))
    pvals = [0.1, 0.2, 0.3, 0.4]
    assert np.array_equal(ours.multinomial(10**5, pvals), numpy_rng.multinomial(10**5, pvals))


# prefixes of 1 to 7 uint32 words; with up to two index words, keys of 1 to 9 words,
# so both sides of the 4-word pool
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


@pytest.mark.parametrize("shape", [(), (3,), (9,), (20, 3)], ids=["one", "3", "9", "20x3"])
@pytest.mark.parametrize("prefix", STREAM_PREFIXES, ids=[f"p{i}" for i in range(8)])
def test_streams_equal_default_rng_key_by_key(prefix, shape):
    rngs = _streams(prefix, shape)
    keys = [(*prefix, *idx) for idx in np.ndindex(shape)]
    assert len(rngs) == len(keys)
    for rng, key in zip(rngs, keys):
        numpy_rng = np.random.default_rng(list(key))
        assert rng.bit_generator.state == numpy_rng.bit_generator.state
        assert np.array_equal(rng.integers(0, 2**62, 16), numpy_rng.integers(0, 2**62, 16))


def test_sampled_routes_draw_the_documented_stream_keys(monkeypatch):
    drawn = []

    def recording(prefix, shape):
        keys = [(*prefix, *idx) for idx in np.ndindex(shape)]
        drawn.extend(keys)
        return [np.random.default_rng(list(key)) for key in keys]

    monkeypatch.setattr(estimator, "_streams", recording)
    monkeypatch.setattr(qst_baseline, "_streams", recording)
    state = random_state(2700, rank=2)
    estimate_gqd(state, "scheme-sampled", shots=100, repeats=4, seed=(9, 3))
    assert drawn == [(9, 3, r, k) for r in range(4) for k in range(3)]
    drawn.clear()
    qst_estimate(state, shots_per_setting=100, seed=6)
    assert drawn == [(6, 3 * i + j) for i in range(3) for j in range(3)]
    drawn.clear()
    outcomes_sampled(state, 100, seed=11)
    assert drawn == [(11, k) for k in range(3)]


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
    "estimate_gqd": lambda s, shots: estimate_gqd(s, "scheme-sampled", shots=shots, repeats=2, seed=1),
    "outcomes_sampled": lambda s, shots: outcomes_sampled(s, shots, seed=1),
    "qst_estimate": lambda s, shots: qst_estimate(s, shots_per_setting=shots, seed=1),
}


@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
@pytest.mark.parametrize(
    "shots",
    [100.5, 100.0, np.float64(100.0), "100", 0, True],
    ids=["fraction", "float", "numpy-float", "text", "zero", "bool"],
)
def test_sampled_entry_points_reject_a_non_integer_shot_count(entry, shots):
    with pytest.raises(ValueError, match="shots"):
        SAMPLED_ENTRY_POINTS[entry](make_family("werner", [0.5]), shots)


@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
def test_sampled_entry_points_accept_numpy_integer_shots(entry):
    state = make_family("werner", [0.5])
    plain, numpy_int = (SAMPLED_ENTRY_POINTS[entry](state, n) for n in (100, np.int64(100)))
    if entry == "qst_estimate":
        plain, numpy_int = plain[1], numpy_int[1]
    if entry == "outcomes_sampled":
        assert np.array_equal(plain.c, numpy_int.c) and numpy_int.shots == 100
    else:
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


def test_estimate_json_schema():
    state = make_family("werner", [0.6])
    exact = estimate_gqd(state, "scheme-exact").to_dict()
    assert set(exact) == {"route", "value", "std_err", "eigenvalues", "outcomes", "moments"}
    assert set(exact["outcomes"]) == {f"c{i}" for i in range(1, 12)}
    assert set(exact["moments"]) == {"M1", "M2", "M3"}
    sampled = estimate_gqd(state, "scheme-sampled", shots=1000, repeats=3, seed=1).to_dict()
    assert sampled["route"] == "scheme-sampled"
    assert sampled["std_err"] >= 0.0


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


def test_cached_hit_and_observable_arrays_are_read_only():
    state = random_state(2400, rank=4)
    for setting in settings():
        dist = joint_distribution(setting, state)
        indices, hit = _hit_matrix(setting)
        observables = [moment_observable(dist, which) for which in ("A", "B")]
        assert _hit_matrix(setting)[1] is hit
        assert all(moment_observable(dist, w) is v for w, v in zip(("A", "B"), observables))
        for array in (indices, hit, *observables):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
