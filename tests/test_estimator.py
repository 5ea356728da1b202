import numpy as np
import pytest

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
    random_state,
    settings,
    standard_layouts,
    verify_moment_formulas,
)
from gqdkit.estimator import (
    BASELINE_MOMENT_TABLE,
    MOMENT_TABLE,
    MomentTriple,
    OutcomeVector,
    derive_moment_table,
    moment_observable,
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
    shots, seed = 5000, 41
    for which in ("A", "B"):
        cs, ms = [], []
        for rep in range(2):
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
            state, "scheme-sampled", which=which, shots=shots, repeats=2, seed=seed
        )
        assert np.array_equal(est.outcomes.c, np.mean(cs, axis=0))
        got = [est.moments.m1, est.moments.m2, est.moments.m3]
        assert np.allclose(got, np.mean(ms, axis=0), rtol=0.0, atol=1e-12)

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
