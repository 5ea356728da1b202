import numpy as np
import pytest

from gqdkit import (
    decompose,
    gqd_exact,
    make_family,
    qst_estimate,
    random_state,
    resource_report,
)
from gqdkit import qst_baseline
from gqdkit.statekit import PAULI, TwoQubitState

# the tensor-product Pauli tables indexed [i] resp. [i, j], built here from PAULI
SIGMA_A = np.stack([np.kron(p, np.eye(2)) for p in PAULI])
SIGMA_B = np.stack([np.kron(np.eye(2), p) for p in PAULI])
SIGMA_AB = np.stack([[np.kron(p, q) for q in PAULI] for p in PAULI])


def test_exact_limit_reconstruction_is_lossless():
    for trial in range(20):
        state = random_state(400 + trial, rank=1 + trial % 4)
        recon, est = qst_estimate(state)
        assert np.max(np.abs(recon.matrix - state.matrix)) <= 1e-10
        assert abs(est.value - gqd_exact(state).value) <= 1e-10
        assert est.route == "bloch-exact"
        assert est.std_err == 0.0


def test_sampled_tomography_close_to_truth():
    state = make_family("werner", [0.8])
    _, est = qst_estimate(state, shots_per_setting=1_000_000, seed=31)
    assert abs(est.value - 0.32) <= 0.01


def test_reconstruction_always_valid():
    # construction of the returned state enforces every density-matrix
    # invariant, including after heavy shot noise
    for trial in range(50):
        state = random_state(800 + trial, rank=1 + trial % 4)
        recon, _ = qst_estimate(state, shots_per_setting=500, seed=trial)
        assert abs(np.trace(recon.matrix) - 1.0) <= 1e-12


def test_error_shrinks_with_shot_budget():
    state = make_family("werner", [0.5])
    truth = gqd_exact(state).value
    mean_errs = []
    for shots in (20_000, 80_000):
        errs = []
        for s in range(40):
            _, est = qst_estimate(state, shots_per_setting=shots, seed=(900 + s,))
            errs.append(abs(est.value - truth))
        mean_errs.append(np.mean(errs))
    ratio = mean_errs[1] / mean_errs[0]
    assert 0.5 / 1.5 <= ratio <= 0.5 * 1.5


def test_qst_determinism():
    state = random_state(77, rank=3)
    a = qst_estimate(state, shots_per_setting=3000, seed=5)
    b = qst_estimate(state, shots_per_setting=3000, seed=5)
    assert np.array_equal(a[0].matrix, b[0].matrix)
    assert a[1].value == b[1].value


def test_sampled_tomography_follows_the_setting_loop_reference(monkeypatch):
    # setting (i, j) draws from stream (seed, 3i + j + 1); t_ij, <s> and <t> are
    # Python sums over the four outcomes; x_i and y_j average three settings. The
    # product state |00> holds zero counts, whose -1-weighted terms are -0.0, so
    # the Bloch estimates are compared bit for bit, sign of zero included
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    cases = [(random_state(1000 + trial, rank=1 + trial), shots) for trial, shots in enumerate((1, 100, 100_000))]
    cases.append((make_family("product", [0, 0, 1, 0, 0, 1]), 1000))
    seen, bloch_matrix = [], qst_baseline._bloch_matrix

    def recording_bloch_matrix(x, y, T):
        seen.append((x, y, T))
        return bloch_matrix(x, y, T)

    monkeypatch.setattr(qst_baseline, "_bloch_matrix", recording_bloch_matrix)
    for trial, (state, shots) in enumerate(cases):
        bloch = decompose(state)
        seed = (trial, 1)
        t_hat, marg_a, marg_b = np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))
        zero_counts = 0
        for i in range(3):
            for j in range(3):
                probs = np.array(
                    [
                        (1.0 + s * bloch.x[i] + t * bloch.y[j] + s * t * bloch.T[i, j]) / 4.0
                        for s, t in signs
                    ]
                )
                rng = np.random.default_rng([*seed, 3 * i + j + 1])
                q = np.rint(probs * 2**32)  # the draw rule: p on the grid 2**-32, q / q.sum()
                counts = rng.multinomial(shots, q / q.sum())
                zero_counts += int(np.sum(counts == 0))
                freq = counts / shots
                t_hat[i, j] = sum(s * t * f for (s, t), f in zip(signs, freq))
                marg_a[i, j] = sum(s * f for (s, t), f in zip(signs, freq))
                marg_b[i, j] = sum(t * f for (s, t), f in zip(signs, freq))
        x_hat, y_hat = marg_a.mean(axis=1), marg_b.mean(axis=0)
        raw = (
            np.eye(4, dtype=complex)
            + np.einsum("i,iab->ab", x_hat, SIGMA_A)
            + np.einsum("i,iab->ab", y_hat, SIGMA_B)
            + np.einsum("ij,ijab->ab", t_hat, SIGMA_AB)
        ) / 4.0
        # the repair: Hermitian part, negative eigenvalues clipped by np.clip, renormalized
        w, v = np.linalg.eigh((raw + raw.conj().T) / 2.0)
        w = np.clip(w, 0.0, None)
        reference = TwoQubitState((v * (w / float(w.sum()))) @ v.conj().T)
        for which in ("A", "B"):
            seen.clear()
            recon, est = qst_estimate(state, shots_per_setting=shots, seed=seed, which=which)
            [got] = seen
            for a, b in zip(got, (x_hat, y_hat, t_hat)):
                assert np.array_equal(np.asarray(a).view(np.int64), b.view(np.int64))
            assert np.array_equal(recon.matrix.view(np.int64), reference.matrix.view(np.int64))
            assert est.value == gqd_exact(reference, which).value
    assert zero_counts > 0  # the product state's draws


def test_sampled_tomography_draws_a_rounding_level_negative_as_zero():
    # y = (0, 0, 1): outcomes t = -1 of settings (i, 3) have probability 0 up to
    # rounding, -1.4e-17 for (s, t) = (1, -1) in setting (2, 3); the draw grid takes it as 0
    state = make_family("product", [0.1, 0.2, 0.3, 0, 0, 1])
    bloch = decompose(state)
    assert (1.0 + bloch.x[1] - bloch.y[2] - bloch.T[1, 2]) / 4.0 < 0.0
    recon, est = qst_estimate(state, shots_per_setting=1000, seed=(1, 1))
    assert abs(np.trace(recon.matrix) - 1.0) <= 1e-12
    assert abs(est.value - gqd_exact(state).value) <= 0.02


def test_qst_requires_seed_for_sampling():
    with pytest.raises(ValueError, match="seed"):
        qst_estimate(random_state(0), shots_per_setting=100)


def test_resource_report_constants():
    report = resource_report()
    assert report.r_p_scheme == 3
    assert report.r_p_qst == 15
    assert report.r_c_scheme == 44
    assert report.r_c_qst == 15
    assert report.r_scheme == 132
    assert report.r_qst == 225
    assert report.projector_count_scheme == 11
    assert report.setting_count_scheme == 3


def test_resource_report_independent_tallies():
    report = resource_report()
    # 3 two-copy + 4 four-copy + 4 six-copy layouts
    assert report.copies_tally_per_projector == 46
    # one round of each of the three settings
    assert report.copies_tally_per_setting == 12


def test_resource_report_product_invariant():
    report = resource_report()
    assert report.r_scheme == report.r_p_scheme * report.r_c_scheme
    assert report.r_qst == report.r_p_qst * report.r_c_qst


def test_resource_report_serialization():
    report = resource_report()
    d = report.to_dict()
    assert d["r_scheme"] == 132 and d["r_qst"] == 225


def test_the_eigenvalue_clip_is_np_clip_bit_for_bit():
    # _project_to_state clips with np.maximum(w, 0.0): the same bits as np.clip(w, 0.0, None)
    w = np.array([-0.0, -1e-17, np.nan, 0.0, 0.25, -0.5, 1.0])
    assert np.array_equal(np.maximum(w, 0.0).view(np.int64), np.clip(w, 0.0, None).view(np.int64))


def test_resource_report_is_built_once():
    report = resource_report()
    assert resource_report() is report
    with pytest.raises(AttributeError):
        report.projector_count_scheme = 12
    assert report.to_dict() == {
        "r_p_scheme": 3,
        "r_p_qst": 15,
        "r_c_scheme": 44,
        "r_c_qst": 15,
        "r_scheme": 132,
        "r_qst": 225,
        "projector_count_scheme": 11,
        "setting_count_scheme": 3,
        "copies_tally_per_projector": 46,
        "copies_tally_per_setting": 12,
    }
