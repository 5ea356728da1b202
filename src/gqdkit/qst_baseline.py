"""Tomography baseline: full state reconstruction and resource comparison.

Simulates the nine local Pauli settings sigma^i (x) sigma^j (four outcomes
each), reconstructs all fifteen Bloch parameters by linear inversion,
repairs the reconstruction into a density matrix by clipping its negative
eigenvalues and renormalizing, and evaluates the closed-form discord of the
repaired state. The outcome signs s, t and their weights s*t, s, t are built
once, at import; the sampled route forms <st>, <s> and <t> of all nine
settings in one broadcast over the (3, 3, 4) frequencies. The resource report,
built once, contrasts this with the pair-measurement scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gqd_core import GqdEstimate, _check_side, gqd_exact
from .pairing import settings, standard_layouts
from .statekit import TwoQubitState, _bloch_matrix, _draw, _sampling_inputs, decompose

# outcome signs (s, t) of the four results of one Pauli x Pauli setting, and the weights
# (s*t, s, t) that read <st>, <s> and <t> off its frequencies, shaped to broadcast over [i, j, o]
_SIGN_S, _SIGN_T = np.array(((1, 1), (1, -1), (-1, 1), (-1, -1))).T
_SIGN_ST = _SIGN_S * _SIGN_T
_SIGN_WEIGHTS = np.stack((_SIGN_ST, _SIGN_S, _SIGN_T))[:, None, None, :]


def _project_to_state(m: np.ndarray) -> TwoQubitState:
    """A density matrix from a Hermitian-ized reconstruction: negative eigenvalues clipped
    to zero, the rest renormalized to unit trace.

    This is a repair, not the Frobenius-nearest state: that projection (Smolin, Gambetta and
    Smith, PRL 108, 070502 (2012)) lowers the kept eigenvalues by one common shift in place
    of rescaling them.
    """
    h = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)  # as np.clip(w, 0.0, None), bit for bit
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("reconstruction collapsed to the zero matrix")
    return TwoQubitState((v * (w / total)) @ v.conj().T)


def qst_estimate(
    state: TwoQubitState,
    shots_per_setting: int | None = None,
    seed=None,
    which: str = "A",
) -> tuple[TwoQubitState, GqdEstimate]:
    """Tomographic reconstruction and its closed-form discord, as gqd_exact reports it.

    With shots_per_setting=None the analytic outcome probabilities are used
    (infinite-shot limit), the reconstruction is exact, and a seed raises
    ValueError. Otherwise each of the nine settings draws a multinomial sample
    from the stream keyed by (seed, 3i + j + 1), all nine drawn by one
    statekit._draw call from the raw broadcast probabilities; x_i and y_j are
    averaged over the three settings containing them, t_ij comes from setting
    (i, j). One broadcast weighs every setting's frequencies by s*t, s and t, and
    the four outcomes are added in order as Python's sum adds them, so the results
    equal a per-setting loop's bit for bit. The reconstruction is repaired by
    _project_to_state, which clips negative eigenvalues. A side other than A or B
    raises StateValidationError before any work.
    """
    _check_side(which)
    if shots_per_setting is None and seed is not None:
        raise ValueError("exact tomography draws no samples, so it takes no seed")
    bloch = decompose(state)
    if shots_per_setting is None:
        x_hat, y_hat, t_hat = bloch.x, bloch.y, bloch.T
    else:
        shots, key = _sampling_inputs(shots_per_setting, seed, "sampled tomography")
        # probs[i, j, o]: outcome o of setting (i, j), handed to _draw as computed
        x, y, T = bloch.x[:, None, None], bloch.y[None, :, None], bloch.T[:, :, None]
        probs = (1.0 + _SIGN_S * x + _SIGN_T * y + _SIGN_ST * T) / 4.0
        freq = _draw(key, probs.reshape(9, 4), shots).reshape(3, 3, 4) / shots
        # [w, i, j]: <st>, <s>, <t> in setting (i, j), outcomes added in order as Python's sum does
        wf = _SIGN_WEIGHTS * freq
        t_hat, marg_a, marg_b = sum(wf[..., o] for o in range(4))
        x_hat = marg_a.mean(axis=1)
        y_hat = marg_b.mean(axis=0)

    recon = _project_to_state(_bloch_matrix(x_hat, y_hat, t_hat))
    return recon, gqd_exact(recon, which)


@dataclass(frozen=True)
class ResourceReport:
    """Scheme-versus-tomography resource figures.

    The r_* class constants are the quoted comparison figures, r = r_p * r_c
    per column. The four tally fields are computed independently from the
    standard layouts and settings and are reported without asserting any
    relation to r_c_scheme.
    """

    r_p_scheme = 3
    r_p_qst = 15
    r_c_scheme = 44
    r_c_qst = 15
    r_scheme = r_p_scheme * r_c_scheme
    r_qst = r_p_qst * r_c_qst

    projector_count_scheme: int = 11
    setting_count_scheme: int = 3
    copies_tally_per_projector: int = 0
    copies_tally_per_setting: int = 0

    def to_dict(self) -> dict:
        return {
            "r_p_scheme": self.r_p_scheme,
            "r_p_qst": self.r_p_qst,
            "r_c_scheme": self.r_c_scheme,
            "r_c_qst": self.r_c_qst,
            "r_scheme": self.r_scheme,
            "r_qst": self.r_qst,
            "projector_count_scheme": self.projector_count_scheme,
            "setting_count_scheme": self.setting_count_scheme,
            "copies_tally_per_projector": self.copies_tally_per_projector,
            "copies_tally_per_setting": self.copies_tally_per_setting,
        }


@lru_cache(maxsize=1)
def resource_report() -> ResourceReport:
    """The quoted comparison constants plus independently computed tallies, built once:
    the report is frozen and its inputs are the protocol's fixed layouts."""
    layouts = standard_layouts()
    return ResourceReport(
        projector_count_scheme=len(layouts),
        setting_count_scheme=len(settings()),
        copies_tally_per_projector=sum(lay.n_copies for lay in layouts),
        copies_tally_per_setting=sum(s.n_copies for s in settings()),
    )
