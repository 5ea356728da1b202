"""Tomography baseline: full state reconstruction and resource comparison.

Simulates the nine local Pauli settings sigma^i (x) sigma^j (four outcomes
each), reconstructs all fifteen Bloch parameters by linear inversion,
projects onto the density-matrix cone, and evaluates the closed-form
discord of the reconstruction. The resource report contrasts this with the
pair-measurement scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import GqdEstimate, stream_key
from .gqd_core import gqd_exact
from .pairing import settings, standard_layouts
from .statekit import SIGMA_A, SIGMA_AB, SIGMA_B, TwoQubitState, decompose

# outcome sign pairs (s, t) for the four results of one Pauli x Pauli setting
_OUTCOME_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _project_to_state(m: np.ndarray) -> TwoQubitState:
    """Nearest density matrix by eigenvalue clipping and renormalization."""
    h = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
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
    """Tomographic reconstruction and its closed-form discord.

    With shots_per_setting=None the analytic outcome probabilities are used
    (infinite-shot limit) and the reconstruction is exact. Otherwise each of
    the nine settings draws a multinomial sample from the stream keyed by
    (seed, setting index); x_i and y_j are averaged over the three settings
    containing them, t_ij comes from setting (i, j).
    """
    bloch = decompose(state)
    if shots_per_setting is None:
        x_hat, y_hat, t_hat = np.array(bloch.x), np.array(bloch.y), np.array(bloch.T)
    else:
        if shots_per_setting < 1:
            raise ValueError("shots_per_setting must be >= 1")
        if seed is None:
            raise ValueError("sampled tomography requires a seed")
        base = stream_key(seed)
        t_hat = np.zeros((3, 3))
        marg_a = np.zeros((3, 3))  # [i, j]: <s> in setting (i, j)
        marg_b = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                probs = np.array(
                    [
                        (1.0 + s * bloch.x[i] + t * bloch.y[j] + s * t * bloch.T[i, j]) / 4.0
                        for s, t in _OUTCOME_SIGNS
                    ]
                )
                rng = np.random.default_rng([*base, 3 * i + j])
                freq = rng.multinomial(int(shots_per_setting), probs / probs.sum())
                freq = freq / shots_per_setting
                t_hat[i, j] = sum(s * t * f for (s, t), f in zip(_OUTCOME_SIGNS, freq))
                marg_a[i, j] = sum(s * f for (s, t), f in zip(_OUTCOME_SIGNS, freq))
                marg_b[i, j] = sum(t * f for (s, t), f in zip(_OUTCOME_SIGNS, freq))
        x_hat = marg_a.mean(axis=1)
        y_hat = marg_b.mean(axis=0)

    raw = (
        np.eye(4, dtype=complex)
        + np.einsum("i,iab->ab", x_hat, SIGMA_A)
        + np.einsum("i,iab->ab", y_hat, SIGMA_B)
        + np.einsum("ij,ijab->ab", t_hat, SIGMA_AB)
    ) / 4.0
    recon = _project_to_state(raw)
    g = gqd_exact(recon, which)
    return recon, GqdEstimate(g.value, 0.0, g.eigenvalues, "bloch-exact")


@dataclass(frozen=True)
class ResourceReport:
    """Scheme-versus-tomography resource figures.

    The r_* fields are the quoted comparison constants (r = r_p * r_c per
    column). The two tally fields are computed independently from the
    standard layouts and settings and are reported without asserting any
    relation to r_c_scheme.
    """

    r_p_scheme: int = 3
    r_p_qst: int = 15
    r_c_scheme: int = 44
    r_c_qst: int = 15
    r_scheme: int = 132
    r_qst: int = 225
    projector_count_scheme: int = 11
    setting_count_scheme: int = 3
    copies_tally_per_projector: int = 0
    copies_tally_per_setting: int = 0

    def __post_init__(self) -> None:
        if self.r_scheme != self.r_p_scheme * self.r_c_scheme:
            raise ValueError("scheme column must satisfy r = r_p * r_c")
        if self.r_qst != self.r_p_qst * self.r_c_qst:
            raise ValueError("tomography column must satisfy r = r_p * r_c")

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

    def to_text(self) -> str:
        rows = [
            ("parameters to estimate (r_p)", self.r_p_scheme, self.r_p_qst),
            ("copies per round (r_c)", self.r_c_scheme, self.r_c_qst),
            ("cost factor r = r_p * r_c", self.r_scheme, self.r_qst),
        ]
        lines = [f"{'resource':<34}{'scheme':>8}{'qst':>8}"]
        for name, a, b in rows:
            lines.append(f"{name:<34}{a:>8}{b:>8}")
        lines.append("")
        lines.append(f"projective measurements (scheme): {self.projector_count_scheme}")
        lines.append(f"measurement settings (scheme):    {self.setting_count_scheme}")
        lines.append(
            "independent tally, copies for one round of every projector: "
            f"{self.copies_tally_per_projector}"
        )
        lines.append(
            "independent tally, copies for one round of every setting:   "
            f"{self.copies_tally_per_setting}"
        )
        return "\n".join(lines)


def resource_report() -> ResourceReport:
    """The quoted comparison constants plus independently computed tallies."""
    layouts = standard_layouts()
    return ResourceReport(
        projector_count_scheme=len(layouts),
        setting_count_scheme=len(settings()),
        copies_tally_per_projector=sum(lay.n_copies for lay in layouts),
        copies_tally_per_setting=sum(s.n_copies for s in settings()),
    )
