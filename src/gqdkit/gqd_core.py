"""Closed-form geometric discord and a definitional minimization oracle.

The discord of a two-qubit state is (lambda_2 + lambda_3) / 4 where the
lambdas are the descending eigenvalues of K = x x^t + T T^t (side A) or
K' = y y^t + T^t T (side B). gqd_exact keeps both sides' spectra for the last
state (keyed by the object, as decompose keeps its Bloch form): K and K' are
stacked, checked by the one spectrum check KMatrix also runs, and solved by one
eigvalsh, so the second side reads the first side's work; gqd_from_k clamps and
checks a spectrum with the same code. The minimization oracle checks that value
against its definition, the squared distance to the nearest zero-discord
state, independently of the closed form: it searches the measurement axis n
on side A, dephasing rho in that basis as (rho + S rho S) / 2, S = n.sigma (x) I,
from the nine sandwiches (sigma_i (x) I) rho (sigma_j (x) I) of each call.
GqdEstimate is the one result type of every route: this closed form, the
scheme (exact or sampled) and the tomography baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalContractError, StateValidationError, _is_int
from .statekit import SIGMA, BlochForm, TwoQubitState, _frozen, decompose

if TYPE_CHECKING:
    from .estimator import MomentTriple, OutcomeVector

SIDES = ("A", "B")

K_SYMMETRY_TOL = 1e-12
K_POSITIVITY_TOL = 1e-10

# Minimization oracle: size of the global Fibonacci grid, the 5x5 local grid in
# units of the step with the inverse of its biquartic interpolation matrix
# (row 5i+j gives the coefficient of a^i b^j), and the step schedule in rad.
_GRID_POINTS = 400
_LOCAL_OFFSETS = np.array([(a, b) for a in range(-2, 3) for b in range(-2, 3)], dtype=float)
_LOCAL_INTERP = np.linalg.inv(
    (
        _LOCAL_OFFSETS[:, 0, None, None] ** np.arange(5)[:, None]
        * _LOCAL_OFFSETS[:, 1, None, None] ** np.arange(5)
    ).reshape(25, 25)
)
_START_STEP = 0.1
_STEP_TOL = 1e-10


def _check_side(which: str) -> str:
    if which not in SIDES:
        raise StateValidationError(f"side marker which must be one of {SIDES}, got {which!r}")
    return which


def _checked_spectra(k: np.ndarray) -> np.ndarray:
    """The descending spectra of an (n, 3, 3) stack of K matrices, each checked finite, symmetric
    and positive semidefinite, from one eigvalsh of the symmetrized stack."""
    flat = k.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise StateValidationError("K entries must be finite: the matrix holds NaN or infinity")
    # each matrix's entries (0, 1), (0, 2), (1, 2), flat at 1, 2, 5, against (1, 0), (2, 0), (2, 1)
    asym = max(abs(flat[m + i] - flat[m + j]) for m in range(0, len(flat), 9)
               for i, j in ((1, 3), (2, 6), (5, 7)))
    if asym > K_SYMMETRY_TOL:
        raise StateValidationError(f"K not symmetric: asymmetry {asym:.3e}")
    spectra = np.linalg.eigvalsh((k + k.swapaxes(1, 2)) / 2.0)[:, ::-1]
    lowest = min(spectra[:, -1].tolist())
    if lowest < -K_POSITIVITY_TOL:
        raise StateValidationError(f"K not positive semidefinite: smallest eigenvalue {lowest:.3e}")
    return spectra


@dataclass(frozen=True, eq=False)
class KMatrix:
    """Symmetric PSD 3x3 matrix whose `spectrum` (descending) carries the discord."""

    entries: np.ndarray
    which: str
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_side(self.which)
        k = np.asarray(self.entries, dtype=float)
        if k.shape != (3, 3):
            raise StateValidationError(f"K must be 3x3, got shape {k.shape}")
        object.__setattr__(self, "spectrum", _frozen(_checked_spectra(k[None])[0]))
        object.__setattr__(self, "entries", _frozen(k))


@dataclass(frozen=True, eq=False)
class GqdEstimate:
    """A discord value with its provenance and statistical spread; every route's result."""

    value: float
    std_err: float
    eigenvalues: tuple[float, float, float]
    route: str
    outcomes: OutcomeVector | None = None
    moments: MomentTriple | None = None

    def __post_init__(self) -> None:
        if self.route not in ("bloch-exact", "scheme-exact", "scheme-sampled"):
            raise ValueError(f"unknown route {self.route!r}")
        # each check is written so that NaN and infinity fail it
        if not -1e-9 <= self.value < math.inf:
            raise NumericalContractError(f"estimate {self.value:.3e} is not finite and >= -1e-9")
        if self.value < 0.0:
            object.__setattr__(self, "value", 0.0)
        if not 0.0 <= self.std_err < math.inf:
            raise ValueError(f"std_err must be finite and >= 0, got {self.std_err}")
        if self.route != "scheme-sampled" and self.std_err != 0.0:
            raise ValueError("exact routes must report std_err = 0")
        lam = self.eigenvalues
        if not (math.inf > lam[0] >= lam[1] >= lam[2] > -math.inf):
            raise NumericalContractError(f"eigenvalues must be finite and sorted descending: {lam}")

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "value": float(self.value),
            "std_err": float(self.std_err),
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "outcomes": self.outcomes.as_dict() if self.outcomes is not None else None,
            "moments": self.moments.as_dict() if self.moments is not None else None,
        }


def _k_entries(bloch: BlochForm, which: str) -> np.ndarray:
    """K = x x^t + T T^t for side A, K' = y y^t + T^t T for side B, unchecked."""
    if which == "A":
        return bloch.x[:, None] * bloch.x + bloch.T @ bloch.T.T  # x[:, None] * x is np.outer's product
    return bloch.y[:, None] * bloch.y + bloch.T.T @ bloch.T


def k_matrix(bloch: BlochForm, which: str = "A") -> KMatrix:
    """K = x x^t + T T^t for side A, K' = y y^t + T^t T for side B."""
    return KMatrix(_k_entries(bloch, _check_side(which)), which)  # KMatrix symmetrizes it for eigvalsh


@lru_cache(maxsize=1)
def _spectra(state: TwoQubitState) -> dict[str, list[float]]:
    """Both sides' checked descending K spectra for the last state, keyed by the object as
    decompose is: K and K' stacked, checked and solved by one eigvalsh."""
    bloch = decompose(state)
    spectra = _checked_spectra(np.array([_k_entries(bloch, which) for which in SIDES]))
    return dict(zip(SIDES, spectra.tolist()))


def gqd_exact(state: TwoQubitState, which: str = "A") -> GqdEstimate:
    """Closed-form geometric discord of a state for the chosen side (route "bloch-exact"); a side
    other than A or B raises StateValidationError before any work."""
    _check_side(which)
    return _estimate(_spectra(state)[which])


def gqd_from_k(k: KMatrix) -> GqdEstimate:
    """(lambda_2 + lambda_3) / 4 of K's spectrum, clamped and checked as gqd_exact reports it."""
    return _estimate(k.spectrum.tolist())


def _estimate(spectrum: list[float]) -> GqdEstimate:
    """The bloch-exact estimate of a checked descending spectrum."""
    # the spectrum check refused any below -K_POSITIVITY_TOL; max(0.0, v) also reads -0.0 as 0.0
    lam = tuple(max(0.0, v) for v in spectrum)
    value = (lam[1] + lam[2]) / 4.0
    if not 0.0 <= value <= 0.5 + 1e-12:
        raise StateValidationError(f"discord value {value:.12g} outside [0, 1/2]")
    return GqdEstimate(value, 0.0, lam, "bloch-exact")


def _fibonacci_axes(count: int) -> np.ndarray:
    """Nearly uniform unit vectors on the sphere (golden-angle spiral)."""
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _sandwiches(rho: np.ndarray) -> np.ndarray:
    """W_ij = (sigma_i (x) I) rho (sigma_j (x) I) as real rows: row 3i+j holds 32 floats."""
    sigma_a = SIGMA[1:, 0]  # sigma_i (x) I
    return np.einsum("iab,bc,jcd->ijad", sigma_a, rho, sigma_a).view(np.float64).reshape(9, 32)


def _dephased(rho: np.ndarray, sandwiches: np.ndarray, axes: np.ndarray):
    """The unit axes and chi_n = (rho + S rho S) / 2 per axis n, S = n.sigma (x) I, as real rows."""
    unit = axes / np.sqrt(np.add.reduce(axes * axes, axis=-1, keepdims=True))  # as np.linalg.norm
    flipped = (unit[:, :, None] * unit[:, None]).reshape(-1, 9) @ sandwiches  # sum n_i n_j W_ij
    return unit, (rho.view(np.float64).reshape(32) + flipped) / 2.0


def _distance_sq(rho: np.ndarray, sandwiches: np.ndarray, axes: np.ndarray):
    """The unit axes and ||rho - chi_n||_F^2 per axis n."""
    unit, chi = _dephased(rho, sandwiches, axes)
    diff = rho.view(np.float64).reshape(32) - chi
    return unit, np.einsum("ij,ij->i", diff, diff)


_GRID_AXES = _frozen(_fibonacci_axes(_GRID_POINTS))  # the global grid's axes, built once


def _newton_shift(a: float, b: float, d: float, g1: float, g2: float) -> tuple[float, float]:
    """pinv(V |M| V^T) (g1, g2) for the Hessian [[a, b], [b, d]] = V M V^T, with pinv's cutoff,
    in plain floats. V and M are LAPACK dlaev2's, which np.linalg.eigh runs on a 2x2: mu1, the
    larger |mu|, along (c, s) and mu2 = det / mu1 along (-s, c)."""
    big, small = (a, d) if abs(a) > abs(d) else (d, a)
    lo, hi = sorted((abs(a - d), abs(2.0 * b)))
    rt = hi * math.sqrt(1.0 + (lo / hi) * (lo / hi)) if lo < hi else hi * math.sqrt(2.0)
    mu1 = 0.5 * (a + d - rt) if a + d < 0.0 else 0.5 * (a + d + rt)
    mu2 = (big / mu1) * small - (b / mu1) * b if a + d else -mu1
    cs = a - d + rt if a - d >= 0.0 else a - d - rt
    t = -2.0 * b / cs if abs(cs) > abs(2.0 * b) else -cs / (2.0 * b) if b else 0.0
    r = 1.0 / math.sqrt(1.0 + t * t)
    c, s = (t * r, r) if abs(cs) > abs(2.0 * b) else (r, t * r)
    c, s = (-s, c) if (a + d < 0.0) == (a - d < 0.0) else (c, s)
    cut = 1e-15 * max(abs(mu1), abs(mu2))
    u1 = (1.0 / abs(mu1)) * (c * g1 + s * g2) if abs(mu1) > cut else 0.0
    u2 = (1.0 / abs(mu2)) * (c * g2 - s * g1) if abs(mu2) > cut else 0.0
    return c * u1 - s * u2, s * u1 + c * u2


def gqd_by_minimization(
    state: TwoQubitState, restarts: int = 200, seed: int = 0
) -> float:
    """Minimum of tr((rho - chi)^2) over zero-discord chi, by exact projection.

    For a measurement axis n on side A the nearest zero-discord state is the
    dephased chi_n (Luo & Fu, PRA 82, 034302), so only n is searched: a
    400-point Fibonacci grid, then 5x5 local grids in the tangent plane whose
    step halves from 0.1 to 1e-10 rad. A Newton step on each local grid's
    interpolating polynomial (Hessian eigenvalues in absolute value) is one
    more candidate; it follows nearly flat valleys that a grid alone crosses
    too slowly; _newton_shift takes it in plain floats, with eigh's eigenpairs
    and pinv's cutoff. A candidate scores ||rho - chi_n||_F^2, chi_n built per
    axis by _dephased; a batch of axes is one real matrix product. The value is
    the objective at the best axis found, so up to rounding it is never below the
    true minimum. Deterministic, no random draws: `restarts` (an integer >= 1)
    and `seed` are accepted but do not change the result. Side B is side A of
    SWAP rho SWAP.
    """
    if not _is_int(restarts) or restarts < 1:
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    rho = state.matrix
    sandwiches = _sandwiches(rho)
    grid, dist = _distance_sq(rho, sandwiches, _GRID_AXES)
    axis, value = grid[np.argmin(dist)].tolist(), float(dist.min())
    step = _START_STEP
    while step > _STEP_TOL:
        # tangent frame: e1 = axis x (unit vector along its smallest entry), e2 = axis x e1
        x, y, z = axis
        e1 = ((0.0, z, -y), (-z, 0.0, x), (y, -x, 0.0))[min(range(3), key=lambda i: abs(axis[i]))]
        e2 = (y * e1[2] - z * e1[1], z * e1[0] - x * e1[2], x * e1[1] - y * e1[0])
        scale = (e1[0] * e1[0] + e1[1] * e1[1] + e1[2] * e1[2]) ** 0.5
        f1, f2 = [v / scale for v in e1], [v / scale for v in e2]
        grid, dist = _distance_sq(rho, sandwiches, axis + step * _LOCAL_OFFSETS @ [f1, f2])
        c = (_LOCAL_INTERP @ dist).tolist()  # c[5i+j]: coefficient of a^i b^j
        s1, s2 = _newton_shift(2.0 * c[10], c[6], 2.0 * c[2], c[5], c[1])
        newton_axis = [a - step * (s1 * u + s2 * v) for a, u, v in zip(axis, f1, f2)]
        newton, newton_dist = _distance_sq(rho, sandwiches, np.array([newton_axis]))
        best = int(np.argmin(dist))  # the grid point goes first: a tie keeps it
        for cand, cand_value in ((grid[best], dist[best]), (newton[0], newton_dist[0])):
            if cand_value < value:
                axis, value = cand.tolist(), float(cand_value)
        step /= 2.0
    return value
