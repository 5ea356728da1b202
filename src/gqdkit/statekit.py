"""Two-qubit density matrices: validation, Bloch form, and named families.

Everything works in the product basis |00>, |01>, |10>, |11|; the first
tensor factor is subsystem a, the second subsystem b, and the Pauli axes
are ordered (sigma^1, sigma^2, sigma^3) = (X, Y, Z). SIGMA holds the Bloch
basis sigma_mu (x) sigma_nu, sigma_0 = I, once for the package. Constructors
validate their output, so any TwoQubitState or BlochForm in circulation
satisfies the module invariants. A TwoQubitState maps rho to its real Bloch
matrix R once, at validation; decompose and the contraction walks read R, and decompose
builds the last state's BlochForm once.

Every random draw is made here: a seed is a stream key (stream_key), a sampled route's inputs
pass one rule (_sampling_inputs), and _draw draws its counts on one grid (DRAW_GRID), every
repeat of vector k from one stream, np.random.default_rng([*key, k + 1]) fed uint32 words (_stream).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from numbers import Real

import numpy as np

from .errors import NumericalContractError, StateValidationError, _is_int

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
BLOCH_ENTRY_TOL = 1e-12
IMAG_TRACE_TOL = 1e-10
DRAW_GRID = 2.0**32  # _draw's grid: p moves a count only by moving half a step, 1.2e-10
# the most shots a sampled route takes: every count is exact as a float, and counts times
# the sampled read-off's largest entry, 216, stay below 2**61, inside int64
MAX_SHOTS = 2**53

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# The Bloch basis: SIGMA[mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I, so rho's
# coefficients R_mu,nu = tr(rho SIGMA[mu, nu]) hold 1, y (row 0), x (column 0) and T.
SIGMA = np.array([[np.kron(sm, sn) for sn in (I2, *PAULI)] for sm in (I2, *PAULI)])

SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET = np.outer(SINGLET_KET, SINGLET_KET.conj())
MAXIMALLY_MIXED = I4 / 4.0

FAMILY_ARITY = {
    "werner": 1,
    "bell_diagonal": 3,
    "pure": 8,
    "product": 6,
    "classical_AB": 9,
}


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a: the one way the package marks an array read-only."""
    a = np.array(a)
    a.setflags(write=False)  # as a.flags.writeable = False, without building the flags object
    return a


def _is_real(x) -> bool:  # a real number, numpy's too; a bool, though an int subclass, is not one
    return isinstance(x, Real) and not isinstance(x, bool)


def stream_key(seed) -> tuple[int, ...]:
    """A seed (an int or one or more ints, each in [0, 2**63)) as the tuple keying RNG streams.

    A float entry is rejected even when integral, as np.random.default_rng does.
    """
    key = tuple(np.ravel(np.asarray(seed, dtype=object)))
    if not key:
        raise StateValidationError("seed has no entries")
    for s in key:
        if not _is_int(s):
            raise StateValidationError(f"seed entry {s} is not an integer")
        if not 0 <= s < 2**63:
            raise StateValidationError(f"seed entry {s} is outside [0, 2**63)")
    return tuple(int(s) for s in key)


def _sampling_inputs(shots, seed, route: str) -> tuple[int, tuple[int, ...]]:
    """A sampled route's shot count (an integer in [1, MAX_SHOTS]) as an int, its seed as a stream key."""
    if not _is_int(shots) or not 1 <= shots <= MAX_SHOTS:
        raise StateValidationError(f"{route} shots must be an integer in [1, 2**53], got {shots!r}")
    if seed is None:
        raise StateValidationError(f"{route} requires a seed")
    return int(shots), stream_key(seed)


def _stream(key: tuple[int, ...]) -> np.random.Generator:
    """np.random.default_rng(list(key)), seeded with the uint32 words numpy would split the key
    into: an entry's low word first, 0 as one word, so an entry below 2**63 is one or two words."""
    words = [w for s in key for w in ((s & 0xFFFFFFFF, s >> 32) if s >> 32 else (s,))]
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def _draw(key: tuple[int, ...], pvecs, shots: int, repeats: int | None = None) -> np.ndarray:
    """Multinomial counts of `shots` draws from each vector of pvecs, concatenated on the
    last axis as one int64 array: shape (sum of lengths,), or (repeats, sum) by rows.

    Vector k, p, draws every row from one stream, _stream((*key, k + 1)), so
    row r does not depend on how many rows follow it and repeats=None is row 0. It draws
    from q / q.sum(), q = rint(p * DRAW_GRID): an exact integer sum, so the draw hangs on q
    alone. NaN or p < -2**-33, a negative count, is an error.
    """
    sizes = [len(p) for p in pvecs]
    q = np.rint(np.concatenate(pvecs, dtype=float) * DRAW_GRID) + 0.0  # no -0.0
    if not q.min() >= 0.0:  # NaN fails too
        raise NumericalContractError("a draw probability is NaN or below -2**-33, half a step")
    starts = [0, *accumulate(sizes)]
    p = q / np.repeat(np.add.reduceat(q, starts[:-1]), sizes)
    # k + 1, never 0: numpy pads keys of up to 4 words with zeros, so [*key, 0] is [*key]'s stream
    return np.concatenate(
        [
            _stream((*key, k + 1)).multinomial(shots, p[a:b], size=repeats)
            for k, (a, b) in enumerate(zip(starts, starts[1:]))
        ],
        axis=-1,
    )


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated 4x4 density matrix (Hermitian, unit trace, PSD), kept C-ordered, and its
    real Bloch matrix R_mu,nu = tr(rho SIGMA[mu, nu]), real to IMAG_TRACE_TOL, read-only."""

    matrix: np.ndarray
    R: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex, order="C")  # the oracle reads it as 32 floats
        if m.shape != (4, 4):
            raise StateValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise StateValidationError("entries must be finite: the matrix holds NaN or infinity")
        herm = float(np.abs(m - m.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise StateValidationError(
                f"not Hermitian: max |rho - rho^dag| = {herm:.3e} exceeds {HERMITICITY_TOL}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(
                f"trace not 1: |tr - 1| = {abs(tr - 1.0):.3e} exceeds {TRACE_TOL}"
            )
        lowest = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        if lowest < -POSITIVITY_TOL:
            raise StateValidationError(
                f"not positive semidefinite: smallest eigenvalue {lowest:.3e} "
                f"below -{POSITIVITY_TOL}"
            )
        r = np.einsum("mnab,ba->mn", SIGMA, m)
        residue = float(np.abs(r.imag).max())
        if residue > IMAG_TRACE_TOL:
            raise StateValidationError(
                f"Pauli expectation values have imaginary residue {residue:.3e} above {IMAG_TRACE_TOL}"
            )
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "R", _frozen(r.real))


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Local Bloch vectors x, y and the 3x3 correlation matrix T."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        T = np.asarray(self.T, dtype=float)
        if x.shape != (3,) or y.shape != (3,) or T.shape != (3, 3):
            raise StateValidationError(
                f"Bloch data must be two 3-vectors and a 3x3 matrix, got "
                f"{x.shape}, {y.shape}, {T.shape}"
            )
        entries, bound = [*x.tolist(), *y.tolist(), *T.ravel().tolist()], 1.0 + BLOCH_ENTRY_TOL
        if not all(-bound <= v <= bound for v in entries):  # NaN fails too
            worst = float(np.abs(entries).max())  # printed in full: 1 + 2e-12 must not read as 1
            raise StateValidationError(f"Bloch entries must lie in [-1, 1]; largest magnitude is {worst}")
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "T", _frozen(T))


@lru_cache(maxsize=1)
def decompose(state: TwoQubitState) -> BlochForm:
    """Bloch form of a state: x_i, y_i, and t_ij, the blocks of its Bloch matrix R; built once
    for the last state (keyed by the object, compared by identity), so both sides share it."""
    r = state.R
    return BlochForm(r[1:, 0], r[0, 1:], r[1:, 1:])


def _bloch_matrix(x: np.ndarray, y: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(I + x.sigma (x) I + I (x) y.sigma + sum_ij t_ij sigma^i (x) sigma^j) / 4, unchecked."""
    # three sums: one einsum over SIGMA would move the last bits of tomography values
    return (
        I4
        + np.einsum("i,iab->ab", x, SIGMA[1:, 0])
        + np.einsum("i,iab->ab", y, SIGMA[0, 1:])
        + np.einsum("ij,ijab->ab", T, SIGMA[1:, 1:])
    ) / 4.0


def _qubit_from_bloch(r: Sequence[float], label: str) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + BLOCH_ENTRY_TOL:
        raise StateValidationError(
            f"{label}: single-qubit Bloch vector has norm {norm} > 1"
        )
    return (I2 + r[0] * PAULI[0] + r[1] * PAULI[1] + r[2] * PAULI[2]) / 2.0


def _pure_ket(params: Sequence[float]) -> np.ndarray:
    amp = np.asarray(params, dtype=float)
    ket = amp[0::2] + 1j * amp[1::2]
    norm = float(np.linalg.norm(ket))
    if norm < 1e-12:
        raise StateValidationError("pure: amplitudes are all zero")
    return ket / norm


def make_family(name: str, params: Sequence[float]) -> TwoQubitState:
    """Construct a named state family.

    Families and their parameter lists:
      werner:        [p] with p in [0, 1]
      bell_diagonal: [c1, c2, c3] inside the physical tetrahedron
      pure:          8 reals, (re, im) pairs of the 4 amplitudes
      product:       two single-qubit Bloch vectors, 3 + 3 reals
      classical_AB:  [p1, theta, phi, r1 (3 reals), r2 (3 reals)]; a mixture
                     p1 |psi1><psi1| (x) rho1 + p2 |psi2><psi2| (x) rho2 with
                     orthonormal psi1, psi2 set by the two angles
    """
    if name not in FAMILY_ARITY:
        raise StateValidationError(
            f"unknown family {name!r}; expected one of {sorted(FAMILY_ARITY)}"
        )
    if isinstance(params, np.ndarray) and params.ndim == 1:
        params = params.tolist()
    if isinstance(params, (str, bytes)) or not (isinstance(params, Sequence) and all(map(_is_real, params))):
        raise StateValidationError(f"family {name!r}: params must be a sequence of reals, got {params!r}")
    params = [float(v) for v in params]
    if len(params) != FAMILY_ARITY[name]:
        raise StateValidationError(
            f"family {name!r} takes {FAMILY_ARITY[name]} parameters, got {len(params)}"
        )
    if not np.isfinite(params).all():
        raise StateValidationError(f"family {name!r}: parameters must be finite, got {params}")

    if name == "werner":
        p = params[0]
        if not 0.0 <= p <= 1.0:
            raise StateValidationError(f"werner: p = {p} outside [0, 1]")
        return TwoQubitState(p * SINGLET + (1.0 - p) * MAXIMALLY_MIXED)

    if name == "bell_diagonal":
        c1, c2, c3 = params
        weights = np.array(
            [
                1.0 - c1 - c2 - c3,
                1.0 - c1 + c2 + c3,
                1.0 + c1 - c2 + c3,
                1.0 + c1 + c2 - c3,
            ]
        ) / 4.0
        if np.min(weights) < -POSITIVITY_TOL:
            raise StateValidationError(
                "bell_diagonal: (c1, c2, c3) outside the physical tetrahedron "
                f"(smallest Bell weight {np.min(weights):.3e})"
            )
        return TwoQubitState((I4 + c1 * SIGMA[1, 1] + c2 * SIGMA[2, 2] + c3 * SIGMA[3, 3]) / 4.0)

    if name == "pure":
        ket = _pure_ket(params)
        return TwoQubitState(np.outer(ket, ket.conj()))

    if name == "product":
        rho_a = _qubit_from_bloch(params[0:3], "product")
        rho_b = _qubit_from_bloch(params[3:6], "product")
        return TwoQubitState(np.kron(rho_a, rho_b))

    # classical_AB
    p1 = params[0]
    if not 0.0 <= p1 <= 1.0:
        raise StateValidationError(f"classical_AB: p1 = {p1} outside [0, 1]")
    theta, phi = params[1], params[2]
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    psi1 = np.array([c, np.exp(1j * phi) * s])
    psi2 = np.array([-np.exp(-1j * phi) * s, c])
    rho1 = _qubit_from_bloch(params[3:6], "classical_AB")
    rho2 = _qubit_from_bloch(params[6:9], "classical_AB")
    chi = p1 * np.kron(np.outer(psi1, psi1.conj()), rho1) + (1.0 - p1) * np.kron(
        np.outer(psi2, psi2.conj()), rho2
    )
    return TwoQubitState(chi)


def random_state(seed, rank: int = 4) -> TwoQubitState:
    """Random density matrix of the given rank, deterministic per seed.

    Draws a 4 x rank complex Gaussian matrix G and returns G G^dag normalized
    to unit trace. `seed` may be an int or a sequence of ints, as stream_key accepts.
    """
    if not _is_int(rank) or rank not in (1, 2, 3, 4):
        raise StateValidationError(f"rank must be 1..4, got {rank}")
    rng = _stream(stream_key(seed))
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return TwoQubitState(m / np.trace(m))


def state_from_dict(data: dict) -> TwoQubitState:
    """Parse the state file schema; unknown fields are rejected."""
    if not isinstance(data, dict):
        raise StateValidationError("state file must contain a JSON object")
    keys = set(data)
    if keys == {"matrix"}:
        raw = data["matrix"]
        try:
            if not all(len(e) == 2 and all(map(_is_real, e)) for row in raw for e in row):
                raise ValueError("an entry is not two real numbers")
            m = np.array([[complex(*e) for e in row] for row in raw], dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StateValidationError(
                "matrix entries must be [re, im] pairs in a 4x4 grid"
            ) from exc
        return TwoQubitState(m)
    if keys == {"family", "params"}:
        family, params = data["family"], data["params"]
        if not isinstance(family, str):
            raise StateValidationError(f"family must be a string, got {family!r}")
        if not isinstance(params, list) or not all(map(_is_real, params)):
            raise StateValidationError(f"params must be a list of numbers, got {params!r}")
        return make_family(family, params)
    raise StateValidationError(
        f"unrecognized state file fields {sorted(keys)}; expected "
        '{"matrix": ...} or {"family": ..., "params": ...}'
    )


def state_from_json(text: str) -> TwoQubitState:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateValidationError(f"state file is not valid JSON: {exc}") from exc
    return state_from_dict(data)
