"""Two-qubit density matrices: validation, Bloch form, and named families.

Everything works in the product basis |00>, |01>, |10>, |11|; the first
tensor factor is subsystem a, the second subsystem b, and the Pauli axes
are ordered (sigma^1, sigma^2, sigma^3) = (X, Y, Z). Constructors validate
their output, so any TwoQubitState or BlochForm in circulation satisfies
the module invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalContractError, StateValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
BLOCH_ENTRY_TOL = 1e-12
IMAG_TRACE_TOL = 1e-10

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

# Tensor-product Pauli bases, indexed [i] resp. [i, j].
SIGMA_A = np.stack([np.kron(PAULI[i], I2) for i in range(3)])
SIGMA_B = np.stack([np.kron(I2, PAULI[i]) for i in range(3)])
SIGMA_AB = np.stack(
    [np.stack([np.kron(PAULI[i], PAULI[j]) for j in range(3)]) for i in range(3)]
)

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
    a.flags.writeable = False
    return a


def _is_real(x) -> bool:  # a JSON number; a bool, though an int subclass, is not one
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:  # a count or a seed entry; a bool, though an int subclass, is neither
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated 4x4 density matrix (Hermitian, unit trace, PSD), kept C-ordered."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex, order="C")  # the oracle reads it as 32 floats
        if m.shape != (4, 4):
            raise StateValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise StateValidationError("entries must be finite: the matrix holds NaN or infinity")
        herm = float(np.max(np.abs(m - m.conj().T)))
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
        object.__setattr__(self, "matrix", _frozen(m))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


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
        worst = float(np.max(np.abs(np.concatenate([x, y, T.ravel()]))))
        if not worst <= 1.0 + BLOCH_ENTRY_TOL:  # NaN fails too
            raise StateValidationError(
                f"Bloch entries must lie in [-1, 1]; largest magnitude is {worst:.12g}"
            )
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "T", _frozen(T))


def decompose(state: TwoQubitState) -> BlochForm:
    """Bloch form of a state: x_i, y_i, and t_ij as Pauli expectation values."""
    rho = state.matrix
    x = np.einsum("iab,ba->i", SIGMA_A, rho)
    y = np.einsum("iab,ba->i", SIGMA_B, rho)
    T = np.einsum("ijab,ba->ij", SIGMA_AB, rho)
    residue = max(
        float(np.max(np.abs(x.imag))),
        float(np.max(np.abs(y.imag))),
        float(np.max(np.abs(T.imag))),
    )
    if residue > IMAG_TRACE_TOL:
        raise NumericalContractError(
            f"Pauli expectation values have imaginary residue {residue:.3e}"
        )
    return BlochForm(x.real, y.real, T.real)


def _bloch_matrix(x: np.ndarray, y: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(I + x.sigma (x) I + I (x) y.sigma + sum_ij t_ij sigma^i (x) sigma^j) / 4, unchecked."""
    return (
        I4
        + np.einsum("i,iab->ab", x, SIGMA_A)
        + np.einsum("i,iab->ab", y, SIGMA_B)
        + np.einsum("ij,ijab->ab", T, SIGMA_AB)
    ) / 4.0


def reconstruct(bloch: BlochForm) -> TwoQubitState:
    """State with the given Bloch data; rejects non-physical input."""
    rho = _bloch_matrix(bloch.x, bloch.y, bloch.T)
    lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if lowest < -POSITIVITY_TOL:
        raise StateValidationError(
            f"Bloch data is not physical: reconstructed matrix has eigenvalue "
            f"{lowest:.3e}"
        )
    return TwoQubitState(rho)


def _qubit_from_bloch(r: Sequence[float], label: str) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + BLOCH_ENTRY_TOL:
        raise StateValidationError(
            f"{label}: single-qubit Bloch vector has norm {norm:.12g} > 1"
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
    params = [float(v) for v in params]
    if name not in FAMILY_ARITY:
        raise StateValidationError(
            f"unknown family {name!r}; expected one of {sorted(FAMILY_ARITY)}"
        )
    if len(params) != FAMILY_ARITY[name]:
        raise StateValidationError(
            f"family {name!r} takes {FAMILY_ARITY[name]} parameters, got {len(params)}"
        )
    if not np.isfinite(params).all():
        raise StateValidationError(f"family {name!r}: parameters must be finite, got {params}")

    if name == "werner":
        p = params[0]
        if not 0.0 <= p <= 1.0:
            raise StateValidationError(f"werner: p = {p:.12g} outside [0, 1]")
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
        rho = (
            I4
            + c1 * SIGMA_AB[0, 0]
            + c2 * SIGMA_AB[1, 1]
            + c3 * SIGMA_AB[2, 2]
        ) / 4.0
        return TwoQubitState(rho)

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
        raise StateValidationError(f"classical_AB: p1 = {p1:.12g} outside [0, 1]")
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
    to unit trace. `seed` may be an int or a sequence of ints (stream key).
    """
    if not _is_int(rank) or rank not in (1, 2, 3, 4):
        raise StateValidationError(f"rank must be 1..4, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return TwoQubitState(m / np.trace(m))


def state_to_dict(state: TwoQubitState) -> dict:
    """JSON-ready form: {"matrix": [[[re, im] x4] x4]}."""
    return {
        "matrix": [
            [[float(v.real), float(v.imag)] for v in row] for row in state.matrix
        ]
    }


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


def state_to_json(state: TwoQubitState) -> str:
    return json.dumps(state_to_dict(state))


def state_from_json(text: str) -> TwoQubitState:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateValidationError(f"state file is not valid JSON: {exc}") from exc
    return state_from_dict(data)
