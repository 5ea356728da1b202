"""Exact expectation values of pair-operator layouts on identical copies.

Because every copy has exactly one a-side and one b-side pair attached,
the copies and pairs form disjoint cycles that alternate sides. Each cycle
is contracted as a product of 4x4 bond matrices (a bond is the row/column
index pair of one qubit slot), so no intermediate ever exceeds 4^4 complex
entries; the full 4^n operator is materialized only by the dense oracle,
which is capped at 4 copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NumericalContractError
from .pairing import PairingLayout, PairOp, Setting
from .statekit import PAULI, SINGLET, TwoQubitState

IMAG_TOL = 1e-10
NEG_PROB_TOL = 1e-12
PROB_SUM_TOL = 1e-9

P_MINUS = SINGLET.copy()
I4 = np.eye(4, dtype=complex)

PAIR_KIND_MATRICES = {
    "singlet": P_MINUS,
    "identity": I4,
    "complement": I4 - P_MINUS,
}

# (identity weight, singlet weight) of each side's pair operator; the moment
# expansion, its audit and the sampled moment read-off all derive from it.
PAIR_WEIGHTS = {"a": (1, -4), "b": (2, -4)}


def pauli_exchange_sum() -> np.ndarray:
    """sum_i sigma^i (x) sigma^i, built directly from the Pauli matrices."""
    return sum(np.kron(PAULI[i], PAULI[i]) for i in range(3))


def build_u() -> np.ndarray:
    """The a-side pair operator, -4 P^- + I."""
    identity, singlet = PAIR_WEIGHTS["a"]
    return singlet * P_MINUS + identity * I4


def build_v() -> np.ndarray:
    """The b-side pair operator, -4 P^- + 2 I."""
    identity, singlet = PAIR_WEIGHTS["b"]
    return singlet * P_MINUS + identity * I4


def _copy_tensor(rho: np.ndarray) -> np.ndarray:
    # C[(i_a, j_a), (i_b, j_b)] = rho[(j_a, j_b), (i_a, i_b)]
    return rho.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def _edge_tensor(op: np.ndarray) -> np.ndarray:
    # E[(i_1, j_1), (i_2, j_2)] = op[(i_1, i_2), (j_1, j_2)]
    return np.asarray(op, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def _contract(edges: list[tuple[str, int, int, np.ndarray]], rho: np.ndarray) -> float:
    """tr[(tensor of pair ops)(rho^(x) n)] for edges (side, lo, hi, op4x4).

    Walks each alternating cycle once, multiplying 4x4 bond matrices; the
    result must be real to IMAG_TOL.
    """
    incident: dict[tuple[int, str], tuple[int, int]] = {}
    for idx, (side, lo, hi, _) in enumerate(edges):
        for end, copy in enumerate((lo, hi)):
            slot = (copy, side)
            if slot in incident:
                raise ValueError(f"slot {slot} appears in more than one pair")
            incident[slot] = (idx, end)
    copies = {copy for _, lo, hi, _ in edges for copy in (lo, hi)}
    for copy in copies:
        if (copy, "a") not in incident or (copy, "b") not in incident:
            raise ValueError(f"copy {copy} is not covered on both sides")

    C = _copy_tensor(np.asarray(rho, dtype=complex))
    edge_mats = [_edge_tensor(op) for _, _, _, op in edges]

    total = 1.0 + 0.0j
    visited = [False] * len(edges)
    for start_idx in range(len(edges)):
        if visited[start_idx]:
            continue
        side0, lo0, hi0, _ = edges[start_idx]
        start = (lo0, side0)
        prod = edge_mats[start_idx]
        visited[start_idx] = True
        cur = (hi0, side0)
        while cur != start:
            copy, side = cur
            other_side = "b" if side == "a" else "a"
            prod = prod @ (C if side == "a" else C.T)
            cur = (copy, other_side)
            if cur == start:
                break
            idx, end = incident[cur]
            side_e, lo, hi, _ = edges[idx]
            mat = edge_mats[idx]
            if end == 1:
                mat = mat.T
            prod = prod @ mat
            visited[idx] = True
            cur = ((hi if end == 0 else lo), side_e)
        total *= np.trace(prod)

    if abs(total.imag) > IMAG_TOL:
        raise NumericalContractError(
            f"layout expectation has imaginary residue {total.imag:.3e}"
        )
    return float(total.real)


def _edges_from_pairs(
    pairs: tuple[PairOp, ...], kinds: list[str] | None = None
) -> list[tuple[str, int, int, np.ndarray]]:
    kinds = kinds or [p.kind for p in pairs]
    return [
        (p.side, p.copies[0], p.copies[1], PAIR_KIND_MATRICES[kind])
        for p, kind in zip(pairs, kinds)
    ]


def expect_layout(layout: PairingLayout, state: TwoQubitState) -> float:
    """tr[(pair operators of the layout)(state^(x) n_copies)]."""
    return _contract(_edges_from_pairs(layout.pairs), state.matrix)


def _expect_pattern(pairs: tuple[PairOp, ...], kinds: list[str], state: TwoQubitState) -> float:
    # generic per-pair kinds, including "complement"; used for cross-checks
    return _contract(_edges_from_pairs(pairs, kinds), state.matrix)


def _embed_pair(op: np.ndarray, q1: int, q2: int, n_qubits: int) -> np.ndarray:
    """Embed a two-qubit operator on qubits (q1, q2) of an n-qubit register."""
    perm = [q1, q2] + [q for q in range(n_qubits) if q not in (q1, q2)]
    full = np.kron(np.asarray(op, dtype=complex), np.eye(2 ** (n_qubits - 2)))
    t = full.reshape([2] * (2 * n_qubits))
    inv = np.argsort(perm)
    t = t.transpose(list(inv) + [n_qubits + i for i in inv])
    return t.reshape(2**n_qubits, 2**n_qubits)


def expect_layout_dense_oracle(layout: PairingLayout, state: TwoQubitState) -> float:
    """Same expectation via the full 4^n operator; verification oracle.

    Refuses 6 copies (the 4096-dimensional operator exceeds the memory
    budget this oracle is allowed).
    """
    if layout.n_copies > 4:
        raise ValueError("dense oracle is limited to n_copies <= 4")
    n_qubits = 2 * layout.n_copies
    op_full = np.eye(2**n_qubits, dtype=complex)
    for p in layout.pairs:
        q1 = 2 * (p.copies[0] - 1) + (0 if p.side == "a" else 1)
        q2 = 2 * (p.copies[1] - 1) + (0 if p.side == "a" else 1)
        op_full = op_full @ _embed_pair(PAIR_KIND_MATRICES[p.kind], q1, q2, n_qubits)
    rho_full = reduce(np.kron, [state.matrix] * layout.n_copies)
    val = complex(np.trace(op_full @ rho_full))
    if abs(val.imag) > IMAG_TOL:
        raise NumericalContractError(
            f"dense expectation has imaginary residue {val.imag:.3e}"
        )
    return float(val.real)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Joint outcome probabilities for one measurement setting.

    Keys are bit tuples aligned with `setting.pairs`; bit 1 means the pair
    projected onto the singlet, bit 0 onto its complement.
    """

    setting: Setting
    probs: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        n_pairs = len(self.setting.pairs)
        if len(self.probs) != 2**n_pairs:
            raise NumericalContractError(
                f"expected {2 ** n_pairs} patterns, got {len(self.probs)}"
            )
        total = sum(self.probs.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise NumericalContractError(
                f"probabilities sum to {total:.12g}, off from 1 by more than {PROB_SUM_TOL}"
            )

    def patterns(self) -> list[tuple[int, ...]]:
        return list(self.probs.keys())

    def vector(self) -> np.ndarray:
        return np.array(list(self.probs.values()), dtype=float)

    def marginal_singlet(self, pair_index: int) -> float:
        return sum(p for pat, p in self.probs.items() if pat[pair_index] == 1)


def joint_distribution(setting: Setting, state: TwoQubitState) -> OutcomeDistribution:
    """Exact joint distribution of all pair outcomes for a setting.

    Complement outcomes are expanded by inclusion-exclusion over
    singlet/identity layouts (I - P^- = identity - singlet per pair), using
    one precomputed expectation per singlet subset; each pattern is summed
    in a fixed subset order.
    """
    pairs = setting.pairs
    n = len(pairs)
    expect_by_mask = np.empty(2**n)
    for mask in range(2**n):
        kinds = ["singlet" if (mask >> i) & 1 else "identity" for i in range(n)]
        expect_by_mask[mask] = _expect_pattern(pairs, kinds, state)

    probs: dict[tuple[int, ...], float] = {}
    full = 2**n - 1
    for pattern in range(2**n):
        zeros = full & ~pattern
        total = 0.0
        sub = zeros
        while True:
            total += (-1.0) ** int(sub).bit_count() * expect_by_mask[pattern | sub]
            if sub == 0:
                break
            sub = (sub - 1) & zeros
        if total < -NEG_PROB_TOL:
            raise NumericalContractError(
                f"pattern probability {total:.3e} below -{NEG_PROB_TOL}"
            )
        bits = tuple((pattern >> i) & 1 for i in range(n))
        probs[bits] = max(total, 0.0)

    norm = sum(probs.values())
    if abs(norm - 1.0) > PROB_SUM_TOL:
        raise NumericalContractError(
            f"joint distribution sums to {norm:.12g} before normalization"
        )
    probs = {k: v / norm for k, v in probs.items()}
    return OutcomeDistribution(setting, probs)
