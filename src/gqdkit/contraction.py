"""Exact expectation values of pair-operator layouts on identical copies.

Because every copy has exactly one a-side and one b-side pair attached,
the copies and pairs form disjoint cycles that alternate sides. Each cycle
is contracted as a product of 4x4 bond matrices (a bond is the row/column
index pair of one qubit slot). A pair may carry a stack of edge tensors, an
open leg: a measured pair carries (complement, singlet), so one walk of a
setting's cycle yields every outcome pattern at once. Intermediates hold at
most 2^n * 16 complex entries for n measured pairs; the full 4^n operator is
materialized only by the dense oracle, which is capped at 4 copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NumericalContractError
from .pairing import PairingLayout, Setting
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


# Edge-tensor stacks, built once: each pair kind, and a measured pair's outcome leg.
_KIND_EDGES = {kind: _edge_tensor(op)[None] for kind, op in PAIR_KIND_MATRICES.items()}
_OUTCOME_EDGES = np.concatenate([_KIND_EDGES["complement"], _KIND_EDGES["singlet"]])


def _contract(edges: list[tuple[str, int, int, np.ndarray]], rho: np.ndarray) -> np.ndarray:
    """tr[(tensor of pair ops)(rho^(x) n)] for edges (side, lo, hi, (L, 4, 4) stack).

    One result axis per edge, in edge order, picks that edge's operator. Each
    alternating cycle is walked once; its partial products of 4x4 bond matrices
    are stacked as one (4K, 4) matrix, K growing by a factor L per edge. The
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
    parts, order = [], []
    for start_idx in range(len(edges)):
        if start_idx in order:
            continue
        side0, lo0, hi0, stack = edges[start_idx]
        start = (lo0, side0)
        prod = stack.reshape(-1, 4)
        cycle = [start_idx]
        cur = (hi0, side0)
        while cur != start:
            copy, side = cur
            prod = prod @ (C if side == "a" else C.T)
            cur = (copy, "b" if side == "a" else "a")
            if cur == start:
                break
            idx, end = incident[cur]
            side_e, lo, hi, stack = edges[idx]
            # times [M_0 | M_1 | ...] (each transposed when walked hi -> lo),
            # then for L > 1 each product's L results stacked below one another
            wide = stack.transpose(1, 0, 2) if end == 0 else stack.transpose(2, 0, 1)
            prod = prod @ wide.reshape(4, -1)
            if len(stack) > 1:
                prod = prod.reshape(-1, 4, len(stack), 4).transpose(0, 2, 1, 3).reshape(-1, 4)
            cycle.append(idx)
            cur = ((hi if end == 0 else lo), side_e)
        traces = np.einsum("kii->k", prod.reshape(-1, 4, 4))
        parts.append(traces.reshape([len(edges[i][3]) for i in cycle]))
        order += cycle

    axes = sorted(range(len(order)), key=order.__getitem__)
    total = reduce(np.multiply.outer, parts).transpose(axes)
    residue = float(abs(total.imag).max())
    if residue > IMAG_TOL:
        raise NumericalContractError(f"layout expectation has imaginary residue {residue:.3e}")
    return total.real


def expect_layout(layout: PairingLayout, state: TwoQubitState) -> float:
    """tr[(pair operators of the layout)(state^(x) n_copies)]."""
    edges = [(p.side, *p.copies, _KIND_EDGES[p.kind]) for p in layout.pairs]
    return _contract(edges, state.matrix).item()


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


def pattern_product(per_pair) -> np.ndarray:
    """Per-pattern product of one (complement, singlet) value pair per pair.

    Pattern order, here and in OutcomeDistribution keys: index sum_i bit_i 2^i,
    bit i (1: singlet, 0: complement) belonging to the setting's pair i. The
    Kronecker product therefore runs from the last pair to the first.
    """
    return reduce(np.kron, [np.asarray(v) for v in reversed(per_pair)], np.ones(1, dtype=int))


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Joint outcome probabilities for one measurement setting.

    Keys are bit tuples aligned with `setting.pairs`, in pattern order; bit
    1 means the pair projected onto the singlet, bit 0 onto its complement.
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

    One walk of the matching with a (complement, singlet) leg on every pair
    gives all patterns; one below -NEG_PROB_TOL is an error, a smaller negative is 0.
    """
    edges = [(p.side, *p.copies, _OUTCOME_EDGES) for p in setting.pairs]
    # pattern order (see pattern_product): reversed axes put pair 0's bit lowest
    flat = _contract(edges, state.matrix).T.reshape(-1)
    if flat.min() < -NEG_PROB_TOL:
        raise NumericalContractError(
            f"pattern probability {flat.min():.3e} below -{NEG_PROB_TOL}"
        )
    n = len(edges)
    keys = [tuple((j >> i) & 1 for i in range(n)) for j in range(2**n)]
    probs = dict(zip(keys, np.maximum(flat, 0.0).tolist()))
    norm = sum(probs.values())
    if abs(norm - 1.0) > PROB_SUM_TOL:
        raise NumericalContractError(
            f"joint distribution sums to {norm:.12g} before normalization"
        )
    probs = {k: v / norm for k, v in probs.items()}
    return OutcomeDistribution(setting, probs)
