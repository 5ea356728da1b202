"""Exact expectation values of pair-operator layouts on identical copies.

Every copy has one a-side and one b-side pair attached, so copies and pairs
form disjoint cycles that alternate sides. In the Bloch basis sigma_mu (x)
sigma_nu (sigma_0 = I) a copy is its real correlation matrix R = [[1, y^T],
[x, T]] and a pair operator is diagonal, so a cycle is the trace of a product of
real 4x4 factors diag(d) R and diag(d) R^T. A measured pair's open leg, the
factors (complement, singlet), makes one walk yield every outcome pattern. The
walk plan is cached per edge structure; intermediates hold at most 2^n * 16
reals for n measured pairs. Only the dense oracle, capped at 4 copies, builds
the 4^n operator: in the computational basis, real, realigned, once per layout,
and traced as a bilinear form in n / 2 factors of vec(rho^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import NumericalContractError
from .pairing import PairingLayout, PairOp, Setting
from .statekit import I4, PAULI, SINGLET, TwoQubitState, _frozen

IMAG_TOL = 1e-10
NEG_PROB_TOL = 1e-12
PROB_SUM_TOL = 1e-9

P_MINUS = SINGLET.copy()

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
    """The a-side pair operator, -4 P^- + I: U = diag(0, 1, 1, 1) = Pi in the Bloch basis.

    As build_v's V is the identity there, k U pairs and k V pairs on a cycle of 2k
    copies measure M_k = tr((Pi R R^T)^k) = tr K^k, K = [x T][x T]^T = x x^T + T T^T.
    """
    identity, singlet = PAIR_WEIGHTS["a"]
    return singlet * P_MINUS + identity * I4


def build_v() -> np.ndarray:
    """The b-side pair operator, -4 P^- + 2 I: the identity in the Bloch basis (see build_u)."""
    identity, singlet = PAIR_WEIGHTS["b"]
    return singlet * P_MINUS + identity * I4


# Each pair operator is sum_mu d_mu sigma_mu (x) sigma_mu in the Bloch basis: d per kind
_BLOCH_DIAGONALS = {
    "identity": (1.0, 0.0, 0.0, 0.0),
    "complement": (0.75, 0.25, 0.25, 0.25),
    "singlet": (0.25, -0.25, -0.25, -0.25),
}
# Each kind's columns in a (4, 12) block of the factor stack; an outcome leg takes the
# adjacent (complement, singlet)
_FACTOR_COLUMNS = {kind: slice(4 * k, 4 * k + 4) for k, kind in enumerate(_BLOCH_DIAGONALS)}
_FACTOR_COLUMNS["outcome"] = slice(4, 12)


def _factor_map() -> np.ndarray:
    """(96, 16) map of rho's entries to the (2, 4, 12) factor stack: for C = R, then
    C = R^T, the three factors diag(d) C side by side in _BLOCH_DIAGONALS order."""
    sigma = np.concatenate([np.eye(2)[None], PAULI])
    # R_mu,nu = tr(rho sigma_mu (x) sigma_nu) = vec(rho) . vec((sigma_mu (x) sigma_nu)^T)
    r_map = np.array([[np.kron(sm, sn).T.reshape(16) for sn in sigma] for sm in sigma])
    c_map = np.stack([r_map, r_map.transpose(1, 0, 2)])
    d = np.array(list(_BLOCH_DIAGONALS.values()))
    return _frozen((d.T[None, :, :, None, None] * c_map[:, :, None]).reshape(96, 16))


_FACTOR_MAP = _factor_map()


@lru_cache(maxsize=256)
def _walk_plan(edges: tuple[tuple[str, int, int, str], ...]):
    """Validated slots and cycle order of a walk; not state-dependent.

    Per cycle: the first edge's factor-stack index and the others' in walk order; then
    the result shape in walk order and the axis order restoring edge order. An index
    picks diag(d) C for the edge's kind (both outcome kinds for a leg), C = R^T where
    the walk crosses the next copy from its b slot, else R. A failed validation raises
    and is not cached.
    """
    incident: dict[tuple[int, str], tuple[int, int]] = {}  # slot -> (edge, the edge's other copy)
    for idx, (side, lo, hi, _) in enumerate(edges):
        for copy, other in ((lo, hi), (hi, lo)):
            slot = (copy, side)
            if slot in incident:
                raise ValueError(f"slot {slot} appears in more than one pair")
            incident[slot] = (idx, other)
    for copy in {copy for _, lo, hi, _ in edges for copy in (lo, hi)}:
        if (copy, "a") not in incident or (copy, "b") not in incident:
            raise ValueError(f"copy {copy} is not covered on both sides")

    cycles, order = [], []
    for start in range(len(edges)):
        if start in order:
            continue
        side, _, copy, _ = edges[start]
        idx, steps = start, []
        while True:
            # the edge, then across the copy tensor (transposed from the b slot) to the other slot
            steps.append((int(side == "b"), slice(None), _FACTOR_COLUMNS[edges[idx][3]]))
            order.append(idx)
            side = "b" if side == "a" else "a"
            idx, copy = incident[(copy, side)]
            if idx == start:
                break
        cycles.append((steps[0], tuple(steps[1:])))
    shape = tuple(2 if edges[i][3] == "outcome" else 1 for i in order)
    return tuple(cycles), shape, tuple(sorted(range(len(order)), key=order.__getitem__))


def _contract(edges: tuple[tuple[str, int, int, str], ...], rho: np.ndarray) -> np.ndarray:
    """tr[(tensor of pair ops)(rho^(x) n)] for edges (side, lo, hi, kind | "outcome").

    An "outcome" edge carries the stack (complement, singlet); one result axis
    per edge, in edge order, picks its operator. Per call one (96, 16) product
    forms the six factors diag(d) R and diag(d) R^T, real to IMAG_TOL. The
    running stack holds row r of partial product k at row (r, k); a step
    multiplies it, as (4K, 4), by a (4, 4) factor or a leg's (4, 8) pair, read
    back as (8K, 4): k -> 2k + bit. A cycle closes with a trace per product.
    """
    cycles, shape, axes = _walk_plan(edges)
    factors = _FACTOR_MAP @ np.asarray(rho, dtype=complex).reshape(16)
    residue = float(abs(factors.imag).max())
    if residue > IMAG_TOL:
        raise NumericalContractError(f"layout expectation has imaginary residue {residue:.3e}")
    factors = np.ascontiguousarray(factors.real).reshape(2, 4, 12)
    parts = []
    for first, steps in cycles:
        prod = factors[first]
        for step in steps:
            # ndarray.dot dispatches faster than @ on small operands
            prod = prod.reshape(-1, 4).dot(factors[step])
        parts.append(prod.reshape(4, -1, 4).trace(axis1=0, axis2=2))
    return reduce(np.multiply.outer, parts).reshape(shape).transpose(axes)


def expect_layout(layout: PairingLayout, state: TwoQubitState) -> float:
    """tr[(pair operators of the layout)(state^(x) n_copies)]."""
    return _contract(tuple((p.side, *p.copies, p.kind) for p in layout.pairs), state.matrix).item()


@lru_cache(maxsize=16)
def _dense_operator(n_copies: int, pairs: tuple[PairOp, ...]) -> np.ndarray:
    """The layout's full 4^n operator, read-only: the Kronecker product of the pairs' operators
    (real in this basis), each qubit axis moved to the qubit it acts on, realigned so that
    entry O[(i_1..i_n), (j_1..j_n)] sits at row (i_1 j_1, ..., i_n/2 j_n/2), copy c's i_c j_c."""
    qubits = [2 * (copy - 1) + (p.side == "b") for p in pairs for copy in p.copies]
    inv = list(np.argsort(qubits))
    # copy by copy: its two row qubit axes, then its two column qubit axes
    axes = [inv[q] + 2 * n_copies * j for c in range(0, 2 * n_copies, 2) for j in (0, 1) for q in (c, c + 1)]
    op = reduce(np.kron, [PAIR_KIND_MATRICES[p.kind].real for p in pairs])
    return _frozen(op.reshape([2] * (4 * n_copies)).transpose(axes).reshape(4**n_copies, -1))


def expect_layout_dense_oracle(layout: PairingLayout, state: TwoQubitState) -> float:
    """Same expectation via the full 4^n operator; verification oracle.

    Refuses 6 copies (the 4096-dimensional operator exceeds the memory
    budget this oracle is allowed). The realigned real operator is built once
    per layout; the trace is one bilinear form, tr(O rho^(x) n) = a^T O a with
    a = r (x) ... (x) r, n / 2 factors of r = vec(rho^T), so neither rho^(x) n
    nor a 4^n x 4^n product is formed. Its imaginary part is checked.
    """
    if layout.n_copies > 4:
        raise ValueError("dense oracle is limited to n_copies <= 4")
    op = _dense_operator(layout.n_copies, layout.pairs)
    a = reduce(np.multiply.outer, [state.matrix.T.reshape(16)] * (layout.n_copies // 2)).reshape(-1)
    total = a @ (op @ a.view(np.float64).reshape(-1, 2)).view(complex)[:, 0]
    if abs(total.imag) > IMAG_TOL:
        raise NumericalContractError(f"dense expectation has imaginary residue {total.imag:.3e}")
    return float(total.real)


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
            raise NumericalContractError(f"expected {2 ** n_pairs} patterns, got {len(self.probs)}")
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


@lru_cache(maxsize=8)
def _pattern_keys(n_pairs: int) -> tuple[tuple[int, ...], ...]:
    """Bit tuples of the 2^n patterns of n pairs, in pattern order (see pattern_product)."""
    return tuple(tuple((j >> i) & 1 for i in range(n_pairs)) for j in range(2**n_pairs))


def joint_distribution(setting: Setting, state: TwoQubitState) -> OutcomeDistribution:
    """Exact joint distribution of all pair outcomes for a setting.

    One walk of the matching with a (complement, singlet) leg on every pair
    gives all patterns; one below -NEG_PROB_TOL is an error, a smaller negative is 0.
    """
    edges = tuple((p.side, *p.copies, "outcome") for p in setting.pairs)
    # pattern order (see pattern_product): reversed axes put pair 0's bit lowest
    flat = _contract(edges, state.matrix).T.reshape(-1)
    if flat.min() < -NEG_PROB_TOL:
        raise NumericalContractError(f"pattern probability {flat.min():.3e} below -{NEG_PROB_TOL}")
    probs = dict(zip(_pattern_keys(len(edges)), np.maximum(flat, 0.0).tolist()))
    norm = sum(probs.values())
    if abs(norm - 1.0) > PROB_SUM_TOL:
        raise NumericalContractError(f"joint distribution sums to {norm:.12g} before normalization")
    return OutcomeDistribution(setting, {k: v / norm for k, v in probs.items()})
