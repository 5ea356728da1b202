"""Exact expectation values of pair-operator layouts on identical copies.

Every copy has one a-side and one b-side pair attached, so copies and pairs
form disjoint cycles that alternate sides. In the Bloch basis sigma_mu (x)
sigma_nu (sigma_0 = I) a copy is its state's real Bloch matrix R = [[1, y^T],
[x, T]], TwoQubitState.R, and a pair operator is diagonal, so a cycle is the
trace of a product of real 4x4 factors diag(d) R and diag(d) R^T; the walks
never read rho. A measured pair's open leg, the factors (complement, singlet),
makes one walk yield every outcome pattern, kept as one vector in pattern
order. The walk plan is cached per edge structure and a layout's edges per
layout object; intermediates hold at most 2^n * 16 reals for n measured
pairs. Only the dense oracle, capped at 4 copies, builds the 4^n operator:
in the computational basis, real, realigned, once per layout, and traced as a
bilinear form in n / 2 factors of vec(rho^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import NumericalContractError
from .pairing import PairingLayout, PairOp, Setting
from .statekit import I4, SIGMA, SINGLET, TwoQubitState, _frozen

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
    """sum_i sigma^i (x) sigma^i, read off the Bloch basis rather than P^-."""
    return SIGMA[1, 1] + SIGMA[2, 2] + SIGMA[3, 3]


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


# Entry (c, mu, 4k + nu) of the factor stack is d_k[mu] C[mu, nu], C = (R, R^T)[c]:
# C[mu, nu] sits at _FACTOR_INDEX among R's raveled entries, d_k[mu] at _FACTOR_WEIGHT
_FACTOR_INDEX = _frozen(np.tile([np.arange(16).reshape(4, 4), np.arange(16).reshape(4, 4).T], 3))
_FACTOR_WEIGHT = _frozen(np.tile(np.array(list(_BLOCH_DIAGONALS.values())).T.repeat(4, 1), (2, 1, 1)))


def _factor_stack(r: np.ndarray) -> np.ndarray:
    """The (2, 4, 12) factor stack of a Bloch matrix r = R by one gather and one real product:
    for C = R, then C = R^T, the three factors diag(d) C side by side in _BLOCH_DIAGONALS order."""
    return r.take(_FACTOR_INDEX) * _FACTOR_WEIGHT


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


def _contract(edges: tuple[tuple[str, int, int, str], ...], r: np.ndarray) -> np.ndarray:
    """tr[(tensor of pair ops)(rho^(x) n)] for edges (side, lo, hi, kind | "outcome"), given
    rho's real Bloch matrix r = R (TwoQubitState.R, whose constructor checked it is real).

    An "outcome" edge carries the stack (complement, singlet); one result axis per
    edge, in edge order, picks its operator. Per call _factor_stack forms the six
    factors. The running stack holds row i of partial product k at row (i, k); a
    step multiplies it, as (4K, 4), by a (4, 4) factor or a leg's (4, 8) pair, read
    back as (8K, 4): k -> 2k + bit. A cycle closes with a trace per product.
    """
    cycles, shape, axes = _walk_plan(edges)
    factors = _factor_stack(r)
    parts = []
    for first, steps in cycles:
        prod = factors[first]
        for step in steps:
            # ndarray.dot dispatches faster than @ on small operands
            prod = prod.reshape(-1, 4).dot(factors[step])
        parts.append(prod.reshape(4, -1, 4).trace(axis1=0, axis2=2))
    return reduce(np.multiply.outer, parts).reshape(shape).transpose(axes)


@lru_cache(maxsize=256)
def _layout_edges(layout: PairingLayout) -> tuple[tuple[str, int, int, str], ...]:
    """A layout's walk edges, keyed by the layout object (a layout compares by identity)."""
    return tuple((p.side, *p.copies, p.kind) for p in layout.pairs)


def expect_layout(layout: PairingLayout, state: TwoQubitState) -> float:
    """tr[(pair operators of the layout)(state^(x) n_copies)]."""
    return _contract(_layout_edges(layout), state.R).item()


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

    The package's one pattern order: pattern j = sum_i bit_i 2^i, bit i the outcome
    of the setting's pair i, 1 for the singlet and 0 for its complement. The
    Kronecker product therefore runs from the last pair to the first.
    """
    return reduce(np.kron, [np.asarray(v) for v in reversed(per_pair)], np.ones(1, dtype=int))


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Joint outcome probabilities for one measurement setting.

    `p` holds one probability per pattern of `setting.pairs`, in pattern order (see
    pattern_product), read-only.
    """

    setting: Setting
    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        n_patterns = 2 ** len(self.setting.pairs)
        if p.shape != (n_patterns,):
            raise NumericalContractError(f"expected {n_patterns} patterns, got shape {p.shape}")
        # each check is written so that NaN fails it
        if not (np.isfinite(p).all() and p.min() >= 0.0):
            raise NumericalContractError("pattern probabilities must be finite and nonnegative")
        total = float(p.sum())
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise NumericalContractError(
                f"probabilities sum to {total:.12g}, off from 1 by more than {PROB_SUM_TOL}"
            )
        object.__setattr__(self, "p", _frozen(p))


def joint_distribution(setting: Setting, state: TwoQubitState) -> OutcomeDistribution:
    """Exact joint distribution of all pair outcomes for a setting.

    One walk of the matching with a (complement, singlet) leg on every pair gives all
    patterns, not renormalized; one below -NEG_PROB_TOL is an error, a smaller negative 0.
    """
    edges = tuple((p.side, *p.copies, "outcome") for p in setting.pairs)
    # pattern order (see pattern_product): reversed axes put pair 0's bit lowest
    flat = _contract(edges, state.R).T.reshape(-1)
    if flat.min() < -NEG_PROB_TOL:
        raise NumericalContractError(f"pattern probability {flat.min():.3e} below -{NEG_PROB_TOL}")
    return OutcomeDistribution(setting, np.maximum(flat, 0.0))
