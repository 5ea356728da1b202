"""Exact expectation values of pair-operator layouts on identical copies.

Because every copy has exactly one a-side and one b-side pair attached,
the copies and pairs form disjoint cycles that alternate sides. Each cycle
is contracted as a product of 4x4 bond matrices (a bond is the row/column
index pair of one qubit slot). A pair may carry a stack of edge tensors, an
open leg: a measured pair carries (complement, singlet), so one walk of a
setting's cycle yields every outcome pattern at once. A closed pair's edge
matrix is folded into the copy tensor before it: one product per call forms
every such factor, so a closed step is one 4x4 product. An open leg keeps
its two products, whose rounding the sampled route's draws depend on. The
walk plan, all that depends only on the edges, is cached; per call only the
matrix products run.
Intermediates hold at most 2^n * 16 complex entries for n measured pairs.
Only the dense oracle, capped at 4 copies, builds the full 4^n operator: real,
realigned, once per layout, and traced as a bilinear form in n / 2 factors of
vec(rho^T), never forming rho^(x) n, independently of the cycle walk.
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
    """The a-side pair operator, -4 P^- + I."""
    identity, singlet = PAIR_WEIGHTS["a"]
    return singlet * P_MINUS + identity * I4


def build_v() -> np.ndarray:
    """The b-side pair operator, -4 P^- + 2 I."""
    identity, singlet = PAIR_WEIGHTS["b"]
    return singlet * P_MINUS + identity * I4


# Flat indices of [C; C^T] in rho, the copy tensor C and its transpose stacked:
# C[(i_a, j_a), (i_b, j_b)] = rho[(j_a, j_b), (i_a, i_b)]
_COPY_INDEX = np.arange(16).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
_BOND_INDEX = _frozen(np.concatenate([_COPY_INDEX, _COPY_INDEX.T]))


def _edge_tensor(op: np.ndarray) -> np.ndarray:
    # E[(i_1, j_1), (i_2, j_2)] = op[(i_1, i_2), (j_1, j_2)]
    return np.asarray(op, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


# Edge-tensor stacks, built once: each pair kind, and a measured pair's outcome leg.
_EDGE_STACKS = {kind: _edge_tensor(op)[None] for kind, op in PAIR_KIND_MATRICES.items()}
_EDGE_STACKS["outcome"] = np.concatenate([_EDGE_STACKS["complement"], _EDGE_STACKS["singlet"]])


@lru_cache(maxsize=256)
def _walk_plan(edges: tuple[tuple[str, int, int, str], ...]):
    """Validated slots, cycle order and pre-shaped edge matrices of a walk; not state-dependent.

    Per cycle: the first edge's (4L, 4) stack; the steps; the last copy
    tensor's transposed flag; the result shape. Each step crosses a copy
    tensor (transposed from the b slot) to the next edge. A closed edge's step
    is the index 2j + flag of its folded factor, bond @ edge matrix j; an
    outcome leg's step is the flag and its (4, 4L) edge matrix. Then the axis
    order restoring edge order, and the closed edge matrices the steps use,
    each distinct one once, side by side as one (4, 4m) matrix (None when no
    edge is closed). A failed validation raises and is not cached.
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

    stacks = [_EDGE_STACKS[kind] for *_, kind in edges]
    blocks: dict[tuple[str, int], int] = {}  # (kind, end) of a closed edge -> j
    table, cycles, order = [], [], []
    for start_idx in range(len(edges)):
        if start_idx in order:
            continue
        side, lo, copy, _ = edges[start_idx]
        start = (lo, side)
        steps, cycle = [], [start_idx]
        while True:
            # across the copy tensor (transposed from the b slot), to the other slot
            transposed, side = side == "b", "b" if side == "a" else "a"
            if (copy, side) == start:
                break
            idx, end = incident[(copy, side)]
            _, lo, hi, kind = edges[idx]
            # [M_0 | M_1 | ...], each transposed when walked hi -> lo
            wide = stacks[idx].transpose((1, 0, 2) if end == 0 else (2, 0, 1)).reshape(4, -1)
            if kind == "outcome":
                steps.append((transposed, wide))
            else:
                j = blocks.setdefault((kind, end), len(table))
                if j == len(table):
                    table.append(wide)
                steps.append((2 * j + transposed, None))
            cycle.append(idx)
            copy = hi if end == 0 else lo
        shape = tuple(len(stacks[i]) for i in cycle)
        cycles.append((stacks[start_idx].reshape(-1, 4), tuple(steps), int(transposed), shape))
        order += cycle
    table = _frozen(np.hstack(table)) if table else None
    return tuple(cycles), tuple(sorted(range(len(order)), key=order.__getitem__)), table


def _contract(edges: tuple[tuple[str, int, int, str], ...], rho: np.ndarray) -> np.ndarray:
    """tr[(tensor of pair ops)(rho^(x) n)] for edges (side, lo, hi, kind | "outcome").

    An "outcome" edge carries the stack (complement, singlet); one result axis
    per edge, in edge order, picks its operator. Per call, on the cached plan,
    one index reads both bonds [C; C^T] off rho's 16 entries, and one
    (8, 4) @ (4, 4m) product folds each closed edge matrix the plan uses into
    either bond. A closed step is then one product with its factor bond @ edge,
    and a cycle of closed edges closes with a dot, tr(prod @ bond) =
    prod.reshape(16) @ bond^T.ravel(). An outcome leg takes two products, with
    the bond and then its (4, 4L) edge matrix, of the running (4K, 4) stack of
    partial products (K grows by L per leg); its cycle closes with the last
    bond and a trace per 4x4 block. Outcome legs are not folded because the
    sampled route draws from these bits: a pattern impossible up to rounding
    gets p = 0 from a clamped -1e-17 but stays positive at +1e-17, and numpy's
    multinomial consumes a seed's stream differently in the two cases, so
    reassociating the products would move sampled estimates.
    Real to IMAG_TOL.
    """
    cycles, axes, table = _walk_plan(edges)
    stacked = np.asarray(rho, dtype=complex).reshape(16)[_BOND_INDEX]
    bonds = (stacked[:4], stacked[:4].T)
    folded = None
    if table is not None:
        # factor 2j + t: bond t @ closed edge matrix j
        folded = (stacked @ table).reshape(2, 4, -1, 4).transpose(2, 0, 1, 3).reshape(-1, 4, 4)
    parts = []
    for prod, steps, last, shape in cycles:
        for step, wide in steps:
            if wide is None:
                # ndarray.dot dispatches faster than @ on small contiguous operands
                prod = prod.dot(folded[step])
            else:
                # each product's L results stacked below one another
                prod = prod @ bonds[step] @ wide
                prod = prod.reshape(-1, 4, wide.shape[1] // 4, 4).transpose(0, 2, 1, 3).reshape(-1, 4)
        if len(prod) == 4:  # no outcome leg in this cycle
            parts.append(prod.reshape(16).dot(stacked.reshape(2, 16)[1 - last]).reshape(shape))
        else:
            prod = prod @ bonds[last]
            parts.append(np.einsum("kii->k", prod.reshape(-1, 4, 4)).reshape(shape))

    total = reduce(np.multiply.outer, parts).transpose(axes)
    residue = float(abs(total.imag).max())
    if residue > IMAG_TOL:
        raise NumericalContractError(f"layout expectation has imaginary residue {residue:.3e}")
    return total.real


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
        raise NumericalContractError(
            f"pattern probability {flat.min():.3e} below -{NEG_PROB_TOL}"
        )
    probs = dict(zip(_pattern_keys(len(edges)), np.maximum(flat, 0.0).tolist()))
    norm = sum(probs.values())
    if abs(norm - 1.0) > PROB_SUM_TOL:
        raise NumericalContractError(
            f"joint distribution sums to {norm:.12g} before normalization"
        )
    probs = {k: v / norm for k, v in probs.items()}
    return OutcomeDistribution(setting, probs)
