"""Exact expectation values of the standard layouts and joint distributions of the settings.

Every copy has one a-side and one b-side pair attached, so copies and pairs
form cycles that alternate sides. In the Bloch basis sigma_mu (x) sigma_nu
(sigma_0 = I) a copy is its state's real Bloch matrix R = [[1, y^T], [x, T]],
TwoQubitState.R, and a pair operator is diagonal, so a cycle is the trace of a
product of real 4x4 factors diag(d) R and diag(d) R^T; the walk never reads rho.
The three settings are one cycle each, setting k's legs the first 2k of setting
3's, so there is one walk, _walk_legs: setting 3's cycle with a measured pair's
open leg, the factors (complement, singlet), on every pair, traced after legs 2,
4 and 6 (its plan made and checked at import). It gives a state's 84 outcome
patterns, the settings' in turn, and the last state keeps them (_walked): a
setting's distribution is its rows, and P1..P11 and both sides' M1..M3 are read
off them by the hit table (a singlet pair picks the singlet, an identity pair sums
both) and each side's moment columns, as the sampled read-off reads its counts.
expect_layout takes only P1..P11 and joint_distribution only the three settings,
each by identity. Only the dense oracle, which takes any matching of at most 4
copies, builds the 4^n operator: in the computational basis, real, realigned, once
per layout, and traced as a bilinear form in n / 2 factors of vec(rho^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from .errors import NumericalContractError
from .pairing import _SETTINGS, PairingLayout, PairOp, Setting, standard_layouts
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

# Entry (c, mu, 4j + nu) of the leg stack is d_j[mu] C[mu, nu], C = (R, R^T)[c], j in (complement,
# singlet): an outcome leg's two factors side by side. C[mu, nu] sits at _LEG_INDEX among R's
# raveled entries, d_j[mu] at _LEG_WEIGHT.
_LEG_INDEX = _frozen(np.tile([np.arange(16).reshape(4, 4), np.arange(16).reshape(4, 4).T], 2))
_LEG_WEIGHT = _frozen(
    np.tile(np.array([_BLOCH_DIAGONALS[k] for k in ("complement", "singlet")]).T.repeat(4, 1), (2, 1, 1))
)


def _leg_stack(state: TwoQubitState) -> np.ndarray:
    """The state's (2, 4, 8) leg stack, by one gather of R and one real product."""
    return state.R.take(_LEG_INDEX) * _LEG_WEIGHT


def pattern_product(per_pair) -> np.ndarray:
    """Per-pattern product of one (complement, singlet) value pair per pair.

    The package's one pattern order: pattern j = sum_i bit_i 2^i, bit i the outcome
    of the setting's pair i, 1 for the singlet and 0 for its complement. The
    Kronecker product therefore runs from the last pair to the first.
    """
    per_pair = [np.asarray(v) for v in reversed(per_pair)]
    return reduce(np.multiply.outer, per_pair, np.ones(1, dtype=int)).reshape(-1)


# A closed pair read off its measured outcomes (complement, singlet): a singlet picks, an identity sums
_HIT_WEIGHTS = {"singlet": (0, 1), "identity": (1, 1)}


def _hits(layout: PairingLayout) -> np.ndarray:
    """0/1 per pattern of the layout's own matching: 1 where every pair shows what it picks."""
    return pattern_product([_HIT_WEIGHTS[p.kind] for p in layout.pairs])


_STANDARD = {layout: j for j, layout in enumerate(standard_layouts())}  # keyed by the object
# (84, 11) 0/1, read-only: rows the patterns of settings 1, 2, 3 in turn, column j P_j's hits on its
# setting's rows (a covered layout stores its pairs in setting order), 0 elsewhere
_HIT_TABLE = _frozen(np.concatenate([
    np.column_stack([_hits(lay) if lay.label in s.covered else np.zeros(2 ** len(s.pairs), dtype=np.int64)
                     for lay in _STANDARD])
    for s in _SETTINGS
]))


# Per side, (84, 3) integer, read-only, rows as the hit table's: column k - 1 setting k's observable on
# its rows, the product over its pairs of w_I (complement) or w_I + w_S (singlet) from PAIR_WEIGHTS,
# side B (K') swapping the pairs' sides: tr(K^k) expanded per pair, so it reads M_k off exact patterns
_MOMENT_COLUMNS = {
    which: _frozen(np.concatenate([
        np.outer(pattern_product([(w[p.side][0], sum(w[p.side])) for p in s.pairs]), unit)
        for s, unit in zip(_SETTINGS, np.eye(3, dtype=np.int64))
    ]))
    for which, w in (("A", PAIR_WEIGHTS), ("B", {"a": PAIR_WEIGHTS["b"], "b": PAIR_WEIGHTS["a"]}))
}
# as floats for the exact products (same bits; numpy would cast the integers on every product)
_EXACT_READOFFS = tuple(_frozen(t.astype(float)) for t in (_HIT_TABLE, *_MOMENT_COLUMNS.values()))


@lru_cache(maxsize=1)
def _walked(state: TwoQubitState) -> np.ndarray:
    """The last state's 84 patterns, keyed by the object, read-only: the three settings' patterns in
    turn, each in pattern order, from one gather of R and one chained walk."""
    return _frozen(_walk_legs(_leg_stack(state)))


@lru_cache(maxsize=1)
def _standard_values(state: TwoQubitState) -> tuple[tuple[float, ...], dict[str, tuple[float, ...]]]:
    """The last state's c1..c11 and each side's M1..M3, keyed by the object: its 84 walked patterns'
    products with the hit table and each side's moment columns, one product each."""
    patterns = _walked(state)
    c, m_a, m_b = (tuple((patterns @ table).tolist()) for table in _EXACT_READOFFS)
    return c, {"A": m_a, "B": m_b}


def expect_layout(layout: PairingLayout, state: TwoQubitState) -> float:
    """tr[(pair operators of the layout)(state^(x) n_copies)] for one of P1..P11, one of the
    state's eleven values read off its chained walk. Any other layout, a rebuilt copy of a
    standard one included (layouts compare by identity), raises ValueError before any walk."""
    try:
        j = _STANDARD[layout]
    except (KeyError, TypeError):
        raise ValueError(f"{getattr(layout, 'label', None) or 'layout'} is not one of P1..P11") from None
    return _standard_values(state)[0][j]


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
        if not (p.min() >= 0.0 and p.max() < np.inf):
            raise NumericalContractError("pattern probabilities must be finite and nonnegative")
        total = float(p.sum())
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise NumericalContractError(
                f"probabilities sum to {total:.12g}, off from 1 by more than {PROB_SUM_TOL}"
            )
        object.__setattr__(self, "p", _frozen(p))


def _chain_plan(chain: tuple[Setting, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...], np.ndarray]:
    """One walk for settings of one cycle each whose leg sequences nest, each a proper prefix of
    the next: the leg-stack index of the last setting's first step and of the others, the lengths
    after which a trace ends each setting, and the gather taking the traces, side by side, to
    each setting's pattern order in turn. Settings that do not nest raise NumericalContractError."""
    legs = [tuple(t for _, t in s.cycles[0]) for s in chain]
    if any(len(s.cycles) != 1 for s in chain) or any(
            len(a) >= len(b) or b[:len(a)] != a for a, b in zip(legs, legs[1:])):
        raise NumericalContractError(f"the settings' leg walks do not nest: {legs}")
    first, *steps = legs[-1]
    # bit i of a pattern's index is pair i's outcome (see pattern_product); a trace's index holds the
    # outcome of the k-th of the n pairs walked at bit n - 1 - k
    gathers = [sum(((np.arange(2 ** len(c)) >> i) & 1) << (len(c) - 1 - k) for k, (i, _) in enumerate(c))
               for c in (s.cycles[0] for s in chain)]
    starts = accumulate(map(len, gathers), initial=0)
    gather = np.concatenate([g + start for g, start in zip(gathers, starts)])
    return first, tuple(steps), tuple(map(len, legs)), _frozen(gather)


# The protocol's settings are one cycle each, setting k's legs the first 2k of setting 3's, so one
# walk of setting 3's cycle, traced after legs 2, 4 and 6, gives all three; checked at import
_CHAIN = _chain_plan(_SETTINGS)
# Each protocol setting's rows among the chained walk's 84 patterns
_SETTING_ROWS = {
    s: slice(end - 2 ** len(s.pairs), end)
    for s, end in zip(_SETTINGS, accumulate(2 ** len(s.pairs) for s in _SETTINGS))
}


def _walk_legs(legs: np.ndarray) -> np.ndarray:
    """The three settings' 84 pattern probabilities, in turn, each in pattern order, from one
    chained walk (_CHAIN) of setting 3's cycle with a (complement, singlet) leg on every pair,
    given the state's leg stack.

    The running stack holds row i of partial product k at row (i, k); a step multiplies
    it, as (4K, 4), by a leg's (4, 8) factor pair, read back as (8K, 4): k -> 2k + bit. A
    trace per product ends a setting after its legs.
    """
    first, steps, closes, gather = _CHAIN
    prod, traces = legs[first], []
    for n, step in enumerate(steps, 2):
        prod = prod.reshape(-1, 4).dot(legs[step])
        if n in closes:
            traces.append(prod.reshape(4, -1, 4).trace(axis1=0, axis2=2))
    return np.concatenate(traces).take(gather)


def joint_distribution(setting: Setting, state: TwoQubitState) -> OutcomeDistribution:
    """Exact joint distribution of all pair outcomes for one of the three protocol settings.

    Its patterns are its rows of the state's chained walk, not renormalized; one below
    -NEG_PROB_TOL is an error, a smaller negative 0. Any other setting, even one rebuilt on
    a protocol setting's pairs, raises ValueError before any walk.
    """
    try:
        rows = _SETTING_ROWS[setting]
    except (KeyError, TypeError):
        name = getattr(getattr(setting, "layout", None), "label", None) or "setting"
        raise ValueError(f"{name} is not one of the three protocol settings") from None
    flat = _walked(state)[rows]
    if flat.min() < -NEG_PROB_TOL:
        raise NumericalContractError(f"pattern probability {flat.min():.3e} below -{NEG_PROB_TOL}")
    return OutcomeDistribution(setting, np.maximum(flat, 0.0))
