"""Outcome vectors, moment recovery, and discord estimates.

The three measurement settings deliver the eleven outcome values c1..c11.
Spectrum moments of the K matrix are fixed polynomials in the c's; each
monomial corresponds to a subset of the setting's pairs, weighted by
contraction.PAIR_WEIGHTS and factorized over connected components of the
induced copy graph, read as runs of the subset's pairs along the setting's
cycles (pairing's one walk). The operative coefficient table is derived from that
expansion at import time. verify_moment_formulas audits a baseline
reference table against a direct tr(K^k) oracle and, when it is off,
validates the derived table, the paper's formula, on fresh states through
moments_from_outcomes and reports the diff. No route evaluates the table: both
read moment k off setting k's patterns by one product observable, the unfactorized
form of the same expansion, the exact route off the walked probabilities and the
sampled route off the counts. One integer matrix per side, _READOFF, turns counts
into c's and moments: its 0/1 hit columns and moment columns are contraction's, the
ones that read the exact c's and moments, Kronecker products of per-pair values
built by contraction.pattern_product, the one place that fixes the pattern order.
Side B reads its own outcomes, P_j in _SIDE_B_ORDER, and its own moment columns.
Sampled counts come from statekit._draw, the package's one draw function and draw
rule, handed the raw distributions, as one integer array. Both routes solve the
spectrum cubic with one scalar kernel, _spectrum_roots.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from itertools import groupby

import numpy as np

from .contraction import (_HIT_TABLE, _MOMENT_COLUMNS, PAIR_WEIGHTS, _standard_values, expect_layout,
                          joint_distribution)
from .errors import NumericalContractError, _is_int
from .gqd_core import GqdEstimate, _check_side, k_matrix
from .pairing import settings, standard_layouts
from .statekit import TwoQubitState, _draw, _frozen, _sampling_inputs, decompose, random_state

MOMENT_ORDERS = (1, 2, 3)
N_OUTCOMES = 11

EXACT_OUTCOME_TOL = 1e-12
POWER_MEAN_TOL = 1e-9
COMPLEX_ROOT_TOL = 1e-7
REPEATED_ROOT_DISC = 1e-12
AUDIT_TOL = 1e-6
DEFAULT_REPEATS = 20  # scheme-sampled's repeats when none are given

# Reference coefficient table, kept as shipped for auditing. Keys are sorted
# tuples of 1-based outcome indices; () is the constant term.
BASELINE_MOMENT_TABLE: dict[int, dict[tuple[int, ...], float]] = {
    1: {(1,): 16.0, (2,): -8.0, (3,): -4.0, (): 2.0},
    2: {
        (4,): 256.0,
        (7,): 128.0,
        (5,): -128.0,
        (6,): -256.0,
        (2,): -32.0,
        (3,): -16.0,
        (2, 2): 64.0,
        (3, 3): 16.0,
        (): 4.0,
    },
    3: {
        (8,): 4096.0,
        (2, 2, 2): -512.0,
        (3, 3, 3): -64.0,
        (2, 2): 384.0,
        (3, 3): 96.0,
        (2,): -96.0,
        (3,): 48.0,
        (7, 7): 1536.0,
        (2, 6): 3072.0,
        (3, 5): 768.0,
        (2, 7): -1536.0,
        (3, 7): -768.0,
        (2, 3): 192.0,
        (7,): 384.0,
        (11,): 3072.0,
        (5,): -384.0,
        (6,): -768.0,
        (9,): -3072.0,
        (10,): -6144.0,
        (): 8.0,
    },
}


# ---------------------------------------------------------------------------
# moment-table derivation


def _component_shapes(cycles, chosen) -> list[tuple[bool, int, int]]:
    """(is_cycle, #a pairs, #b pairs) of each connected component of the chosen pairs' copy graph.

    Each copy has one a slot and one b slot, so a component is a whole cycle of the layout's
    walk (pairing's `cycles`, a step's flag 1 on side b) or a maximal run of chosen pairs
    along one; its sides alternate, so these three numbers fix its shape.
    """
    shapes = []
    for cycle in cycles:
        cut = next((j for j, (i, _) in enumerate(cycle) if not chosen[i]), 0)  # no run wraps past it
        for hit, run in groupby(cycle[cut:] + cycle[:cut], lambda step: chosen[step[0]]):
            if hit:
                flags = [b for _, b in run]
                shapes.append((len(flags) == len(cycle), len(flags) - sum(flags), sum(flags)))
    return shapes


def _standard_shape_index() -> dict[tuple[bool, int, int], int]:
    table: dict[tuple[bool, int, int], int] = {}
    for i, layout in enumerate(standard_layouts()):
        shapes = _component_shapes(layout.cycles, [p.kind == "singlet" for p in layout.pairs])
        if len(shapes) != 1 or shapes[0] in table:
            raise NumericalContractError(f"{layout.label}'s singlets are not one new shape: {shapes}")
        table[shapes[0]] = i + 1
    return table


def derive_moment_table(order: int) -> dict[tuple[int, ...], float]:
    """Expand a moment over its setting's matching into outcome monomials.

    Every subset of the matching's pairs contributes the product of the
    PAIR_WEIGHTS singlet weights of its pairs and the identity weights of
    the others; the subset's expectation factorizes over the connected
    components of the copy graph, runs of its pairs along the setting's
    cycles, each matching one of the eleven standard outcomes by shape.
    """
    if order not in MOMENT_ORDERS:
        raise ValueError(f"moment order must be in {MOMENT_ORDERS}, got {order}")
    shape_index = _standard_shape_index()
    setting = settings()[order - 1]
    n = len(setting.pairs)
    table: dict[tuple[int, ...], float] = {}
    for mask in range(2**n):
        bits = [(mask >> i) & 1 for i in range(n)]
        coeff = float(math.prod(PAIR_WEIGHTS[p.side][bit] for p, bit in zip(setting.pairs, bits)))
        mono = tuple(sorted(shape_index[shape] for shape in _component_shapes(setting.cycles, bits)))
        table[mono] = table.get(mono, 0.0) + coeff
    return {k: v for k, v in table.items() if v != 0.0}


# Operative table: the derived expansion wins over the baseline reference.
MOMENT_TABLE: dict[int, dict[tuple[int, ...], float]] = {
    k: derive_moment_table(k) for k in MOMENT_ORDERS
}


def _eval_table(table: dict[tuple[int, ...], float], c: list[float]) -> float:
    total = 0.0
    for mono, coeff in table.items():
        term = coeff
        for idx in mono:
            term *= c[idx - 1]
        total += term
    return total


# ---------------------------------------------------------------------------
# outcome vectors


@dataclass(frozen=True, eq=False)
class OutcomeVector:
    """The eleven measurement outcome values c1..c11.

    Exact vectors hold probabilities from the contraction route (tiny
    negative rounding is clamped); sampled vectors hold empirical
    frequencies together with their shot count and stream key.
    """

    c: np.ndarray
    provenance: str
    shots: int | None = None
    seed: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.shape != (N_OUTCOMES,):
            raise ValueError(f"outcome vector must have shape (11,), got {c.shape}")
        values = c.tolist()
        inside = all(0.0 <= v <= 1.0 for v in values)  # NaN fails it
        if self.provenance == "exact":
            if not inside:
                if not all(-EXACT_OUTCOME_TOL <= v <= 1.0 + EXACT_OUTCOME_TOL for v in values):
                    raise NumericalContractError(
                        f"exact outcome outside [0, 1]: range [{c.min():.3e}, {c.max():.3e}]"
                    )
                c = [min(1.0, max(v, 0.0)) for v in values]  # as c.clip(0.0, 1.0), which keeps -0.0
        elif self.provenance == "sampled":
            if not inside:
                raise ValueError("sampled outcomes must lie in [0, 1]")
        else:
            raise ValueError(f"provenance must be 'exact' or 'sampled', got {self.provenance!r}")
        object.__setattr__(self, "c", _frozen(c))

    def as_dict(self) -> dict[str, float]:
        return {f"c{i + 1}": float(self.c[i]) for i in range(N_OUTCOMES)}


@dataclass(frozen=True)
class MomentTriple:
    """Power sums of the K spectrum, orders 1..3."""

    m1: float
    m2: float
    m3: float

    def as_dict(self) -> dict[str, float]:
        return {"M1": self.m1, "M2": self.m2, "M3": self.m3}


# Side-B outcome relabeling: (c2, c5, c9) swap with (c3, c6, c10).
_SIDE_B_ORDER = np.array([0, 2, 1, 3, 5, 4, 6, 7, 9, 8, 10])


def outcomes_exact(state: TwoQubitState, which: str = "A") -> OutcomeVector:
    """c_i = expectation of standard layout P_i on state copies, of P_j, j entry i of _SIDE_B_ORDER,
    on side B; a side other than A or B raises StateValidationError before any walk."""
    order = range(N_OUTCOMES) if _check_side(which) == "A" else _SIDE_B_ORDER.tolist()
    layouts = standard_layouts()
    return OutcomeVector(np.array([expect_layout(layouts[j], state) for j in order]), "exact")


# Per side, (84, 14) integer, read-only: the map from the three settings' pattern counts to shots times
# c1..c11, M1..M3. Rows the patterns of settings 1, 2, 3 in turn (4 + 16 + 64), each in pattern order;
# columns contraction's hit table (at the relabeled outcomes on side B), then the side's moment
# columns, which read the exact c's and moments off the walks.
_READOFF = {
    which: _frozen(np.concatenate((_HIT_TABLE[:, order], _MOMENT_COLUMNS[which]), axis=1))
    for which, order in (("A", slice(None)), ("B", _SIDE_B_ORDER))
}


def _sampled(state: TwoQubitState, key: tuple, repeats: int, shots: int, which: str) -> np.ndarray:
    """c1..c11 (side `which`) and M1..M3, one row per repeat."""
    p = [joint_distribution(s, state).p for s in settings()]
    return _draw(key, p, shots, repeats) @ _READOFF[which] / shots


def _checked_exact(m: MomentTriple) -> MomentTriple:
    """Exact moments, held to the power-mean bounds M1^2 / 3 <= M2 <= M1^2: a violation is a bug."""
    if m.m1 < -POWER_MEAN_TOL or m.m2 < -POWER_MEAN_TOL:
        raise NumericalContractError(f"exact moments must be nonnegative, got M1={m.m1:.3e}, M2={m.m2:.3e}")
    if not m.m1**2 / 3.0 - POWER_MEAN_TOL <= m.m2 <= m.m1**2 + POWER_MEAN_TOL:
        raise NumericalContractError(
            f"exact moments violate power-mean bounds: M1={m.m1:.12g}, M2={m.m2:.12g}")
    return m


def moments_from_outcomes(c: OutcomeVector) -> MomentTriple:
    """Evaluate the operative moment polynomials, the paper's formula, on an outcome vector;
    exact vectors are held to the power-mean bounds. verify_moment_formulas calls it."""
    c_list = c.c.tolist()
    m = MomentTriple(*[_eval_table(MOMENT_TABLE[k], c_list) for k in MOMENT_ORDERS])
    return _checked_exact(m) if c.provenance == "exact" else m


# ---------------------------------------------------------------------------
# moments -> spectrum


def _spectrum_roots(m1: float, m2: float, m3: float) -> tuple[list[float], float]:
    """Roots of the K spectrum's characteristic cubic and their largest |imaginary part|.

    Newton's identities give the cubic, solved in depressed form. A
    discriminant within REPEATED_ROOT_DISC of zero with a noise-level linear
    coefficient is a triple root at floating point resolution. Otherwise the
    trigonometric branch covers three real roots (its clamped arccos degrades
    gracefully to a double root), and the Cardano branch gives the real root
    and the real part of a conjugate pair. Closed repeated-root formulas are
    not used: at a discriminant near 1e-12 they can be off by 1e-3 where the
    trigonometric form stays exact to rounding.

    Plain floats give numpy's bits: + - * / and sqrt are correctly rounded
    and ** is libm pow for both. math.acos differs from np.arccos on some
    arguments, and array np.power from pow on some p**3 and x**(1/3), so
    arccos and cos stay numpy calls and each call solves one cubic.
    """
    e2 = (m1**2 - m2) / 2.0
    e3 = (m1**3 - 3.0 * m1 * m2 + 2.0 * m3) / 6.0
    p, q, r = -m1, e2, -e3  # e1 = m1
    shift = p / 3.0
    a = q - p * p / 3.0
    b = 2.0 * p**3 / 27.0 - p * q / 3.0 + r
    disc = -4.0 * a**3 - 27.0 * b * b
    if abs(disc) < REPEATED_ROOT_DISC and abs(a) < 1e-10:
        return [0.0 - shift] * 3, 0.0
    if disc >= 0.0:
        amp = 2.0 * math.sqrt(-a / 3.0)
        arg = min(max(3.0 * b / (2.0 * a) * math.sqrt(-3.0 / a), -1.0), 1.0)
        theta = float(np.arccos(arg))
        angles = [(theta - k) / 3.0 for k in (0.0, 2.0 * math.pi, 4.0 * math.pi)]
        return [amp * c - shift for c in np.cos(angles).tolist()], 0.0
    sq = b * b / 4.0 + a**3 / 27.0
    sq = math.sqrt(sq) if sq >= 0.0 else math.nan  # np.sqrt's nan below zero
    u3 = -b / 2.0 + sq if abs(-b / 2.0 + sq) >= abs(-b / 2.0 - sq) else -b / 2.0 - sq
    root = abs(u3) ** (1.0 / 3.0)
    u = root if u3 > 0.0 else -root if u3 < 0.0 else 0.0 * root  # np.sign(u3) * root
    v = 0.0 if u == 0.0 else -a / (3.0 * u)
    re = -(u + v) / 2.0
    # closer to zero, the conjugate pair is a double root at floating point resolution
    imag = abs(math.sqrt(3.0) * (u - v) / 2.0) if abs(disc) >= REPEATED_ROOT_DISC else 0.0
    return [u + v - shift, re - shift, re - shift], imag


def eigenvalues_from_moments(m: MomentTriple) -> np.ndarray:
    """The K spectrum from its power sums, descending, negative roots clamped to zero.

    A complex residue beyond COMPLEX_ROOT_TOL is an error. The sampled route takes
    real parts unconditionally: it calls _spectrum_roots itself.
    """
    if not all(map(math.isfinite, (m.m1, m.m2, m.m3))):
        raise NumericalContractError(f"moments must be finite, got {m}")
    roots, worst_imag = _spectrum_roots(m.m1, m.m2, m.m3)
    if worst_imag >= COMPLEX_ROOT_TOL:
        raise NumericalContractError(
            f"moment cubic has complex residue {worst_imag:.3e} on the exact route"
        )
    # as np.sort(np.maximum(roots, 0.0))[::-1]: a negative root or -0.0 reads 0.0, NaN stays NaN
    return np.array(sorted(0.0 if r <= 0.0 else r for r in roots)[::-1])


def estimate_gqd(
    state: TwoQubitState,
    mode: str = "scheme-exact",
    which: str = "A",
    shots: int | None = None,
    repeats: int | None = None,
    seed=None,
) -> GqdEstimate:
    """Discord estimate through the outcome -> moment -> spectrum pipeline.

    scheme-exact reads side `which`'s exact outcomes and its M1..M3, which contraction
    reads off the same walk with the sampled read-off's moment columns. scheme-sampled
    repeats the sampled pipeline `repeats` times, DEFAULT_REPEATS if None (repeat r of setting k is
    row r of the stream keyed by (seed, k + 1), so it does not move with
    `repeats`; statekit._draw makes every draw) and reports the mean value
    with the sample standard deviation across repeats as std_err. The counts are one
    (repeats, 84) integer array, and counts @ _READOFF[which] / shots gives
    every repeat's c's and M1..M3 in one product of exact integer sums; each
    repeat's cubic goes through the same _spectrum_roots as
    eigenvalues_from_moments, so the results equal a per-repeat loop's.
    A side other than A or B raises StateValidationError before any work, and
    scheme-exact given `shots`, `repeats` or `seed` raises ValueError. The reported `outcomes`
    are the mean c frequencies across repeats (permuted for side B); the sampled
    moments do not pass through them.
    """
    _check_side(which)
    if mode == "scheme-exact":
        given = " or ".join(name for name, v in zip(("shots", "repeats", "seed"), (shots, repeats, seed))
                            if v is not None)
        if given:
            raise ValueError(f"scheme-exact draws no samples, so it takes no {given}")
        c = outcomes_exact(state, which)
        m = _checked_exact(MomentTriple(*_standard_values(state)[1][which]))
        lam = tuple(eigenvalues_from_moments(m).tolist())
        return GqdEstimate((lam[1] + lam[2]) / 4.0, 0.0, lam, "scheme-exact", c, m)

    if mode != "scheme-sampled":
        raise ValueError(f"mode must be 'scheme-exact' or 'scheme-sampled', got {mode!r}")
    shots, base = _sampling_inputs(shots, seed, "scheme-sampled")
    repeats = DEFAULT_REPEATS if repeats is None else repeats
    if not _is_int(repeats):
        raise ValueError(f"scheme-sampled repeats must be an integer, got {repeats!r}")
    if repeats < 2:
        raise ValueError("scheme-sampled requires repeats >= 2")

    rows = _sampled(state, base, int(repeats), shots, which)  # C-contiguous (repeats, 14)
    roots = [_spectrum_roots(*m)[0] for m in rows[:, N_OUTCOMES:].tolist()]
    lams = np.sort(np.maximum(roots, 0.0), axis=1)[:, ::-1]
    values = (lams[:, 1] + lams[:, 2]) / 4.0

    means = rows.mean(axis=0)  # adds the repeats row by row, as a per-repeat loop's mean does
    mean_c = OutcomeVector(means[:N_OUTCOMES], "sampled", shots=shots, seed=base)
    mean_m = MomentTriple(*means[N_OUTCOMES:])
    mean_lam = tuple(lams.mean(axis=0).tolist())
    return GqdEstimate(
        float(values.mean()), float(values.std(ddof=1)), mean_lam, "scheme-sampled", mean_c, mean_m
    )


# ---------------------------------------------------------------------------
# coefficient audit


@dataclass(frozen=True, eq=False)
class MomentAuditReport:
    """Result of auditing the baseline moment table against tr(K^k)."""

    trials: int
    seed: int
    baseline_max_dev: dict[int, float]
    corrected_table: dict[int, dict[tuple[int, ...], float]] | None
    corrected_max_dev: dict[int, float] | None
    diff: list[dict]

    @property
    def baseline_ok(self) -> bool:
        return all(v <= AUDIT_TOL for v in self.baseline_max_dev.values())

    def to_dict(self) -> dict:
        def table_terms(table):
            return [
                {"monomial": list(mono), "coeff": float(coeff)}
                for mono, coeff in sorted(table.items())
            ]

        return {
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": AUDIT_TOL,
            "baseline_ok": self.baseline_ok,
            "baseline_max_dev": {str(k): v for k, v in self.baseline_max_dev.items()},
            "corrected_table": (
                None
                if self.corrected_table is None
                else {str(k): table_terms(t) for k, t in self.corrected_table.items()}
            ),
            "corrected_max_dev": (
                None
                if self.corrected_max_dev is None
                else {str(k): v for k, v in self.corrected_max_dev.items()}
            ),
            "diff": self.diff,
        }


def _max_dev(moments, states: list[TwoQubitState]) -> dict[int, float]:
    """Per order, the largest |M_k - tr(K^k)| over the states, M = moments(exact outcomes)."""
    got = np.array([astuple(moments(outcomes_exact(s))) for s in states])
    oracle = np.array([_oracle_moments(s) for s in states])
    return {k: float(np.max(np.abs(got[:, k - 1] - oracle[:, k - 1]))) for k in MOMENT_ORDERS}


def _baseline_moments(c: OutcomeVector) -> MomentTriple:
    return MomentTriple(*[_eval_table(BASELINE_MOMENT_TABLE[k], c.c.tolist()) for k in MOMENT_ORDERS])


def _audit_states(seed: int, offset: int, count: int) -> list[TwoQubitState]:
    return [random_state([seed, offset + t], rank=1 + t % 4) for t in range(count)]


def _oracle_moments(state: TwoQubitState) -> np.ndarray:
    k = k_matrix(decompose(state), "A").entries
    return np.array([np.trace(k).real, np.trace(k @ k).real, np.trace(k @ k @ k).real])


def verify_moment_formulas(trials: int = 200, seed: int = 0) -> MomentAuditReport:
    """Audit the baseline moment table against the tr(K^k) oracle.

    Evaluates the baseline polynomials on exact outcome vectors of random
    states and compares with tr(K^k). If any order deviates beyond
    AUDIT_TOL, the table derived from the pair expansion (MOMENT_TABLE) is
    validated against the oracle on as many fresh states, and its
    coefficient diff against the baseline is reported.
    """
    if not _is_int(trials) or trials < 30:
        raise ValueError(f"trials must be an integer >= 30, got {trials!r}")
    baseline_dev = _max_dev(_baseline_moments, _audit_states(seed, 0, trials))
    trials, seed = int(trials), int(seed)  # random_state accepted seed; report JSON ints
    if all(v <= AUDIT_TOL for v in baseline_dev.values()):
        return MomentAuditReport(trials, seed, baseline_dev, None, None, [])

    corrected = {k: dict(MOMENT_TABLE[k]) for k in MOMENT_ORDERS}
    corrected_dev = _max_dev(moments_from_outcomes, _audit_states(seed, trials, trials))
    diff = []
    for k in MOMENT_ORDERS:
        monos = sorted(set(BASELINE_MOMENT_TABLE[k]) | set(corrected[k]), key=lambda m: (len(m), m))
        for mono in monos:
            old = BASELINE_MOMENT_TABLE[k].get(mono, 0.0)
            new = corrected[k].get(mono, 0.0)
            if abs(old - new) > 1e-9:
                diff.append(
                    {
                        "order": k,
                        "monomial": list(mono),
                        "baseline": float(old),
                        "corrected": float(new),
                    }
                )
    return MomentAuditReport(trials, seed, baseline_dev, corrected, corrected_dev, diff)
