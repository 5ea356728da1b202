"""Outcome vectors, moment recovery, and discord estimates.

The three measurement settings deliver the eleven outcome values c1..c11.
Spectrum moments of the K matrix are fixed polynomials in the c's; each
monomial corresponds to a subset of the setting's pairs, weighted by
contraction.PAIR_WEIGHTS and factorized over connected components of the
induced copy graph. The operative coefficient table is derived from that
expansion at import time. verify_moment_formulas audits a baseline
reference table against a direct tr(K^k) oracle and, when it is off,
validates the derived table on fresh states and reports the diff. The exact
route evaluates the table; the sampled route reads moment k off setting k's
counts as the mean of one product observable, the unfactorized form of the
same expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contraction import PAIR_WEIGHTS, OutcomeDistribution, expect_layout, joint_distribution
from .errors import NumericalContractError
from .gqd_core import k_matrix
from .pairing import settings, standard_layouts
from .statekit import TwoQubitState, decompose, random_state

MOMENT_ORDERS = (1, 2, 3)
N_OUTCOMES = 11

EXACT_OUTCOME_TOL = 1e-12
POWER_MEAN_TOL = 1e-9
COMPLEX_ROOT_TOL = 1e-7
REPEATED_ROOT_DISC = 1e-12
AUDIT_TOL = 1e-6

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


def _components(edges: list[tuple[str, int, int]]) -> list[list[tuple[str, int, int]]]:
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        parent.setdefault(c, c)
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for _, lo, hi in edges:
        ra, rb = find(lo), find(hi)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[tuple[str, int, int]]] = {}
    for edge in edges:
        groups.setdefault(find(edge[1]), []).append(edge)
    return list(groups.values())


def _shape_key(edges: list[tuple[str, int, int]]) -> tuple[bool, int, int]:
    """(is_cycle, #a edges, #b edges) of a connected subgraph of pair edges.

    Each copy has one a slot and one b slot, so a component alternates sides
    and is a path or a cycle; these three numbers fix its shape.
    """
    copies = {c for _, lo, hi in edges for c in (lo, hi)}
    sides = [side for side, _, _ in edges]
    return (len(edges) == len(copies), sides.count("a"), sides.count("b"))


def _standard_shape_index() -> dict[tuple[bool, int, int], int]:
    table: dict[tuple[bool, int, int], int] = {}
    for i, layout in enumerate(standard_layouts()):
        singlet_edges = [
            (p.side, p.copies[0], p.copies[1])
            for p in layout.pairs
            if p.kind == "singlet"
        ]
        comps = _components(singlet_edges)
        if len(comps) != 1:
            raise NumericalContractError(
                f"standard layout {layout.label} has {len(comps)} singlet components"
            )
        key = _shape_key(comps[0])
        if key in table:
            raise NumericalContractError(f"duplicate singlet shape {key}")
        table[key] = i + 1
    return table


def derive_moment_table(order: int) -> dict[tuple[int, ...], float]:
    """Expand a moment over its setting's matching into outcome monomials.

    Every subset of the matching's pairs contributes the product of the
    PAIR_WEIGHTS singlet weights of its pairs and the identity weights of
    the others; the subset's expectation factorizes over the connected
    components of the copy graph, each matching one of the eleven standard
    outcomes by shape.
    """
    if order not in MOMENT_ORDERS:
        raise ValueError(f"moment order must be in {MOMENT_ORDERS}, got {order}")
    shape_index = _standard_shape_index()
    pairs = settings()[order - 1].pairs
    n = len(pairs)
    table: dict[tuple[int, ...], float] = {}
    for mask in range(2**n):
        bits = [(mask >> i) & 1 for i in range(n)]
        coeff = float(math.prod(PAIR_WEIGHTS[p.side][bit] for p, bit in zip(pairs, bits)))
        edges = [(p.side, p.copies[0], p.copies[1]) for p, bit in zip(pairs, bits) if bit]
        mono = tuple(sorted(shape_index[_shape_key(comp)] for comp in _components(edges)))
        table[mono] = table.get(mono, 0.0) + coeff
    return {k: v for k, v in table.items() if v != 0.0}


# Operative table: the derived expansion wins over the baseline reference.
MOMENT_TABLE: dict[int, dict[tuple[int, ...], float]] = {
    k: derive_moment_table(k) for k in MOMENT_ORDERS
}


def _eval_table(table: dict[tuple[int, ...], float], c: np.ndarray) -> float:
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
        if self.provenance == "exact":
            if np.min(c) < -EXACT_OUTCOME_TOL or np.max(c) > 1.0 + EXACT_OUTCOME_TOL:
                raise NumericalContractError(
                    f"exact outcome outside [0, 1]: range [{c.min():.3e}, {c.max():.3e}]"
                )
            c = np.clip(c, 0.0, 1.0)
        elif self.provenance == "sampled":
            if np.min(c) < 0.0 or np.max(c) > 1.0:
                raise ValueError("sampled outcomes must lie in [0, 1]")
        else:
            raise ValueError(f"provenance must be 'exact' or 'sampled', got {self.provenance!r}")
        c = np.array(c)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

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


@dataclass(frozen=True, eq=False)
class GqdEstimate:
    """A discord value with its provenance and statistical spread."""

    value: float
    std_err: float
    eigenvalues: tuple[float, float, float]
    route: str
    outcomes: OutcomeVector | None = None
    moments: MomentTriple | None = None

    def __post_init__(self) -> None:
        if self.route not in ("bloch-exact", "scheme-exact", "scheme-sampled"):
            raise ValueError(f"unknown route {self.route!r}")
        if self.value < -1e-9:
            raise NumericalContractError(f"estimate {self.value:.3e} below -1e-9")
        if self.value < 0.0:
            object.__setattr__(self, "value", 0.0)
        if self.std_err < 0.0:
            raise ValueError("std_err must be >= 0")
        if self.route != "scheme-sampled" and self.std_err != 0.0:
            raise ValueError("exact routes must report std_err = 0")

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "value": float(self.value),
            "std_err": float(self.std_err),
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "outcomes": self.outcomes.as_dict() if self.outcomes is not None else None,
            "moments": self.moments.as_dict() if self.moments is not None else None,
        }


def outcomes_exact(state: TwoQubitState) -> OutcomeVector:
    """c_i = expectation of standard layout P_i on state copies."""
    c = np.array([expect_layout(lay, state) for lay in standard_layouts()])
    return OutcomeVector(c, "exact")


# Per-pair outcome values (singlet, complement) of the moment observables on
# side A: w_I I + w_S P^- is w_I + w_S on the singlet and w_I on its complement.
PAIR_VALUES = {side: (float(i + s), float(i)) for side, (i, s) in PAIR_WEIGHTS.items()}


def moment_observable(dist: OutcomeDistribution, which: str = "A") -> np.ndarray:
    """Value of the setting's moment observable on each outcome pattern.

    v[pattern] is the product over the setting's pairs of the PAIR_VALUES
    entry for the pair's outcome, aligned with dist.patterns(). This is the
    per-pair expansion that derive_moment_table sums, so for the setting of
    order k, dist.vector() @ v = tr(K^k). Side B swaps the values between
    the sides.
    """
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    sides = {"a": "a", "b": "b"} if which == "A" else {"a": "b", "b": "a"}
    values = [PAIR_VALUES[sides[p.side]] for p in dist.setting.pairs]
    return np.array(
        [
            np.prod([vals[0] if bit else vals[1] for vals, bit in zip(values, pattern)])
            for pattern in dist.patterns()
        ]
    )


def _hit_matrix(dist: OutcomeDistribution) -> tuple[list[int], np.ndarray]:
    """Outcome indices a setting covers and a 0/1 pattern-by-outcome matrix.

    Entry (pattern, j) is 1 when every singlet-designated pair of the j-th
    covered layout shows the singlet outcome in that pattern.
    """
    by_label = {lay.label: (i, lay) for i, lay in enumerate(standard_layouts())}
    patterns = np.array(dist.patterns())
    indices, columns = [], []
    for label in dist.setting.covered:
        idx, layout = by_label[label]
        kinds = {(p.side, p.copies): p.kind for p in layout.pairs}
        positions = [
            i
            for i, sp in enumerate(dist.setting.pairs)
            if kinds[(sp.side, sp.copies)] == "singlet"
        ]
        indices.append(idx)
        columns.append(patterns[:, positions].all(axis=1))
    return indices, np.array(columns, dtype=np.int64).T


def stream_key(seed) -> tuple[int, ...]:
    """A seed (an int or a sequence of ints) as the tuple keying RNG streams."""
    return tuple(np.atleast_1d(np.asarray(seed, dtype=np.int64)).tolist())


class _Sampler:
    """Multinomial counts of the three settings and their c frequencies.

    Probability vectors and hit matrices are built once per state; setting
    k of a draw keyed by `entropy` uses the stream (*entropy, k).
    """

    def __init__(self, dists: list[OutcomeDistribution], shots: int) -> None:
        self.shots = shots
        self.pvecs = [d.vector() / d.vector().sum() for d in dists]
        self.hits = [_hit_matrix(d) for d in dists]

    def counts(self, entropy: tuple[int, ...]) -> list[np.ndarray]:
        return [
            np.random.default_rng([*entropy, si]).multinomial(self.shots, pvec)
            for si, pvec in enumerate(self.pvecs)
        ]

    def frequencies(self, counts: list[np.ndarray]) -> np.ndarray:
        c = np.zeros(N_OUTCOMES)
        for n, (indices, hit) in zip(counts, self.hits):
            c[indices] = (n @ hit) / self.shots
        return c


def outcomes_sampled(state: TwoQubitState, shots_per_setting: int, seed) -> OutcomeVector:
    """Empirical outcome frequencies from multinomial sampling.

    Each of the three settings draws `shots_per_setting` samples from its
    exact joint distribution; setting k uses the stream keyed by (seed, k).
    c_i is the frequency of all singlet-designated pairs of P_i showing the
    singlet outcome, identity-designated pairs unconstrained.
    """
    if shots_per_setting < 1:
        raise ValueError("shots_per_setting must be >= 1")
    entropy = stream_key(seed)
    sampler = _Sampler([joint_distribution(s, state) for s in settings()], int(shots_per_setting))
    c = sampler.frequencies(sampler.counts(entropy))
    return OutcomeVector(c, "sampled", shots=int(shots_per_setting), seed=entropy)


def permute_outcomes(c: OutcomeVector) -> OutcomeVector:
    """Swap (c2, c5, c9) with (c3, c6, c10): the side-B outcome relabeling."""
    v = np.array(c.c)
    for i, j in ((1, 2), (4, 5), (8, 9)):
        v[i], v[j] = v[j], v[i]
    return OutcomeVector(v, c.provenance, shots=c.shots, seed=c.seed)


def moments_from_outcomes(c: OutcomeVector) -> MomentTriple:
    """Evaluate the operative moment polynomials on an outcome vector.

    For exact vectors the result must satisfy the three-value power-mean
    bounds M1^2 / 3 <= M2 <= M1^2; violations signal an upstream bug.
    """
    m = [_eval_table(MOMENT_TABLE[k], c.c) for k in MOMENT_ORDERS]
    if c.provenance == "exact":
        if m[0] < -POWER_MEAN_TOL or m[1] < -POWER_MEAN_TOL:
            raise NumericalContractError(
                f"exact moments must be nonnegative, got M1={m[0]:.3e}, M2={m[1]:.3e}"
            )
        if not (
            m[0] ** 2 / 3.0 - POWER_MEAN_TOL <= m[1] <= m[0] ** 2 + POWER_MEAN_TOL
        ):
            raise NumericalContractError(
                f"exact moments violate power-mean bounds: M1={m[0]:.12g}, M2={m[1]:.12g}"
            )
    return MomentTriple(m[0], m[1], m[2])


# ---------------------------------------------------------------------------
# moments -> spectrum


def _monic_cubic_roots(p: float, q: float, r: float) -> np.ndarray:
    """Roots of x^3 + p x^2 + q x + r via the depressed cubic.

    A discriminant within REPEATED_ROOT_DISC of zero together with a
    noise-level linear coefficient marks a spectrum degenerate at floating
    point resolution and returns the exact triple root. Otherwise the
    trigonometric branch covers three real roots (its clamped arccos
    degenerates gracefully to the double-root configuration), and the
    Cardano branch returns the real root plus a conjugate pair. Closed
    repeated-root formulas are deliberately not used for resolvable
    clustered spectra: at a discriminant near 1e-12 they can be off by
    1e-3 while the trigonometric form stays exact to rounding.
    """
    shift = p / 3.0
    a = q - p * p / 3.0
    b = 2.0 * p**3 / 27.0 - p * q / 3.0 + r
    disc = -4.0 * a**3 - 27.0 * b * b
    if abs(disc) < REPEATED_ROOT_DISC and abs(a) < 1e-10:
        t = np.zeros(3, dtype=complex)
    elif disc >= 0.0:
        amp = 2.0 * np.sqrt(-a / 3.0)
        arg = np.clip(3.0 * b / (2.0 * a) * np.sqrt(-3.0 / a), -1.0, 1.0)
        theta = np.arccos(arg)
        t = amp * np.cos((theta - 2.0 * np.pi * np.arange(3)) / 3.0)
        t = t.astype(complex)
    else:
        sq = np.sqrt(b * b / 4.0 + a**3 / 27.0)
        u3 = -b / 2.0 + sq if abs(-b / 2.0 + sq) >= abs(-b / 2.0 - sq) else -b / 2.0 - sq
        u = np.sign(u3) * abs(u3) ** (1.0 / 3.0)
        v = 0.0 if u == 0.0 else -a / (3.0 * u)
        real_root = u + v
        re = -(u + v) / 2.0
        im = np.sqrt(3.0) * (u - v) / 2.0
        t = np.array([real_root, re + 1j * im, re - 1j * im], dtype=complex)
        if abs(disc) < REPEATED_ROOT_DISC:
            # a conjugate pair this close to real is a double root at
            # floating point resolution; its real part is the root
            t = t.real.astype(complex)
    return t - shift


def eigenvalues_from_moments(m: MomentTriple, noisy: bool = False) -> np.ndarray:
    """Recover the K spectrum from its power sums, descending.

    Newton's identities give the elementary symmetric polynomials, whose
    characteristic cubic is solved in closed form. With noisy=False a
    complex residue beyond COMPLEX_ROOT_TOL is an error; with noisy=True
    real parts are taken unconditionally. Negative roots are clamped to
    zero after root-finding.
    """
    e1 = m.m1
    e2 = (m.m1**2 - m.m2) / 2.0
    e3 = (m.m1**3 - 3.0 * m.m1 * m.m2 + 2.0 * m.m3) / 6.0
    roots = _monic_cubic_roots(-e1, e2, -e3)
    worst_imag = float(np.max(np.abs(roots.imag)))
    if not noisy and worst_imag >= COMPLEX_ROOT_TOL:
        raise NumericalContractError(
            f"moment cubic has complex residue {worst_imag:.3e} on the exact route"
        )
    lam = np.clip(roots.real, 0.0, None)
    return np.sort(lam)[::-1]


def estimate_gqd(
    state: TwoQubitState,
    mode: str = "scheme-exact",
    which: str = "A",
    shots: int | None = None,
    repeats: int = 20,
    seed=None,
) -> GqdEstimate:
    """Discord estimate through the outcome -> moment -> spectrum pipeline.

    scheme-exact uses exact outcome probabilities; side B is obtained by
    permuting the outcome vector before moment evaluation. scheme-sampled
    repeats the sampled pipeline `repeats` times (repeat r, setting k draws
    from the stream keyed by (seed, r, k)) and reports the mean value with
    the sample standard deviation across repeats as std_err. Each sampled
    moment M_k is read off setting k's own counts as
    counts_k @ moment_observable / shots; side B swaps the per-side pair
    values. The reported `outcomes` are the mean c frequencies across
    repeats (permuted for side B), the same frequencies as those drawn by
    outcomes_sampled; the sampled moments do not pass through them.
    """
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")

    if mode == "scheme-exact":
        c = outcomes_exact(state)
        if which == "B":
            c = permute_outcomes(c)
        m = moments_from_outcomes(c)
        lam = eigenvalues_from_moments(m)
        value = (lam[1] + lam[2]) / 4.0
        return GqdEstimate(
            float(value), 0.0, tuple(float(v) for v in lam), "scheme-exact", c, m
        )

    if mode != "scheme-sampled":
        raise ValueError(f"mode must be 'scheme-exact' or 'scheme-sampled', got {mode!r}")
    if shots is None or shots < 1:
        raise ValueError("scheme-sampled requires shots >= 1")
    if repeats < 2:
        raise ValueError("scheme-sampled requires repeats >= 2")
    if seed is None:
        raise ValueError("scheme-sampled requires a seed")

    base = stream_key(seed)
    dists = [joint_distribution(s, state) for s in settings()]
    sampler = _Sampler(dists, int(shots))
    observables = [moment_observable(d, which) for d in dists]
    values = np.empty(repeats)
    cs = np.empty((repeats, N_OUTCOMES))
    ms = np.empty((repeats, 3))
    lams = np.empty((repeats, 3))
    for rep in range(repeats):
        entropy = (*base, rep)
        counts = sampler.counts(entropy)
        out = OutcomeVector(sampler.frequencies(counts), "sampled", shots=int(shots), seed=entropy)
        if which == "B":
            out = permute_outcomes(out)
        m = MomentTriple(*(float(n @ v) / sampler.shots for n, v in zip(counts, observables)))
        lam = eigenvalues_from_moments(m, noisy=True)
        values[rep] = (lam[1] + lam[2]) / 4.0
        cs[rep] = out.c
        ms[rep] = (m.m1, m.m2, m.m3)
        lams[rep] = lam

    mean_c = OutcomeVector(cs.mean(axis=0), "sampled", shots=int(shots), seed=base)
    mean_m = MomentTriple(*ms.mean(axis=0))
    return GqdEstimate(
        float(values.mean()),
        float(values.std(ddof=1)),
        tuple(float(v) for v in lams.mean(axis=0)),
        "scheme-sampled",
        mean_c,
        mean_m,
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


def _max_dev(
    tables: dict[int, dict[tuple[int, ...], float]], states: list[TwoQubitState]
) -> dict[int, float]:
    """Per order, the largest |table(c) - tr(K^k)| over the states."""
    cvecs = [outcomes_exact(s).c for s in states]
    oracle = np.array([_oracle_moments(s) for s in states])
    return {
        k: float(np.max(np.abs([_eval_table(tables[k], c) for c in cvecs] - oracle[:, k - 1])))
        for k in MOMENT_ORDERS
    }


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
    if trials < 30:
        raise ValueError("trials must be >= 30")
    baseline_dev = _max_dev(BASELINE_MOMENT_TABLE, _audit_states(seed, 0, trials))
    if all(v <= AUDIT_TOL for v in baseline_dev.values()):
        return MomentAuditReport(trials, seed, baseline_dev, None, None, [])

    corrected = {k: dict(MOMENT_TABLE[k]) for k in MOMENT_ORDERS}
    corrected_dev = _max_dev(corrected, _audit_states(seed, trials, trials))
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
