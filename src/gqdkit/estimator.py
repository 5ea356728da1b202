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
same expansion. That observable and the 0/1 hit matrices turning counts into
c's are Kronecker products of per-pair (complement, singlet) values, built by
contraction.pattern_product, the one place that fixes the pattern order.
Sampled counts come from one RNG stream per key, np.random.default_rng(list(key))
state for state; _streams seeds every stream of a call in one pass. Both
routes solve the spectrum cubic with one scalar kernel, _spectrum_roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .contraction import (
    PAIR_WEIGHTS,
    OutcomeDistribution,
    expect_layout,
    joint_distribution,
    pattern_product,
)
from .errors import NumericalContractError
from .gqd_core import GqdEstimate, k_matrix
from .pairing import Setting, settings, standard_layouts
from .statekit import TwoQubitState, _frozen, _is_int, decompose, random_state

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
        # each range check is written so that NaN fails it
        if self.provenance == "exact":
            if not (np.min(c) >= -EXACT_OUTCOME_TOL and np.max(c) <= 1.0 + EXACT_OUTCOME_TOL):
                raise NumericalContractError(
                    f"exact outcome outside [0, 1]: range [{c.min():.3e}, {c.max():.3e}]"
                )
            c = np.clip(c, 0.0, 1.0)
        elif self.provenance == "sampled":
            if not (np.min(c) >= 0.0 and np.max(c) <= 1.0):
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
    the sides. Built once per (setting, side) and read-only.
    """
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    return _observable(dist.setting, which)


@lru_cache(maxsize=32)
def _observable(setting: Setting, which: str) -> np.ndarray:
    sides = {"a": "a", "b": "b"} if which == "A" else {"a": "b", "b": "a"}
    return _frozen(pattern_product([PAIR_VALUES[sides[p.side]][::-1] for p in setting.pairs]))


@lru_cache(maxsize=32)
def _hit_matrix(setting: Setting) -> tuple[np.ndarray, np.ndarray]:
    """Outcome indices a setting covers and a 0/1 pattern-by-outcome matrix.

    Entry (pattern, j) is 1 when every singlet-designated pair of the j-th
    covered layout shows the singlet outcome in that pattern. Cached, read-only.
    """
    by_label = {lay.label: (i, lay) for i, lay in enumerate(standard_layouts())}
    indices, columns = [], []
    for label in setting.covered:
        idx, layout = by_label[label]
        kinds = {(p.side, p.copies): p.kind for p in layout.pairs}
        indices.append(idx)
        singlet = [kinds[(sp.side, sp.copies)] == "singlet" for sp in setting.pairs]
        columns.append(pattern_product([(0, 1) if s else (1, 1) for s in singlet]))
    return _frozen(indices), _frozen(np.array(columns, dtype=np.int64).T)


def stream_key(seed) -> tuple[int, ...]:
    """A seed (an int or ints, each in [0, 2**63)) as the tuple keying RNG streams.

    A float entry is rejected even when integral, as np.random.default_rng does.
    """
    key = tuple(np.ravel(np.asarray(seed, dtype=object)))
    for s in key:
        if not _is_int(s):
            raise ValueError(f"seed entry {s} is not an integer")
        if not 0 <= s < 2**63:
            raise ValueError(f"seed entry {s} is outside [0, 2**63)")
    return tuple(int(s) for s in key)


def _shot_count(shots, name: str) -> int:
    """A shot count as an int; one that is not an integer, or is below 1, is rejected."""
    if not _is_int(shots) or shots < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {shots!r}")
    return int(shots)


# numpy's SeedSequence (numpy/random/bit_generator.pyx), all arithmetic mod 2**32. Each of
# the 4 pool words is the hash of an entropy word (of 0 past the last one); hash call j xors
# with constant j and multiplies by constant j + 1 of a fixed sequence. Each pool word is
# then mixed with the hash of every other, and each entropy word past the pool with every
# pool word. The PCG64 seed, generate_state(4, uint64), is the pool read twice, each word
# hashed with _HASH_B, low words first.
_POOL_SIZE = 4
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = tuple([d for d in range(_POOL_SIZE) if d != s] for s in range(_POOL_SIZE))
_STATE_WORDS = list(range(_POOL_SIZE)) * 2


@lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j < count, as a read-only uint32 column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return _frozen(np.array(consts, dtype=np.uint32)[:, None])


_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE + 1)


@lru_cache(maxsize=1)
def _fixed_seed() -> type:
    """An ISeedSequence handing PCG64 the seed state _streams generated, where SeedSequence
    would generate it. Made on first use: numpy 2 imports numpy.random only when asked, and
    importing gqdkit, as every gqd command does, should not ask."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.state

    return FixedSeed


def _streams(prefix: tuple[int, ...], shape: tuple[int, ...]) -> list[np.random.Generator]:
    """np.random.default_rng([*prefix, *idx]) for each idx in np.ndindex(shape), in C order.

    A key's entropy is the uint32 words numpy's seed coercion makes of its
    entries (one per 32 bits, low word first, [0] for 0; an index is one
    word), so every key has the same word count. SeedSequence's mixing and
    generate_state run on all keys at once, one uint32 row per pool word, and
    each key's seed goes straight into its own PCG64: state and draws equal
    default_rng's.
    """
    head = [w for k in prefix for w in ((k & 0xFFFFFFFF, k >> 32) if k >> 32 else (k,))]
    n = math.prod(shape)
    words = np.zeros((max(len(head) + len(shape), _POOL_SIZE), n), dtype=np.uint32)
    words[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    words[len(head) : len(head) + len(shape)] = np.indices(shape).reshape(len(shape), n)
    # 4 hash calls per row of words: 16 fill and cross-mix the pool, 4 mix in each row past it
    consts, used = _hash_consts(0x43B0D7E5, 0x931E8875, _POOL_SIZE * len(words) + 1), 0

    def hashmix(v: np.ndarray, calls: int) -> np.ndarray:
        nonlocal used
        v = (v ^ consts[used : used + calls]) * consts[used + 1 : used + calls + 1]
        used += calls
        return v ^ (v >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ (r >> _XSHIFT)

    pool = hashmix(words[:_POOL_SIZE], _POOL_SIZE)
    for src, dst in enumerate(_OTHERS):
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in words[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word, _POOL_SIZE))
    out = (pool[_STATE_WORDS] ^ _HASH_B[:-1]) * _HASH_B[1:]
    out = (out ^ (out >> _XSHIFT)).astype(np.uint64)
    seeds = (out[0::2] | out[1::2] << np.uint64(32)).T.copy()
    fixed = _fixed_seed()
    return [np.random.Generator(np.random.PCG64(fixed(s))) for s in seeds]


class _Sampler:
    """Multinomial counts of the three settings and their c frequencies.

    Probability vectors are built once per state, hit matrices once per setting.
    counts(prefix, repeats) draws setting k of draw r from the stream keyed by
    (*prefix, r, k), or of its single draw by (*prefix, k) when repeats is None,
    with every stream built by one _streams call, and stacks each setting's
    counts as one (draws, patterns) array; frequencies reads the c's of every
    draw off it in one product per setting.
    """

    def __init__(self, dists: list[OutcomeDistribution], shots: int) -> None:
        self.shots = shots
        self.pvecs = [v / v.sum() for v in (d.vector() for d in dists)]
        self.hits = [_hit_matrix(d.setting) for d in dists]

    def counts(self, prefix: tuple[int, ...], repeats: int | None = None) -> list[np.ndarray]:
        n = len(self.pvecs)
        rngs = _streams(prefix, (n,) if repeats is None else (repeats, n))
        draws = [rng.multinomial(self.shots, self.pvecs[i % n]) for i, rng in enumerate(rngs)]
        return [np.array(draws[k::n]) for k in range(n)]

    def frequencies(self, counts: list[np.ndarray]) -> np.ndarray:
        c = np.zeros((len(counts[0]), N_OUTCOMES))
        for n, (indices, hit) in zip(counts, self.hits):
            c[:, indices] = (n @ hit) / self.shots
        if c.min() < 0.0 or c.max() > 1.0:
            raise ValueError("sampled outcomes must lie in [0, 1]")
        return c


def outcomes_sampled(state: TwoQubitState, shots_per_setting: int, seed) -> OutcomeVector:
    """Empirical outcome frequencies from multinomial sampling.

    Each of the three settings draws `shots_per_setting` samples from its
    exact joint distribution; setting k uses the stream keyed by (seed, k),
    the three built by one _streams call.
    c_i is the frequency of all singlet-designated pairs of P_i showing the
    singlet outcome, identity-designated pairs unconstrained.
    """
    shots = _shot_count(shots_per_setting, "shots_per_setting")
    entropy = stream_key(seed)
    sampler = _Sampler([joint_distribution(s, state) for s in settings()], shots)
    c = sampler.frequencies(sampler.counts(entropy))[0]
    return OutcomeVector(c, "sampled", shots=shots, seed=entropy)


# Side-B outcome relabeling: (c2, c5, c9) swap with (c3, c6, c10).
_SIDE_B_ORDER = np.array([0, 2, 1, 3, 5, 4, 6, 7, 9, 8, 10])


def permute_outcomes(c: OutcomeVector) -> OutcomeVector:
    """Swap (c2, c5, c9) with (c3, c6, c10): the side-B outcome relabeling."""
    return OutcomeVector(c.c[_SIDE_B_ORDER], c.provenance, shots=c.shots, seed=c.seed)


def moments_from_outcomes(c: OutcomeVector) -> MomentTriple:
    """Evaluate the operative moment polynomials on an outcome vector.

    For exact vectors the result must satisfy the three-value power-mean
    bounds M1^2 / 3 <= M2 <= M1^2; violations signal an upstream bug.
    """
    c_list = c.c.tolist()
    m = [_eval_table(MOMENT_TABLE[k], c_list) for k in MOMENT_ORDERS]
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


def eigenvalues_from_moments(m: MomentTriple, noisy: bool = False) -> np.ndarray:
    """The K spectrum from its power sums, descending, negative roots clamped to zero.

    With noisy=False a complex residue beyond COMPLEX_ROOT_TOL is an error;
    with noisy=True real parts are taken unconditionally.
    """
    roots, worst_imag = _spectrum_roots(m.m1, m.m2, m.m3)
    if not noisy and worst_imag >= COMPLEX_ROOT_TOL:
        raise NumericalContractError(
            f"moment cubic has complex residue {worst_imag:.3e} on the exact route"
        )
    return np.sort(np.maximum(roots, 0.0))[::-1]


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
    from the stream keyed by (seed, r, k), unchanged per key; _streams seeds
    all of them in one pass) and reports the mean value with the sample
    standard deviation across repeats as std_err. Setting k's counts
    of all repeats are one (repeats, patterns) array: the c's are
    counts_k @ hit_k / shots and moment M_k is counts_k @ moment_observable /
    shots (side B swaps the per-side pair values), exact integer sums, and
    the cubic of each repeat goes through the same _spectrum_roots as
    eigenvalues_from_moments, so the results equal a per-repeat loop's.
    The reported `outcomes` are the mean c frequencies across repeats
    (permuted for side B), the same frequencies as those drawn by
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
        return GqdEstimate(float(value), 0.0, tuple(lam.tolist()), "scheme-exact", c, m)

    if mode != "scheme-sampled":
        raise ValueError(f"mode must be 'scheme-exact' or 'scheme-sampled', got {mode!r}")
    shots = _shot_count(shots, "scheme-sampled shots")
    if not _is_int(repeats):
        raise ValueError(f"scheme-sampled repeats must be an integer, got {repeats!r}")
    if repeats < 2:
        raise ValueError("scheme-sampled requires repeats >= 2")
    if seed is None:
        raise ValueError("scheme-sampled requires a seed")

    base = stream_key(seed)
    dists = [joint_distribution(s, state) for s in settings()]
    sampler = _Sampler(dists, shots)
    counts = sampler.counts(base, int(repeats))
    cs = sampler.frequencies(counts)
    if which == "B":
        # take keeps C order, so the mean below adds the rows as a per-repeat array's does
        cs = cs.take(_SIDE_B_ORDER, axis=1)
    ms = np.column_stack([n @ moment_observable(d, which) for n, d in zip(counts, dists)]) / shots
    roots = [_spectrum_roots(*m)[0] for m in ms.tolist()]
    lams = np.sort(np.maximum(roots, 0.0), axis=1)[:, ::-1]
    values = (lams[:, 1] + lams[:, 2]) / 4.0

    mean_c = OutcomeVector(cs.mean(axis=0), "sampled", shots=shots, seed=base)
    mean_m = MomentTriple(*ms.mean(axis=0))
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


def _max_dev(
    tables: dict[int, dict[tuple[int, ...], float]], states: list[TwoQubitState]
) -> dict[int, float]:
    """Per order, the largest |table(c) - tr(K^k)| over the states."""
    cvecs = [outcomes_exact(s).c.tolist() for s in states]
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
