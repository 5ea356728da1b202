"""Pair-operator layouts across identical copies of a two-qubit state.

A layout places two-qubit pair operators (singlet projector or identity)
on disjoint slot pairs, one perfect matching per side, over n copies.
The 11 standard layouts P1..P11 and the three measurement settings that
realize them are built here, once, from one table; rendering produces a
row-per-copy diagram. Layouts live in memory only and compare by identity.
Each copy has one a and one b slot, so a layout's pairs link its copies into
cycles that alternate sides; the layout walks them once, as it checks its slots,
and keeps them (`cycles`) for contraction's products and the moment expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import _is_int

SIDES = ("a", "b")
KINDS = ("singlet", "identity")
COPY_COUNTS = (2, 4, 6)


@dataclass(frozen=True)
class PairOp:
    """A singlet or identity operator on two same-side slots."""

    side: str
    copies: tuple[int, int]
    kind: str

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be 'a' or 'b', got {self.side!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        copies = self.copies if hasattr(self.copies, "__len__") else ()  # e.g. 5 or None
        if len(copies) != 2 or not all(map(_is_int, copies)):
            raise ValueError(f"copies must be two integer copy indices, got {self.copies!r}")
        lo, hi = sorted(int(c) for c in self.copies)
        if lo == hi:
            raise ValueError(f"pair slots must be distinct, got copies {self.copies}")
        if lo < 1:
            raise ValueError(f"copy indices must be >= 1, got {self.copies}")
        object.__setattr__(self, "copies", (lo, hi))


@dataclass(frozen=True, eq=False)
class PairingLayout:
    """A full assignment of pair operators over n copies.

    The stored pair order is preserved as given and `label` is advisory. Two
    layouts are equal only if they are the same object, so identity decides whether
    contraction.expect_layout takes one: P1..P11 themselves, never a rebuilt copy
    (the dense oracle takes any layout). `cycles` holds per cycle, in
    walk order, each pair's index and a flag, 1 where the walk leaves it through a b
    slot; a cycle starts at the lowest pair not yet walked, out through its higher copy.
    """

    n_copies: int
    pairs: tuple[PairOp, ...]
    label: str | None = field(default=None)
    cycles: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not _is_int(self.n_copies) or self.n_copies not in COPY_COUNTS:
            raise ValueError(f"n_copies must be one of {COPY_COUNTS}, got {self.n_copies!r}")
        object.__setattr__(self, "n_copies", int(self.n_copies))
        pairs = tuple(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        incident: dict[tuple[int, str], tuple[int, int]] = {}  # slot -> (pair, the pair's other copy)
        for side in SIDES:
            side_pairs = [(i, p) for i, p in enumerate(pairs) if p.side == side]
            if len(side_pairs) != self.n_copies // 2:
                raise ValueError(
                    f"side {side!r} needs {self.n_copies // 2} pairs, got {len(side_pairs)}"
                )
            for i, p in side_pairs:
                for c, other in (p.copies, p.copies[::-1]):
                    if c > self.n_copies:
                        raise ValueError(
                            f"copy {c} outside 1..{self.n_copies} on side {side!r}"
                        )
                    if (c, side) in incident:
                        raise ValueError(f"copy {c} used twice on side {side!r}")
                    incident[c, side] = (i, other)
        # every slot of copies 1..n is now taken once, so each walk closes on its start
        cycles, walked = [], set()
        for start, p in enumerate(pairs):
            if start in walked:
                continue
            i, side, c, cycle = start, p.side, p.copies[1], []
            while i != start or not cycle:
                cycle.append((i, int(side == "b")))
                walked.add(i)
                side = "b" if side == "a" else "a"
                i, c = incident[c, side]
            cycles.append(tuple(cycle))
        object.__setattr__(self, "cycles", tuple(cycles))


@dataclass(frozen=True, eq=False)
class Setting:
    """A fixed pair matching measured in the {singlet, complement} basis.

    `layout` is the fully-singlet member; `covered` lists the labels of the
    standard layouts obtainable from this matching by marginalizing pairs. Settings
    compare by identity, and contraction.joint_distribution takes only the three built here.
    """

    layout: PairingLayout
    covered: tuple[str, ...]

    @property
    def n_copies(self) -> int:
        return self.layout.n_copies

    @property
    def pairs(self) -> tuple[PairOp, ...]:
        return self.layout.pairs

    @property
    def cycles(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self.layout.cycles


# The protocol, stated once: per setting, its copy count, its matching in stored
# pair order, and for each standard layout it covers (P1..P11 in turn) the
# indices of the pairs that carry the identity. The first layout is all singlet.
_PROTOCOL = (
    (2, (("a", 1, 2), ("b", 1, 2)), ((), (1,), (0,))),
    (4, (("a", 1, 4), ("a", 2, 3), ("b", 1, 2), ("b", 3, 4)), ((), (1,), (3,), (0, 3))),
    (
        6,
        (("a", 1, 6), ("a", 2, 3), ("a", 4, 5), ("b", 1, 2), ("b", 3, 4), ("b", 5, 6)),
        ((), (2,), (5,), (0, 5)),
    ),
)


def _build_protocol() -> tuple[tuple[PairingLayout, ...], tuple[Setting, ...]]:
    """P1..P11, labelled in order, each in its setting's pair order, and the three settings."""
    layouts: list[PairingLayout] = []
    all_settings = []
    for n_copies, matching, identity_pairs in _PROTOCOL:
        members = []
        for identities in identity_pairs:
            pairs = tuple(
                PairOp(side, (lo, hi), "identity" if i in identities else "singlet")
                for i, (side, lo, hi) in enumerate(matching)
            )
            members.append(PairingLayout(n_copies, pairs, f"P{len(layouts) + len(members) + 1}"))
        all_settings.append(Setting(members[0], tuple(lay.label for lay in members)))
        layouts += members
    return tuple(layouts), tuple(all_settings)


# The layouts and settings are fixed by the protocol: built and validated once.
_STANDARD_LAYOUTS, _SETTINGS = _build_protocol()


def standard_layouts() -> list[PairingLayout]:
    """The 11 standard layouts P1..P11 over 2, 4, and 6 copies (a fresh list)."""
    return list(_STANDARD_LAYOUTS)


def settings() -> list[Setting]:
    """The three measurement settings covering all 11 standard layouts (a fresh list)."""
    return list(_SETTINGS)


def render_layout(layout: PairingLayout) -> str:
    """Deterministic text diagram: one row per copy, a-side then b-side.

    Each pair occupies one lane; endpoints are marked S (singlet) or
    I (identity), interior rows of an arc are drawn with '|'.
    """
    lanes = {
        side: sorted(
            (p for p in layout.pairs if p.side == side), key=lambda p: p.copies
        )
        for side in SIDES
    }

    def cell(p: PairOp, row: int) -> str:
        lo, hi = p.copies
        if row == lo or row == hi:
            return "S" if p.kind == "singlet" else "I"
        if lo < row < hi:
            return "|"
        return " "

    def row_text(side: str, row: int) -> str:
        return " ".join(cell(p, row) for p in lanes[side])

    a_width = max(1, 2 * len(lanes["a"]) - 1)
    title = f"{layout.label or 'layout'}  copies={layout.n_copies}"
    lines = [title, f"      {'a':<{a_width}}   b"]
    for row in range(1, layout.n_copies + 1):
        lines.append(f"  {row:2d}  {row_text('a', row):<{a_width}}   {row_text('b', row)}")
    return "\n".join(line.rstrip() for line in lines)

