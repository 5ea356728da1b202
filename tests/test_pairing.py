import numpy as np
import pytest

from gqdkit.pairing import (
    PairingLayout,
    PairOp,
    render_layout,
    settings,
    standard_layouts,
)


def test_eleven_layouts_with_expected_labels():
    layouts = standard_layouts()
    assert [lay.label for lay in layouts] == [f"P{i}" for i in range(1, 12)]
    assert [lay.n_copies for lay in layouts] == [2, 2, 2, 4, 4, 4, 4, 6, 6, 6, 6]


def test_p1_structure():
    p1 = standard_layouts()[0]
    assert all(p.kind == "singlet" for p in p1.pairs)
    assert {(p.side, p.copies) for p in p1.pairs} == {("a", (1, 2)), ("b", (1, 2))}


def test_p7_structure():
    p7 = standard_layouts()[6]
    kinds = {(p.side, p.copies): p.kind for p in p7.pairs}
    assert kinds == {
        ("a", (1, 4)): "identity",
        ("a", (2, 3)): "singlet",
        ("b", (1, 2)): "singlet",
        ("b", (3, 4)): "identity",
    }


def test_p11_structure():
    p11 = standard_layouts()[10]
    kinds = {(p.side, p.copies): p.kind for p in p11.pairs}
    assert kinds == {
        ("a", (1, 6)): "identity",
        ("a", (2, 3)): "singlet",
        ("a", (4, 5)): "singlet",
        ("b", (1, 2)): "singlet",
        ("b", (3, 4)): "singlet",
        ("b", (5, 6)): "identity",
    }


def test_pair_op_is_slot_order_insensitive():
    a = PairOp("a", (4, 1), "singlet")
    b = PairOp("a", (1, 4), "singlet")
    assert a == b
    assert a.copies == (1, 4)
    assert (a.side, a.copies) == ("a", (1, 4))


def test_layout_invariants_rejected():
    with pytest.raises(ValueError, match="n_copies"):
        PairingLayout(3, (PairOp("a", (1, 2), "singlet"),))
    with pytest.raises(ValueError, match="twice"):
        PairingLayout(
            4,
            (
                PairOp("a", (1, 2), "singlet"),
                PairOp("a", (1, 3), "singlet"),
                PairOp("b", (1, 2), "singlet"),
                PairOp("b", (3, 4), "singlet"),
            ),
        )
    with pytest.raises(ValueError, match="needs"):
        PairingLayout(2, (PairOp("a", (1, 2), "singlet"),))
    with pytest.raises(ValueError, match="outside"):
        PairingLayout(
            2,
            (PairOp("a", (1, 3), "singlet"), PairOp("b", (1, 2), "singlet")),
        )
    with pytest.raises(ValueError, match="distinct"):
        PairOp("a", (2, 2), "singlet")


@pytest.mark.parametrize(
    "build",
    [
        lambda: PairOp("a", "12", "singlet"),
        lambda: PairOp("a", (1.5, 2), "singlet"),
        lambda: PairOp("a", (1, 2.0), "singlet"),
        lambda: PairOp("a", (True, 2), "singlet"),
        lambda: PairingLayout(2.0, standard_layouts()[0].pairs),
        lambda: PairingLayout(2.7, standard_layouts()[0].pairs),
        lambda: PairOp("a", 5, "singlet"),
        lambda: PairOp("a", None, "singlet"),
    ],
    ids=[
        "text-copies", "fractional-copy", "float-copy", "bool-copy", "float-count",
        "fractional-count", "int-copies", "none-copies",
    ],
)
def test_layout_input_is_rejected_not_truncated(build):
    with pytest.raises(ValueError):
        build()


def test_layout_accepts_numpy_integers():
    op = PairOp("a", (np.int64(2), np.int32(1)), "singlet")
    assert op.copies == (1, 2) and all(type(c) is int for c in op.copies)
    p1 = standard_layouts()[0]
    for n in (np.int64(2), np.int32(2)):
        layout = PairingLayout(n, p1.pairs)
        assert type(layout.n_copies) is int
        assert (layout.n_copies, layout.pairs) == (p1.n_copies, p1.pairs)
    # a bool, numpy's too, is not a count, and neither is an integral float
    for bad in (True, np.bool_(True), 2.0):
        with pytest.raises(ValueError, match="copies must be two integer copy indices"):
            PairOp("a", (bad, 2), "singlet")
        with pytest.raises(ValueError, match="n_copies must be one of"):
            PairingLayout(bad, p1.pairs)


def test_settings_cover_the_layouts_once():
    all_settings = settings()
    assert [s.n_copies for s in all_settings] == [2, 4, 6]
    assert all_settings[0].covered == ("P1", "P2", "P3")
    assert all_settings[1].covered == ("P4", "P5", "P6", "P7")
    assert all_settings[2].covered == ("P8", "P9", "P10", "P11")
    covered = [label for s in all_settings for label in s.covered]
    assert sorted(covered) == sorted(f"P{i}" for i in range(1, 12))


def test_setting_matching_is_the_fully_singlet_member():
    by_label = {lay.label: lay for lay in standard_layouts()}
    for s, label in zip(settings(), ("P1", "P4", "P8")):
        assert s.layout == by_label[label]
        assert all(p.kind == "singlet" for p in s.pairs)


def test_setting_layout_is_the_standard_layout_object():
    layouts = standard_layouts()
    assert [s.layout for s in settings()] == [layouts[0], layouts[3], layouts[7]]
    assert all(s.layout is layouts[i] for s, i in zip(settings(), (0, 3, 7)))


def test_setting_covered_layouts_share_the_matching():
    by_label = {lay.label: lay for lay in standard_layouts()}
    for s in settings():
        for label in s.covered:
            assert {(p.side, p.copies) for p in by_label[label].pairs} == {
                (p.side, p.copies) for p in s.pairs
            }


def test_six_copy_setting_has_64_patterns():
    assert 2 ** len(settings()[2].pairs) == 64


def test_render_p1():
    text = render_layout(standard_layouts()[0])
    lines = text.splitlines()
    assert lines[0] == "P1  copies=2"
    assert len(lines) == 4  # title, column header, two copy rows
    assert "S" in lines[2] and "S" in lines[3]
    assert "I" not in text.replace("copies", "")


def test_render_p11_identity_arcs():
    text = render_layout(standard_layouts()[10])
    lines = text.splitlines()
    rows = {int(line.split()[0]): line for line in lines[2:]}
    # a-side identity arc spans copies 1..6 in the first lane
    assert rows[1].split()[1] == "I"
    assert rows[6].split()[1] == "I"
    # b-side identity arc on copies 5 and 6 in the last lane
    assert rows[5].rstrip().endswith("I")
    assert rows[6].rstrip().endswith("I")


def test_render_is_injective_and_stable():
    layouts = standard_layouts()
    texts = [render_layout(lay) for lay in layouts]
    assert len(set(texts)) == 11
    assert texts == [render_layout(lay) for lay in layouts]


def test_mutating_a_returned_list_does_not_change_the_next_call():
    layouts, all_settings = standard_layouts(), settings()
    expected_labels = [lay.label for lay in layouts]
    expected_covered = [s.covered for s in all_settings]
    layouts.reverse()
    layouts.pop()
    all_settings[0] = all_settings.pop()
    assert [lay.label for lay in standard_layouts()] == expected_labels
    assert [s.covered for s in settings()] == expected_covered
    assert standard_layouts() is not standard_layouts()
    assert settings() is not settings()
