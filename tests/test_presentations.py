"""Presentation generator: relator families, order, dedup, equivariance."""

from itertools import product

import pytest

from miflab import (
    CapacityExceeded,
    CSequence,
    IndexSet,
    LimitGroup,
    ParseError,
    Window,
    build_window_presentation,
)
from miflab import presentations
from miflab.presentations import (
    MAX_RELATOR_LETTERS,
    _commutator_letters,
    invert_word,
    left_normed_commutator,
)


# -- independent oracle, written before the build was trusted -----------------
#
# Brute-force tuple enumerator: for every spread d and every raw tuple in the
# window, apply the membership rules directly and expand the commutator with
# its own (duplicated on purpose) expansion code.


def oracle_commutator(positions):
    def inv(w):
        return [(p, -s) for p, s in reversed(w)]

    w = [(positions[0], 1)]
    for pos in positions[1:]:
        w = inv(w) + [(pos, -1)] + w + [(pos, 1)]
    return tuple(w)


def oracle_relators(p, c, lo, hi):
    c = CSequence.from_spec(c)
    rels = []
    seen = set()
    for pos in range(hi - lo + 1):
        rel = ((pos, 1),) * p
        rels.append(rel)
        seen.add(rel)
    for d in range(1, hi - lo + 1):
        weight = c[d] + 1
        for tup in product(range(lo, hi + 1), repeat=weight):
            if max(tup) - min(tup) != d:
                continue
            if tup[0] == tup[1]:
                continue
            rel = oracle_commutator([i - lo for i in tup])
            if rel not in seen:
                seen.add(rel)
                rels.append(rel)
    return rels


# -- examples ------------------------------------------------------------------


def test_weight_two_window():
    pres = build_window_presentation(2, "1", Window(0, 1))
    texts = [pres.relator_text(i) for i in range(len(pres.relators))]
    assert texts == ["a0 a0", "a1 a1", "[a0,a1]", "[a1,a0]"]
    assert len(pres.relators) == 4  # [a0,a1] and [a1,a0] are distinct relators


def test_weight_three_relators_p3():
    pres = build_window_presentation(3, "2", Window(0, 1))
    # a power is labelled by its one index, a commutator by its entries
    assert pres.labels == ((0,), (1,), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))


def test_single_generator_window():
    pres = build_window_presentation(5, "3", Window(5, 5))
    assert len(pres.relators) == 1
    assert pres.relator_text(0) == "a5 a5 a5 a5 a5"


def test_relator_count_small():
    assert len(build_window_presentation(2, "1", Window(0, 1)).relators) == 4
    assert len(build_window_presentation(2, "1", Window(0, 0)).relators) == 1


def test_relator_count_against_oracle():
    cases = [
        (2, "1,2", Window(0, 2)),
        (2, "1,2", Window(-1, 2)),
        (3, "1,2", Window(0, 2)),
        (2, "2", Window(0, 2)),
        (2, "n", Window(-1, 1)),
    ]
    for p, c, w in cases:
        expected = len(oracle_relators(p, c, w.lo, w.hi))
        assert len(build_window_presentation(p, c, w).relators) == expected
    # frozen value computed by the oracle: 3 powers + 4 weight-2 + 10 weight-3
    assert len(oracle_relators(2, "1,2", 0, 2)) == 17
    assert len(build_window_presentation(2, "1,2", Window(0, 2)).relators) == 17


def test_relators_match_oracle_exactly():
    pres = build_window_presentation(2, "1,2", Window(0, 2))
    assert list(pres.relators) == oracle_relators(2, "1,2", 0, 2)


# -- invariants ------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("c", ["n", "1", "2", "1,2", "1,3"])
def test_relators_are_pairwise_distinct(p, c):
    # a left-normed commutator's letters determine its index tuple, and
    # power relators carry no inverse letters, so the build needs no dedup
    for width in range(5):
        relators = build_window_presentation(p, c, Window(0, width)).relators
        assert len(set(relators)) == len(relators), (p, c, width)


def test_determinism():
    a = build_window_presentation(2, "1,2", Window(-1, 2))
    b = build_window_presentation(2, "1,2", Window(-1, 2))
    assert a.to_text() == b.to_text()
    assert a.relators == b.relators


def test_monotonicity_under_window_growth():
    inner = build_window_presentation(2, "1,2", Window(0, 1))
    outer = build_window_presentation(2, "1,2", Window(-1, 2))
    # positions shift by +1 going from [0,1] to [-1,2]
    shifted = {tuple((pos + 1, s) for pos, s in rel) for rel in inner.relators}
    assert shifted <= set(outer.relators)


def test_shift_equivariance():
    base = build_window_presentation(2, "1,2", Window(0, 2))
    moved = build_window_presentation(2, "1,2", Window(7, 9))
    # positions are window-relative, so the letter sequences agree verbatim
    assert base.relators == moved.relators
    assert moved.labels == tuple(tuple(i + 7 for i in t) for t in base.labels)


def test_power_relator_shape():
    pres = build_window_presentation(3, "1", Window(0, 2))
    assert len(pres.relators) == len(pres.labels)
    for rel, label in zip(pres.relators, pres.labels):
        if len(label) == 1:
            assert rel == ((label[0], 1),) * 3


def test_commutator_weights_follow_spread():
    pres = build_window_presentation(2, "1,2,3", Window(0, 3))
    c = CSequence.from_spec("1,2,3")
    commutators = [label for label in pres.labels if len(label) > 1]
    assert commutators
    for label in commutators:
        assert len(label) == c[max(label) - min(label)] + 1


def test_left_normed_expansion():
    # [u, v] = u^-1 v^-1 u v and [u, v, w] = [[u, v], w]
    uv = left_normed_commutator((0, 1))
    assert uv == ((0, -1), (1, -1), (0, 1), (1, 1))
    uvw = left_normed_commutator((0, 1, 2))
    assert uvw == invert_word(uv) + ((2, -1),) + uv + ((2, 1),)


# -- errors and serialization ------------------------------------------------------


def test_rejects_non_prime():
    with pytest.raises(ValueError):
        build_window_presentation(4, "1", Window(0, 1))


def test_rejects_non_integer_p():
    for p in (2.0, 3.5, True):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            build_window_presentation(p, "1", Window(0, 1))
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            LimitGroup(p, "n")


def test_rejects_wide_window():
    with pytest.raises(CapacityExceeded):
        build_window_presentation(2, "1", Window(0, 40))



@pytest.mark.parametrize("c", ["n", "1", "2", "1,2", "1,3", "5"])
def test_commutator_letters_are_counted_exactly(c):
    seq = CSequence.from_spec(c)
    gapped = (IndexSet((0, 2)), IndexSet((-1, 0, 3)), IndexSet((0, 1, 3, 4)))
    for window in (Window(0, 0), Window(0, 1), Window(-1, 2), Window(0, 4)) + gapped:
        pres = build_window_presentation(2, c, window)
        built = sum(
            len(rel) for rel, label in zip(pres.relators, pres.labels) if len(label) > 1
        )
        t, w = window.indices, window.width
        assert built == sum(_commutator_letters(t, seq[d] + 1, d) for d in range(1, w + 1))


def test_relator_letters_are_capped_before_any_tuple(monkeypatch):
    # (2, "8") on 0..1: 256 commutators of 766 letters, 196,100 letters with the powers
    pres = build_window_presentation(2, "8", Window(0, 1))
    assert sum(map(len, pres.relators)) == 196_100 < MAX_RELATOR_LETTERS == 2**21

    def no_tuples(*args):
        raise AssertionError("tuples generated for a refused weight")

    monkeypatch.setattr(presentations, "_tuples_with_spread", no_tuples)
    # 3.1 million letters; a weight whose single relator passes the cap is
    # refused from its exponent (a RecursionError or MemoryError once)
    for c in ("10", "3000000", "99999999999999"):
        with pytest.raises(CapacityExceeded, match="would have more than 2097152 letters"):
            build_window_presentation(2, c, Window(0, 1))
    with pytest.raises(CapacityExceeded, match=r"window 0\.\.6 .* at spread 5 \(weight 6: "):
        build_window_presentation(2, "n", Window(0, 6))

def test_power_relator_letters_are_capped_before_the_primality_test(monkeypatch):
    # (width + 1) * p letters; trial division of 2^61 - 1 would take ~10^9 steps
    def no_test(n):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(presentations, "is_prime", no_test)
    with pytest.raises(
        CapacityExceeded,
        match=r"^the power relators of window 0\.\.0 \(p=2305843009213693951, c=n\) would have "
        r"2305843009213693951 letters, more than 2097152$",
    ):
        build_window_presentation(2**61 - 1, "n", Window(0, 0))
    with pytest.raises(CapacityExceeded, match=r"window 0\.\.1 .* 2097154 letters"):
        build_window_presentation(2**20 + 1, "n", Window(0, 1))
    monkeypatch.undo()
    # nothing that fits the budget is refused: (2, "n") width 5 has 1.7 million letters
    assert sum(map(len, build_window_presentation(2, "n", Window(0, 5)).relators)) < MAX_RELATOR_LETTERS
    with pytest.raises(ValueError, match="p must be prime, got 1048577"):
        build_window_presentation(2**20 + 1, "n", Window(0, 0))


def test_presentation_text_is_pinned():
    # one line per relator, powers by index, then commutators by (spread, tuple)
    assert build_window_presentation(3, "2", Window(0, 1)).to_text() == (
        "gens 2\n"
        "a0 a0 a0\n"
        "a1 a1 a1\n"
        "[a0,a1,a0]\n"
        "[a0,a1,a1]\n"
        "[a1,a0,a0]\n"
        "[a1,a0,a1]\n"
    )
    # a gapped set names its own indices; spread 2 has weight c_2 + 1 = 3
    assert build_window_presentation(2, "1,2", IndexSet.of((0, 2))).to_text() == (
        "gens 2\n"
        "a0 a0\n"
        "a2 a2\n"
        "[a0,a2,a0]\n"
        "[a0,a2,a2]\n"
        "[a2,a0,a0]\n"
        "[a2,a0,a2]\n"
    )


def test_presentation_text_form():
    pres = build_window_presentation(2, "1,2", Window(0, 2))
    text = pres.to_text()
    assert text.startswith("gens 3\n")
    assert "a0 a0" in text and "[a0,a1]" in text
    assert len(text.splitlines()) == 1 + len(pres.relators)


# -- the class-bound sequence -------------------------------------------------------


def test_window_specs_read_ascii_digits_only():
    assert Window.from_spec(" -1 .. +2 ") == Window(-1, 2)
    for bad in ["\u0660..\u0661", "\uff10..\uff13", "0..", "1_0..11", "0..1..2"]:
        with pytest.raises(ParseError, match="bad window spec"):
            Window.from_spec(bad)


def test_csequence_forms():
    c = CSequence.from_spec("1,2,2")
    assert [c[i] for i in range(1, 6)] == [1, 2, 2, 2, 2]
    cid = CSequence.from_spec("n")
    assert [cid[i] for i in range(1, 6)] == [1, 2, 3, 4, 5]
    assert CSequence.from_spec((1, 2)).spec() == "1,2"
    for spec in ["n", "1", "1,2", "2,2,3", (1, 2)]:
        c = CSequence.from_spec(spec)
        assert CSequence.from_spec(c.spec()) == c, spec


def test_csequence_validation():
    with pytest.raises(ParseError):
        CSequence.from_spec("2,1")
    with pytest.raises(ParseError):
        CSequence.from_spec("")
    for empty in ((), []):
        with pytest.raises(ParseError):
            CSequence.from_spec(empty)
    with pytest.raises(ParseError):
        CSequence.from_spec("0,1")
    # an empty entry, or one in other digits than ASCII, is no entry to skip
    for bad in ["1,,2", "2,", ",2", " , ", "\u0663,\u0664", "1_0"]:
        with pytest.raises(ParseError, match="bad CSequence spec"):
            CSequence.from_spec(bad)
    assert CSequence.from_spec(" 1 , 2 ").spec() == "1,2"
    # a tuple or list entry is an int, or a str read as a text spec's entry
    assert CSequence.from_spec([1, " 2", "+3"]).spec() == "1,2,3"
    for bad in (["\u0663"], [2.5], (True,)):
        with pytest.raises(ParseError, match="bad CSequence entry"):
            CSequence.from_spec(bad)
    with pytest.raises(IndexError):
        CSequence.from_spec("1")[0]
