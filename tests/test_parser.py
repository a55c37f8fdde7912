"""The shared word grammar."""

import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from miflab import CapacityExceeded, LimitGroup, ParseError, parse_element, parse_mixed_word, small_group
from miflab import mixed_words as mw
from miflab import parser
from miflab.parser import _Parser


def test_generators_and_powers(default_group):
    G = default_group
    assert parse_element("a0", G) == G.generator(0)
    assert parse_element("a-3", G) == G.generator(-3)
    assert parse_element("t^-2", G) == G.t_power(-2)
    assert parse_element("a0^-1", G) == G.generator(0).inverse()
    assert parse_element("1", G).is_trivial()


def test_whitespace_concatenation(default_group):
    G = default_group
    assert parse_element("a0   a1", G) == G.generator(0) * G.generator(1)
    assert parse_element("a0 a1", G) == parse_element("a0\ta1", G)
    # any Unicode whitespace separates items
    assert parse_mixed_word("x\u2028a0\u00a0x", G) == parse_mixed_word("x a0 x", G)


def test_commutators_nary(default_group):
    G = default_group
    w = parse_mixed_word("[x, a0, t]", G)
    expanded = parse_mixed_word("[[x, a0], t]", G)
    assert w == expanded


def test_variables(default_group):
    G = default_group
    w = parse_mixed_word("x x2^-1 x", G)
    kinds = [s[0] for s in w.syllables]
    assert kinds == ["v", "v", "v"]
    assert w.render() == "x x2^-1 x"


def test_word_power_expansion(default_group):
    G = default_group
    assert parse_mixed_word("[x, t]^2", G) == parse_mixed_word("[x,t] [x,t]", G)
    assert parse_mixed_word("[x, t]^-1", G) == parse_mixed_word("[x,t]", G).inverse()
    assert parse_mixed_word("x^0", G).is_empty()


def test_word_powers_and_commutators_are_bounded(monkeypatch, default_group):
    G = default_group
    # refused from the lengths, before the 4 * 10^9 syllables are written out
    with pytest.raises(CapacityExceeded, match="4000000000 syllables, past the limit of 100000"):
        parse_mixed_word("[x,a0]^1000000000", G)
    # each step of a left-normed commutator about doubles its length
    with pytest.raises(CapacityExceeded, match="a commutator would write out"):
        parse_mixed_word("[x" + ", t" * 20 + "]", G)
    monkeypatch.setattr(mw, "MAX_SYLLABLES", 8)
    assert len(parse_mixed_word("[x,a0]^2", G).syllables) == 8
    with pytest.raises(CapacityExceeded, match="the power \\^-3 of a 4-syllable word would write out 12 "):
        parse_mixed_word("[x,a0]^-3", G)
    with pytest.raises(CapacityExceeded, match="the word would write out 9 "):
        parse_mixed_word("x " * 9, G)
    # a word counts its items as written out, also those that cancel
    assert parse_mixed_word("x x^-1 " * 4, G).is_empty()
    with pytest.raises(CapacityExceeded, match="^the word would write out 9 "):
        parse_mixed_word("x x^-1 " * 4 + "x", G)
    with pytest.raises(CapacityExceeded, match="^the word would write out 10 "):
        parse_mixed_word("a0 a0 [x,a0] [x,a0]", G)
    assert parse_mixed_word("x^1000000000", G).render() == "x^1000000000"
    # the empty word stays empty, however large the power
    assert parse_mixed_word("[x,1]^1000000000000 [a0,a0]^-" + "9" * 30, G).is_empty()


def test_a_word_is_refused_at_the_item_that_passes_the_limit(default_group):
    """The parser reads a word's items for `mw.joined`, but refuses the word
    at the first item that brings their count past the limit: a text of 200
    commutators of 100,000 syllables each never holds more than two."""
    text = "[x,a0]^25000 " * 200
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapacityExceeded, match="^the word would write out 200000 syllables, past the limit of 100000$"):
            parse_mixed_word(text, default_group)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding all 200 would take 160 MB of syllable references alone
    assert elapsed < 2 and peak < 2**25, (elapsed, peak)


def test_commutator_nesting_is_bounded(default_group):
    """Each level of nesting is a few Python frames, so the depth is refused
    before the parser descends past MAX_NESTING, whatever the word's size."""
    S3 = small_group("S3")
    deep = "[" * parser.MAX_NESTING + "x" + ",1]" * parser.MAX_NESTING
    assert parse_mixed_word(deep, S3, S3.constants()).is_empty()
    refusal = "^a commutator nested 101 deep is past the parser's nesting limit of 100$"
    for text in ["[" + deep + ",1]", "[" * 3000]:
        with pytest.raises(CapacityExceeded, match=refusal):
            parse_mixed_word(text, S3, S3.constants())
    with pytest.raises(CapacityExceeded, match=refusal):
        parse_mixed_word("[" * 101 + "x" + ",a0]" * 101, default_group)
    # siblings do not add up: depth counts the commutators open at a token
    wide = " ".join(["[x,[x,1]]"] * 200)
    assert parse_mixed_word(wide, S3, S3.constants()).is_empty()


def test_finite_group_constants():
    S3 = small_group("S3")
    w = parse_mixed_word("[x, (123)]", S3, constants=S3.constants())
    assert w.variable_ids == (1,)
    el = parse_mixed_word("(12) (12)", S3, constants=S3.constants())
    assert el.is_empty()
    # a product label nests parentheses and holds a comma
    G = small_group("S3xC2")
    a, z = G.element_by_label("((12),e)"), G.element_by_label("(e,g1)")
    w = parse_mixed_word("[x,((12),e)] (e,g1)^3", G, constants=G.constants())
    assert w == mw.commutator(mw.variable(G), mw.constant(G, a)).concat(mw.constant(G, z))
    assert parse_mixed_word("((12),e)(e,g1)", G, constants=G.constants()).constant_value() == G.mul(a, z)
    # a list of labels splits at the commas outside them
    assert parser.split_labels("((12),e), (e,g1)") == ["((12),e)", "(e,g1)"]
    assert parser.split_labels("(12)(34),(13)(24),r1,") == ["(12)(34)", "(13)(24)", "r1", ""]


def test_parse_errors(default_group):
    G = default_group
    for bad in ["a0 ^", "[a0]", "x0", "q7", "a0 )", "[a0, a1"]:
        with pytest.raises(ParseError):
            parse_mixed_word(bad, G)
    # an int of the grammar is ASCII digits, not Arabic-Indic ones
    for bad in ["a\u0663", "x\u0662", "t^\u0663"]:
        with pytest.raises(ParseError, match="unexpected character"):
            parse_mixed_word(bad, G)
    assert parser._variable_id("x\u0662") is None
    # every item of a word is read before any is joined: a0 a7 spans width 7,
    # past the default cap of 6, but the stray ']' is met first
    with pytest.raises(CapacityExceeded):
        parse_mixed_word("a0 a7", G)
    for bad in ["a0 a7 ]", "a0 a7 q7", "[x, a0] a7 ]"]:
        with pytest.raises(ParseError):
            parse_mixed_word(bad, G)
    S3 = small_group("S3")
    with pytest.raises(ParseError):
        parse_mixed_word("(99)", S3, constants=S3.constants())
    S3xC2 = small_group("S3xC2")
    for bad in ["[x,((12),e)", "((12),e", "(e,g1))"]:
        with pytest.raises(ParseError):
            parse_mixed_word(bad, S3xC2, constants=S3xC2.constants())
    with pytest.raises(ParseError):
        parse_element("x a0", G)


# -- single reduce per word against the item-by-item fold -------------------------


class _FoldParser(_Parser):
    """Reference: reduce the accumulated word again after every item."""

    def parse_word(self, stop=()):
        acc = mw.MixedWord(self.group, ())
        while True:
            kind, _ = self.peek()
            if kind is None or kind in stop:
                return acc
            acc = mw.reduce(self.group, acc.syllables + tuple(self.parse_item()))


def _outcome(parse):
    try:
        return ("word", parse().structural_key())
    except (ParseError, CapacityExceeded) as exc:
        return (type(exc).__name__, str(exc))


def _fold_parse(text, group, constants):
    parser = _FoldParser(text, group, constants)
    word = parser.parse_word()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"trailing input in {text!r}")
    return word


def _texts(atoms):
    """Words over `atoms` with powers and nested commutators; some texts get
    a stray token spliced in so that both parsers must fail alike."""
    item = st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.lists(
            st.lists(inner, min_size=1, max_size=2).map(" ".join), min_size=2, max_size=3
        ).map(lambda parts: "[" + ", ".join(parts) + "]"),
        max_leaves=6,
    )
    # " ^2" splits a power from its atom, which the tokenizer joins again
    powered = st.tuples(item, st.sampled_from(["", "", "^2", "^-1", "^0", "^3", " ^2"])).map("".join)
    separator = st.sampled_from([" ", " ", "\t", "\n", "\u3000", " \t"])
    text = st.tuples(st.lists(powered, max_size=5), separator).map(lambda a: a[1].join(a[0]))
    noise = st.sampled_from(["", "", "", "]", ",", "^", "[", "q7", "x0", "a0", "(99)", ")"])
    return st.tuples(text, noise, st.integers(0, 200)).map(_splice)


def _splice(args):
    text, noise, at = args
    at %= len(text) + 1
    return text[:at] + noise + text[at:]


_S3 = small_group("S3")
# one group for every example, so each window table is built once
_NARROW = LimitGroup(2, "n", max_window_width=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_texts(["a0", "a1", "a-1", "t", "x", "x2", "1"]))
def test_single_reduce_matches_item_fold_limit_group(text):
    # t shifts supports; the width cap refuses wide constants before building
    # a table (width 4 of c_n = n would pass 10^6 cosets).  The fold reduces
    # after every item, so it may meet such a constant before a later syntax
    # error; those texts say nothing about parsing and are skipped.
    G = _NARROW
    expected = _outcome(lambda: _fold_parse(text, G, None))
    assume(expected[0] != "CapacityExceeded")
    assert _outcome(lambda: parse_mixed_word(text, G)) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_texts(["(12)", "(123)", "(13)", "e", "x", "x2", "1"]))
def test_single_reduce_matches_item_fold_finite_group(text):
    consts = _S3.constants()
    assert _outcome(lambda: parse_mixed_word(text, _S3, consts)) == _outcome(
        lambda: _fold_parse(text, _S3, consts)
    )


# -- one item memo shared by many parses -------------------------------------------


def _check_shared(text, group, constants, items):
    """Parsing through the shared memo gives what a fresh parse gives, and
    every entry it holds is what a fresh parse of the entry's text gives, so
    no text that failed to build is among them."""
    shared = _outcome(lambda: parse_mixed_word(text, group, constants, items=items))
    assert shared == _outcome(lambda: parse_mixed_word(text, group, constants))
    for item, syllables in items.items():
        assert mw.MixedWord(group, syllables) == parse_mixed_word(item, group, constants)


# one memo per context for every example of the stream
_NARROW_ITEMS: dict = {}
_S3_ITEMS: dict = {}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_texts(["a0", "a1", "a-1", "t", "x", "x2", "1"]))
def test_shared_items_match_fresh_parses_limit_group(text):
    _check_shared(text, _NARROW, None, _NARROW_ITEMS)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_texts(["(12)", "(123)", "(13)", "e", "x", "x2", "1"]))
def test_shared_items_match_fresh_parses_finite_group(text):
    _check_shared(text, _S3, _S3.constants(), _S3_ITEMS)


def test_a_text_of_known_items_is_joined_without_tokenizing(monkeypatch):
    """A text whose whitespace-separated chunks are all keys of the memo is
    joined from it; any other text is tokenized.  Either way the outcome is
    that of a fresh parse."""
    G = _NARROW
    items = {}
    parse_mixed_word("a0 a1 a-1 t t^-1 x x^-1 x2 a0^2 1 x^0", G, items=items)
    tokenized = []
    tokenize = parser.tokenize

    def counted(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", counted)

    def fresh_and_shared(text):
        tokenized.clear()
        fresh = _outcome(lambda: parse_mixed_word(text, G))
        assert _outcome(lambda: parse_mixed_word(text, G, items=items)) == fresh
        return tokenized.count(text)

    # tab, newline and U+3000 separate items as a space does; "1" is a key too
    for text in ["a0\tx\nt^-1", "x\u3000a0 x^-1\u3000\u3000", "1 a0 1", "\na0^2\n1 x^0", ""]:
        assert fresh_and_shared(text) == 1
    # a power split from its atom, items run together, commutators and
    # errors are tokenized
    for text in ["a0 ^2", "a0a1", "x [x, a0]", "a0 ]", "t^-1 q7", "a0 ^", "x\u3000(12)"]:
        assert fresh_and_shared(text) == 2
    # a word is counted as its items are written out, before reduction
    monkeypatch.setattr(mw, "MAX_SYLLABLES", 8)
    assert fresh_and_shared("x x^-1 " * 4) == 1
    assert fresh_and_shared("x x^-1 " * 4 + "x") == 2
    with pytest.raises(CapacityExceeded, match="^the word would write out 9 "):
        parse_mixed_word("x x^-1 " * 4 + "x", G, items=items)


def test_shared_items_keep_no_failed_item(default_group):
    G = default_group
    items = {}
    for bad in ["a0 x0", "t^-1 q7", "[x, a0] ]"]:
        with pytest.raises(ParseError):
            parse_mixed_word(bad, G, items=items)
    # items built before the failure stay; the failed ones and commutators do not
    assert sorted(items) == ["a0", "t^-1", "x"]
    assert parse_mixed_word("a0 t^-1 x", G, items=items) == parse_mixed_word("a0 t^-1 x", G)
