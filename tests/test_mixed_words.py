"""Free-product word calculus: reduction, evaluation, the two substitutions."""

import functools
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from miflab import (
    CapacityExceeded,
    LimitGroup,
    evaluate,
    iota_embed,
    parse_mixed_word,
    sub_commutator,
)
from miflab import mixed_words as mw
from miflab.identity_lab import FiniteGroup, small_group
from miflab.limit_group import GElement, shift


def test_reduce_free_cancellation(default_group):
    G = default_group
    w = parse_mixed_word("x a0 a0^-1 x^-1", G)
    assert w.is_empty()


def test_reduce_merges_variable_syllables(default_group):
    G = default_group
    w = mw.reduce(G, [mw.var_syllable(1, 1), mw.var_syllable(1, 2)])
    assert w.render() == "x^3"


def test_reduce_drops_trivial_constants(default_group):
    G = default_group
    w = parse_mixed_word("a0 x [a0,a1] x^-1", G)
    assert w.render() == "a0"  # the commutator constant dies, the x pair cancels


def test_reduce_cascades(default_group):
    G = default_group
    a0 = G.generator(0)
    syllables = [
        mw.var_syllable(1, 1),
        mw.const_syllable(a0),
        mw.const_syllable(a0),
        mw.var_syllable(1, -1),
    ]
    assert mw.reduce(G, syllables).is_empty()


def test_evaluate_examples(default_group):
    G = default_group
    a0 = G.generator(0)
    t = G.t_power(1)
    w = parse_mixed_word("[x, a0]", G)
    assert evaluate(w, {1: a0}).is_trivial()
    w = parse_mixed_word("x t x", G)
    assert evaluate(w, {1: t}).render() == "t^3"
    w = parse_mixed_word("[x, t]", G)
    val = evaluate(w, {1: a0})
    assert not val.is_trivial()
    assert val.abelianize().total == 0  # commutator; the index vector is the proof
    assert val.beta == 0


def test_evaluate_is_multiplicative(c11_group):
    G = c11_group
    rng = random.Random(3)
    for _ in range(60):
        w1 = _random_word(G, rng)
        w2 = _random_word(G, rng)
        sigma = {i: _random_element(G, rng) for i in range(1, 4)}
        lhs = evaluate(w1.concat(w2), sigma)
        rhs = evaluate(w1, sigma) * evaluate(w2, sigma)
        assert lhs == rhs


def test_iota_examples(default_group):
    G = default_group
    a0 = G.generator(0)
    w = parse_mixed_word("x1", G)
    assert iota_embed(w, a0).render() == "x a0 x"
    assert iota_embed(parse_mixed_word("1", G), a0).is_empty()
    w = parse_mixed_word("x1 x2", G)
    assert iota_embed(w, a0).render() == "x a0 x^3 a0 x^2"


def test_iota_rejects_trivial_constant(default_group):
    G = default_group
    with pytest.raises(ValueError):
        iota_embed(parse_mixed_word("x1", G), G.identity_element)
    with pytest.raises(ValueError):
        sub_commutator(parse_mixed_word("x", G), G.identity_element)


def test_iota_evaluation_compatibility(c11_group):
    G = c11_group
    rng = random.Random(5)
    for _ in range(40):
        w = _random_word(G, rng, max_var=2)
        g = _random_element(G, rng, nontrivial=True)
        h = _random_element(G, rng)
        lhs = evaluate(iota_embed(w, g), {1: h})
        rhs = evaluate(w, {i: (h ** i) * g * (h ** i) for i in (1, 2)})
        assert lhs == rhs


def test_sub_commutator_examples(default_group):
    G = default_group
    a0 = G.generator(0)
    w = parse_mixed_word("x", G)
    sub = sub_commutator(w, a0)
    assert sub == parse_mixed_word("[x, a0]", G)
    assert sub_commutator(parse_mixed_word("1", G), a0).is_empty()
    # [[x, a], b] becomes [[[x, n], a], b] under x -> [x, n]
    a, b, n = G.generator(0), G.t_power(1), G.generator(1)
    word = mw.left_normed([mw.variable(G), mw.constant(G, a), mw.constant(G, b)])
    expected = mw.left_normed(
        [mw.variable(G), mw.constant(G, n), mw.constant(G, a), mw.constant(G, b)]
    )
    assert sub_commutator(word, n) == expected


def test_sub_commutator_evaluation_compatibility(c11_group):
    G = c11_group
    rng = random.Random(9)
    for _ in range(40):
        w = _random_word(G, rng, max_var=1)
        n = _random_element(G, rng, nontrivial=True)
        g = _random_element(G, rng)
        lhs = evaluate(sub_commutator(w, n), {1: g})
        comm = g.inverse() * n.inverse() * g * n
        rhs = evaluate(w, {1: comm})
        assert lhs == rhs


def test_reduce_is_idempotent_and_evaluation_preserving(c11_group):
    G = c11_group
    rng = random.Random(1)
    for _ in range(60):
        raw = _random_syllables(G, rng)
        w = mw.reduce(G, raw)
        again = mw.reduce(G, w.syllables)
        assert again == w
        sigma = {i: _random_element(G, rng) for i in range(1, 4)}
        assert evaluate(w, sigma) == _evaluate_raw(G, raw, sigma)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from("vV"), st.integers(1, 2), st.integers(-2, 2)), max_size=8))
def test_variable_only_reduction_matches_free_group(default_group, items):
    """Variable-only words reduce like the free group on x_1, x_2."""
    G = default_group
    raw = [mw.var_syllable(vid, exp) for _, vid, exp in items if exp != 0]
    w = mw.reduce(G, raw)
    # the reduced word must alternate variable ids or keep nonzero exponents
    syl = w.syllables
    for s in syl:
        assert s[2] != 0
    for s1, s2 in zip(syl, syl[1:]):
        assert s1[1] != s2[1]


# Syllable specs as plain data: ("c", A-letters, beta) or ("v", id, exponent).
# Constants include the identity (no letters, beta 0, or a0 a0 at p = 2) and
# variables include zero exponents; a "run" piece is followed by its inverse.
_CONST_SPEC = st.tuples(
    st.just("c"), st.lists(st.tuples(st.integers(-1, 1), st.just(1)), max_size=3), st.integers(-1, 1)
)
_VAR_SPEC = st.tuples(st.just("v"), st.integers(1, 2), st.integers(-2, 2))
_SPEC = st.one_of(_CONST_SPEC, _VAR_SPEC)
_PIECE = st.one_of(
    st.tuples(st.just("single"), _SPEC.map(lambda spec: [spec])),
    st.tuples(st.just("run"), st.lists(_SPEC, min_size=1, max_size=3)),
)


def _build(G, specs):
    return [
        mw.const_syllable(G.element(spec[1], spec[2])) if spec[0] == "c" else mw.var_syllable(spec[1], spec[2])
        for spec in specs
    ]


@functools.cache
def _group(p, c):
    """One group per (p, c) for every example, so each table is built once."""
    return LimitGroup(p, c)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([(2, "n"), (2, "1")]),
    st.lists(_PIECE, max_size=6),
    st.tuples(_CONST_SPEC, _CONST_SPEC),
)
def test_reduce_invariants(instance_key, pieces, assignment):
    """One stack pass leaves a fully reduced word with the same value."""
    G = _group(*instance_key)
    raw = []
    for kind, specs in pieces:
        syllables = _build(G, specs)
        raw.extend(syllables)
        if kind == "run":
            raw.extend(mw.MixedWord(G, syllables).inverse().syllables)
    w = mw.reduce(G, raw)
    syl = w.syllables
    for s in syl:
        if s[0] == mw.CONST:
            assert not G.is_identity(s[1])
        else:
            assert s[2] != 0
    for s1, s2 in zip(syl, syl[1:]):
        assert not (s1[0] == mw.CONST and s2[0] == mw.CONST)
        assert not (s1[0] == mw.VAR and s2[0] == mw.VAR and s1[1] == s2[1])
    assert mw.reduce(G, syl).syllables == syl
    sigma = {vid: G.element(letters, beta) for vid, (_, letters, beta) in zip((1, 2), assignment)}
    assert evaluate(w, sigma) == _evaluate_raw(G, raw, sigma)


# -- joining reduced pieces at their seam ------------------------------------------


class _CountingGroup:
    """The group, with its `is_identity` calls counted."""

    def __init__(self, group):
        self.group = group
        self.identity_tests = 0

    def __getattr__(self, name):
        return getattr(self.group, name)

    def is_identity(self, element):
        self.identity_tests += 1
        return self.group.is_identity(element)


def _is_trivial(G, s):
    return G.is_identity(s[1]) if s[0] == mw.CONST else s[2] == 0


def _like(s1, s2):
    return s1[0] == s2[0] == mw.CONST or (s1[0] == s2[0] == mw.VAR and s1[1] == s2[1])


def _rewrite_reduce(G, syllables):
    """Reference: drop the first trivial syllable or merge the first like
    pair, until neither is left (no stack, no seam)."""
    syl = list(syllables)
    while True:
        i = next((i for i, s in enumerate(syl) if _is_trivial(G, s)), None)
        if i is not None:
            del syl[i]
            continue
        i = next((i for i in range(len(syl) - 1) if _like(syl[i], syl[i + 1])), None)
        if i is None:
            return syl
        s1, s2 = syl[i], syl[i + 1]
        merged = (mw.CONST, G.mul(s1[1], s2[1])) if s1[0] == mw.CONST else (mw.VAR, s1[1], s1[2] + s2[2])
        syl[i:i + 2] = [merged]


# (2,"n") constants with t-parts up to t^+-2, and the S3 constants by index;
# both include the identity, and a0 a0 = t t^-1 = 1 merge to it.  Merged
# constants spread over wider windows; past width 2 they are refused before
# a table is built, and such examples are skipped.
_T_SPEC = st.tuples(
    st.just("c"), st.lists(st.tuples(st.integers(0, 1), st.just(1)), max_size=2), st.integers(-2, 2)
)
_S3_SPEC = st.tuples(st.just("s"), st.integers(0, 5))
_T_GROUP = LimitGroup(2, "n", max_window_width=2)
_S3_GROUP = small_group("S3")


def _raw(G, specs):
    return [
        mw.const_syllable(G.element(spec[1], spec[2])) if spec[0] == "c"
        else mw.const_syllable(spec[1]) if spec[0] == "s"
        else mw.var_syllable(spec[1], spec[2])
        for spec in specs
    ]


def _pieces(instance, const_spec):
    pieces = st.lists(st.one_of(const_spec, _VAR_SPEC), max_size=6)
    return st.tuples(st.just(instance), pieces, pieces)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(_pieces("2-n", _T_SPEC), _pieces("S3", _S3_SPEC)),
    st.sampled_from(["free", "inverse", "inverse then free"]),
)
def test_extend_matches_reduce_of_the_concatenation(pieces, join):
    """`extend` of a reduced piece onto a reduced list gives `reduce` of the
    two written out, which is the rewriting normal form; only constants
    merged at the seam are tested for the identity, at most one more than
    the pairs it cancels."""
    instance, specs_u, specs_v = pieces
    G = _T_GROUP if instance == "2-n" else _S3_GROUP
    raw_u = _raw(G, specs_u)
    try:
        u = mw.reduce(G, raw_u)
        v = mw.reduce(G, _raw(G, specs_v))
        if join == "inverse":  # u u^-1 cascades to the empty word
            v = u.inverse()
        elif join == "inverse then free":
            v = mw.reduce(G, u.inverse().syllables + v.syllables)
        expected = mw.reduce(G, u.syllables + v.syllables)
        assert u == mw.MixedWord(G, _rewrite_reduce(G, raw_u))
        assert expected == mw.MixedWord(G, _rewrite_reduce(G, u.syllables + v.syllables))
    except CapacityExceeded:
        assume(False)
    counting = _CountingGroup(G)
    stack = list(u.syllables)
    mw.extend(counting, stack, v.syllables)
    assert mw.MixedWord(G, stack) == expected
    cancelled = (len(u.syllables) + len(v.syllables) - len(stack)) // 2
    assert counting.identity_tests <= cancelled + 1
    if join == "inverse":
        assert not stack
    # concat and join agree with it
    assert u.concat(v) == expected
    joined = list(u.syllables)
    for s in v.syllables:
        mw.join(G, joined, s)
    assert mw.MixedWord(G, joined) == expected


def _blocks_reference(G, word, image):
    """The substitution as it was first written: every block of every
    variable syllable written out, then the whole list reduced."""
    out = []
    for s in word.syllables:
        if s[0] == mw.CONST:
            out.append(s)
        else:
            block = image(s[1]) if s[2] > 0 else mw.MixedWord(G, image(s[1])).inverse().syllables
            out.extend(list(block) * abs(s[2]))
    return mw.reduce(G, out)


def _iota_block(g):
    return lambda vid: (mw.var_syllable(1, vid), mw.const_syllable(g), mw.var_syllable(1, vid))


def _commutator_block(G, n):
    return lambda vid: (
        mw.var_syllable(1, -1), mw.const_syllable(G.inv(n)), mw.var_syllable(1, 1), mw.const_syllable(n)
    )


_SUB_VAR_SPEC = st.tuples(st.just("v"), st.integers(1, 2), st.integers(-5, 5))


def _substitution_case(instance, const_spec):
    return st.tuples(
        st.just(instance), st.lists(st.one_of(const_spec, _SUB_VAR_SPEC), max_size=6), const_spec
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_substitution_case("2-n", _T_SPEC), _substitution_case("S3", _S3_SPEC)))
def test_substitutions_match_the_written_out_blocks(case):
    """`iota_embed` and `sub_commutator` join each image at the seam; the
    result is the reduction of all blocks written out."""
    instance, specs, g_spec = case
    G = _T_GROUP if instance == "2-n" else _S3_GROUP
    try:
        raw = _raw(G, specs)
        g = _raw(G, [g_spec])[0][1]
        assume(not G.is_identity(g))
        word = mw.reduce(G, raw)
        one = mw.reduce(G, [s if s[0] == mw.CONST else mw.var_syllable(1, s[2]) for s in raw])
        expected_iota = _blocks_reference(G, word, _iota_block(g))
        expected_sub = _blocks_reference(G, one, _commutator_block(G, g))
        iota, sub = iota_embed(word, g), sub_commutator(one, g)
        same = (iota == expected_iota, sub == expected_sub)
    except CapacityExceeded:  # comparing merged constants may need a wider window
        assume(False)
    assert same == (True, True)
    assert iota.variable_ids in ((), (1,)) and sub.variable_ids in ((), (1,))


def test_substitutions_are_refused_before_they_write_out(default_group, monkeypatch):
    """A substitution counts the syllables it would write out and refuses
    past MAX_SYLLABLES before it builds any of them."""
    G = default_group
    a0 = G.generator(0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapacityExceeded, match="would write out 90000000 syllables, past the limit of 100000"):
            iota_embed(mw.variable(G, 1, 30_000_000), a0)
        with pytest.raises(CapacityExceeded, match="would write out 4000000000 syllables"):
            sub_commutator(mw.variable(G, 1, -(10**9)), a0)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 2**20
    # x^i g x^i writes out 3 syllables a power, [x, n] 4, and a constant 1
    monkeypatch.setattr(mw, "MAX_SYLLABLES", 8)
    assert iota_embed(parse_mixed_word("a1 x^2 a1", G), a0).render() == "a1 x a0 x^2 a0 x a1"
    assert sub_commutator(parse_mixed_word("x^2", G), a0) == parse_mixed_word("[x,a0]^2", G)
    for word, substitute in [("x^3", iota_embed), ("a1 x a2 x a1", iota_embed), ("x^2 a1", sub_commutator)]:
        with pytest.raises(CapacityExceeded, match="would write out 9 syllables, past the limit of 8"):
            substitute(parse_mixed_word(word, G), a0)


def test_powers_and_joins_are_bounded_before_they_write_out(default_group, monkeypatch):
    """`power` and every caller of `joined` count the syllables they would
    write out, before reduction, and refuse past MAX_SYLLABLES first."""
    G = default_group
    w = parse_mixed_word("x a0 x^-2", G)
    assert mw.power(w, 3) == w * w * w
    assert mw.power(w, -2) == w.inverse() * w.inverse()
    assert mw.power(w, 1) == w and mw.power(w, 0).is_empty()
    # the empty word and a single syllable cost nothing per unit of |k|
    assert mw.power(mw.MixedWord(G, ()), 10**30).is_empty()
    assert mw.power(mw.variable(G, 2, 3), -(10**20)).syllables == (("v", 2, -3 * 10**20),)
    assert mw.power(mw.constant(G, G.generator(0)), 10**20).is_empty()  # a0 has order 2
    with pytest.raises(CapacityExceeded, match=(
        "^the power \\^-1000000000000 of a 3-syllable word would write out "
        "3000000000000 syllables, past the limit of 100000$"
    )):
        mw.power(w, -(10**12))
    monkeypatch.setattr(mw, "MAX_SYLLABLES", 8)
    assert len(mw.power(w, 2).syllables) == 5
    with pytest.raises(CapacityExceeded, match="^the power \\^3 of a 3-syllable word would write out 9 "):
        mw.power(w, 3)
    # pieces count as written out, also where they cancel
    with pytest.raises(CapacityExceeded, match="^the word would write out 9 syllables, past the limit of 8$"):
        mw.joined(G, [w.syllables, w.inverse().syllables, w.syllables])
    with pytest.raises(CapacityExceeded, match="^the word would write out 10 "):
        mw.power(w, 2).concat(mw.power(w, 2))
    with pytest.raises(CapacityExceeded, match="^a commutator would write out 12 "):
        mw.commutator(w, w)
    # [x, w] writes out 8 syllables and reduces to 5; the next step, 12
    with pytest.raises(CapacityExceeded, match="^a commutator would write out 12 "):
        mw.left_normed([mw.variable(G), w, mw.constant(G, G.generator(1))])


def test_alternation_invariant(default_group):
    G = default_group
    rng = random.Random(2)
    for _ in range(80):
        w = mw.reduce(G, _random_syllables(G, rng))
        for s1, s2 in zip(w.syllables, w.syllables[1:]):
            if s1[0] == mw.CONST:
                assert s2[0] == mw.VAR
            elif s2[0] == mw.VAR:
                assert s1[1] != s2[1]
        for s in w.syllables:
            if s[0] == mw.CONST:
                assert not G.is_identity(s[1])


def test_missing_assignment_rejected(default_group):
    G = default_group
    with pytest.raises(ValueError):
        evaluate(parse_mixed_word("x1 x2", G), {1: G.generator(0)})
    with pytest.raises(ValueError, match=r"^assignment missing variables \[2, 3\]$"):
        evaluate(parse_mixed_word("x3 x1 x2^2", G), {1: G.generator(0)})


class _KeyErrorPower:
    """A stub context whose `power` raises a KeyError of its own."""

    identity_element = 0

    def power(self, g, k):
        raise KeyError("inside power")

    def product(self, factors):
        return sum(factors)


def test_key_error_inside_power_passes_through():
    word = mw.MixedWord(_KeyErrorPower(), [mw.var_syllable(1, 2)])
    with pytest.raises(KeyError, match="inside power") as err:
        evaluate(word, {1: 1})
    assert err.value.args == ("inside power",)


# -- one product per evaluation ---------------------------------------------------


def _shift_and_merge(g, h):
    """The product of two limit-group elements by its defining rule."""
    return GElement(g.group, g.a * shift(h.a, g.beta), g.beta + h.beta)


def _fold_evaluate(word, assignment, mul=None):
    """`evaluate` as a left fold of pairwise products (`group.mul` unless
    given), with x^e expanded to |e| factors x or x^-1: the reference the
    one-product evaluation must match."""
    group = word.group
    mul = mul or group.mul
    acc = group.identity_element
    for s in word.syllables:
        if s[0] == mw.CONST:
            acc = mul(acc, s[1])
            continue
        g = assignment[s[1]] if s[2] > 0 else group.inv(assignment[s[1]])
        for _ in range(abs(s[2])):
            acc = mul(acc, g)
    return acc


def _assert_same_element(got, expected):
    assert got.a.letters == expected.a.letters
    assert got.beta == expected.beta
    assert got.abelianize() == expected.abelianize()


def _seeded_element(G, rng):
    letters = [(rng.randint(-2, 2), rng.randint(1, G.p - 1)) for _ in range(rng.randint(0, 4))]
    return G.element(letters, rng.choice([-2, -1, 0, 0, 0, 1, 2]))


@pytest.mark.parametrize("key", [(2, "n"), (3, "1,2")], ids=["2-n", "3-1,2"])
def test_evaluate_matches_the_fold_on_seeded_words(key):
    # unreduced words: adjacent constants and t-powers cancel across factors
    G = _group(*key)
    rng = random.Random(13)
    for _ in range(300):
        syllables = [
            mw.var_syllable(rng.randint(1, 2), rng.choice([-3, -2, -1, 1, 2, 3]))
            if rng.random() < 0.4
            else mw.const_syllable(_seeded_element(G, rng))
            for _ in range(rng.randint(0, 8))
        ]
        word = mw.MixedWord(G, syllables)
        sigma = {1: _seeded_element(G, rng), 2: _seeded_element(G, rng)}
        _assert_same_element(evaluate(word, sigma), _fold_evaluate(word, sigma, _shift_and_merge))


@pytest.mark.parametrize(
    "text, x, expected",
    [
        ("a0 x a0", "a0", "a0"),
        ("a0 x a0", "a0 t", "a1 t"),
        ("x^-1 a0 x", "t", "a-1"),
        ("t x t^-1 x^-1", "a0 t^2", "a1 a0"),
        ("x^-3 t^2 x^3", "t^-1", "t^2"),
        ("x^2 a0 x^-2", "a0 a1", "a0 a1 a0 a1 a0 a1 a0 a1 a0"),
    ],
)
def test_evaluate_cancels_across_factors(default_group, text, x, expected):
    G = default_group
    word = parse_mixed_word(text, G)
    sigma = {1: G.parse(x)}
    value = evaluate(word, sigma)
    _assert_same_element(value, _fold_evaluate(word, sigma, _shift_and_merge))
    assert value.render() == expected


def test_two_factor_product_is_the_shift_and_merge_rule():
    G = _group(3, "1,2")
    rng = random.Random(5)
    for _ in range(200):
        g, h = _seeded_element(G, rng), _seeded_element(G, rng)
        expected = _shift_and_merge(g, h)
        _assert_same_element(g * h, expected)
        _assert_same_element(G.product([g, h]), expected)
    _assert_same_element(G.product([]), G.identity_element)
    with pytest.raises(ValueError, match="cannot mix"):
        G.product([G.generator(0), _group(2, "n").generator(0)])


@pytest.mark.parametrize("name", ["S3", "D8"])
def test_finite_group_product_matches_the_fold(name):
    group = small_group(name)
    rng = random.Random(7)
    for _ in range(300):
        syllables = [
            mw.var_syllable(rng.randint(1, 2), rng.choice([-5, -2, -1, 1, 2, 7]))
            if rng.random() < 0.5
            else mw.const_syllable(rng.randrange(group.size))
            for _ in range(rng.randint(0, 8))
        ]
        word = mw.MixedWord(group, syllables)
        sigma = {1: rng.randrange(group.size), 2: rng.randrange(group.size)}
        value = evaluate(word, sigma)
        assert type(value) is int
        assert value == _fold_evaluate(word, sigma)


def _count_calls(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_large_exponents_stay_cheap_on_a_finite_group(monkeypatch):
    S3 = small_group("S3")
    muls = _count_calls(monkeypatch, FiniteGroup, "mul")
    for x in S3.elements():
        expected = S3.identity
        for _ in range(10**9 % S3.element_order(x)):
            expected = S3.table[expected, x]
        assert evaluate(mw.variable(S3, 1, 10**9), {1: x}) == expected
    assert muls[0] <= S3.size * 2 * 30  # square-and-multiply, not 10^9 steps


def test_large_exponents_stay_cheap_on_a_limit_group(monkeypatch, default_group):
    G = default_group
    muls = _count_calls(monkeypatch, GElement, "__mul__")
    a0 = G.generator(0)
    assert evaluate(mw.variable(G, 1, 10**9), {1: a0}).is_trivial()
    assert evaluate(mw.variable(G, 1, 10**9 + 1), {1: a0}).render() == "a0"
    assert evaluate(mw.variable(G, 1, -(10**9)), {1: G.t_power(1)}).render() == "t^-1000000000"
    # past the coset cap an exponent is reduced modulo the element's order,
    # so a0 a1 (whose letters never cancel when squared) stays two letters
    ab = G.parse("a0 a1")
    assert evaluate(mw.variable(G, 1, 10**9), {1: ab}).is_trivial()
    assert evaluate(mw.variable(G, 1, 10**9 + 1), {1: ab}).a.letters == ab.a.letters
    # the parser raises a single letter or variable in place
    word = parse_mixed_word("x^1000000000", G)
    assert word.syllables == (mw.var_syllable(1, 10**9),)
    assert evaluate(word, {1: ab}).is_trivial()
    assert parse_mixed_word("a0^1000000001", G).render() == "a0"
    assert muls[0] <= 3 * 2 * 30
    # an index set past the caps is refused before any letter is built
    past = G.element([(0, 1), (1, 1), (2, 1), (4, 1)])
    with pytest.raises(CapacityExceeded, match=r"for index set \{0,1,2,4\} "):
        evaluate(mw.variable(G, 1, 10**9), {1: past})


# -- helpers -----------------------------------------------------------------------


def _random_element(G, rng, nontrivial=False):
    while True:
        letters = [(rng.randint(-1, 1), 1) for _ in range(rng.randint(0, 2))]
        beta = rng.choice([-1, 0, 0, 1])
        g = G.element(letters, beta)
        if not nontrivial or not g.is_trivial():
            return g


def _random_syllables(G, rng):
    out = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            out.append(mw.var_syllable(rng.randint(1, 3), rng.choice([-2, -1, 1, 2])))
        else:
            out.append(mw.const_syllable(_random_element(G, rng)))
    return out


def _random_word(G, rng, max_var=3):
    out = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.5:
            out.append(mw.var_syllable(rng.randint(1, max_var), rng.choice([-1, 1, 2])))
        else:
            out.append(mw.const_syllable(_random_element(G, rng)))
    return mw.reduce(G, out)


def _evaluate_raw(G, raw, sigma):
    acc = G.identity_element
    for s in raw:
        if s[0] == mw.CONST:
            acc = acc * s[1]
        else:
            acc = acc * (sigma[s[1]] ** s[2])
    return acc
