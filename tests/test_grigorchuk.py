"""Grigorchuk engine: action table, splitting, the word problem, the identity."""

import functools
import itertools
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miflab import BudgetExceeded, cli, grigorchuk as gg

from test_fuzz import _ALARM, _raise_alarm


def random_string(rng, length):
    return "".join(rng.choice("01") for _ in range(length))


# -- the action table -----------------------------------------------------------


def test_action_table_rows():
    rng = random.Random(0)
    tails = [random_string(rng, rng.randint(0, 10)) for _ in range(300)]
    # a letter acts in one walk down the string, so 5,000 bits are no deeper
    # than 10 (one call per bit was a RecursionError)
    tails += [random_string(rng, 4_999), "1" * 4_999]
    for w in tails:
        assert gg.act("a", "0" + w) == "1" + w
        assert gg.act("a", "1" + w) == "0" + w
        assert gg.act("b", "0" + w) == "0" + gg.act("a", w)
        assert gg.act("b", "1" + w) == "1" + gg.act("c", w)
        assert gg.act("c", "0" + w) == "0" + gg.act("a", w)
        assert gg.act("c", "1" + w) == "1" + gg.act("d", w)
        assert gg.act("d", "0" + w) == "0" + w
        assert gg.act("d", "1" + w) == "1" + gg.act("b", w)


def test_action_examples():
    assert gg.act("a", "010") == "110"
    assert gg.act("d", "0110") == "0110"
    assert gg.act("b", "10") == "10"


def test_action_is_length_preserving_and_prefix_compatible():
    rng = random.Random(1)
    for _ in range(100):
        w = gg.reduce_word("".join(rng.choice("abcd") for _ in range(rng.randint(1, 8))))
        s = random_string(rng, 9)
        image = gg.act(w, s)
        assert len(image) == len(s)
        assert gg.act(w, s[:5]) == image[:5]


def test_word_acts_by_composition():
    rng = random.Random(2)
    for _ in range(100):
        u = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 5)))
        s = random_string(rng, 8)
        assert gg.act(u + v, s) == gg.act(u, gg.act(v, s))


# -- reduction ---------------------------------------------------------------------


def test_reduce_examples():
    assert gg.reduce_word("bb") == ""
    assert gg.reduce_word("bc") == "d"
    assert gg.reduce_word("") == ""
    assert gg.reduce_word("aabcd") == ""  # aa dies, bc = d, then dd dies
    assert gg.reduce_word("abcda") == ""  # same cascade around the a-pair


def test_reduce_cascade():
    # b (aa) c collapses to bc = d
    assert gg.reduce_word("baac") == "d"


def test_reduce_is_action_equivalent():
    rng = random.Random(3)
    for _ in range(200):
        w = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
        r = gg.reduce_word(w)
        s = random_string(rng, 8)
        assert gg.act(w, s) == gg.act(r, s)
        # reduced form alternates a-letters and Klein letters
        for x, y in zip(r, r[1:]):
            assert (x == "a") != (y == "a")


# -- splitting ----------------------------------------------------------------------


def test_split_table():
    assert gg.split("b") == ("a", "c")
    assert gg.split("c") == ("a", "d")
    assert gg.split("d") == ("", "b")
    assert gg.split("aba") == ("c", "a")
    assert gg.split("aca") == ("d", "a")
    assert gg.split("ada") == ("b", "")


def test_split_rejects_odd_a_count():
    with pytest.raises(ValueError):
        gg.split("ab")


def test_split_shrinks_words():
    rng = random.Random(4)
    for _ in range(200):
        w = gg.reduce_word("".join(rng.choice("abcd") for _ in range(rng.randint(2, 12))))
        if gg.a_count(w) % 2 or len(w) < 2:
            continue
        left, right = gg.split(w)
        bound = (len(w) + 1) // 2 + 1
        assert len(left) <= bound and len(right) <= bound


def test_split_is_a_homomorphism():
    rng = random.Random(5)
    words = [
        gg.reduce_word("".join(rng.choice("abcd") for _ in range(rng.randint(0, 8))))
        for _ in range(300)
    ]
    stab = [w for w in words if gg.a_count(w) % 2 == 0]
    for u in stab[:15]:
        for v in stab[:15]:
            lu, ru = gg.split(u)
            lv, rv = gg.split(v)
            lw, rw = gg.split(gg.reduce_word(u + v))
            # equality in the group, decided by the solver
            assert gg.is_trivial(lw + gg.invert(gg.reduce_word(lu + lv)))
            assert gg.is_trivial(rw + gg.invert(gg.reduce_word(ru + rv)))


# -- the word problem ----------------------------------------------------------------


def test_is_trivial_examples():
    assert gg.is_trivial("")
    assert not gg.is_trivial("abab")
    assert gg.is_trivial("adadadad")  # (ad)^4
    assert not gg.is_trivial("adad")  # (ad)^2 has order 2


def test_generator_relations_by_solver_and_action():
    for rel in ["aa", "bb", "cc", "dd", "bcd"]:
        assert gg.is_trivial(rel)
        assert gg.acts_trivially_to_depth(rel, 8)


def test_solver_agrees_with_depth_oracle_short_words():
    count = 0
    for w in gg.reduced_words(6):
        count += 1
        assert gg.is_trivial(w) == gg.acts_trivially_to_depth(w, gg.ORACLE_DEPTH)
    assert count == 1 + 4 + 6 + 12 + 18 + 36 + 54


def test_moved_string_exhibits_nontriviality():
    for w in ["a", "abab", "adad", "b"]:
        s = gg.find_moved_string(w)
        assert s is not None
        assert gg.act(w, s) != s


def test_k_factor_disjointness():
    # H-conjugates of d split with trivial first coordinate, of ada with
    # trivial second coordinate
    rng = random.Random(6)
    h_words = [
        w
        for w in (
            gg.reduce_word("".join(rng.choice("abcd") for _ in range(rng.randint(0, 8))))
            for _ in range(400)
        )
        if gg.a_count(w) % 2 == 0
    ]
    for h in h_words[:40]:
        conj_d = gg.reduce_word(h + "d" + gg.invert(h))
        left, right = gg.split(conj_d)
        assert gg.is_trivial(left)
        conj_ada = gg.reduce_word(h + "ada" + gg.invert(h))
        left, right = gg.split(conj_ada)
        assert gg.is_trivial(right)


# -- the canned identity ----------------------------------------------------------------


def test_identity_on_generators():
    report = gg.verify_grig_identity(1)
    assert report.ok
    assert report.words_checked == report.elements_checked == 5  # identity plus a, b, c, d


def test_identity_on_identity_only():
    report = gg.verify_grig_identity(0)
    assert report.ok and report.words_checked == report.elements_checked == 1


def test_identity_longer_words():
    report = gg.verify_grig_identity(5)
    assert report.ok
    assert report.words_checked == 1 + 4 + 6 + 12 + 18 + 36
    # adad = dada, since (ad)^4 = 1, is the first element with two reduced words
    assert report.elements_checked == 68


def test_identity_word_shape():
    w = gg.grig_identity_word("a")
    assert gg.is_trivial(w)
    # the word is built left-normed: [[[[g,b],d],d],ada]
    inner = gg.commutator("a", "b")
    manual = gg.commutator(gg.commutator(gg.commutator(inner, "d"), "d"), "ada")
    assert manual == w


# -- the solver against the letter-by-letter reference ----------------------------
#
# The stack reducer, commutator and splitting below re-reduce every piece from
# scratch; the engine works on reduced words and reduces only at seams.  Both
# must return exactly the same strings.

_REF_KLEIN_MUL = {
    ("b", "c"): "d", ("c", "b"): "d", ("b", "d"): "c",
    ("d", "b"): "c", ("c", "d"): "b", ("d", "c"): "b",
    ("b", "b"): "", ("c", "c"): "", ("d", "d"): "",
}
_REF_PHI = {
    "b": ("a", "c"), "c": ("a", "d"), "d": ("", "b"),
    "aba": ("c", "a"), "aca": ("d", "a"), "ada": ("b", ""),
}


def _ref_push(out, ch):
    while True:
        if not out:
            out.append(ch)
            return
        top = out[-1]
        if top == "a" and ch == "a":
            out.pop()
            return
        if top in gg.KLEIN and ch in gg.KLEIN:
            prod = _REF_KLEIN_MUL[(top, ch)]
            out.pop()
            if not prod:
                return
            ch = prod
            continue
        out.append(ch)
        return


def ref_reduce(word):
    out = []
    for ch in word:
        if ch not in ("a", "b", "c", "d"):
            raise ValueError(f"bad Grigorchuk letter {ch!r}")
        _ref_push(out, ch)
    return "".join(out)


def ref_commutator(u, v):
    return ref_reduce(u[::-1] + v[::-1] + u + v)


def ref_split(word):
    word = ref_reduce(word)
    if word.count("a") % 2:
        raise ValueError(f"{word!r} has odd a-count; not in the stabilizer")
    left_parts, right_parts = [], []
    conjugated = False
    for ch in word:
        if ch == "a":
            conjugated = not conjugated
            continue
        l, r = _REF_PHI["a" + ch + "a"] if conjugated else _REF_PHI[ch]
        left_parts.append(l)
        right_parts.append(r)
    return ref_reduce("".join(left_parts)), ref_reduce("".join(right_parts))


def ref_identity_word(g):
    w = ref_commutator(g, "b")
    w = ref_commutator(w, "d")
    w = ref_commutator(w, "d")
    return ref_commutator(w, "ada")


# unreduced words, with long runs of one letter to force cascades
words = st.text(alphabet="abcd", max_size=40) | st.lists(
    st.tuples(st.sampled_from("abcd"), st.integers(1, 4)), max_size=10
).map(lambda runs: "".join(ch * k for ch, k in runs))


@settings(max_examples=300, deadline=None)
@given(words)
def test_reduce_matches_reference(w):
    assert gg.reduce_word(w) == ref_reduce(w)
    assert gg.reduce_word(ref_reduce(w)) == ref_reduce(w)


@settings(max_examples=300, deadline=None)
@given(words, words, st.integers(0, 40))
def test_mul_matches_reference(u, v, k):
    u, v = ref_reduce(u), ref_reduce(v)
    assert gg._mul(u, v) == ref_reduce(u + v)
    # v starting with the inverse of a suffix of u cancels deep into the seam
    v = ref_reduce(u[::-1][:k] + v)
    assert gg._mul(u, v) == ref_reduce(u + v)


@settings(max_examples=300, deadline=None)
@given(words, words)
def test_commutator_matches_reference(u, v):
    assert gg.commutator(u, v) == ref_commutator(u, v)


@settings(max_examples=300, deadline=None)
@given(words)
def test_split_matches_reference(w):
    if ref_reduce(w).count("a") % 2:
        with pytest.raises(ValueError):
            gg.split(w)
    else:
        assert gg.split(w) == ref_split(w)


def test_split_of_identity_words_matches_reference():
    # words of up to 136 letters (median 104) whose coordinates cancel down
    # to short words: deeper cancellation chains than `words` reaches
    count = 0
    for g in gg.reduced_words(8):
        w = gg.grig_identity_word(g)
        assert gg.split(w) == ref_split(w)
        count += 1
    assert count == 401


def test_a_long_word_splits_in_near_linear_time():
    # 4,000,000 letters whose coordinates stay long: the pieces between the
    # identity marks are joined pairwise, where a left fold of its ~330,000
    # pieces per coordinate copies the growing prefix each time
    rng = random.Random(10)
    klein = rng.choices("bcd", k=2_000_000)
    word = "a" + "a".join(klein)
    assert len(word) == 4_000_000 and gg.reduce_word(word) == word
    # the i-th Klein letter follows i + 1 a's, so the even ones are conjugated
    phi = [_REF_PHI["a" + x + "a"] if i % 2 == 0 else _REF_PHI[x] for i, x in enumerate(klein)]
    expected = tuple(gg.reduce_word("".join(parts)) for parts in zip(*phi))
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.alarm(_ALARM)
    try:
        assert gg.split(word) == expected
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert min(map(len, expected)) > 900_000


def test_reference_properties_cover_the_empty_word():
    assert gg.reduce_word("") == ref_reduce("") == ""
    assert gg._mul("", "") == ""
    assert gg._mul("ab", "") == gg._mul("", "ab") == "ab"
    assert gg.commutator("", "") == ref_commutator("", "") == ""
    assert gg.split("") == ref_split("") == ("", "")


def test_bad_letters_are_rejected():
    for word in ["x", "abx", "ab cd", "aA"]:
        with pytest.raises(ValueError):
            gg.reduce_word(word)
        with pytest.raises(ValueError):
            gg.is_trivial(word)
        with pytest.raises(ValueError):
            gg.act(word, "01")
        with pytest.raises(ValueError):
            gg.find_moved_string(word)
        with pytest.raises(ValueError):
            gg.acts_trivially_to_depth(word)
    for s in ["2", "012", "0 1"]:
        with pytest.raises(ValueError):
            gg.act("ab", s)


def test_reduced_words_are_every_reduced_word_in_shortlex_order():
    words = list(gg.reduced_words(7))
    assert words == sorted(words, key=lambda w: (len(w), w))
    every = ["".join(t) for n in range(8) for t in itertools.product("abcd", repeat=n)]
    assert set(words) == {w for w in every if ref_reduce(w) == w}
    assert len(words) == len(set(words))


def test_identity_word_matches_reference():
    count = 0
    for g in gg.reduced_words(10):
        count += 1
        assert gg.grig_identity_word(g) == ref_identity_word(g)
    assert count == 1211
    # unreduced input is reduced first
    assert gg.grig_identity_word("abba") == ref_identity_word("abba")


def test_identity_holds_on_all_words_of_length_14():
    report = gg.verify_grig_identity(14)
    assert report.words_checked == 10_931
    assert report.violations == []


# -- the element search against the word-by-word reference ------------------------


def ref_verify_grig_identity(max_len):
    """Words checked and violating words, deciding every reduced word."""
    checked, violations = 0, []
    for g in gg.reduced_words(max_len):
        checked += 1
        if not gg.is_trivial(gg.grig_identity_word(g)):
            violations.append(g)
    return checked, violations


def test_element_search_matches_word_reference():
    for n in range(13):
        report = gg.verify_grig_identity(n)
        checked, violations = ref_verify_grig_identity(n)
        assert report.words_checked == checked
        assert (report.ok, report.violations) == (not violations, violations)


def test_word_count_closed_form():
    for n in range(13):
        assert gg.reduced_word_count(n) == len(list(gg.reduced_words(n)))


def test_elements_of_the_ball():
    # the ball grows far more slowly than the set of reduced words
    for radius, elements in ((10, 643), (14, 3_313), (18, 15_303)):
        report = gg.verify_grig_identity(radius)
        assert report.elements_checked == elements
        assert report.ok


def test_a_violating_element_is_reported_at_its_least_word(monkeypatch, capsys):
    # break the identity on the one element adad = dada: the word reference
    # reports both words, the element search its shortlex-least word only
    identity_word = gg.grig_identity_word

    def broken(g):
        return "a" if gg.is_trivial(g + "dada") else identity_word(g)

    monkeypatch.setattr(gg, "grig_identity_word", broken)
    assert ref_verify_grig_identity(6) == (131, ["adad", "dada"])
    report = gg.verify_grig_identity(6)
    assert not report.ok and report.violations == ["adad"]
    assert report.words_checked == 131 and report.elements_checked == 108
    assert cli.main(["grig", "verify-identity", "--max-len", "6"]) == cli.EXIT_VERIFICATION
    assert capsys.readouterr().out == "checked 131 words, 1 violations\n"


def test_solver_cache_is_bounded():
    info = gg._is_trivial_reduced.cache_info()
    assert info.maxsize == gg.SOLVER_CACHE_SIZE
    # the bound keeps every word verify_grig_identity(16) decides
    assert gg.SOLVER_CACHE_SIZE >= 3_909
    report = gg.verify_grig_identity(10)
    assert report.violations == []
    assert gg._is_trivial_reduced.cache_info().currsize <= gg.SOLVER_CACHE_SIZE



def test_identity_ball_is_capped_before_the_walk(monkeypatch):
    assert gg.reduced_word_count(22) == 885_731 <= gg.MAX_IDENTITY_WORDS == 1_000_000
    assert gg.reduced_word_count(23) == 1_594_319

    def no_walk(*args):
        raise AssertionError("the walk started")

    # the walk decides reduced words only, so it calls the reduced solver
    monkeypatch.setattr(gg, "_is_trivial_reduced", no_walk)
    # 10^20 is refused from its size alone: the count is never formed
    for max_len in (23, 40, 10**20):
        with pytest.raises(BudgetExceeded, match=f"^the ball of radius {max_len} has more "):
            gg.verify_grig_identity(max_len)

# -- the oracle against letter-by-letter references ----------------------------------


def test_level_permutations_are_the_action():
    # the oracle's byte tables and the references below are built from these
    for depth in range(9):
        perms = gg.level_permutations(depth)
        for x in range(1 << depth):
            s = format(x, f"0{depth}b") if depth else ""
            for ch in "abcd":
                assert perms[ch][x] == int(gg.act(ch, s) or "0", 2)


@functools.lru_cache(maxsize=None)
def _ref_perms(depth):
    return {ch: np.asarray(perm) for ch, perm in gg.level_permutations(depth).items()}


def ref_word_permutation(word, depth):
    perms = _ref_perms(depth)
    acc = np.arange(1 << depth, dtype=np.int64)
    for ch in word:
        acc = acc[perms[ch]]
    return acc


def ref_find_moved_string(word, max_depth):
    for depth in range(1, max_depth + 1):
        perm = ref_word_permutation(word, depth)
        moved = np.nonzero(perm != np.arange(1 << depth, dtype=np.int64))[0]
        if moved.size:
            return format(int(moved[0]), f"0{depth}b")
    return None


def _oracle_words(rng, count):
    # random words, conjugated relators (trivial), and [[[g, b], d], d], whose
    # first moved string, if any, lies at depth 4 or 6
    relators = ["adadadad", "acacacacacacacac", "bcd"]
    for _ in range(count):
        w = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 17)))
        kind = rng.randrange(3)
        if kind == 1:
            w = w + rng.choice(relators) + w[::-1]
        elif kind == 2:
            w = ref_commutator(ref_commutator(ref_commutator(w, "b"), "d"), "d")
        yield w


def _seam_words(rng):
    # three words of every length 0-13: the walk reads the reversed word in
    # chunks of CHUNK letters, so its last chunk takes every length from 1 to
    # CHUNK, after zero to three seams
    for n in range(14):
        for _ in range(3):
            yield "".join(rng.choice("abcd") for _ in range(n))


def test_word_permutation_matches_reference():
    # the oracle fixes level d iff the reference permutation of level d is
    # the identity, at every depth up to the oracle's bound of 16
    rng = random.Random(8)
    for w in itertools.chain(_oracle_words(rng, 300), _seam_words(rng)):
        for depth in range(2 * gg.KEY_DEPTH + 1):
            fixed = np.array_equal(ref_word_permutation(w, depth), np.arange(1 << depth))
            assert gg.acts_trivially_to_depth(w, depth) == fixed


def test_find_moved_string_matches_level_by_level_reference():
    rng = random.Random(9)
    found = set()
    for w in _oracle_words(rng, 300):
        depth = rng.choice([0, 1, 3, 5, 8, 12, 12, 12])
        s = gg.find_moved_string(w, depth)
        assert s == ref_find_moved_string(w, depth)
        found.add(None if s is None else len(s))
    for w in _seam_words(rng):
        for depth in (0, 3, 8, 9, 12, 16):
            assert gg.find_moved_string(w, depth) == ref_find_moved_string(w, depth)
    # the words reach shallow and deep moved strings, and fixed ones
    assert None in found and max(d for d in found if d is not None) >= 6


def _lift(z):
    # [sigma(z), d] = (1, [z, b]) for sigma: a -> aca, b -> d, c -> b, d -> c,
    # so each lift moves its first string two levels deeper
    sigma = "".join({"a": "aca", "b": "d", "c": "b", "d": "c"}[ch] for ch in z)
    return ref_commutator(sigma, "d")


def _deep_words():
    z, words = "abac", []
    for _ in range(5):
        z = _lift(z)
        words.append(z)
    return words


def test_section_path_matches_reference():
    # words of 17 to 4,097 letters that first move a string at levels 4 to 12,
    # so levels 10 and 12 are reached only through the level-8 sections
    deep = _deep_words()
    assert [len(w) for w in deep] == [17, 65, 257, 1025, 4097]
    # a trivial word whose sections are long and nonempty
    trivial = deep[3] + "adadadad" + deep[3][::-1]
    # moved below two vertices: the first vertex wins a tie of lengths, the
    # shorter string wins over the first vertex
    tie = deep[3] + "a" + deep[3] + "a"
    shorter = deep[3] + "a" + deep[4] + "a"
    for w in deep + [trivial, tie, shorter]:
        first = ref_find_moved_string(w, 14)
        for depth in range(15):
            fixed = np.array_equal(ref_word_permutation(w, depth), np.arange(1 << depth))
            assert gg.acts_trivially_to_depth(w, depth) == fixed
            assert gg.find_moved_string(w, depth) == (None if fixed else first)
    assert [len(gg.find_moved_string(w, 14)) for w in deep] == [4, 6, 8, 10, 12]
    assert gg.acts_trivially_to_depth(trivial, 14)
    assert gg.find_moved_string(tie) == "0111111000"
    assert gg.find_moved_string(shorter) == "1111111000"


def test_oracle_rejects_negative_depth():
    with pytest.raises(ValueError, match="^depth must be non-negative, got -1$"):
        gg.acts_trivially_to_depth("ab", -1)
    with pytest.raises(ValueError, match="^max_depth must be non-negative, got -2$"):
        gg.find_moved_string("ab", -2)
    # a section below level 8 is one 256-byte action, so depth is at most 16
    with pytest.raises(ValueError, match="^depth must be at most 16, got 17$"):
        gg.acts_trivially_to_depth("ab", 17)
    with pytest.raises(ValueError, match="^max_depth must be at most 16, got 17$"):
        gg.find_moved_string("ab", 17)
    assert gg.acts_trivially_to_depth("ab", 0) and gg.find_moved_string("ab", 0) is None


def test_oracle_does_not_use_the_solver(monkeypatch):
    # the oracle cross-checks the solver, so it must not route through it
    trivial = ["", "adadadad", "bcd", gg.grig_identity_word("abac"), "abab" * 2 + "baba" * 2]
    moved = ["a", "abab", "adad", _deep_words()[3]]

    def refuse(*args):
        raise AssertionError("the oracle called the solver")

    for name in ("reduce_word", "_mul", "_join_pieces", "_split_reduced", "_is_trivial_reduced"):
        monkeypatch.setattr(gg, name, refuse)
    # the walk's chunk steps are built afresh, from the level tables and the
    # Klein letters' sections alone
    gg._steps.cache_clear()
    for w in trivial:
        assert gg.acts_trivially_to_depth(w)
        assert gg.find_moved_string(w) is None
    for w in moved:
        assert not gg.acts_trivially_to_depth(w)
        assert gg.find_moved_string(w) is not None
