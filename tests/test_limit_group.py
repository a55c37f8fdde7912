"""Arithmetic in A and G: normal forms, orders, oracles, the table cache."""

import hashlib
import io
import itertools
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from miflab import (
    INFINITE,
    CapacityExceeded,
    IndexSet,
    LimitGroup,
    MiflabError,
    ParseError,
    VerificationError,
    Window,
    shift,
)
from miflab import limit_group
from miflab.limit_group import AWord


def test_shift_examples(default_group):
    G = default_group
    assert shift(G.aword([(0, 1)]), 1).letters == ((1, 1),)
    assert shift(G.aword(), 5).letters == ()
    assert shift(G.aword([(3, 1), (0, 1)]), -2).letters == ((1, 1), (-2, 1))


def test_shift_is_a_homomorphism(default_group):
    G = default_group
    rng = random.Random(7)
    for _ in range(200):
        u = G.aword([(rng.randint(-3, 3), 1) for _ in range(rng.randint(0, 5))])
        v = G.aword([(rng.randint(-3, 3), 1) for _ in range(rng.randint(0, 5))])
        k = rng.randint(-4, 4)
        assert shift(u * v, k) == shift(u, k) * shift(v, k)


def test_multiply_examples(default_group):
    G = default_group
    a0 = G.generator(0)
    t = G.t_power(1)
    assert ((a0 * t) * a0).render() == "a0 a1 t"
    assert (G.identity_element * a0) == a0
    assert (t * (a0 * G.t_power(-1))).render() == "a1"


def test_is_trivial_examples(default_group):
    G = default_group
    a0, a1 = G.generator(0), G.generator(1)
    assert G.identity_element.is_trivial()
    assert not (a0 * G.generator(-1)).is_trivial()
    comm = a0.inverse() * a1.inverse() * a0 * a1
    assert comm.is_trivial()  # c_1 = 1 makes adjacent generators commute


def test_order_examples(default_group):
    G = default_group
    assert G.t_power(1).order() == INFINITE
    assert G.generator(0).order() == 2
    assert G.identity_element.order() == 1


def test_abelianize_examples(default_group):
    G = default_group
    e = G.generator(0) * G.generator(1) * G.generator(1)
    img = e.abelianize()
    assert img.kind == "index_vector"
    assert img.vector == {0: 1}
    assert img.beta == 0
    zero = G.identity_element.abelianize()
    assert zero.vector == {} and zero.beta == 0
    # beta = 0 puts a commutator against t in A, where the index vector is
    # the abelianization: [a0, t] = a0 a-1 is nontrivial
    t = G.t_power(1)
    comm = G.generator(0).inverse() * t.inverse() * G.generator(0) * t
    img = comm.abelianize()
    assert img.kind == "index_vector"
    assert img.vector == {-1: 1, 0: 1} and img.beta == 0
    assert img.nonzero_on_a_part
    assert not comm.is_trivial()
    # beta != 0 collapses: only (total, beta) survives t-mixing
    img = (comm * t).abelianize()
    assert img.kind == "collapsed"
    assert img.vector == {} and img.total == 0 and img.beta == 1
    assert not img.nonzero_on_a_part  # oracle inconclusive; the engine decides
    assert not (comm * t).is_trivial()


def test_oracle_soundness_sampled(default_group):
    G = default_group
    rng = random.Random(11)
    for _ in range(300):
        lo = rng.randint(-2, 0)
        letters = [(rng.randint(lo, lo + 3), 1) for _ in range(rng.randint(0, 6))]
        g = G.element(letters)
        if g.abelianize().nonzero_on_a_part:
            assert not g.is_trivial()
    # products with t whose t-exponents cancel lie in A, and their index
    # vector decides too
    t = G.t_power(1)
    factors = [G.generator(-1), G.generator(0), G.generator(1), t, t.inverse()]
    decided = 0
    for _ in range(1000):
        chosen = [rng.choice(factors) for _ in range(rng.randint(2, 8))]
        g = G.product(chosen)
        support = g.a.support
        if g.beta or support is None or support[1] - support[0] > 3:
            continue
        if g.abelianize().nonzero_on_a_part:
            assert not g.is_trivial()
            decided += any(f.beta for f in chosen)
    assert decided


def test_order_dichotomy_sampled(default_group):
    G = default_group
    rng = random.Random(13)
    for _ in range(150):
        lo = rng.randint(-2, 0)
        letters = [(rng.randint(lo, lo + 3), 1) for _ in range(rng.randint(0, 5))]
        beta = rng.randint(-3, 3)
        g = G.element(letters, beta)
        if beta != 0:
            assert g.order() == INFINITE
        else:
            order = g.order()
            assert order != INFINITE
            while order % 2 == 0:
                order //= 2
            assert order == 1


def test_exponent_bound_in_regular_regime():
    # p greater than every queried class bound: beta-free p-th powers die
    G = LimitGroup(5, "2")
    rng = random.Random(17)
    for _ in range(40):
        letters = [(rng.randint(0, 1), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        g = G.element(letters)
        assert (g ** 5).is_trivial()


def test_group_laws_raw_exactness(default_group):
    G = default_group
    rng = random.Random(19)
    for _ in range(300):
        def sample():
            lo = rng.randint(-2, 0)
            letters = [(rng.randint(lo, lo + 2), 1) for _ in range(rng.randint(0, 4))]
            return G.element(letters, rng.randint(-2, 2))

        g, h, k = sample(), sample(), sample()
        assert (g * h) * k == g * (h * k)
        assert (g * g.inverse()).is_trivial()
        assert (g.inverse() * g).is_trivial()


def test_equality_via_canonical_forms(default_group):
    G = default_group
    # a_0 a_1 a_0 a_1 = (a_0 a_1)^2 = 1 in the abelian window [0, 1]
    w = G.element([(0, 1), (1, 1), (0, 1), (1, 1)])
    assert w == G.identity_element
    assert w.is_trivial()
    # equality across differently-built words
    x = G.generator(1) * G.generator(0)
    y = G.generator(0) * G.generator(1)
    assert x == y


def test_retraction_consistency_sampled(c12_group):
    """Triviality decided in the support window agrees with wider windows."""
    G = c12_group
    rng = random.Random(23)
    for _ in range(120):
        letters = [(rng.randint(0, 2), 1) for _ in range(rng.randint(1, 6))]
        word = G.aword(letters)
        canon_small = G.canonical_aword(word)
        # recompute inside the wider window [-1, 3] by tracing there directly
        big = G.table_for_width(4)
        coset = big.trace(G._columns(word, -1))
        canon_big = AWord(
            G.p, tuple(((x >> 1) - 1, G.p - 1 if x & 1 else 1) for x in big.word(coset))
        )
        assert canon_small == canon_big
        assert canon_small.is_empty() == canon_big.is_empty()


def test_canonical_window_stability_p3(p3_group):
    G = p3_group
    # a_0^2 canonicalizes to the inverse letter (shortlex prefers length 1)
    g = G.element([(0, 1), (0, 1)])
    assert g.canonical_aword().letters == ((0, 2),)


def test_capacity_exceeded_bubbles_up():
    # a width-3 window needs 1024 cosets under c_n = n, over the tiny cap
    G = LimitGroup(2, "n", max_cosets=64)
    wide = G.element([(-1, 1), (0, 1), (2, 1), (-1, 1), (1, 1), (0, 1)])
    with pytest.raises(CapacityExceeded):
        wide.is_trivial()


def test_parse_render_round_trip(default_group, c11_group):
    G = default_group
    for text in ["1", "a0", "a-2 a1 t^-4", "a0 a1 t"]:
        g = G.parse(text)
        assert G.parse(g.render()) == g
    assert G.parse("a0 t^2 a1").render() == "a0 a3 t^2"
    assert G.parse("[a0, a1]").is_trivial()
    # wide supports are fine on instances whose window groups stay small
    wide = c11_group.parse("a-2 a3 t^-4")
    assert c11_group.parse(wide.render()) == wide


def test_wide_support_is_capacity_limited_on_steep_instances(default_group):
    # deciding triviality of a word on {0,1,2,4} under c_n = n needs a group
    # past the coset cap; the engine refuses loudly
    with pytest.raises(CapacityExceeded, match=r"for index set \{0,1,2,4\} "):
        default_group.parse("a-2 a-1 a0 a2 t^-4")


def _record_built_widths(monkeypatch):
    built = []
    build = limit_group.build_window_presentation

    def recording(p, c, window, max_width):
        built.append(window.width)
        return build(p, c, window, max_width)

    monkeypatch.setattr(limit_group, "build_window_presentation", recording)
    return built


def test_capacity_refusal_stops_at_the_narrowest_width(monkeypatch):
    # B([0,4]) of c_n = n passes the coset cap, so B([0,5]) is refused there,
    # before its 19,536-relator presentation is built
    built = _record_built_widths(monkeypatch)
    with pytest.raises(CapacityExceeded, match=r"for window 0\.\.4 "):
        LimitGroup(2, "n").window_order(Window(0, 5))
    assert built == [0, 1, 2, 3, 4]



def test_p_past_the_coset_cap_is_refused_before_the_primality_test(monkeypatch):
    # B([0,0]) has order p; trial division of a 20-digit p takes ~sqrt(p) steps
    def no_test(n):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(limit_group, "is_prime", no_test)
    for p, cap in [(99999999999999999989, 10**6), (7, 5), (4, 3)]:
        with pytest.raises(CapacityExceeded, match=f"^p={p} exceeds max_cosets={cap} "):
            LimitGroup(p, "n", max_cosets=cap)
    monkeypatch.undo()
    assert LimitGroup(5, "n", max_cosets=5).window_order(Window(0, 0)) == 5


def test_a_window_past_its_order_bound_is_refused_before_any_table(monkeypatch):
    # B([0,w]) maps onto C_p^(w+1), so p^(w+1) > max_cosets refuses it; the
    # power is compared by repeated multiplication, and no narrower width is
    # built first (once a RecursionError at this width)
    built = _record_built_widths(monkeypatch)
    G = LimitGroup(2, "1", max_window_width=10_000)
    with pytest.raises(
        CapacityExceeded,
        match=r"^window 0\.\.5000 \(p=2, c=1\) maps onto C_2\^5001, so its order is at least "
        r"2\^5001, over max_cosets=1000000$",
    ):
        G.window_order(Window(0, 5000))
    assert built == [] and G.cached_tables() == {}
    # (2, "1") windows are elementary abelian: 2^3 cosets fit a cap of 8
    G = LimitGroup(2, "1", max_cosets=8)
    assert G.window_order(Window(0, 1)) == 4
    assert G.window_order(Window(0, 2)) == 8
    assert built == [0, 1, 2]
    with pytest.raises(CapacityExceeded, match=r"^window 0\.\.3 \(p=2, c=1\) .* 2\^4, over max_cosets=8$"):
        G.window_order(Window(0, 3))
    assert built == [0, 1, 2]


def test_width_over_the_bound_is_refused_at_once(monkeypatch):
    built = _record_built_widths(monkeypatch)
    G = LimitGroup(2, "n", max_window_width=2)
    with pytest.raises(CapacityExceeded, match="^window width 4 exceeds the configured bound 2$"):
        G.window_order(Window(0, 4))
    assert built == [] and G.cached_tables() == {}


def test_instance_mixing_is_an_error(default_group, c12_group):
    with pytest.raises(ValueError):
        default_group.generator(0) * c12_group.generator(0)


def test_disk_cache_round_trip(tmp_path):
    G1 = LimitGroup(2, "1,2", cache_dir=str(tmp_path))
    t1 = G1.table_for_width(2)
    # one .npy file for each width built: 2 and the widths below it
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(G1._cache_path(w)) for w in range(3)
    )
    assert all(name.endswith(".npy") for name in os.listdir(tmp_path))
    # a fresh instance with the same cache dir loads the identical table
    G2 = LimitGroup(2, "1,2", cache_dir=str(tmp_path), max_cosets=999_999)
    t2 = G2.table_for_width(2)
    assert t2.words() == t1.words()
    assert all((a == b).all() for a, b in zip(t2.action, t1.action))


def test_cache_file_bytes_are_pinned(tmp_path):
    # the cache file is the canonical int32 action as a row-major .npy array
    G = LimitGroup(3, "2", cache_dir=str(tmp_path))
    G.table_for_width(2)
    path = tmp_path / "table-f3ff325b56110335b0130ec2.npy"
    assert G._cache_path(2) == str(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "19e391bf8e4532cfbee705a3e71f32acabaffdb3c5ebebd98fda50c66a92b3ac"


def test_a_column_major_cache_file_loads_to_an_equal_table(tmp_path):
    # earlier versions wrote the same array column-major (fortran_order True)
    built = LimitGroup(3, "2", cache_dir=str(tmp_path)).table_for_width(2)
    path = LimitGroup(3, "2", cache_dir=str(tmp_path))._cache_path(2)
    np.save(path, np.asfortranarray(built.action))
    with open(path, "rb") as fh:
        np.lib.format.read_magic(fh)
        assert np.lib.format.read_array_header_1_0(fh)[1]  # fortran_order
    loaded = LimitGroup(3, "2", cache_dir=str(tmp_path)).table_for_width(2)
    assert loaded.stats is None
    assert loaded.action.flags.c_contiguous
    assert np.array_equal(loaded.action, built.action)
    assert loaded.words() == built.words()


def test_files_of_another_format_are_ignored(tmp_path):
    G = LimitGroup(2, "1,2", cache_dir=str(tmp_path))
    old = os.path.splitext(G._cache_path(1))[0] + ".json"
    with open(old, "w") as fh:
        fh.write("{not a table")
    assert G.table_for_width(1).coset_count == 4
    assert sorted(os.listdir(tmp_path)) == sorted(
        [os.path.basename(old)] + [os.path.basename(G._cache_path(w)) for w in (0, 1)]
    )


def _width_one_cache_file(tmp_path):
    G = LimitGroup(2, "1,2", cache_dir=str(tmp_path))
    G.table_for_width(1)
    return tmp_path / os.path.basename(G._cache_path(1))


def _reload_width_one(tmp_path):
    return LimitGroup(2, "1,2", cache_dir=str(tmp_path)).table_for_width(1)


def test_corrupt_disk_cache_is_a_miflab_error(tmp_path):
    path = _width_one_cache_file(tmp_path)
    action = np.load(path)
    # every column fixes every coset, so only the identity coset is reachable
    np.save(path, np.tile(np.arange(action.shape[1], dtype=np.int32), (len(action), 1)))
    with pytest.raises(MiflabError, match="unreachable"):
        _reload_width_one(tmp_path)


def _set_entry(value):
    def edit(action):
        action[0][1] = value
        return action

    return edit


def _swap_entries(action):
    col = action[0]
    col[0], col[1] = col[1], col[0]
    return action


@pytest.mark.parametrize(
    "edit",
    [
        _set_entry(-1),
        _set_entry(99),
        lambda action: action.astype(np.float64),
        _swap_entries,
        lambda action: action[:-1],
    ],
    ids=["minus-one", "out-of-range", "float", "not-inverse", "missing-column"],
)
def test_corrupt_cache_entries_are_refused(tmp_path, edit):
    path = _width_one_cache_file(tmp_path)
    np.save(path, edit(np.load(path)))
    with pytest.raises(MiflabError, match="corrupt") as refused:
        _reload_width_one(tmp_path)
    assert str(path) in str(refused.value)


def _refuses_rewritten_file(tmp_path, rewrite):
    path = _width_one_cache_file(tmp_path)
    path.write_bytes(rewrite(path.read_bytes()))
    with pytest.raises(MiflabError, match="corrupt") as refused:
        _reload_width_one(tmp_path)
    assert str(path) in str(refused.value)


def test_truncated_cache_file_is_refused(tmp_path):
    _refuses_rewritten_file(tmp_path, lambda data: data[:-5])


def _header_only(shape):
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(fh, {"descr": "<i4", "fortran_order": False, "shape": shape})
    return fh.getvalue()


# a header claiming 8 TiB of int32 is refused before its data is allocated
@pytest.mark.parametrize(
    "data", [b"", b'{"coset_count": 4}', _header_only((2**40, 2))], ids=["empty", "not-npy", "huge-header"]
)
def test_unreadable_cache_file_is_refused(tmp_path, data):
    _refuses_rewritten_file(tmp_path, lambda _: data)


def test_directory_at_a_cache_entry_is_refused(tmp_path):
    G = LimitGroup(2, "1,2", cache_dir=str(tmp_path))
    os.mkdir(G._cache_path(1))
    with pytest.raises(VerificationError, match="corrupt") as refused:
        G.table_for_width(1)
    assert G._cache_path(1) in str(refused.value)


def test_cache_dir_that_is_a_file_is_refused(tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    with pytest.raises(ParseError, match="cannot write coset table cache file"):
        LimitGroup(2, "1,2", cache_dir=str(not_a_dir)).table_for_width(1)


def test_cache_write_uses_a_private_temp_file(tmp_path):
    G = LimitGroup(2, "1,2", cache_dir=str(tmp_path))
    path = G._cache_path(1)
    # a directory squatting on the old shared temp name
    os.mkdir(path + ".tmp")
    G.table_for_width(1)
    assert sorted(os.listdir(tmp_path)) == sorted(
        [os.path.basename(G._cache_path(0)), os.path.basename(path), os.path.basename(path) + ".tmp"]
    )
    reloaded = LimitGroup(2, "1,2", cache_dir=str(tmp_path)).table_for_width(1)
    assert reloaded.words() == G.table_for_width(1).words()


def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def broken_save(fh, arr):
        fh.write(b"\x93NUMPY")
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", broken_save)
    with pytest.raises(ParseError, match="disk full"):
        LimitGroup(2, "1,2", cache_dir=str(tmp_path)).table_for_width(1)
    assert os.listdir(tmp_path) == []


def test_pow_and_conjugate(default_group):
    G = default_group
    t = G.t_power(1)
    assert (t ** 5).beta == 5
    assert (t ** -3).beta == -3
    assert (t ** 0).is_trivial()
    g = G.generator(0)
    # t a_i t^-1 = a_{i+1}; the conjugation helper is g^h = h^-1 g h
    assert t * g * t.inverse() == G.generator(1)
    assert g.conjugate_by(t) == G.generator(-1)


def test_wide_powers_with_a_t_part_are_built():
    # past the window width bound, but beta != 0 decides them nontrivial,
    # and a later product can cancel the wide letters again
    G = LimitGroup(2, "n", max_window_width=6)
    g = G.element([(-1, 1), (1, 1), (2, 1)], -3)
    assert (g ** 4).a.support == (-10, 2) and not (g ** 4).is_trivial()
    assert (g ** 4 * g ** -4).is_trivial()


def test_power_writing_out_too_many_letters_is_refused(monkeypatch):
    monkeypatch.setattr(limit_group, "MAX_SYLLABLES", 8)
    G = LimitGroup(2, "1")
    x = G.element([(0, 1), (1, 1)], 2)
    assert len((x ** -4).a.letters) == 8
    with pytest.raises(CapacityExceeded, match=r"^the power \^-5 of a0 a1 t\^2 would write out 10 letters, past the limit of 8$"):
        x ** -5
    # without a t-part the cap does not apply
    assert len((G.element([(0, 1), (1, 1)]) ** 9).a.letters) == 18


def test_huge_power_is_refused_before_any_letter(default_group):
    g = default_group.element([(0, 1)], 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded, match="would write out 1000000000 letters, past the limit of 100000$"):
            g ** 10**9
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("p,c", [(2, "n"), (3, "1,2")])
def test_radius_awords_list_each_element_once_in_normal_form(p, c):
    """The radius listings of r = 0..R partition B([-R, R]): each element
    once, in normal form, at the radius its support reaches.  Odd columns of
    the p = 3 tables read back as exponent p - 1.  B([-2, 2]) of (2, "n")
    has width 4, past the default coset cap, and is refused every time."""
    G = LimitGroup(p, c)
    listed = []
    for r in range(3):
        if (p, c, r) == (2, "n", 2):
            for _ in range(2):
                with pytest.raises(CapacityExceeded):
                    G.radius_awords(r)
            continue
        words = G.radius_awords(r)
        assert G.radius_awords(r) is words
        assert all(G.canonical_aword(u) == u for u in words)
        if r:
            assert all(r in (-u.support[0], u.support[1]) for u in words)
        listed += words
        assert len(set(listed)) == len(listed) == G.window_order(Window(-r, r))
    assert listed[0].is_empty()


# -- answers the letters decide -----------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_letter_words_are_their_own_normal_form(p):
    G = LimitGroup(p, "n")
    table = G.table_for_width(0)
    for i in range(-3, 4):
        for e in range(1, p):
            word = G.aword([(i, e)])
            reference = G._aword(table.normal_form((0,) * e), i)
            assert G.canonical_aword(word) == reference == word
            assert G.generator(i, e).order() == p


def test_one_letter_answers_build_no_table():
    G = LimitGroup(5, "n")
    g = G.generator(-2, 3)
    assert not g.is_trivial()
    assert g.render_canonical() == "a-2^3"
    assert g.order() == 5
    assert G.cached_tables() == {}


def test_powers_without_an_a_part_are_t_powers(monkeypatch):
    G = LimitGroup(2, "n")
    elements = (G.identity_element, G.t_power(1), G.t_power(-2), G.t_power(5))
    folds = {}
    for g in elements:
        for k in range(-20, 21):
            fold = G.identity_element
            for _ in range(abs(k)):
                fold = fold * (g if k > 0 else g.inverse())
            folds[g, k] = fold

    def no_product(self, factors):
        raise AssertionError("a power of t^b multiplied")

    monkeypatch.setattr(LimitGroup, "product", no_product)
    big = G.t_power(3) ** 10**12
    assert big.beta == 3 * 10**12 and big.a.letters == ()
    for (g, k), fold in folds.items():
        power = g ** k
        assert (power.beta, power.a.letters) == (fold.beta, fold.a.letters)


# -- index-set tables ---------------------------------------------------------------

# the windows of the benchmark's `tables` grid: (p, c, widest width)
GRID = ((2, "n", 3), (2, "1,2", 4), (3, "1,2", 3), (5, "1,2", 2), (3, "2", 3))


def _gapped_sets(width):
    """Every index set inside [0, width] that is not an interval."""
    for k in range(2, width + 1):
        for t in itertools.combinations(range(width + 1), k):
            if t[-1] - t[0] != k - 1:
                yield t


@pytest.mark.parametrize("p,c,w", GRID)
def test_index_set_normal_forms_and_orders_match_the_window_table(p, c, w):
    # <a_T> in B([0,w]) is B(T): a word on T has the normal form and the
    # order there that its own index-set table gives, letter for letter
    window = LimitGroup(p, c)
    table = window.table_for_width(w)
    rng = random.Random(20261020)
    checked = 0
    for t in _gapped_sets(w):
        G = LimitGroup(p, c)  # holds no window table of T's spread
        for _ in range(30):
            order = rng.sample(t, len(t))
            letters = [(i, rng.randint(1, p - 1)) for i in order]
            letters += [(rng.choice(t), rng.randint(1, p - 1)) for _ in range(rng.randint(0, 10))]
            word = G.aword(letters)
            columns = window._columns(word, 0)
            assert G.canonical_aword(word) == window._aword(table.normal_form(columns), 0)
            assert G.aword_order(word) == table.element_order(columns)
            checked += 1
        key = tuple(i - t[0] for i in t)
        assert key in G.index_set_tables()
        assert t[-1] - t[0] not in G.cached_tables()
    assert checked == 30 * len(list(_gapped_sets(w)))


def test_a_built_window_table_answers_before_an_index_set_table():
    # the `tables` benchmark builds every width of its grid first; its words
    # on gapped sets then build no index-set table
    G = LimitGroup(2, "1,2")
    G.table_for_width(4)
    rng = random.Random(5)
    for _ in range(200):
        G.element([(rng.randint(0, 4), 1) for _ in range(rng.randint(1, 10))]).order()
    assert G.index_set_tables() == {}
    # without the window table of its spread, a0 a3 is decided in B({0,3})
    H = LimitGroup(2, "1,2")
    H.table_for_width(2)
    assert H.element([(0, 1), (3, 1)]).order() == 4
    assert set(H.index_set_tables()) == {(0, 3)} and set(H.cached_tables()) == {0, 1, 2}


def test_index_set_tables_are_keyed_by_their_pattern(tmp_path):
    G = LimitGroup(2, "n", cache_dir=str(tmp_path))
    g = G.element([(5, 1), (7, 1), (8, 1)])
    h = G.element([(-3, 1), (-1, 1), (0, 1)])
    assert g.order() == h.order() == 8
    assert list(G.index_set_tables()) == [(0, 2), (0, 2, 3)]
    table = G.index_set_tables()[0, 2, 3]
    assert table.presentation.index_set == IndexSet((0, 2, 3))
    assert table.coset_count == 128 and table.relator_violations() == 0
    assert table.stats.subgroup_order == G.index_set_tables()[0, 2].coset_count == 8
    # index-set tables stay in memory: the disk cache holds windows only
    assert G.cached_tables().keys() == {0}
    assert os.listdir(tmp_path) == [os.path.basename(G._cache_path(0))]


def test_a_wide_index_set_is_refused_before_any_work(monkeypatch):
    # the spread bound comes first, so a0 a^(10^30) reaches no presentation
    # builder, and no window key of 10^30 indices is formed
    built = _record_built_widths(monkeypatch)
    G = LimitGroup(2, "n")
    for far in (7, 10**30):
        g = G.element([(0, 1), (0, 1), (0, 1), (far, 1)])
        with pytest.raises(
            CapacityExceeded,
            match=rf"^index set \{{0,{far}\}} of spread {far} exceeds the configured bound 6$",
        ):
            g.is_trivial()
    assert built == []
    assert G.cached_tables() == {} and G.index_set_tables() == {}
    # under a width bound that admits them, the order bound refuses the
    # window before its 10^30 indices are listed, and the letter cap the set
    # before its weight-(10^30 + 1) relator is built
    G = LimitGroup(2, "n", max_window_width=10**31)
    with pytest.raises(CapacityExceeded, match=r"^window 0\.\.10{30} \(p=2, c=n\) maps onto C_2\^10{29}1, "):
        G.window_order(Window(0, 10**30))
    with pytest.raises(CapacityExceeded, match=r"^the commutator relators of index set \{0,10{30}\} "):
        G.element([(0, 1), (10**30, 1)]).order()
    assert G.cached_tables().keys() == {0} and G.index_set_tables() == {}


def test_index_set_refusals_name_the_set():
    # B({0,2}) maps onto C_5^2: 25 > 24 is refused before any table
    G = LimitGroup(5, "n", max_cosets=24)
    with pytest.raises(
        CapacityExceeded,
        match=r"^index set \{0,2\} \(p=5, c=n\) maps onto C_5\^2, so its order is at least "
        r"5\^2, over max_cosets=24$",
    ):
        G.element([(0, 1), (2, 1)]).order()
    assert G.cached_tables() == {} and G.index_set_tables() == {}
    # the enumeration names the set and its retract
    G = LimitGroup(2, "n", max_cosets=7)
    with pytest.raises(
        CapacityExceeded,
        match=r"^live coset count would exceed max_cosets=7 for index set \{0,2\} \(p=2, "
        r"c=n\): 3 cosets of B\(0\.\.0\) \(order 2\) were live in B\(\{0,2\}\)$",
    ):
        G.element([(4, 1), (6, 1)]).is_trivial()
