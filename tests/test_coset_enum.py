"""Coset enumeration: orders against independent oracles, soundness, normal forms."""

import dataclasses
import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miflab import (
    CapacityExceeded,
    LimitGroup,
    VerificationError,
    Window,
    build_window_presentation,
    enumerate_presentation,
)
from miflab import coset_enum
from miflab.coset_enum import CosetTable, EnumStats, _enumerate, scan_relators
from miflab.presentations import invert_word


def _cols(letters):
    """Column word of (pos, sign) letters: a_pos is column 2*pos, its inverse 2*pos + 1."""
    return tuple(2 * pos + (sign < 0) for pos, sign in letters)


# -- independent oracles ----------------------------------------------------------
#
# Unitriangular 3x3 matrices over F_3, as tuples (x, y, z) standing for
# I + x*e12 + y*e23 + z*e13.  Generated by the two elementary matrices.


def u3_mul(a, b):
    return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3, (a[2] + b[2] + a[0] * b[1]) % 3)


def u3_inv(a):
    x, y, z = a
    return ((-x) % 3, (-y) % 3, (x * y - z) % 3)


def u3_closure(gens):
    found = {(0, 0, 0)}
    frontier = list(found)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = u3_mul(a, g)
                if b not in found:
                    found.add(b)
                    nxt.append(b)
        frontier = nxt
    return found


def u3_eval(word, assign):
    acc = (0, 0, 0)
    for pos, s in word:
        m = assign[pos]
        acc = u3_mul(acc, m if s > 0 else u3_inv(m))
    return acc


def test_unitriangular_oracle_is_a_group_of_order_27():
    E, F = (1, 0, 0), (0, 1, 0)
    group = u3_closure([E, F])
    assert len(group) == 27
    # the oracle satisfies every relator of the window presentation
    pres = build_window_presentation(3, "2", Window(0, 1))
    assign = {0: E, 1: F}
    for rel in pres.relators:
        assert u3_eval(rel, assign) == (0, 0, 0)


def test_order_27_window_group():
    pres = build_window_presentation(3, "2", Window(0, 1))
    table = enumerate_presentation(pres)
    assert table.coset_count == 27
    # [a_0, a_1] has order 3, matching the commutator of elementary matrices
    comm = ((0, -1), (1, -1), (0, 1), (1, 1))
    assert table.element_order(_cols(comm)) == 3
    witness = u3_eval(comm, {0: (1, 0, 0), 1: (0, 1, 0)})
    k = 1
    acc = witness
    while acc != (0, 0, 0):
        acc = u3_mul(acc, witness)
        k += 1
    assert k == 3


def test_rank_three_abelian_window():
    # abelianization oracle: every relator has even exponent sums per index,
    # so the group maps onto the F_2 vector space of rank 3 (order >= 8);
    # the enumeration closes the other direction
    pres = build_window_presentation(2, "1", Window(-1, 1))
    for rel in pres.relators:
        sums = [0, 0, 0]
        for pos, s in rel:
            sums[pos] += s
        assert all(v % 2 == 0 for v in sums)
    table = enumerate_presentation(pres)
    assert table.coset_count == 8
    # a_1 a_0 a_1 -> a_0 (positions are window-relative: index + 1)
    nf = table.normal_form(_cols(((2, 1), (1, 1), (2, 1))))
    assert nf == _cols(((1, 1),))


# -- the trivial examples -----------------------------------------------------------


def _tiny_table(p, c, lo, hi):
    return enumerate_presentation(build_window_presentation(p, c, Window(lo, hi)))


def test_single_involution():
    table = _tiny_table(2, "1", 0, 0)
    assert table.coset_count == 2
    assert table.element_order(_cols(((0, 1),))) == 2
    assert table.element_order(()) == 1
    assert table.normal_form(_cols(((0, 1), (0, 1), (0, 1)))) == _cols(((0, 1),))
    assert table.normal_form(()) == ()


def test_klein_four():
    table = _tiny_table(2, "1", 0, 1)
    assert table.coset_count == 4
    assert table.trace(_cols(((0, 1), (0, 1)))) == 0
    assert table.trace(()) == 0


def test_multiply_inverse_word():
    table = _tiny_table(3, "2", 0, 1)
    u = ((0, 1), (1, 1))
    v = ((1, -1), (0, -1))
    assert table.trace(_cols(v), table.trace(_cols(u))) == 0


# -- invariants ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,c,lo,hi",
    [(2, "1", 0, 1), (2, "1,2", -1, 1), (3, "2", 0, 1), (2, "n", 0, 3), (2, "1,2", 0, 3)],
)
def test_relator_soundness_and_permutation_columns(p, c, lo, hi):
    table = _tiny_table(p, c, lo, hi)
    assert table.relator_violations() == 0
    idx = np.arange(table.coset_count)
    assert all(np.array_equal(np.sort(col), idx) for col in table.action)


def test_relator_violations_counts_an_unsatisfied_relator():
    table = _tiny_table(2, "1", 0, 1)  # the Klein four-group, acting regularly
    pres = table.presentation
    extra = dataclasses.replace(
        pres,
        relators=pres.relators + (((0, 1), (1, 1)),),
        labels=pres.labels + ((0, 1),),
    )
    # a0 a1 is not the identity, so it moves each of the four cosets
    assert CosetTable(extra, table.action).relator_violations() == 4


def test_determinism_two_runs():
    pres = build_window_presentation(2, "1,2", Window(0, 3))
    t1 = enumerate_presentation(pres)
    t2 = enumerate_presentation(pres)
    assert all((a == b).all() for a, b in zip(t1.action, t2.action))
    assert t1.words() == t2.words()


@pytest.mark.parametrize("p,c,lo,hi", [(2, "1,2", 0, 2), (3, "2", 0, 1), (2, "n", 0, 2)])
def test_p_group_property_exhaustive(p, c, lo, hi):
    table = _tiny_table(p, c, lo, hi)
    for coset in range(table.coset_count):
        order = table.element_order(table.word(coset))
        while order % p == 0:
            order //= p
        assert order == 1


def test_order_monotonicity_under_retraction():
    for lo, hi in [(0, 1), (0, 2), (-1, 1)]:
        small = _tiny_table(2, "1,2", lo, hi).coset_count
        big = _tiny_table(2, "1,2", lo - 1, hi + 1).coset_count
        assert big % small == 0


def test_shortlex_words_bfs_layering():
    table = _tiny_table(2, "1,2", 0, 2)
    # stored words trace back to their own coset
    for coset, word in enumerate(table.words()):
        assert table.trace(word) == coset
    # coset numbering ascends in shortlex order of the canonical words
    def rank(word):
        return (len(word), word)

    ranks = [rank(w) for w in table.words()]
    assert ranks == sorted(ranks)
    # independent BFS distances agree with stored word lengths
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for col in range(len(table.action)):
                d = int(table.action[col][c])
                if d not in dist:
                    dist[d] = dist[c] + 1
                    nxt.append(d)
        frontier = nxt
    for coset, word in enumerate(table.words()):
        assert len(word) == dist[coset]


def _reference_words(action, root=0):
    """Shortlex column words by a plain queue BFS from `root` over the columns, in column order."""
    cols = [col.tolist() for col in action]
    words = [None] * len(cols[0])
    words[root] = ()
    queue = [root]
    for cur in queue:
        for x, col in enumerate(cols):
            nxt = col[cur]
            if words[nxt] is None:
                words[nxt] = words[cur] + (x,)
                queue.append(nxt)
    return tuple(words)


@pytest.mark.parametrize("p,c,w", [(2, "1,2", 3), (3, "2", 2), (2, "n", 3)])
def test_words_match_reference_bfs_also_after_relabelling(p, c, w):
    # shortlex words do not depend on the labels, but only the canonical
    # numbering is a table: every relabelling of it is refused
    pres = build_window_presentation(p, c, Window(0, w))
    table = enumerate_presentation(pres)
    words = table.words()
    assert words == _reference_words(table.action)
    n = table.coset_count
    rng = np.random.default_rng(w)
    swap_last = np.arange(n)
    swap_last[[-2, -1]] = swap_last[[-1, -2]]  # keeps the identity coset
    for perm in [swap_last] + [rng.permutation(n) for _ in range(3)]:
        # coset c becomes perm[c]
        relabelled = np.stack([perm[col[np.argsort(perm)]] for col in table.action])
        moved = _reference_words(relabelled, root=int(perm[0]))
        assert [moved[d] for d in perm] == list(words)
        with pytest.raises(VerificationError, match="canonical breadth-first order"):
            CosetTable(pres, relabelled)


def test_normal_form_idempotent_and_separating():
    table = _tiny_table(2, "1,2", 0, 2)
    u = _cols(((0, 1), (2, 1), (0, 1)))
    nf = table.normal_form(u)
    assert table.normal_form(nf) == nf
    assert table.trace(nf) == table.trace(u)


def test_capacity_exceeded():
    pres = build_window_presentation(3, "2", Window(0, 1))
    with pytest.raises(CapacityExceeded):
        enumerate_presentation(pres, max_cosets=5)
    # B([0,1]) needs 9 cosets of B([0,0]), of order 3; the refusal there
    # names the window asked for
    pres = build_window_presentation(3, "2", Window(0, 3))
    with pytest.raises(CapacityExceeded) as refused:
        enumerate_presentation(pres, max_cosets=5)
    assert str(refused.value) == (
        "live coset count would exceed max_cosets=5 for window 0..3 (p=3, c=2): "
        "1 cosets of B(0..0) (order 3) were live in B(0..1)"
    )


def _handmade(ngens, relators):
    from miflab.presentations import CSequence, Presentation

    return Presentation(
        p=2,
        c=CSequence.from_spec("1"),
        index_set=Window(0, ngens - 1),
        relators=tuple(relators),
        labels=((0,),) * len(relators),
    )


def test_coincidence_collapse_to_trivial():
    # <a | a^2, a^3> is trivial; closing it exercises coincidence chains
    pres = _handmade(1, [((0, 1),) * 2, ((0, 1),) * 3])
    assert enumerate_presentation(pres).coset_count == 1


def test_coincidence_generator_identification():
    # <a, b | a^3, b^3, ab> collapses b onto a^-1, leaving C3
    pres = _handmade(2, [((0, 1),) * 3, ((1, 1),) * 3, ((0, 1), (1, 1))])
    table = enumerate_presentation(pres)
    assert table.coset_count == 3
    assert table.trace(_cols(((0, 1),))) == table.trace(_cols(((1, -1),)))


def test_action_round_trip():
    pres = build_window_presentation(2, "1,2", Window(0, 2))
    table = enumerate_presentation(pres)
    clone = CosetTable(pres, table.action.tolist())
    assert clone.coset_count == table.coset_count
    # counters describe an enumeration; a loaded table had none
    assert table.stats is not None and clone.stats is None
    assert clone.words() == table.words()
    assert all((a == b).all() for a, b in zip(clone.action, table.action))


def test_table_keeps_one_copy():
    pres = build_window_presentation(2, "1,2", Window(0, 4))
    columns = [col.astype(np.int64) for col in enumerate_presentation(pres).action]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = CosetTable(pres, columns)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.coset_count == 2048
    # ten int32 columns plus the parent and via arrays come to 48 bytes a
    # coset; a second copy of the action or stored words would exceed 100
    assert retained / table.coset_count < 100
    # scalar queries hand out Python ints, never numpy scalars
    word = table.word(table.coset_count - 1)
    assert all(type(x) is int for x in word)
    assert type(table.trace(word)) is int


# -- relator reduction and canonical tables ---------------------------------------------

# SHA-256 of the canonical action columns (little-endian int64, column order)
# of B([0, w]) for every window of the benchmark's `tables` grid.
PINNED_DIGESTS = {
    (2, "n", 0): "af8a44699e0fe2cbe8fcb03e513ef95500dcd533abce01646342d7d2d5dbc5d4",
    (2, "n", 1): "c34ff6ef01f8b799ffb754d1b77d6e5b0a5d4b30ede04c94764b3478427861bb",
    (2, "n", 2): "f61bb9bc65e8316cfc9d3d495d8380510c6d52ef39befd2f284622c27ba801bb",
    (2, "n", 3): "cc92a7a7b70e15e55113a945c3b2ced01e7b585946505c97e5a6360bf3ee14a6",
    (2, "1,2", 0): "af8a44699e0fe2cbe8fcb03e513ef95500dcd533abce01646342d7d2d5dbc5d4",
    (2, "1,2", 1): "c34ff6ef01f8b799ffb754d1b77d6e5b0a5d4b30ede04c94764b3478427861bb",
    (2, "1,2", 2): "f61bb9bc65e8316cfc9d3d495d8380510c6d52ef39befd2f284622c27ba801bb",
    (2, "1,2", 3): "327871386d0ecfe67ec4250eb5e22cc8d779e53adecbdc0014b490a6c401936e",
    (2, "1,2", 4): "20161cf7a96959186c849f314ab64be3a56d113aa1c9bbfa013c984723754072",
    (3, "1,2", 0): "f5879a3114447d6ed088f1e081381d0bbd661e8fcd6b345d7a5c3754ffb9b5d2",
    (3, "1,2", 1): "6e46d183092956442d7d0ad84b375f2307e0f07c00a5579ffd44b671b502b51f",
    (3, "1,2", 2): "43583b31906b17b97f01c33fe6f3b516f02a97c219ae1e7b767b286b90ee79ed",
    (3, "1,2", 3): "fdca6420a67e5788e6cba88d2e3e3a23d62d13aa39ea7010087ea8296b429fba",
    (5, "1,2", 0): "5ddd62f2450e3fde2c98aae5955f60903339ccd851aaadda672eee05d756a3c9",
    (5, "1,2", 1): "ea488cf7916daafba84fca97217f1034e4795d5ab6a74e34c41fbc13a813d31b",
    (5, "1,2", 2): "65db9ea91eb408ca3d480df8709c47c390fec136660c0cd1fb21171c6b1f5eab",
    (3, "2", 0): "f5879a3114447d6ed088f1e081381d0bbd661e8fcd6b345d7a5c3754ffb9b5d2",
    (3, "2", 1): "37b6ff9d9c47685c8b1df7cd1b566521c71028841d3198a8f00689a6bb37799a",
    (3, "2", 2): "78ab1151a6dc3640d41fe7cdffb8b8839baf9238094d7e90d9ceb659e14c0c75",
    (3, "2", 3): "4c7d96a4d08eca8dea306d243e83e15391fe5599a28e4fcf04e5694696297245",
}


@functools.lru_cache(maxsize=None)
def _grid_table(p, c, w):
    return _tiny_table(p, c, 0, w)


def _digest(table):
    h = hashlib.sha256()
    for col in table.action:
        h.update(np.ascontiguousarray(col, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("p,c,w", sorted(PINNED_DIGESTS))
def test_canonical_tables_match_pinned_digests(p, c, w):
    assert _digest(_grid_table(p, c, w)) == PINNED_DIGESTS[(p, c, w)]


def test_scan_relators_one_per_conjugacy_class():
    # [[a_j,a_i],a_k] is freely conjugate to [[a_i,a_j],a_k]^-1, and so on
    pres = build_window_presentation(3, "2", Window(0, 3))
    assert len(pres.relators) == 52
    assert len(scan_relators(pres)) == 28
    table = _grid_table(3, "2", 3)
    assert table.stats.relators_scanned == 28
    assert table.relator_violations() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
def test_a_cyclic_presentation_is_written_down_as_the_scan_closes_it(n):
    # <a | a^n> is built without a scan; <a | a^n, a^-2n> has two relators
    # and is scanned
    direct = enumerate_presentation(_handmade(1, [((0, 1),) * n]))
    scanned = enumerate_presentation(_handmade(1, [((0, 1),) * n, ((0, -1),) * (2 * n)]))
    assert direct.stats.scans == 0 < scanned.stats.scans
    assert np.array_equal(direct.action, scanned.action)
    assert direct.coset_count == n


def test_a_large_cyclic_window_is_built_in_linear_work():
    # B([0,0]) = C_p: scanning its p-letter relator from each of p cosets
    # took 1.5 s at p = 9,973
    table = LimitGroup(19997, "n", max_cosets=20000).table_for_width(0)
    assert table.coset_count == 19997 and table.stats.scans == 0
    assert table.element_order(table.word(1)) == 19997
    pres = build_window_presentation(5, "n", Window(0, 0))
    with pytest.raises(CapacityExceeded) as refused:
        enumerate_presentation(pres, max_cosets=4)
    assert str(refused.value) == (
        "live coset count would exceed max_cosets=4 for window 0..0 (p=5, c=n): "
        "4 cosets of the trivial subgroup (order 1) were live in B(0..0)"
    )


def test_relators_that_reduce_to_nothing_are_dropped():
    pres = _handmade(1, [((0, 1), (0, -1)), ((0, 1),) * 2, ((0, -1), (0, 1), (0, 1), (0, 1))])
    assert scan_relators(pres) == [(0, 0)]
    table = enumerate_presentation(pres)
    assert table.coset_count == 2
    assert table.stats.relators_scanned == 1


def test_enumeration_stats_are_deterministic_and_consistent():
    pres = build_window_presentation(2, "1,2", Window(0, 3))
    s1 = enumerate_presentation(pres).stats
    s2 = enumerate_presentation(pres).stats
    assert isinstance(s1, EnumStats)
    assert s1 == s2
    table = _grid_table(3, "2", 3)
    s = table.stats
    # the counters describe the enumeration of the cosets of B([0, 2])
    assert s.subgroup_order == 729
    cosets = table.coset_count // s.subgroup_order
    # every defined coset is either live at the end or merged away
    assert s.coincidences == s.defined + 1 - cosets
    assert cosets <= s.peak_live <= s.defined + 1
    assert s.scans <= (s.defined + 1) * s.relators_scanned
    # enumerating the 59,049 elements one by one took 1,653,372 scans
    assert s.scans < 10_000


SMALL_PRESENTATIONS = {
    "order-27 window": build_window_presentation(3, "2", Window(0, 1)),
    "Klein four": build_window_presentation(2, "1", Window(0, 1)),
}


@st.composite
def padded_presentation(draw):
    """A small presentation plus rotations, inverses and unreduced
    conjugates of its own relators, spliced in at random places."""
    name = draw(st.sampled_from(sorted(SMALL_PRESENTATIONS)))
    pres = SMALL_PRESENTATIONS[name]
    ngens = pres.generator_count
    letter = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    relators = list(pres.relators)
    labels = list(pres.labels)
    for _ in range(draw(st.integers(1, 6))):
        which = draw(st.integers(0, len(pres.relators) - 1))
        rel = pres.relators[which]
        k = draw(st.integers(0, len(rel) - 1))
        rel = rel[k:] + rel[:k]
        if draw(st.booleans()):
            rel = invert_word(rel)
        conj = tuple(draw(st.lists(letter, max_size=3)))
        at = draw(st.integers(0, len(relators)))
        relators.insert(at, conj + rel + invert_word(conj))
        labels.insert(at, pres.labels[which])
    return pres, dataclasses.replace(pres, relators=tuple(relators), labels=tuple(labels))


@settings(max_examples=60, deadline=None)
@given(padded_presentation())
def test_conjugate_relators_leave_the_table_unchanged(pair):
    pres, padded = pair
    base = enumerate_presentation(pres)
    table = enumerate_presentation(padded)
    assert table.coset_count == base.coset_count
    assert all(np.array_equal(a, b) for a, b in zip(table.action, base.action))
    assert table.stats.relators_scanned == base.stats.relators_scanned


# -- lifting through the retraction a_w -> 1 ---------------------------------------------


def _plain(pres):
    """The action enumerated over the trivial subgroup, with no lifting."""
    return _enumerate(pres, pres.generator_count, scan_relators(pres), 10**6)[0]


# every window of the `tables` grid but (3, "2") w3, i.e. up to 2,187 cosets
@pytest.mark.parametrize("p,c,w", sorted(k for k in PINNED_DIGESTS if k != (3, "2", 3)))
def test_lifted_tables_equal_the_plain_enumeration(p, c, w):
    table = _grid_table(p, c, w)
    assert table.stats.subgroup_order == (_grid_table(p, c, w - 1).coset_count if w else 1)
    assert np.array_equal(table.action, _plain(table.presentation))


def test_a_limit_group_enumerates_each_table_once(monkeypatch):
    # one enumeration per table: each width takes the table one width down
    # as its retract instead of enumerating the narrower windows again
    # (51 enumerations for these 20 tables when it did)
    calls = [0]
    enumerate_ = coset_enum._enumerate

    def counted(*args):
        calls[0] += 1
        return enumerate_(*args)

    monkeypatch.setattr(coset_enum, "_enumerate", counted)
    widest = {}
    for p, c, w in PINNED_DIGESTS:
        widest[p, c] = max(w, widest.get((p, c), 0))
    tables = {}
    for (p, c), w in widest.items():
        G = LimitGroup(p, c)
        table = G.table_for_width(w)
        assert G.table_for_width(w) is table  # kept, not enumerated again
        tables.update({(p, c, k): t for k, t in G.cached_tables().items()})
    assert calls[0] == len(tables) == len(PINNED_DIGESTS) == 20
    monkeypatch.undo()
    for key, table in tables.items():
        assert _digest(table) == PINNED_DIGESTS[key]
        assert table.stats == _grid_table(*key).stats


@pytest.mark.parametrize(
    "p,c,w,below",
    [
        (2, "1,2", 4, (2, "n", 3)),
        (3, "2", 3, (5, "1,2", 2)),
        (2, "n", 3, (2, "n", 1)),
        (2, "n", 2, (2, "n", 2)),
    ],
    ids=["wrong-c", "wrong-p", "two-widths-down", "same-width"],
)
def test_a_below_table_that_is_not_the_retract_is_refused(p, c, w, below):
    pres = build_window_presentation(p, c, Window(0, w))
    with pytest.raises(ValueError) as refused:
        enumerate_presentation(pres, below=_grid_table(*below))
    assert str(refused.value) == (
        f"the table of window 0..{below[2]} (p={below[0]}, c={below[1]}) "
        f"is not the retract of window 0..{w} (p={p}, c={c})"
    )


def test_a_below_table_needs_a_retraction():
    below = _tiny_table(2, "1", 0, 0)
    for pres in (NO_RETRACTION["C3"], _tiny_table(2, "1", 0, 0).presentation):
        with pytest.raises(ValueError, match="has no retraction"):
            enumerate_presentation(pres, below=below)


def test_a_below_table_gives_the_table_of_the_recursion(tmp_path):
    for p, c, w in [(2, "1,2", 4), (3, "2", 2), (5, "1,2", 2)]:
        pres = build_window_presentation(p, c, Window(0, w))
        table = enumerate_presentation(pres, below=_grid_table(p, c, w - 1))
        assert np.array_equal(table.action, _grid_table(p, c, w).action)
        assert table.stats == _grid_table(p, c, w).stats
    # a table loaded from disk serves as well as a built one
    below = _built_and_loaded(tmp_path, 2, "n", 2)[1]
    pres = build_window_presentation(2, "n", Window(0, 3))
    assert _digest(enumerate_presentation(pres, below=below)) == PINNED_DIGESTS[2, "n", 3]


def _built_and_loaded(tmp_path, p, c, w):
    built = LimitGroup(p, c, cache_dir=str(tmp_path)).table_for_width(w)
    loaded = LimitGroup(p, c, cache_dir=str(tmp_path)).table_for_width(w)
    assert built.stats is not None and loaded.stats is None
    return built, loaded


def test_the_action_is_read_only(tmp_path):
    for table in _built_and_loaded(tmp_path, 2, "1,2", 2):
        with pytest.raises(ValueError, match="read-only"):
            table.action[0, 1] = 0
        with pytest.raises(ValueError, match="read-only"):
            table.action[1][0] = 0
        assert _digest(table) == PINNED_DIGESTS[2, "1,2", 2]



@pytest.mark.parametrize("p,c,w", [(3, "2", 3), (2, "1,2", 5), (3, "1,2", 4)])
def test_a_lift_peaks_below_twice_its_table(p, c, w):
    # the pair action is renumbered in place, one row at a time, and the
    # checks share one scratch vector (3.32-3.44x when the lift made copies)
    G = LimitGroup(p, c)
    G.table_for_width(w - 1)
    tracemalloc.start()
    try:
        table = G.table_for_width(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.stats.subgroup_order == G.table_for_width(w - 1).coset_count
    assert peak < 2.0 * table.action.nbytes


def test_built_and_loaded_tables_are_row_major(tmp_path):
    # lifted, enumerated whole, and written to and read from disk
    tables = [_grid_table(3, "2", 3), _grid_table(2, "n", 0)]
    for table in tables + list(_built_and_loaded(tmp_path, 2, "n", 3)):
        assert table.action.flags.c_contiguous


def test_scan_relators_run_once_per_width(monkeypatch):
    # the retract check reuses the scan relators kept with the table one
    # width down (7 calls for widths 0..3 when it recomputed them)
    calls = [0]
    scan = coset_enum.scan_relators

    def counted(pres):
        calls[0] += 1
        return scan(pres)

    monkeypatch.setattr(coset_enum, "scan_relators", counted)
    table = LimitGroup(2, "n").table_for_width(3)
    assert calls[0] == 4
    assert table.scan_relators == scan(table.presentation)
    assert calls[0] == 4

NO_RETRACTION = {
    # deleting b from ab leaves a, which is not freely trivial
    "C3": _handmade(2, [((0, 1),) * 3, ((1, 1),) * 3, ((0, 1), (1, 1))]),
    # deleting b leaves a^2; B' = <a> is infinite, so B is enumerated whole
    "C6": _handmade(2, [((1, 1), (0, 1), (0, 1)), ((1, 1),) * 3]),
}


def test_presentations_without_the_retraction_are_enumerated_whole():
    for name, order in (("C3", 3), ("C6", 6)):
        table = enumerate_presentation(NO_RETRACTION[name])
        assert table.coset_count == order
        assert table.stats.subgroup_order == 1


@st.composite
def spliced_presentation(draw):
    """A small presentation with one more relator, a random word, spliced in."""
    name = draw(st.sampled_from(sorted(SMALL_PRESENTATIONS) + sorted(NO_RETRACTION)))
    pres = {**SMALL_PRESENTATIONS, **NO_RETRACTION}[name]
    ngens = pres.generator_count
    letter = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    extra = tuple(draw(st.lists(letter, min_size=1, max_size=6)))
    at = draw(st.integers(0, len(pres.relators)))
    relators = pres.relators[:at] + (extra,) + pres.relators[at:]
    labels = pres.labels[:at] + (pres.labels[0],) + pres.labels[at:]
    return name, dataclasses.replace(pres, relators=relators, labels=labels)


@settings(max_examples=80, deadline=None)
@given(spliced_presentation())
def test_spliced_relators_match_the_plain_enumeration(case):
    # a quotient of a finite group: the lift applies exactly when deleting
    # the last generator leaves every relator that involves it freely trivial
    name, pres = case
    table = enumerate_presentation(pres)
    assert np.array_equal(table.action, _plain(pres))
    assert table.relator_violations() == 0
    if name in NO_RETRACTION:
        assert table.stats.subgroup_order == 1


def test_refusal_is_bounded_before_the_working_table_grows():
    # B([0,4]) under c_n = n: B([0,3]) has 1,024 elements and index over
    # 20,000, so at most 976 of its cosets may be live under the default cap
    pres = build_window_presentation(2, "n", Window(0, 4))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded) as refused:
            enumerate_presentation(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert str(refused.value) == (
        "live coset count would exceed max_cosets=1000000 for window 0..4 (p=2, c=n): "
        "976 cosets of B(0..3) (order 1024) were live in B(0..4)"
    )


@pytest.mark.parametrize(
    "p,c,w,order",
    [(2, "1,2", 5, 65_536), (3, "1,2", 4, 177_147), (5, "1,2", 3, 78_125)],
)
def test_capacity_frontier(p, c, w, order):
    table = _tiny_table(p, c, 0, w)
    assert table.coset_count == order
    assert table.relator_violations() == 0
