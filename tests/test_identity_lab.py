"""Finite-group lab: catalog, products, exhaustive identity verdicts."""

import hashlib
import math
import random
import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest

from miflab import BudgetExceeded, ParseError, small_group
from miflab import identity_lab as il
from miflab import mixed_words as mw
from miflab.parser import parse_mixed_word


# -- independent oracle: a hand-rolled exhaustive loop -------------------------


def scalar_verdict(word, group):
    """(holds, first counterexample, substitutions checked), one evaluate at a time."""
    ids = word.variable_ids
    if not ids:
        holds = group.is_identity(word.constant_value())
        return holds, None if holds else {}, 1
    checked = 0
    for combo in product(range(group.size), repeat=len(ids)):
        checked += 1
        assignment = dict(zip(ids, combo))
        if not group.is_identity(mw.evaluate(word, assignment)):
            return False, assignment, checked
    return True, None, checked


def oracle_holds(word, group):
    return scalar_verdict(word, group)[0]


def scalar_wreath_table(k, base):
    """base wr C_k filled entry by entry: ((f, s) (g, u))_c = f_c g_{(c-s) % k}."""
    nb = base.size
    total = nb**k * k

    def decode(i):
        coords = []
        rest = i // k
        for _ in range(k):
            coords.append(rest % nb)
            rest //= nb
        return coords[::-1], i % k

    table = np.zeros((total, total), dtype=np.int64)
    decoded = [decode(i) for i in range(total)]
    for i, (f, s) in enumerate(decoded):
        for j, (g, u) in enumerate(decoded):
            acc = 0
            for c in range(k):
                acc = acc * nb + base.mul(f[c], g[(c - s) % k])
            table[i, j] = acc * k + (s + u) % k
    return table


def comm_word(group, *constants):
    return mw.left_normed(
        [mw.variable(group)] + [mw.constant(group, c) for c in constants]
    )


# -- catalog --------------------------------------------------------------------


def test_catalog_orders():
    assert small_group("C5").size == 5
    assert small_group("D4").size == 8
    assert small_group("S4").size == 24
    assert small_group("V4").size == 4
    assert small_group("C2xC3").size == 6


def permutation_dihedral_table(n):
    """D_n composed from the n-gon permutations k -> r + k and k -> r - k."""
    perms = [tuple((r + (1 - 2 * flip) * k) % n for k in range(n)) for flip in (0, 1) for r in range(n)]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[k] for k in q)] for q in perms] for p in perms])


def test_dihedral_formula_matches_the_permutation_tables():
    for n in range(3, 65):
        D = il.dihedral(n)
        assert np.array_equal(D.table, permutation_dihedral_table(n)), n
        assert D.labels == ["e"] + [f"r{i}" for i in range(1, n)] + [f"s{i}" for i in range(n)]


def broadcast_tables():
    """Cyclic, dihedral and direct-product tables by whole-array formulas."""
    def cyclic(n):
        idx = np.arange(n)
        return (idx[:, None] + idx[None, :]) % n

    def dihedral(n):
        ids = np.arange(2 * n)
        f, r = ids // n, ids % n
        return (f[:, None] ^ f[None, :]) * n + (r[:, None] + (1 - 2 * f[:, None]) * r[None, :]) % n

    def direct(a, b):
        na, nb = len(a), len(b)
        xa, yb = np.repeat(np.arange(na), nb), np.tile(np.arange(nb), na)
        return a[xa[:, None], xa[None, :]] * nb + b[yb[:, None], yb[None, :]]

    return cyclic, dihedral, direct


def test_tables_written_in_place_match_the_broadcast_formulas():
    cyclic, dihedral, direct = broadcast_tables()
    for n in range(1, 70):
        assert np.array_equal(il.cyclic(n).table, cyclic(n)), n
    for n in range(3, 70):
        assert np.array_equal(il.dihedral(n).table, dihedral(n)), n
    for a, b in [("C2", "C3"), ("S3", "V4"), ("D4", "C1"), ("S4", "D5"), ("C5", "S3xC2")]:
        A, B = small_group(a), small_group(b)
        P = il.direct_product(A, B)
        assert np.array_equal(P.table, direct(A.table, B.table)), (a, b)
        assert P.labels == [f"({x},{y})" for x in A.labels for y in B.labels]


@pytest.mark.parametrize(
    "build",
    [
        partial(small_group, "C2048"),
        partial(small_group, "D1024"),
        partial(small_group, "S5xS4"),
        lambda: il.wreath_product(8, il.cyclic(2)).group,
    ],
    ids=["C2048", "D1024", "S5xS4", "C2wrC8"],
)
def test_tables_are_built_at_their_final_size(build):
    tracemalloc.start()
    try:
        group = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.10 * group.table.nbytes


@pytest.mark.parametrize(
    "name", ["C0", "D2", "S6", "C2x", "xC2", "C", "Q8", "C-1", "C2y3", "S", "S6xC1000", "C5000xD2"]
)
def test_bad_group_names_are_parse_errors(name):
    with pytest.raises(ParseError):
        small_group(name)


def test_catalog_names_are_case_blind():
    assert small_group("c2xd3").name == "c2xd3"
    assert np.array_equal(small_group("s3 x v4").table, small_group("S3xV4").table)
    assert small_group("C2XC3").name == "C2XC3"
    assert np.array_equal(small_group("C2XC3").table, small_group("c2xc3").table)
    assert il.small_group_order("S3 X v4") == 24


def test_direct_product_examples():
    assert il.direct_product(il.cyclic(2), il.cyclic(2)).size == 4
    b = small_group("S3")
    one = il.direct_product(il.cyclic(1), b)
    assert one.size == b.size
    # C1 x B is isomorphic to B: the multiplication tables agree elementwise
    assert np.array_equal(one.table, b.table)
    assert il.direct_product(small_group("S3"), il.cyclic(2)).size == 12


def test_group_axiom_validation_rejects_bad_table():
    with pytest.raises(ValueError):
        il.FiniteGroup([[0, 1], [0, 1]])  # no identity
    # C5 with one row bent out of associativity
    bad = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    bad[2][3], bad[2][4] = bad[2][4], bad[2][3]
    with pytest.raises(ValueError):
        il.FiniteGroup(bad)


# -- products are groups by construction ------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: small_group("S3xC2"),
        lambda: small_group("V4"),
        lambda: il.wreath_product(3, il.cyclic(2)).group,
        lambda: il.wreath_product(2, il.symmetric(3)).group,
    ],
    ids=["S3xC2", "V4", "C2wrC3", "S3wrC2"],
)
def test_product_tables_pass_the_full_axiom_check(make):
    make()._validate()


def test_products_are_not_rechecked(monkeypatch):
    # catalog groups and products are groups by construction: only a table
    # from outside is checked
    checked = []
    validate = il.FiniteGroup._validate

    def counting(self):
        checked.append(self.name)
        validate(self)

    monkeypatch.setattr(il.FiniteGroup, "_validate", counting)
    S3, C2 = il.symmetric(3), il.cyclic(2)
    direct = il.direct_product(S3, C2)
    il.wreath_product(2, S3)
    small_group("S5xS4")
    small_group("D4xV4")
    assert checked == []
    il.FiniteGroup(direct.table, name="outside")
    assert checked == ["outside"]


def test_oversized_outside_table_is_refused_not_sampled(monkeypatch):
    checked = []
    monkeypatch.setattr(il.FiniteGroup, "_validate", lambda self: checked.append(self.name))
    with pytest.raises(BudgetExceeded, match="order 600 is over the 512-element limit"):
        il.FiniteGroup(il.cyclic(600).table, name="C600")
    assert checked == []
    assert il.FiniteGroup(il.cyclic(512).table).size == 512


def test_checked_tables_are_read_only():
    groups = [il.cyclic(5), il.direct_product(il.cyclic(5), il.cyclic(2)), il.wreath_product(2, il.cyclic(2)).group]
    for G in groups:
        # the bend that test_group_axiom_validation_rejects_bad_table refuses
        # in an outside table cannot be made after the check either
        with pytest.raises(ValueError, match="read-only"):
            G.table[2, 3], G.table[2, 4] = G.table[2, 4], G.table[2, 3]
        with pytest.raises(ValueError, match="read-only"):
            G.inverse_table[1] = G.identity
        G._validate()
    # the constructor checks a private copy: the caller's array stays writable
    raw = np.array(groups[0].table)
    G = il.FiniteGroup(raw)
    raw[0, 0] = 1
    assert G.table[0, 0] == 0


def test_wreath_orders():
    assert il.wreath_product(2, il.cyclic(2)).group.size == 8
    assert il.wreath_product(2, il.cyclic(3)).group.size == 18
    assert il.wreath_product(3, il.cyclic(2)).group.size == 24


@pytest.mark.parametrize("k, base", [(2, "C2"), (3, "C2"), (2, "S3"), (2, "C3")])
def test_wreath_table_matches_scalar_fill(k, base):
    B = small_group(base)
    assert np.array_equal(il.wreath_product(k, B).group.table, scalar_wreath_table(k, B))


def relabelled_c3():
    """C3 with every id moved up by one, so its identity has id 1."""
    shift = [1, 2, 0]  # old id -> new id
    back = [2, 0, 1]  # new id -> old id
    table = [[shift[(back[i] + back[j]) % 3] for j in range(3)] for i in range(3)]
    return il.FiniteGroup(table, labels=["b", "e", "a"], name="C3r")


def wreath_digest(data):
    """SHA-256 over the table, inverses, base, factor tuples and labels."""
    G = data.group
    h = hashlib.sha256()
    for part in (G.table, G.inverse_table, data.base, data.first_factor, data.rest_factor):
        h.update(np.asarray(part, dtype=np.int64).tobytes())
        h.update(b"|")
    h.update("\n".join(G.labels).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "k, base, digest",
    [
        (6, "C2", "5632749d79435f185a66bb428d0322c23d42154d69c95f8c9bebdaee835ff3d2"),
        (2, "S3", "77e5740bcc9aed7e9b52c0cc8dac6a58b80da32770227a439b39e379ba8934cd"),
        (3, "C3", "9e69f850cffa827476d7b47ddb7703e9514e3443df655efb32f1f33dcfa9e6f0"),
        (1, None, "38e52fd17fada773237eb2d02feb30b4233c2b1c5e1b5289cf0bbd96d8b3830f"),
        (2, None, "e2487e00f7bd7b862369ebf54c7bf31c6ea0f0540ffd955daff956805e547b79"),
        (3, None, "87d9a863961542faca83dd5fe351b997f636b8b1e2c68b32dbb2bd059afb2cf6"),
    ],
    ids=["C2wrC6", "S3wrC2", "C3wrC3", "C3rwrC1", "C3rwrC2", "C3rwrC3"],
)
def test_wreath_products_are_pinned(k, base, digest):
    # C3r has its identity at id 1, so the factor tuples cannot assume id 0
    B = small_group(base) if base else relabelled_c3()
    assert wreath_digest(il.wreath_product(k, B)) == digest


def test_wreath_base_decomposition():
    data = il.wreath_product(2, il.cyclic(2))
    G = data.group
    assert len(data.base) == 4  # base subgroup C2 x C2
    assert G.is_subgroup(data.base)
    assert G.is_normal(data.base)
    assert len(data.first_factor) == 2
    assert len(data.rest_factor) == 2
    # the two factors intersect trivially and commute
    assert set(data.first_factor) & set(data.rest_factor) == {G.identity}


# -- canned identities ------------------------------------------------------------


def test_direct_product_identity_all_pairs():
    A, B = il.cyclic(2), small_group("S3")
    G = il.direct_product(A, B)
    for a in range(1, A.size):
        for b in range(1, B.size):
            word = comm_word(G, a * B.size, b)
            verdict = il.is_mixed_identity(word, G)
            assert verdict.holds
            assert verdict.substitutions_checked == G.size


def test_wreath_identity():
    for k, base in [(2, il.cyclic(2)), (2, il.cyclic(3)), (3, il.cyclic(2))]:
        data = il.wreath_product(k, base)
        G = data.group
        for a in data.first_factor:
            if G.is_identity(a):
                continue
            for b in data.rest_factor:
                if G.is_identity(b):
                    continue
                word = comm_word(G, a, a, b)
                assert il.is_mixed_identity(word, G).holds


def test_wreath_doubled_commutator_is_needed():
    # over a nonabelian base the plain [[x, a], b] can fail; the doubled
    # [[[x, a], a], b] always holds
    data = il.wreath_product(2, il.symmetric(3))
    G = data.group
    a = data.first_factor[data.base_group.element_by_label("(23)")]
    b = data.rest_factor[data.base_group.element_by_label("(23)")]
    plain = comm_word(G, a, b)
    verdict = il.is_mixed_identity(plain, G)
    assert not verdict.holds
    assert verdict.counterexample is not None
    # the counterexample re-checks and is the lexicographically first one
    x = verdict.counterexample[1]
    assert not G.is_identity(mw.evaluate(plain, {1: x}))
    for earlier in range(x):
        assert G.is_identity(mw.evaluate(plain, {1: earlier}))
    assert il.is_mixed_identity(comm_word(G, a, a, b), G).holds


def test_s3_explicit_word_false():
    S3 = small_group("S3")
    word = parse_mixed_word("[[x,(12)],(13)]", S3, constants=S3.constants())
    verdict = il.is_mixed_identity(word, S3)
    assert not verdict.holds
    assert oracle_holds(word, S3) is False
    x = verdict.counterexample[1]
    assert not S3.is_identity(mw.evaluate(word, {1: x}))


def test_s3_commutator_into_abelian_derived_subgroup_is_identity():
    # [x, (12)] always lands in A3, which is abelian and contains (123),
    # so [[x,(12)],(123)] = 1 does hold on S3
    S3 = small_group("S3")
    word = parse_mixed_word("[[x,(12)],(123)]", S3, constants=S3.constants())
    assert il.is_mixed_identity(word, S3).holds
    assert oracle_holds(word, S3) is True


def test_center_identity_property():
    for name in ["C4", "D4", "C2xC3", "S3xC2"]:
        G = small_group(name)
        for z in G.center():
            if G.is_identity(z):
                continue
            assert il.is_mixed_identity(comm_word(G, z), G).holds


def test_batch_verdicts_match_scalar_loop_on_random_words():
    rng = random.Random(2024)
    groups = [small_group(name) for name in ("C5", "V4", "S3", "D4", "C2xC3", "S3xC2")]
    groups.append(il.wreath_product(3, il.cyclic(2)).group)
    exponents = [1, -1, 2, -2, 3, -3, 7, 24, -24]

    def random_word(G, nvars, length):
        # the power maps reduce exponents mod |G|: the first three are 1, -1 and 0 there
        big = [G.size + 1, -(G.size + 1), G.size, 10**30 + 1]
        syllables = []
        for _ in range(length):
            if nvars and rng.random() < 0.6:
                syllables.append(mw.var_syllable(rng.randint(1, nvars), rng.choice(exponents + big)))
            else:
                syllables.append(mw.const_syllable(rng.randrange(G.size)))
        return mw.reduce(G, syllables)

    variable_first = 0
    for trial in range(300):
        G = rng.choice(groups)
        nvars = rng.randint(0, 3)
        if rng.random() < 0.3:
            word = random_word(G, nvars, rng.randint(1, 7))
        else:
            # left-normed commutators hold or fail far more often past the first substitution
            word = mw.left_normed([random_word(G, nvars, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))])
        variable_first += bool(word.syllables) and word.syllables[0][0] == mw.VAR
        verdict = il.is_mixed_identity(word, G)
        holds, counterexample, checked = scalar_verdict(word, G)
        assert verdict.holds == holds, (trial, word)
        assert verdict.counterexample == counterexample, (trial, word)
        assert verdict.substitutions_checked == checked, (trial, word)
        if counterexample:
            assert all(type(v) is int for v in verdict.counterexample.values())
    # the accumulator starts from a variable's values as well as a constant's
    assert variable_first > 0


def test_batch_verdict_counterexample_beyond_first_block():
    G = small_group("S3xC10")  # (a, b) has id 10 a + b; S3 ids: 1 = (23), 2 = (12)
    A = G.element_by_label("((23),e)")
    Z = G.element_by_label("(e,g1)")  # central
    word = parse_mixed_word("[x,A][x2,Z][x3,Z]", G, constants={"A": A, "Z": Z})
    assert all(G.is_identity(mw.evaluate(mw.commutator(mw.variable(G), mw.constant(G, Z)), {1: x}))
               for x in G.elements())
    # so the value depends on x alone; x = 20 = ((12), e) is the first not commuting with A
    for x in range(20):
        assert G.is_identity(mw.evaluate(word, {1: x, 2: 0, 3: 0}))
    first_bad = 20 * G.size**2
    assert first_bad >= il.VERDICT_BLOCK
    verdict = il.is_mixed_identity(word, G)
    assert not verdict.holds
    assert verdict.counterexample == {1: 20, 2: 0, 3: 0}
    assert verdict.substitutions_checked == first_bad + 1


def test_batch_verdict_holds_across_blocks():
    C41 = small_group("C41")
    assert C41.size**3 > il.VERDICT_BLOCK
    verdict = il.is_mixed_identity(mw.left_normed([mw.variable(C41, v) for v in (1, 2, 3)]), C41)
    assert verdict.holds and verdict.counterexample is None
    assert verdict.substitutions_checked == C41.size**3
    # a large exponent on a variable: x^41 = 1 on C41, x^24 is not
    assert il.is_mixed_identity(mw.variable(C41, 1, 41), C41).holds
    verdict = il.is_mixed_identity(mw.variable(C41, 1, 24), C41)
    assert verdict.counterexample == {1: 1} and verdict.substitutions_checked == 2


def test_verdicts_match_oracle_on_small_words():
    S3 = small_group("S3")
    consts = S3.constants()
    for text in ["[x, (123)]", "[[x,(12)],(23)]", "[x1, x2]", "[[x,(123)],(132)]"]:
        word = parse_mixed_word(text, S3, constants=consts)
        assert il.is_mixed_identity(word, S3).holds == oracle_holds(word, S3)


# -- the factorial identity ---------------------------------------------------------


def test_factorial_identity_s4_v4():
    S4 = small_group("S4")
    N = S4.closure([S4.element_by_label("(12)(34)"), S4.element_by_label("(13)(24)")])
    assert len(N) == 4 and S4.is_normal(N)
    for g in sorted(N):
        if S4.is_identity(g):
            continue
        assert il.factorial_identity_check(S4, N, g)


def test_factorial_identity_d4_center():
    D4 = small_group("D4")
    z = [e for e in D4.center() if not D4.is_identity(e)]
    assert len(z) == 1
    assert il.factorial_identity_check(D4, D4.closure(z), z[0])


def elementwise_factorial_check(group, N, g):
    """[x^{|N|!}, g] = 1 for every x, one element at a time."""
    e = math.factorial(len(N))
    for x in group.elements():
        xe = group.power(x, e)
        comm = group.mul(group.mul(group.inv(xe), group.inv(g)), group.mul(xe, g))
        if not group.is_identity(comm):
            return False
    return True


@pytest.mark.parametrize("name", ["S4", "D4", "D8", "S3"])
def test_factorial_verdicts_match_elementwise_reference(name):
    G = small_group(name)
    normals = [N for N in G.all_subgroups() if G.is_normal(N) and len(N) > 1]
    assert len(normals) > 1
    for N in normals:
        for g in sorted(N):
            if not G.is_identity(g):
                assert il.factorial_identity_check(G, N, g) == elementwise_factorial_check(G, N, g)


def test_factorial_identity_on_a_large_normal_subgroup():
    # |N|! for the 1,024 rotations of D1024 has ~8,800 bits; the power map
    # reduces it mod |G| = 2,048 to 0
    D1024 = small_group("D1024")
    N = D1024.closure([D1024.element_by_label("r1")])
    assert len(N) == 1024
    assert il.factorial_identity_check(D1024, N, D1024.element_by_label("r1"))


@pytest.mark.parametrize("name", ["S4", "D4", "S3xC2"])
def test_factorial_inputs_match_scalar_definitions(name):
    # the subgroup and normality tests and the power maps, against their definitions
    G = small_group(name)
    n = G.size
    for e in [0, 1, -1, 2, -5, n - 1, n, n + 1, -(n + 1), 10**30 + 1, -math.factorial(30)]:
        assert il._power_map(G, e).tolist() == [G.power(x, e) for x in G.elements()], e
    rng = random.Random(name)
    subgroups = G.all_subgroups()
    # every subgroup, unions of two (mostly not subgroups) and random subsets
    subsets = [set(N) for N in subgroups]
    subsets += [set(rng.choice(subgroups)) | set(rng.choice(subgroups)) for _ in range(20)]
    subsets += [{G.identity} | set(rng.sample(range(G.size), rng.randint(1, G.size - 1))) for _ in range(20)]
    subsets += [set(range(1, G.size))]  # no identity
    for sub in subsets:
        is_subgroup = G.identity in sub and all(G.mul(a, b) in sub for a in sub for b in sub)
        is_normal = is_subgroup and all(
            G.mul(G.mul(g, h), G.inv(g)) in sub for g in G.elements() for h in sub
        )
        assert G.is_subgroup(sub) == is_subgroup, sorted(sub)
        assert G.is_normal(sub) == is_normal, sorted(sub)
        # an iterator is read once
        assert G.is_subgroup(iter(sub)) == is_subgroup, sorted(sub)
        assert G.is_normal(iter(sub)) == is_normal, sorted(sub)
    assert any(G.is_subgroup(sub) and not G.is_normal(sub) for sub in subsets)
    assert any(not G.is_subgroup(sub) and G.identity in sub for sub in subsets)


def test_factorial_identity_rejects_bad_input():
    S4 = small_group("S4")
    N = S4.closure([S4.element_by_label("(12)(34)"), S4.element_by_label("(13)(24)")])
    with pytest.raises(ValueError):
        il.factorial_identity_check(S4, N, S4.identity)
    with pytest.raises(ValueError):
        il.factorial_identity_check(S4, {S4.identity, S4.element_by_label("(12)")}, S4.element_by_label("(12)"))


# -- subnormal lifting ------------------------------------------------------------------


def test_sub_commutator_lifting():
    # if w = 1 holds on a normal subgroup N, then w([x, n]) = 1 holds on G
    S4 = small_group("S4")
    N = S4.closure([S4.element_by_label("(12)(34)"), S4.element_by_label("(13)(24)")])
    v = S4.element_by_label("(12)(34)")
    word = comm_word(S4, v)  # [x, v]: a mixed identity of the abelian N
    for x in N:
        assert S4.is_identity(mw.evaluate(word, {1: x}))
    for n in sorted(N):
        if S4.is_identity(n):
            continue
        lifted = mw.sub_commutator(word, n)
        assert il.is_mixed_identity(lifted, S4).holds


# -- budget guards ------------------------------------------------------------------------


def test_budget_guards():
    with pytest.raises(BudgetExceeded):
        il.wreath_product(12, il.cyclic(4))
    S5 = small_group("S5")
    G = il.direct_product(S5, small_group("S4"))  # order 2880
    word = mw.reduce(G, [mw.var_syllable(1, 1), mw.var_syllable(2, 1)])
    with pytest.raises(BudgetExceeded):
        il.is_mixed_identity(word, G)


def test_product_order_cap_refuses_before_allocating():
    S5 = small_group("S5")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"over the {il.MAX_ORDER}-element cap") as err:
            il.direct_product(S5, S5)  # order 14400: a 1,658,880,000-byte table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(14400 * 14400 * 8) in str(err.value)
    assert peak < 2**20


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda: il.cyclic(5000), 5000),
        (lambda: il.dihedral(2049), 4098),
        (lambda: small_group("S5xS5"), 14400),
        (lambda: small_group("C2000xC3"), 6000),
        (lambda: small_group("C4000xC2"), 8000),
        (lambda: il.wreath_product(12, il.cyclic(4)), 4**12 * 12),
        (lambda: il.wreath_product(10**12, il.cyclic(2)), 10**12),
    ],
    ids=["C5000", "D2049", "S5xS5", "C2000xC3", "C4000xC2", "C4wrC12", "C2wrC10^12"],
)
def test_every_group_past_the_order_cap_is_refused_before_allocating(build, order):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"has order {order}, over the 4096-element cap") as err:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(order * order * 8) in str(err.value)
    assert peak < 2**20


def test_the_order_cap_admits_its_bound():
    il._check_order("G", il.MAX_ORDER)  # a 128 MiB table: admitted, not built here
    with pytest.raises(BudgetExceeded, match="^G has order 4097, over the 4096-element cap"):
        il._check_order("G", il.MAX_ORDER + 1)


def test_subgroup_enumeration_small():
    V4 = small_group("V4")
    subs = V4.all_subgroups()
    assert [len(s) for s in subs] == [1, 2, 2, 2, 4]
