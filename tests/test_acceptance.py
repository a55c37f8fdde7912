"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The tests share one
LimitGroup per (p, c) through `_group` (and so its window tables) and
collect every engine-handled element for the final cross-oracle sweep.
"""

import functools
import json
import math
import random
import subprocess
import sys
import time

import pytest

from miflab import INFINITE, LimitGroup, Window
from miflab import grigorchuk as gg
from miflab import identity_lab as il
from miflab import mif_search as ms
from miflab import mixed_words as mw

# elements handled by criteria 3, 4 and 8, swept by criterion 10
HANDLED = []


def _ok(n, text, t0):
    print(f"[PASS] criterion {n}: {text} ({time.monotonic() - t0:.1f}s)")


@functools.cache
def _group(p, c):
    return LimitGroup(p, c)


def _default():
    return _group(2, "n")


def _c12():
    return _group(2, "1,2")


def _sample_narrow_element(G, rng, beta_range):
    """Support inside [-2, 2] of width <= 3 (windows stay enumerable)."""
    width = rng.randint(0, 3)
    lo = rng.randint(-2, 2 - width)
    letters = [(rng.randint(lo, lo + width), 1) for _ in range(rng.randint(0, 5))]
    return G.element(letters, rng.choice(beta_range))


def test_criterion_01_window_group_orders():
    t0 = time.monotonic()
    checks = [
        (_group(2, "1"), Window(0, 0), 2),
        (_group(3, "1"), Window(0, 0), 3),
        (_group(2, "1"), Window(0, 1), 4),
        (_group(3, "1"), Window(0, 1), 9),
        (_group(3, "2"), Window(0, 1), 27),
        (_group(2, "1"), Window(-1, 1), 8),
    ]
    for G, window, expected in checks:
        t1 = time.monotonic()
        assert G.window_order(window) == expected
        assert time.monotonic() - t1 < 1.0
    _ok(1, "window group orders p, p^2, 27, 8 exact, each under 1s", t0)


def test_criterion_02_relator_soundness_all_cached_tables():
    t0 = time.monotonic()
    # make sure the interesting tables exist (default widths, the big join window)
    for width in range(0, 4):
        _default().table_for_width(width)
    for width in range(0, 6):
        _c12().table_for_width(width)
    groups = [
        _default(), _c12(), _group(2, "1"), _group(3, "1"), _group(3, "2"),
    ]
    tables = []
    for G in groups:
        tables.extend(G.cached_tables().values())
    assert tables
    t_check = time.monotonic()
    total = 0
    for table in tables:
        assert table.coset_count <= 100_000
        assert table.relator_violations() == 0
        total += 1
    elapsed = time.monotonic() - t_check
    assert elapsed < 10.0
    _ok(2, f"all {total} cached tables trace every relator to the identity "
           f"(largest {max(t.coset_count for t in tables)} cosets, check {elapsed:.1f}s)", t0)


def test_criterion_03_limit_group_laws():
    t0 = time.monotonic()
    G = _default()
    rng = random.Random(2024)
    for _ in range(10_000):
        g = _sample_narrow_element(G, rng, [-2, -1, 0, 1, 2])
        h = _sample_narrow_element(G, rng, [-2, -1, 0, 1, 2])
        k = _sample_narrow_element(G, rng, [-2, -1, 0, 1, 2])
        assert (g * h) * k == g * (h * k)
        assert (g * g.inverse()).is_trivial()
        assert (g.inverse() * g).is_trivial()
        sh = rng.randint(-3, 3)
        from miflab import shift
        assert shift(g.a * h.a, sh) == shift(g.a, sh) * shift(h.a, sh)
        HANDLED.extend((g, h, k))
    _ok(3, "10^4 random triples satisfy associativity, inverse and shift laws exactly", t0)


def test_criterion_04_order_dichotomy():
    t0 = time.monotonic()
    G = _default()
    p = G.p
    rng = random.Random(4096)
    infinite_seen = finite_seen = 0
    for i in range(1_000):
        beta_range = [0] if i % 2 == 0 else [-3, -2, -1, 1, 2, 3]
        g = _sample_narrow_element(G, rng, beta_range)
        order = g.order()
        if g.beta != 0:
            assert order == INFINITE
            for k in range(1, 51):
                assert not (g ** k).is_trivial()
            infinite_seen += 1
        else:
            assert order != INFINITE
            assert order <= p ** 4
            q = order
            while q % p == 0:
                q //= p
            assert q == 1
            assert (g ** order).is_trivial()
            assert (g ** (p ** 4)).is_trivial()
            finite_seen += 1
        HANDLED.append(g)
    assert infinite_seen and finite_seen
    _ok(4, f"10^3 elements: order Infinite iff beta != 0 "
           f"({infinite_seen} infinite, {finite_seen} p-power orders)", t0)


def test_criterion_05_finite_radical_property():
    """H ∩ H^{t^{2N+1}} = 1 for every subgroup H of B([-N, N]), computed in
    the join window B([-N, 3N+1]).  It holds because deleting the letters
    a_{N+1..3N+1} is a retraction onto B([-N, N]) that kills the shifted
    copy; the test traces both copies and does not assume it."""
    t0 = time.monotonic()
    G = _c12()
    checked = 0
    for N in (0, 1):
        table = G.table_for_width(2 * N)  # B([-N, N]), columns relative to -N
        join = G.table_for_width(4 * N + 1)  # B([-N, 3N+1]), the same columns
        # the window group as a multiplication-table group, for subgroup search
        n = table.coset_count
        mul = [[table.trace(table.word(b), a) for b in range(n)] for a in range(n)]
        fg = il.FiniteGroup(mul, name=f"B[-{N},{N}]")
        home = [join.trace(table.word(c)) for c in range(n)]
        # a_i -> a_{i+2N+1} moves column x to x + 2(2N+1)
        shifted = [join.trace(tuple(x + 2 * (2 * N + 1) for x in table.word(c))) for c in range(n)]
        for subgroup in fg.all_subgroups():
            meet = {home[c] for c in subgroup} & {shifted[c] for c in subgroup}
            assert meet == {0}  # the identity coset
            checked += 1
    _ok(5, f"H meets its shift by 2N+1 trivially for all {checked} subgroups, N <= 1", t0)


def test_criterion_06_canned_identities():
    t0 = time.monotonic()
    # direct products: [[x, a], b] for every nontrivial a, b
    pairs = [
        ("C2", "C2"), ("C2", "C3"), ("C3", "C3"), ("C2", "C4"), ("C4", "C3"),
        ("C2", "V4"), ("S3", "C2"), ("C3", "S3"), ("D4", "C2"), ("C5", "C2"),
        ("S3", "S3"),
    ]
    assert len(pairs) >= 10
    for left, right in pairs:
        A, B = il.small_group(left), il.small_group(right)
        G = il.direct_product(A, B)
        for a in range(1, A.size):
            for b in range(1, B.size):
                word = mw.left_normed([
                    mw.variable(G),
                    mw.constant(G, a * B.size),
                    mw.constant(G, b),
                ])
                assert il.is_mixed_identity(word, G).holds
    # wreath products: [[[x, a], a], b]
    for k, base in [(2, il.cyclic(2)), (2, il.cyclic(3)), (3, il.cyclic(2))]:
        data = il.wreath_product(k, base)
        G = data.group
        for a in data.first_factor:
            if G.is_identity(a):
                continue
            for b in data.rest_factor:
                if G.is_identity(b):
                    continue
                word = mw.left_normed([
                    mw.variable(G), mw.constant(G, a), mw.constant(G, a), mw.constant(G, b),
                ])
                assert il.is_mixed_identity(word, G).holds
    # the factorial identity on S4 with the Klein four subgroup
    S4 = il.small_group("S4")
    N = S4.closure([S4.element_by_label("(12)(34)"), S4.element_by_label("(13)(24)")])
    assert len(N) == 4 and math.factorial(len(N)) == 24
    for g in sorted(N):
        if not S4.is_identity(g):
            assert il.factorial_identity_check(S4, N, g)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(6, f"direct-product, wreath and factorial identities exhaustive in {elapsed:.1f}s", t0)


def test_criterion_07_grigorchuk():
    t0 = time.monotonic()
    rng = random.Random(7)
    for _ in range(1_000):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        assert gg.act("a", "0" + w) == "1" + w
        assert gg.act("a", "1" + w) == "0" + w
        assert gg.act("b", "0" + w) == "0" + gg.act("a", w)
        assert gg.act("b", "1" + w) == "1" + gg.act("c", w)
        assert gg.act("c", "0" + w) == "0" + gg.act("a", w)
        assert gg.act("c", "1" + w) == "1" + gg.act("d", w)
        assert gg.act("d", "0" + w) == "0" + w
        assert gg.act("d", "1" + w) == "1" + gg.act("b", w)
    words = 0
    for w in gg.reduced_words(8):
        words += 1
        assert gg.is_trivial(w) == gg.acts_trivially_to_depth(w, gg.ORACLE_DEPTH)
    report = gg.verify_grig_identity(6)
    assert report.ok and report.words_checked == 131
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(7, f"action table, solver vs depth-12 oracle on {words} words, "
           f"identity on 131 words in {elapsed:.1f}s", t0)


def test_criterion_08_driver_soundness():
    t0 = time.monotonic()
    G = _default()
    result = ms.drive(G, 50)
    assert result.complete
    assert len(result.certificates) == 50
    assert all(c.status != ms.SEARCH_EXHAUSTED for c in result.certificates)
    lines = ms.certificates_to_lines(result, G)
    report = ms.verify_certificates(lines)
    assert report.ok and report.checked == report.witnesses_ok == 50
    # bit-identical re-execution in process
    again = ms.certificates_to_lines(ms.drive(G, 50), G)
    assert lines == again
    # bit-identical across two CLI runs
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "miflab.cli", "drive", "--count", "50"],
            capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == lines
    for cert in result.certificates:
        if cert.witness is not None:
            HANDLED.append(G.parse(cert.witness))
            HANDLED.append(G.parse(cert.evaluation_normal_form))
    _ok(8, "drive(50) certificates verify, persist and are bit-identical "
           "across in-process and CLI runs", t0)


def test_criterion_09_iota_embedding_compatibility():
    t0 = time.monotonic()
    total = 0
    for G, count, seed, max_syll, betas, idx in [
        (_group(2, "1"), 700, 101, 4, (-1, 0, 1), (-1, 1)),
        (_group(2, "1,2"), 250, 102, 3, (-1, 0, 1), (-1, 1)),
        (_group(2, "n"), 50, 103, 2, (0, 1), (0, 1)),
    ]:
        rng = random.Random(seed)
        pool = [G.generator(i) for i in range(idx[0], idx[1] + 1)]
        pool += [G.t_power(1), G.t_power(-1)]
        for _ in range(count):
            syllables = []
            for _ in range(rng.randint(1, max_syll)):
                if rng.random() < 0.55:
                    syllables.append(mw.var_syllable(rng.randint(1, 2), rng.choice([-2, -1, 1, 2])))
                else:
                    syllables.append(mw.const_syllable(rng.choice(pool)))
            w = mw.reduce(G, syllables)
            while True:
                g = G.element(
                    [(rng.randint(*idx), 1) for _ in range(rng.randint(0, 1))],
                    rng.choice(betas),
                )
                if not g.is_trivial():
                    break
            h = G.element(
                [(rng.randint(*idx), 1) for _ in range(rng.randint(0, 1))],
                rng.choice(betas),
            )
            lhs = mw.evaluate(mw.iota_embed(w, g), {1: h})
            rhs = mw.evaluate(w, {i: (h ** i) * g * (h ** i) for i in (1, 2)})
            assert lhs == rhs
            total += 1
    assert total == 1_000
    _ok(9, "10^3 random (w, g, h): evaluate after iota equals substituted evaluate", t0)


def test_criterion_10_cross_oracle_consistency():
    t0 = time.monotonic()
    assert HANDLED, "criteria 3, 4 and 8 must run first"
    swept = 0
    for g in HANDLED:
        if g.abelianize().nonzero_on_a_part:
            assert not g.is_trivial()
            swept += 1
    _ok(10, f"abelianization nonzero implies nontrivial on {swept} of "
            f"{len(HANDLED)} handled elements, zero exceptions", t0)
