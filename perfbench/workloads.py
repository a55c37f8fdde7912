"""The four benchmark workloads.

Each workload has two parts.  `inputs(seed)` generates the inputs; it
runs during set-up.  `run(inputs, ctx)` does the timed work in named
phases (`ctx.phase(name)`), the first of which is always `wall`, and
records every checked operation with `ctx.check` / `ctx.attempt`.  It
returns a dict of outcomes that must be identical in every repetition
of a run (the determinism fingerprint).

Checks never compare normal-form strings against pinned values, because
a change of normal form is allowed to change them; they compare orders,
verdicts and counts, and answers that are known by construction.

All miflab calls go through module attributes at call time, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import os
import random

import miflab
from miflab import grigorchuk, identity_lab, mif_search
from miflab import mixed_words as mw

# -- tables ----------------------------------------------------------------

# (p, c, orders of the window groups B([0, w]) for w = 0, 1, ...).
TABLE_GRID = (
    (2, "n", (2, 4, 16, 1024)),
    (2, "1,2", (2, 4, 16, 128, 2048)),
    (3, "1,2", (3, 9, 81, 2187)),
    (5, "1,2", (5, 25, 625)),
    (3, "2", (3, 27, 729, 59049)),
)
SPOT_CHECKS = 40  # seeded element checks per instance


def _random_items(rng, p, top, lo, hi):
    return [(rng.randint(0, top), rng.randint(1, p - 1)) for _ in range(rng.randint(lo, hi))]


def tables_inputs(seed: int):
    rng = random.Random(seed)
    spots = []
    for p, _c, orders in TABLE_GRID:
        top = len(orders) - 1
        spots.append([
            (
                _random_items(rng, p, top, 1, 10),   # the element u
                _random_items(rng, p, top, 0, 3),    # conjugator h
                rng.randrange(1 << 30),              # which relator r
                rng.random(),                        # where h r h^-1 goes into u
                rng.randint(0, top),                 # generator that separates u from u a_j
            )
            for _ in range(SPOT_CHECKS)
        ])
    return spots


def _is_power_of(n, p) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def tables_run(spots, ctx):
    cache = os.path.join(ctx.tmp, "tables")
    written = []
    with ctx.phase("wall"):
        for p, c, orders in TABLE_GRID:
            group = miflab.LimitGroup(p, c, cache_dir=cache)
            for w, want in enumerate(orders):
                ctx.attempt(
                    f"order of B([0,{w}]) for ({p},{c})",
                    lambda: group.window_order(miflab.Window(0, w)) == want,
                )
            written.append(group)

    reloaded = []
    with ctx.phase("load"):
        for p, c, orders in TABLE_GRID:
            group = miflab.LimitGroup(p, c, cache_dir=cache)
            for w, want in enumerate(orders):
                ctx.attempt(
                    f"reloaded order of B([0,{w}]) for ({p},{c})",
                    lambda: group.window_order(miflab.Window(0, w)) == want,
                )
            reloaded.append(group)

    outcomes = []
    with ctx.phase("check"):
        for (p, c, orders), group, first, cases in zip(TABLE_GRID, reloaded, written, spots):
            top = len(orders) - 1
            pres = miflab.build_window_presentation(p, c, miflab.Window(0, top))
            relators = [
                [(pos, 1 if s > 0 else p - 1) for pos, s in rel] for rel in pres.relators
            ]
            for items, conj, which, where, gen in cases:
                at = int(where * (len(items) + 1))
                inv_conj = [(i, p - e) for i, e in reversed(conj)]
                same = items[:at] + conj + relators[which % len(relators)] + inv_conj + items[at:]
                label = f"({p},{c}) u={items}"

                def equal_and_separated():
                    u = group.element(items)
                    v = group.element(same)
                    return u == v and u != v * group.generator(gen)

                def order_is_exact():
                    g = group.element(items)
                    n = g.order()
                    outcomes.append(n)
                    return (
                        _is_power_of(n, p)
                        and (g ** n).is_trivial()
                        and (n == 1 or not (g ** (n // p)).is_trivial())
                    )

                def paths_agree():
                    return group.element(items).render_canonical() == first.element(items).render_canonical()

                ctx.attempt(f"{label}: u = u h r h^-1, u != u a_{gen}", equal_and_separated)
                ctx.attempt(f"{label}: exact order", order_is_exact)
                ctx.attempt(f"{label}: written and reloaded tables agree", paths_agree)
    return {"orders": outcomes}


# -- drive -------------------------------------------------------------------

DRIVE_COUNT = 3000


def drive_inputs(seed: int):
    # drive is a deterministic shortlex enumeration: the seed is not used
    return DRIVE_COUNT


def drive_run(count, ctx):
    log_path = os.path.join(ctx.tmp, "certificates.jsonl")
    with ctx.phase("wall"):
        group = miflab.LimitGroup(2, "n")
        try:
            result = mif_search.drive(group, count)
        except Exception as exc:  # every word counts as failed
            ctx.fail_many(count, f"drive raised {type(exc).__name__}: {exc}")
            return {}
        with open(log_path, "w", encoding="utf-8") as fh:
            mif_search.write_certificates(result, group, fh)

    with ctx.phase("verify"):
        with open(log_path, encoding="utf-8") as fh:
            report = mif_search.verify_certificates(fh.readlines())

    bad_lines = {lineno for lineno, _ in report.failures}
    certs = result.certificates
    for i in range(count):
        cert = certs[i] if i < len(certs) else None
        ctx.check(
            cert is not None
            and cert.status == mif_search.WITNESS_FOUND
            and (i + 1) not in bad_lines,
            f"certificate {i + 1}: "
            + ("missing" if cert is None else f"{cert.status}, verify failures {report.failures[:1]}"),
        )
    ctx.check(result.complete, f"drive incomplete: {result.reason}")
    ctx.check(
        report.ok and report.checked == count and report.witnesses_ok == count,
        f"verify_certificates: checked {report.checked}, ok {report.witnesses_ok}",
    )
    with open(log_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"certificate_log_sha256": digest}


# -- lab ---------------------------------------------------------------------

LAB_RECHECK_PAIRS = 64  # seeded S4xS4 pairs re-decided from text
WREATH_RECHECK_PAIRS = 8


def lab_inputs(seed: int):
    rng = random.Random(seed)
    s4_order = 24
    pairs = [(rng.randint(1, s4_order - 1), rng.randint(1, s4_order - 1)) for _ in range(LAB_RECHECK_PAIRS)]
    wreath_picks = [rng.random() for _ in range(WREATH_RECHECK_PAIRS)]
    return pairs, wreath_picks


def lab_run(inputs, ctx):
    pairs, wreath_picks = inputs
    lab = identity_lab
    counts = {}

    def holds(word, group, key):
        verdict = lab.is_mixed_identity(word, group)
        counts[key] = counts.get(key, 0) + verdict.substitutions_checked
        return verdict.holds

    with ctx.phase("wall"):
        # [[[x,a],a],b] on C2 wr C6, a in the first base factor, b in the rest
        wreath = lab.wreath_product(6, lab.small_group("C2"))
        W = wreath.group
        firsts = [a for a in wreath.first_factor if not W.is_identity(a)]
        rests = [b for b in wreath.rest_factor if not W.is_identity(b)]
        for a in firsts:
            for b in rests:
                ctx.attempt(
                    f"wreath [[[x,{a}],{a}],{b}]",
                    lambda: holds(
                        mw.left_normed([mw.variable(W), mw.constant(W, a), mw.constant(W, a), mw.constant(W, b)]),
                        W, "wreath",
                    ),
                )

        # [[x,a],b] on S4xS4 for every a in S4x1, b in 1xS4 (ids x*|B| + y)
        s4 = lab.small_group("S4")
        P = lab.direct_product(s4, s4)
        n = s4.size
        for a in range(1, n):
            for b in range(1, n):
                ctx.attempt(
                    f"S4xS4 [[x,({a},1)],(1,{b})]",
                    lambda: holds(
                        mw.left_normed([mw.variable(P), mw.constant(P, a * n), mw.constant(P, b)]),
                        P, "direct",
                    ),
                )

        # [x,x2,x3,x4] on D8 (order 16, class 3): exhaustive, four variables
        d8 = lab.small_group("D8")
        ctx.attempt(
            "D8 [x,x2,x3,x4]",
            lambda: holds(mw.left_normed([mw.variable(d8, v) for v in (1, 2, 3, 4)]), d8, "d8"),
        )

        # [x^{4!}, g] on S4 with N = V4
        v4 = s4.closure([s4.element_by_label("(12)(34)"), s4.element_by_label("(13)(24)")])
        g = min(e for e in v4 if not s4.is_identity(e))
        ctx.attempt("S4 factorial [x^24, g], N = V4", lambda: lab.factorial_identity_check(s4, v4, g))

        # three variables on S4xS4 exceed the assignment cap: a refusal is correct
        def refused():
            try:
                lab.is_mixed_identity(mw.left_normed([mw.variable(P, v) for v in (1, 2, 3)]), P)
            except miflab.BudgetExceeded:
                return True
            return False

        ctx.attempt("S4xS4 three-variable word is refused", refused)

    with ctx.phase("verify"):
        # the same verdicts re-derived from text, as `miflab check --word` does
        for a, b in pairs:
            ctx.attempt(
                f"S4xS4 parsed [[x,A],B] A=({a},1) B=(1,{b})",
                lambda: holds(
                    miflab.parse_mixed_word("[[x,A],B]", P, {"A": a * n, "B": b}), P, "reparsed",
                ),
            )
        for pick in wreath_picks:
            b = rests[int(pick * len(rests))]
            ctx.attempt(
                f"wreath parsed [[[x,A],A],B] B={b}",
                lambda: holds(
                    miflab.parse_mixed_word("[[[x,A],A],B]", W, {"A": firsts[0], "B": b}), W, "reparsed",
                ),
            )
    return {"substitutions": counts}


# -- grig --------------------------------------------------------------------

GRIG_MAX_LEN = 14
GRIG_WORDS = 10931  # reduced words of length <= 14
ORACLE_IDENTITY_LEN = 8
RANDOM_WORDS = 2000
# relations of the Grigorchuk group: conjugates of these are trivial
GRIG_RELATIONS = ("adadadad", "acacacacacacacac", "bcd")


def grig_inputs(seed: int):
    rng = random.Random(seed)
    words = []
    for _ in range(RANDOM_WORDS):
        w = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 16)))
        if rng.random() < 0.5:
            w = w + rng.choice(GRIG_RELATIONS) + w[::-1]  # generators are involutions
        words.append(w)
    return words


def grig_run(words, ctx):
    with ctx.phase("wall"):
        try:
            report = grigorchuk.verify_grig_identity(GRIG_MAX_LEN)
        except Exception as exc:
            ctx.fail_many(GRIG_WORDS, f"verify_grig_identity raised {type(exc).__name__}: {exc}")
            return {}
    ctx.check(report.words_checked == GRIG_WORDS, f"words_checked {report.words_checked}")
    ctx.tally(report.words_checked, len(report.violations), f"identity violated at {report.violations[:3]}")

    disagreements = 0
    trivial = 0
    with ctx.phase("verify"):
        for g in grigorchuk.reduced_words(ORACLE_IDENTITY_LEN):
            ctx.attempt(
                f"oracle moves identity word at g={g!r}",
                lambda: grigorchuk.acts_trivially_to_depth(grigorchuk.grig_identity_word(g)),
            )
        for w in words:
            solver = grigorchuk.is_trivial(w)
            oracle = grigorchuk.acts_trivially_to_depth(w)
            # the oracle sees only depth 12, so only "solver trivial, oracle
            # moves" is a contradiction
            ok = oracle or not solver
            trivial += solver
            disagreements += not ok
            ctx.check(ok, f"solver calls {w!r} trivial, oracle moves it")
    return {
        "words_checked": report.words_checked,
        "disagreements": disagreements,
        "random_trivial": trivial,
    }


WORKLOADS = {
    "tables": (tables_inputs, tables_run),
    "drive": (drive_inputs, drive_run),
    "lab": (lab_inputs, lab_run),
    "grig": (grig_inputs, grig_run),
}
