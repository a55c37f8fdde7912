"""Command-line front door.

Subcommands: order, check, grig (act / trivial / verify-identity),
search, drive, verify, selftest.  Every command is deterministic given
its flags, and --seed affects only the sampled selftest subcommand.
Each subcommand takes only the flags it reads.

Exit codes: 0 success, 2 capacity/budget exceeded, 3 verification
failure, 4 parse error (also a usage error, and a file that cannot be
read, written or decoded as UTF-8).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from . import grigorchuk, identity_lab, mif_search
from . import mixed_words as mw
from .errors import BudgetExceeded, CapacityExceeded, ParseError, VerificationError
from .limit_group import LimitGroup
from .mif_search import SearchBounds
from .parser import named_variables, parse_mixed_word, split_labels
from .presentations import DEFAULT_MAX_COSETS, DEFAULT_MAX_WINDOW_WIDTH, Window, integer

EXIT_OK = 0
EXIT_CAPACITY = 2
EXIT_VERIFICATION = 3
EXIT_PARSE = 4


def _check_caps(args) -> None:
    if args.max_cosets < 1:
        raise ParseError(f"--max-cosets must be at least 1, got {args.max_cosets}")
    if args.max_window_width < 0:
        raise ParseError(f"--max-window-width must be non-negative, got {args.max_window_width}")


def _add_cap_flags(sub):
    sub.add_argument("--max-cosets", type=integer, default=DEFAULT_MAX_COSETS, dest="max_cosets")
    sub.add_argument("--max-window-width", type=integer, default=DEFAULT_MAX_WINDOW_WIDTH,
                     dest="max_window_width")


def _group(args) -> LimitGroup:
    _check_caps(args)
    try:
        return LimitGroup(
            args.p,
            args.c,
            max_cosets=args.max_cosets,
            max_window_width=args.max_window_width,
            cache_dir=args.cache_dir,
        )
    except ValueError as exc:  # p is not a prime
        raise ParseError(str(exc)) from exc


def _bounds(args, **kwargs) -> SearchBounds:
    try:
        return SearchBounds(
            max_support_radius=args.max_support_radius,
            max_beta=args.max_beta,
            max_candidates=args.max_candidates,
            **kwargs,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _add_instance_flags(sub):
    sub.add_argument("--p", type=integer, default=2, help="prime p (default 2)")
    sub.add_argument("--c", default="n", help="class-bound sequence: 'n' or '1,2,2'")
    _add_cap_flags(sub)
    # the library has no disk cache unless given one; only the CLI reads the variable
    sub.add_argument("--cache-dir", default=os.environ.get("MIFLAB_CACHE"), dest="cache_dir",
                     help="table cache directory (default: $MIFLAB_CACHE)")


def _add_bound_flag(sub, name):
    """The flag of the `SearchBounds` field `name`, with the field's default."""
    sub.add_argument("--" + name.replace("_", "-"), type=integer, dest=name,
                     default=getattr(SearchBounds, name))


def _add_search_flags(sub):
    _add_instance_flags(sub)
    for name in ("max_support_radius", "max_beta", "max_candidates"):
        _add_bound_flag(sub, name)


def _emit(args, payload: dict, text: str | None = None):
    """Print the result; output that cannot be written is a ParseError naming stdout."""
    try:
        print(json.dumps(payload, sort_keys=True) if args.json or text is None else text)
        sys.stdout.flush()
    except OSError as exc:
        raise ParseError(f"cannot write stdout: {exc.strerror or exc}") from exc


# -- subcommands -----------------------------------------------------------------


def cmd_order(args) -> int:
    group = _group(args)
    window = Window.from_spec(args.window)
    n = group.window_order(window)
    _emit(
        args,
        {"p": group.p, "c": group.c.spec(), "window": str(window), "order": n},
        str(n),
    )
    return EXIT_OK


def _check_family(args, identity: str, G, pairs, constants) -> int:
    """Decide `identity` for every (a, b) in pairs; stop at the first failure.

    constants(a, b) lists the constants that follow x in the left-normed word.
    """
    checks = 0
    payload = {"identity": identity, "group": G.name}
    for a_el, b_el in pairs:
        word = mw.left_normed([mw.variable(G)] + [mw.constant(G, c) for c in constants(a_el, b_el)])
        verdict = identity_lab.is_mixed_identity(word, G)
        checks += verdict.substitutions_checked
        if not verdict.holds:
            payload["counterexample"] = verdict.to_json_dict(G, word)
            break
    holds = "counterexample" not in payload
    payload.update(verdict=holds, substitutions_checked=checks)
    _emit(args, payload, f"{holds}")
    return EXIT_OK


def _catalog_group(args, flag: str, resolve=identity_lab.small_group):
    """`resolve` (by default the group) of the catalog name `--<flag>`; a
    missing or bad name is a ParseError."""
    name = getattr(args, flag)
    if name is None:
        raise ParseError(f"--{flag} is required for this check")
    try:
        return resolve(name)
    except ParseError as exc:
        raise ParseError(f"--{flag}: {exc}") from None


def cmd_check(args) -> int:
    if args.id == "direct-product":
        A = _catalog_group(args, "A")
        B = _catalog_group(args, "B")
        G = identity_lab.direct_product(A, B)
        nb = B.size
        pairs = ((a, b) for a in range(1, A.size) for b in range(1, nb))
        return _check_family(
            args, "[[x,a],b]", G, pairs,
            lambda a, b: (a * nb, b),
        )
    if args.id == "wreath":
        base = _catalog_group(args, "base")
        # the top is cyclic: its order is the rotation count
        top = re.fullmatch(r"[Cc]([1-9][0-9]{0,17})", (args.top or "").strip())
        if top is None:
            raise ParseError(f"--top must name a cyclic group C<k>, 1 <= k < 10^18, got {args.top!r}")
        data = identity_lab.wreath_product(int(top.group(1)), base)
        G = data.group
        pairs = (
            (a, b)
            for a in data.first_factor if not G.is_identity(a)
            for b in data.rest_factor if not G.is_identity(b)
        )
        return _check_family(args, "[[[x,a],a],b]", G, pairs, lambda a, b: (a, a, b))
    if args.id == "factorial":
        G = _catalog_group(args, "group")
        if not args.normal:
            raise ParseError("--normal is required for the factorial check")
        N = G.closure(G.element_by_label(x) for x in split_labels(args.normal))
        g = G.element_by_label(args.g) if args.g else next(
            (e for e in sorted(N) if not G.is_identity(e)), G.identity
        )
        try:
            ok = identity_lab.factorial_identity_check(G, N, g)
        except ValueError as exc:  # N is not normal, or g is not a nontrivial element of N
            given = f", --g {args.g!r}" if args.g else ""
            raise ParseError(
                f"{exc}: --normal {args.normal!r} generates a subgroup of order {len(N)} "
                f"of {G.name}{given}"
            ) from None
        payload = {
            "identity": f"[x^{len(N)}!, g]",
            "group": G.name,
            "normal_order": len(N),
            "g": G.render_element(g),
            "verdict": ok,
        }
        _emit(args, payload, f"{ok}")
        return EXIT_OK
    if args.word is not None:  # the empty word too
        # the assignment cap is checked from the name and the text, before any table exists
        order = _catalog_group(args, "group", identity_lab.small_group_order)
        identity_lab.check_assignments(order, len(named_variables(args.word)))
        G = _catalog_group(args, "group")
        word = parse_mixed_word(args.word, G, constants=G.constants())
        verdict = identity_lab.is_mixed_identity(word, G)
        payload = verdict.to_json_dict(G, word)
        _emit(args, payload, f"{verdict.holds}")
        return EXIT_OK
    raise ParseError("check needs --id or --word")


def cmd_grig(args) -> int:
    if args.grig_command == "act":
        try:
            result = grigorchuk.act(args.word, args.string)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        _emit(args, {"word": args.word, "string": args.string, "result": result}, result)
        return EXIT_OK
    if args.grig_command == "trivial":
        try:
            verdict = grigorchuk.is_trivial(args.word)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        payload = {"word": args.word, "trivial": verdict}
        if not verdict:
            payload["moved_string"] = grigorchuk.find_moved_string(args.word)
        _emit(args, payload, str(verdict))
        return EXIT_OK
    if args.grig_command == "verify-identity":
        if args.max_len < 0:
            raise ParseError(f"--max-len must be non-negative, got {args.max_len}")
        report = grigorchuk.verify_grig_identity(args.max_len)
        _emit(
            args,
            report.to_json_dict(),
            f"checked {report.words_checked} words, {len(report.violations)} violations",
        )
        return EXIT_OK if report.ok else EXIT_VERIFICATION
    raise ParseError(f"unknown grig subcommand {args.grig_command!r}")


def cmd_search(args) -> int:
    group = _group(args)
    bounds = _bounds(args)
    word = parse_mixed_word(args.word, group)
    if word.is_empty():
        _emit(args, {"word": args.word, "status": mif_search.TRIVIAL_IN_FREE_PRODUCT}, "trivial in free product")
        return EXIT_OK
    try:
        result = mif_search.find_witness(word, bounds)
    except ValueError as exc:  # a word in more than one variable
        raise ParseError(str(exc)) from exc
    payload = {
        "word": word.render(),
        "status": result.status,
        "candidates_tried": result.candidates_tried,
    }
    text = result.status
    if result.status == mif_search.WITNESS_FOUND:
        payload["witness"] = result.witness.render()
        payload["evaluation_normal_form"] = result.value.render_canonical()
        text = f"witness {result.witness.render()}"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_drive(args) -> int:
    group = _group(args)
    bounds = _bounds(args, max_word_length=args.max_word_length)
    try:
        result = mif_search.drive(group, args.count, bounds)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                mif_search.write_certificates(result, group, fh)
        else:
            mif_search.write_certificates(result, group, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:  # opening, writing or closing the log
        target = repr(args.out) if args.out else "stdout"
        raise ParseError(
            f"drive finished with {len(result.certificates)} certificates, but the log "
            f"was not written: cannot write {target}: {exc.strerror or exc}"
        ) from exc
    return EXIT_OK if result.complete else EXIT_CAPACITY


def cmd_verify(args) -> int:
    _check_caps(args)
    try:
        with open(args.certificates, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.certificates!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {args.certificates!r}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    report = mif_search.verify_certificates(
        text, max_cosets=args.max_cosets, max_window_width=args.max_window_width
    )
    payload = {
        "checked": report.checked,
        "witnesses_ok": report.witnesses_ok,
        "failures": [{"line": l, "reason": r} for l, r in report.failures],
    }
    _emit(args, payload, f"checked {report.checked}, failures {len(report.failures)}")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_selftest(args) -> int:
    """Sampled invariants; the only subcommand whose work depends on --seed.

    The group laws are checked on canonical forms, so each side goes
    through a table: canon(a*h)*k == a*canon(h*k) for a, h, k in one
    window [lo, lo+2], and canon(g)*g^-1 is trivial.  A random g whose
    abelian image is nonzero must not test trivial (oracle soundness).
    """
    if args.samples < 0:
        raise ParseError(f"--samples must be non-negative, got {args.samples}")
    rng = random.Random(args.seed)
    group = _group(args)

    def draw(lo):
        """A random element of A supported in [lo, lo+2]."""
        n = rng.randint(0, 4)
        return group.element([(rng.randint(lo, lo + 2), rng.randint(1, group.p - 1)) for _ in range(n)])

    def canon(x):
        return group.element(x.canonical_aword(), x.beta)

    failures = []
    for _ in range(args.samples):
        lo = rng.randint(-2, 0)
        a, h, k = draw(lo), draw(lo), draw(lo)
        g = group.element(a.a, rng.randint(-2, 2))
        if not canon(a * h) * k == a * canon(h * k):
            failures.append("associativity")
        if not (canon(g) * g.inverse()).is_trivial():
            failures.append("inverse")
        img = g.abelianize()
        if img.nonzero_on_a_part and g.is_trivial():
            failures.append("oracle-soundness")
    payload = {"seed": args.seed, "samples": args.samples, "failures": failures}
    _emit(args, payload, "ok" if not failures else f"failures: {failures}")
    return EXIT_OK if not failures else EXIT_VERIFICATION


# -- argument plumbing --------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse reads an argument that starts with '-' as a flag unless it
    is a negative number.  Here an argument that starts with '-' and a
    digit is a value, so `--window -1..1` reads as `--window=-1..1` does;
    no flag of miflab starts so.  A usage error raises ParseError, so it
    ends as every other parse error does, in one JSON line.  Subparsers
    are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="miflab",
        description="Exact workbench for window p-groups, mixed identities and witness search",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("order", help="order of a window group B(window)")
    _add_instance_flags(sp)
    sp.add_argument("--window", required=True, help="index window 'lo..hi'")
    sp.set_defaults(func=cmd_order)

    sp = sub.add_parser("check", help="canned or explicit mixed-identity checks on finite groups")
    sp.add_argument("--id", choices=["direct-product", "wreath", "factorial"])
    sp.add_argument("--A", help="left factor for direct-product")
    sp.add_argument("--B", help="right factor for direct-product")
    sp.add_argument("--base", help="wreath base group")
    sp.add_argument("--top", help="wreath top group (cyclic)")
    sp.add_argument("--group", help="group for --word or --id factorial")
    sp.add_argument("--normal", help="labels generating the normal subgroup (factorial)")
    sp.add_argument("--g", help="label of the nontrivial element of N (factorial)")
    sp.add_argument("--word", help="mixed word over the group's element labels")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("grig", help="Grigorchuk group commands")
    gsub = sp.add_subparsers(dest="grig_command", required=True)
    g1 = gsub.add_parser("act", help="apply a word to a binary string")
    g1.add_argument("--word", required=True)
    g1.add_argument("--string", required=True)
    g2 = gsub.add_parser("trivial", help="decide the word problem")
    g2.add_argument("--word", required=True)
    g3 = gsub.add_parser("verify-identity", help="check [[[[x,b],d],d],ada]=1 exhaustively")
    g3.add_argument("--max-len", type=integer, default=6, dest="max_len")
    sp.set_defaults(func=cmd_grig)

    sp = sub.add_parser("search", help="find a witness for a single-variable word")
    _add_search_flags(sp)
    sp.add_argument("--word", required=True)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("drive", help="run the certificate-producing driver")
    _add_search_flags(sp)
    sp.add_argument("--count", type=integer, default=50)
    _add_bound_flag(sp, "max_word_length")
    sp.add_argument("--out", help="certificate JSONL file (default: stdout)")
    sp.set_defaults(func=cmd_drive)

    sp = sub.add_parser("verify", help="re-check a certificate file")
    sp.add_argument("certificates")
    _add_cap_flags(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("selftest", help="sampled invariant checks")
    _add_instance_flags(sp)
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument("--samples", type=integer, default=200)
    sp.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # argparse has printed the help
            return EXIT_OK
        return args.func(args)
    except ParseError as exc:
        print(json.dumps({"error": "parse", "detail": str(exc)}), file=sys.stderr)
        return EXIT_PARSE
    except (CapacityExceeded, BudgetExceeded) as exc:
        print(json.dumps({"error": "capacity", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(json.dumps({"error": "verification", "detail": str(exc)}), file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
