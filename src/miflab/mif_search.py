"""Witness search over single-variable mixed words, with checkable certificates.

Words over the alphabet {x, x^-1, a_0, a_0^-1, t, t^-1} are enumerated
shortlex (variables first in the letter order), reduced in the free
product, and deduplicated.  The enumeration goes level by level: each
word first reached at length n - 1 is extended by each letter, merging
or cancelling only at the seam, so no letter string is reduced from
scratch and only freshly merged constants are canonicalised.  For each
word the driver searches for a witness g = a * t^beta in canonical order
(increasing support radius, then |beta|, then shortlex a-part, positive
beta before negative) such that w(g) is nontrivial, and records a
certificate.  The a-parts of each radius come from the group's memo
(`LimitGroup.radius_awords`), listed once for every search of the group,
and each candidate is built as it is pulled.  Each recorded value is
canonicalised once, to render it, and only the rendered text is kept;
`verify_certificates` re-derives every row from the log's text.  An
exhausted search is reported honestly as inconclusive, not escalated.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from itertools import islice

from . import mixed_words as mw
from .errors import CapacityExceeded, FixedLimitExceeded, ParseError
from .limit_group import GElement, LimitGroup
from .parser import parse_element, parse_mixed_word
from .presentations import DEFAULT_MAX_COSETS, DEFAULT_MAX_WINDOW_WIDTH

TRIVIAL_IN_FREE_PRODUCT = "TrivialInFreeProduct"
WITNESS_FOUND = "WitnessFound"
SEARCH_EXHAUSTED = "SearchExhausted"


@dataclass(frozen=True)
class SearchBounds:
    max_support_radius: int = 3
    max_beta: int = 3
    max_word_length: int = 16
    max_candidates: int = 100_000

    def __post_init__(self):
        for name in ("max_support_radius", "max_beta", "max_word_length", "max_candidates"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class Certificate:
    index: int
    word: str
    status: str
    witness: str | None
    evaluation_normal_form: str | None
    candidates_tried: int


@dataclass
class DriveResult:
    certificates: list
    reason: str | None  # why the run stopped short, or None
    bounds: SearchBounds  # the one bounds of every search of the run

    @property
    def complete(self) -> bool:
        return self.reason is None


@dataclass
class VerifyReport:
    checked: int
    witnesses_ok: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# -- word enumeration ----------------------------------------------------------


def _alphabet(group: LimitGroup):
    """Letter order: x < x^-1 < a_0 < a_0^-1 < t < t^-1."""
    return (
        mw.var_syllable(1, 1),
        mw.var_syllable(1, -1),
        mw.const_syllable(group.generator(0)),
        mw.const_syllable(group.generator(0, group.p - 1)),
        mw.const_syllable(group.t_power(1)),
        mw.const_syllable(group.t_power(-1)),
    )


def iter_words(group: LimitGroup, count: int, max_word_length: int = 16):
    """Lazily yield the first `count` distinct nonempty reduced words,
    shortlex over letter strings.

    Level n extends each word first reached at level n - 1 by each letter
    in order, merging or cancelling only at the seam (`mw.join`; no
    letter is trivial, so none is tested on its own).  A string whose
    prefix reduces to an earlier word (or to the empty word) only repeats
    earlier words, so this visits the new words in the same order as
    reducing every string of `itertools.product` would.  Each word's
    structural key, which tells the words apart, grows with it: the
    parent's key plus the key of the new last syllable, so only a freshly
    merged constant is canonicalised.  Raises CapacityExceeded once the
    length bound leaves fewer than `count` words.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    letters = [(s, mw.syllable_key(group, s)) for s in _alphabet(group)]
    seen = set()
    level = [((), ())]  # (syllables, key) of the empty word
    for _ in range(max_word_length):
        grown_level = []
        for syllables, key in level:
            for letter, letter_key in letters:
                stack = list(syllables)
                mw.join(group, stack, letter)
                grown = len(stack) - len(syllables)
                if grown > 0:
                    new_key = key + (letter_key,)
                elif not stack:
                    continue
                elif grown == 0:
                    new_key = key[:-1] + (mw.syllable_key(group, stack[-1]),)
                else:
                    new_key = key[:-1]
                if new_key in seen:
                    continue
                seen.add(new_key)
                word = mw.MixedWord(group, stack)
                grown_level.append((word.syllables, new_key))
                yield word
                if len(seen) == count:
                    return
        level = grown_level
    raise CapacityExceeded(
        f"could not reach {count} words within length {max_word_length}"
    )


def enumerate_words(group: LimitGroup, count: int, max_word_length: int = 16):
    """First `count` distinct nonempty reduced words, shortlex over the
    letter alphabet (see `iter_words`)."""
    return list(iter_words(group, count, max_word_length))


# -- candidate enumeration -------------------------------------------------------


def candidate_elements(group: LimitGroup, bounds: SearchBounds):
    """Candidates g = a * t^beta in canonical order.

    Order: support radius ascending; within a radius, |beta| ascending;
    within that, shortlex a-part, with +beta before -beta.  The a-parts of
    a radius are the group's memoised `radius_awords`: those whose
    canonical support reaches it, the others having appeared at a smaller
    radius.  Each candidate is built as it is pulled.
    """
    for radius in range(bounds.max_support_radius + 1):
        aparts = group.radius_awords(radius)
        for a in aparts:
            yield GElement(group, a, 0)
        for abs_beta in range(1, bounds.max_beta + 1):
            for a in aparts:
                yield GElement(group, a, abs_beta)
                yield GElement(group, a, -abs_beta)


@dataclass
class FindResult:
    status: str
    witness: GElement | None
    value: GElement | None
    candidates_tried: int


def find_witness(word: "mw.MixedWord", bounds: SearchBounds) -> FindResult:
    """First candidate (canonical order) on which the word evaluates away
    from the identity.  Each candidate is evaluated once; the recorded
    value is re-derived by `verify_certificates`, not here.

    The candidates are those of `candidate_elements(word.group, bounds)`,
    of which at most `bounds.max_candidates` are pulled.
    """
    group = word.group
    if word.is_empty():
        raise ValueError("empty word has no witness")
    if any(v != 1 for v in word.variable_ids):
        raise ValueError("witness search expects a single-variable word")
    tried = 0
    for g in islice(candidate_elements(group, bounds), bounds.max_candidates):
        tried += 1
        value = mw.evaluate(word, {1: g})
        if not value.is_trivial():
            return FindResult(WITNESS_FOUND, g, value, tried)
    return FindResult(SEARCH_EXHAUSTED, None, None, tried)


# -- the driver -------------------------------------------------------------------


def drive(group: LimitGroup, count: int, bounds: SearchBounds | None = None) -> DriveResult:
    """Certificate log for the first `count` enumerated words.

    Each word is searched before the next one is enumerated, so a
    CapacityExceeded met while enumerating keeps every certificate made
    before it, like one met while searching; the partial log is returned
    flagged incomplete.  The run stops at the first CapacityExceeded, so
    no search meets a refused radius twice.

    Each recorded value w_i(g_i) was tested nontrivial by its search and
    is canonicalised once, to render its row's `evaluation_normal_form`;
    only the rendered text is kept.  `verify_certificates` is the
    independent re-check.
    """
    bounds = bounds or SearchBounds()
    certificates = []
    reason = None
    try:
        words = iter_words(group, count, bounds.max_word_length)
        for i, word in enumerate(words, start=1):
            result = find_witness(word, bounds)
            witness = normal_form = None
            if result.status == WITNESS_FOUND:
                witness = result.witness.render()
                normal_form = result.value.render_canonical()
            certificates.append(Certificate(
                i, word.render(), result.status, witness, normal_form, result.candidates_tried
            ))
    except CapacityExceeded as exc:
        reason = str(exc)
    return DriveResult(certificates, reason, bounds)


_COMPACT = (",", ":")

# Keys in sorted order, as `json.dumps(..., sort_keys=True)` writes them.
_ROW = (
    '{"bounds":%s,"candidates_tried":%d,"evaluation_normal_form":%s,"index":%d,'
    '"instance":%s,"status":%s,"witness":%s,"word":%s}\n'
)


def write_certificates(result: DriveResult, group: LimitGroup, fh) -> None:
    """JSON-lines dump: one certificate per line plus a trailing run summary.

    Each row is compact JSON with sorted keys and ASCII escapes, formatted
    from `_ROW`, the one place the row layout lives.  The `instance` and
    `bounds` fragments are encoded once per call; the string-or-null
    fields go through `json.dumps`, the two counts through `%d`.  Rows are
    written one at a time, so no whole-log string is built.
    """
    dumps = json.dumps  # looked up once, not on each of the four calls per row
    instance = dumps({"p": group.p, "c": group.c.spec()}, sort_keys=True, separators=_COMPACT)
    bounds = dumps(asdict(result.bounds), sort_keys=True, separators=_COMPACT)
    for cert in result.certificates:
        fh.write(
            _ROW % (
                bounds,
                cert.candidates_tried,
                dumps(cert.evaluation_normal_form),
                cert.index,
                instance,
                dumps(cert.status),
                dumps(cert.witness),
                dumps(cert.word),
            )
        )
    summary = {
        "run_complete": result.complete,
        "certificates": len(result.certificates),
    }
    if result.reason:
        summary["reason"] = result.reason
    fh.write(dumps(summary, sort_keys=True, separators=_COMPACT))
    fh.write("\n")


def certificates_to_lines(result: DriveResult, group: LimitGroup) -> str:
    buf = io.StringIO()
    write_certificates(result, group, buf)
    return buf.getvalue()


def verify_certificates(
    lines,
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_window_width: int = DEFAULT_MAX_WINDOW_WIDTH,
) -> VerifyReport:
    """Independent re-check of a certificate stream.

    `lines` is the log's text, split at "\\n" only (a raw U+2028 inside a
    JSON string stays in its row), or an iterable of its `str` lines (a
    bytes line raises TypeError).  Each stripped row is decoded in one
    `raw_decode` call and must end where the JSON value does; a BOM or
    trailing data makes it "not valid JSON".
    Every word is re-parsed from its row's text and re-evaluated from
    scratch; re-parse failures, trivial evaluations, and malformed rows
    (also rows that are not JSON objects) are failures.  Only an object
    with a `run_complete` key is the run summary; its `certificates` count
    must equal the number of certificate rows since the previous summary,
    so a log cut short under its summary fails.  Rows after the last
    summary, or a log with no summary at all, fail once, at the line past
    the end.  SearchExhausted rows carry no claim and only need to be
    well-formed.  Each limit group is built once per call for each
    distinct raw (p, c) of the rows (an int and a spec string), under the
    given caps.  Per group, each distinct witness text is parsed once, and
    each distinct non-commutator item text of the words (`a0`, `t^-1`,
    `x^2`) is built once, through one `items` memo that every word of the
    group shares; each word is still reduced from its own text, its items
    joined at their seams, so only constants that merge there are tested
    for the identity.  A CapacityExceeded is raised, not recorded: a row
    that cannot be checked within the caps has not failed.  A
    FixedLimitExceeded is recorded: no cap lets a text past the parser's
    or the calculus's fixed limits be checked, and no drive writes one.
    """
    report = VerifyReport(checked=0, witnesses_ok=0)
    groups: dict = {}
    witnesses: dict = {}  # (group key, witness text) -> parsed witness
    items: dict = {}  # group key -> the item memo of its words
    rows = 0  # certificate rows since the last run summary
    summarised = False
    lineno = 0
    if isinstance(lines, str):
        lines = lines.split("\n")
        if not lines[-1]:  # the empty piece after a final newline is no line
            lines.pop()
    decode = json.JSONDecoder().raw_decode
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            data, end = decode(raw)
        except json.JSONDecodeError:
            end = -1
        if end != len(raw):
            report.failures.append((lineno, "not valid JSON"))
            continue
        if not isinstance(data, dict):
            report.failures.append((lineno, "not a JSON object"))
            continue
        if "run_complete" in data:
            recorded = data.get("certificates")
            if type(recorded) is not int or recorded != rows:
                report.failures.append(
                    (lineno, f"run summary counts {recorded!r} certificates, the log has {rows}")
                )
            rows = 0
            summarised = True
            continue
        rows += 1
        report.checked += 1
        try:
            p, c = data["instance"]["p"], data["instance"]["c"]
            if type(p) is not int or type(c) is not str:
                raise ParseError(f"instance needs an int p and a spec string c, got {p!r}, {c!r}")
            key = (p, c)
            group = groups.get(key)
            if group is None:
                group = groups[key] = LimitGroup(
                    *key, max_cosets=max_cosets, max_window_width=max_window_width
                )
                items[key] = {}
            word = parse_mixed_word(data["word"], group, items=items[key])
            status = data["status"]
            if status == TRIVIAL_IN_FREE_PRODUCT:
                if not word.is_empty():
                    report.failures.append((lineno, "word is not trivial in the free product"))
                continue
            if status == SEARCH_EXHAUSTED:
                continue
            if status != WITNESS_FOUND:
                report.failures.append((lineno, f"unknown status {status!r}"))
                continue
            witness_key = (key, data["witness"])
            witness = witnesses.get(witness_key)
            if witness is None:
                witness = witnesses[witness_key] = parse_element(data["witness"], group)
            value = mw.evaluate(word, {1: witness})
            if value.is_trivial():
                report.failures.append((lineno, "witness evaluation is trivial"))
                continue
            if data.get("evaluation_normal_form") != value.render_canonical():
                report.failures.append((lineno, "evaluation normal form mismatch"))
                continue
            report.witnesses_ok += 1
        except Exception as exc:  # malformed certificates must not crash the verifier
            if isinstance(exc, CapacityExceeded) and not isinstance(exc, FixedLimitExceeded):
                raise
            report.failures.append((lineno, f"{type(exc).__name__}: {exc}"))
    if rows or not summarised:
        report.failures.append(
            (lineno + 1, f"the log ends without a run summary after {rows} certificate rows")
        )
    return report
