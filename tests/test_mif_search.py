"""Witness search: enumeration order, canonical-first witnesses, certificates."""

import hashlib
import json
from collections import Counter
from itertools import islice, product

import pytest

from miflab import CapacityExceeded, LimitGroup, VerificationError, parse_element, parse_mixed_word
from miflab import mif_search as ms
from miflab import mixed_words as mw
from miflab.parser import _Parser
from miflab.coset_enum import CosetTable
from miflab.limit_group import AWord, GElement


def test_enumeration_starts_with_x(default_group):
    words = ms.enumerate_words(default_group, 5)
    assert [w.render() for w in words] == ["x", "x^-1", "a0", "t", "t^-1"]


def test_enumeration_includes_constants_and_expansions(default_group):
    words = ms.enumerate_words(default_group, 250)
    rendered = [w.render() for w in words]
    assert "a0" in rendered  # constants-only words belong to the free product too
    target = parse_mixed_word("[x, a0]", default_group)
    assert any(w == target for w in words)  # the expansion x^-1 a0 x a0 shows up


def test_enumeration_is_deterministic_and_duplicate_free(default_group):
    words1 = ms.enumerate_words(default_group, 80)
    words2 = ms.enumerate_words(default_group, 80)
    assert [w.render() for w in words1] == [w.render() for w in words2]
    keys = [w.structural_key() for w in words1]
    assert len(keys) == len(set(keys))


def _reference_words(group, count, max_word_length=16):
    """The enumeration by definition: reduce every letter string of every
    length in `itertools.product` order, keeping each new nonempty word."""
    letters = ms._alphabet(group)
    seen = set()
    out = []
    for length in range(1, max_word_length + 1):
        for combo in product(letters, repeat=length):
            word = mw.reduce(group, combo)
            if word.is_empty():
                continue
            key = word.structural_key()
            if key in seen:
                continue
            seen.add(key)
            out.append(word)
            if len(out) == count:
                return out
    raise AssertionError("reference enumeration ran out of words")


@pytest.mark.parametrize(
    "p, c, count",
    [(2, "n", 3000), (3, "1,2", 1500), (2, "1", 500)],
    ids=["2-n", "3-1,2", "2-1"],
)
def test_seam_enumeration_matches_the_reference(p, c, count):
    # on (3, "1,2") a0 and a0^-1 are distinct letters, so constants merge
    # into new constants at the seam, not only cancel
    group = LimitGroup(p, c)
    pairs = list(ms.iter_words(group, count))
    for word, key in pairs:
        assert key == word.structural_key()
    reference = _reference_words(group, count)
    assert [w.render() for w, _ in pairs] == [w.render() for w in reference]
    assert [k for _, k in pairs] == [w.structural_key() for w in reference]


def test_enumeration_canonicalises_only_merged_constants(monkeypatch):
    calls = {"canonical_aword": 0, "reduce": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(LimitGroup, "canonical_aword")
    counting(mw, "reduce")
    assert len(ms.enumerate_words(LimitGroup(2, "n"), 3000)) == 3000
    assert calls["reduce"] == 0
    assert calls["canonical_aword"] < 3000  # every string re-canonicalised: 12,352


def test_enumeration_runs_out_within_the_length_bound(default_group):
    with pytest.raises(CapacityExceeded, match="could not reach 100 words within length 2"):
        ms.enumerate_words(default_group, 100, 2)


def test_find_witness_examples(default_group):
    G = default_group
    bounds = ms.SearchBounds()
    r = ms.find_witness(parse_mixed_word("x", G), bounds)
    assert r.status == ms.WITNESS_FOUND and r.witness.render() == "a0"
    r = ms.find_witness(parse_mixed_word("x^2", G), bounds)
    assert r.status == ms.WITNESS_FOUND and r.witness.render() == "t"
    r = ms.find_witness(parse_mixed_word("[x, t]", G), bounds)
    assert r.status == ms.WITNESS_FOUND and r.witness.render() == "a0"
    assert r.value.abelianize().beta == 0


def test_find_witness_canonical_order(default_group):
    # the identity is the very first candidate, so constants-only words get it
    G = default_group
    r = ms.find_witness(parse_mixed_word("t^3", G), ms.SearchBounds())
    assert r.status == ms.WITNESS_FOUND
    assert r.witness.is_trivial()
    assert r.candidates_tried == 1


def test_search_exhausted_is_honest(default_group):
    G = default_group
    r = ms.find_witness(parse_mixed_word("x", G), ms.SearchBounds(max_candidates=1))
    assert r.status == ms.SEARCH_EXHAUSTED
    assert r.witness is None
    assert r.candidates_tried == 1


def test_drive_single_word(default_group):
    res = ms.drive(default_group, 1)
    assert res.complete
    assert len(res.certificates) == 1
    cert = res.certificates[0]
    assert cert.word == "x" and cert.status == ms.WITNESS_FOUND


def test_drive_certificates_reverify(default_group):
    res = ms.drive(default_group, 30)
    assert res.complete
    lines = ms.certificates_to_lines(res, default_group)
    report = ms.verify_certificates(lines)
    assert report.ok
    assert report.checked == 30
    assert report.witnesses_ok == sum(
        1 for c in res.certificates if c.status == ms.WITNESS_FOUND
    )
    # witness-set persistence: recorded values stay nontrivial
    assert all(not v.is_trivial() for v in res.witness_set)


def test_drive_is_deterministic(default_group):
    a = ms.certificates_to_lines(ms.drive(default_group, 25), default_group)
    b = ms.certificates_to_lines(ms.drive(default_group, 25), default_group)
    assert a == b


def test_verify_rejects_corruption(default_group):
    res = ms.drive(default_group, 5)
    lines = ms.certificates_to_lines(res, default_group).splitlines()
    data = json.loads(lines[0])
    data["witness"] = "1"  # forge: the identity witnesses nothing for w = x
    lines[0] = json.dumps(data, sort_keys=True)
    report = ms.verify_certificates("\n".join(lines))
    assert not report.ok
    assert any("trivial" in reason for _, reason in report.failures)


def test_verify_rejects_wrong_normal_form(default_group):
    res = ms.drive(default_group, 3)
    lines = ms.certificates_to_lines(res, default_group).splitlines()
    data = json.loads(lines[0])
    data["evaluation_normal_form"] = "a7"
    lines[0] = json.dumps(data, sort_keys=True)
    report = ms.verify_certificates("\n".join(lines))
    assert not report.ok


def test_verify_rejects_garbage_lines():
    report = ms.verify_certificates("not json at all\n")
    assert not report.ok


@pytest.mark.parametrize("row", ["5", "null", '"run_complete"', "[1, 2]", "true"])
def test_verify_fails_rows_that_are_not_objects(default_group, row):
    lines = ms.certificates_to_lines(ms.drive(default_group, 3), default_group).splitlines()
    lines.insert(1, row)
    report = ms.verify_certificates("\n".join(lines))
    assert report.failures == [(2, "not a JSON object")]
    assert report.checked == report.witnesses_ok == 3


def test_verify_parses_each_witness_text_once(monkeypatch, default_group):
    lines = ms.certificates_to_lines(ms.drive(default_group, 200), default_group)
    parsed = Counter()
    parse = ms.parse_element

    def counted(text, group):
        parsed[text] += 1
        return parse(text, group)

    monkeypatch.setattr(ms, "parse_element", counted)
    report = ms.verify_certificates(lines)
    assert report.ok and report.witnesses_ok == 200
    witnesses = {json.loads(row)["witness"] for row in lines.splitlines()[:-1]}
    assert parsed == Counter(witnesses)
    assert len(witnesses) < 20


def test_verify_builds_each_item_text_of_the_words_once(monkeypatch):
    """The words of one group share one item memo.  A witness text builds
    its own items when it is parsed (once, see above), so only builds made
    while parsing a word are counted."""
    group = LimitGroup(2, "n")
    lines = ms.certificates_to_lines(ms.drive(group, 800), group)
    built = Counter()
    in_word = [False]
    parse, build = ms.parse_mixed_word, _Parser._build_item

    def word_parse(*args, **kwargs):
        in_word[0] = True
        try:
            return parse(*args, **kwargs)
        finally:
            in_word[0] = False

    def counted(self, kind, val, power):
        if in_word[0]:
            built[val + power] += 1
        return build(self, kind, val, power)

    monkeypatch.setattr(ms, "parse_mixed_word", word_parse)
    monkeypatch.setattr(_Parser, "_build_item", counted)
    report = ms.verify_certificates(lines)
    assert report.ok and report.witnesses_ok == 800
    # the 800 words hold 2,780 item tokens
    assert built and max(built.values()) == 1
    assert len(built) < 40


def test_verify_fails_a_log_cut_under_its_summary(default_group):
    *rows, summary = ms.certificates_to_lines(ms.drive(default_group, 50), default_group).splitlines()
    assert json.loads(summary) == {"certificates": 50, "run_complete": True}
    report = ms.verify_certificates(rows[:10] + [summary])
    assert report.checked == report.witnesses_ok == 10
    assert report.failures == [(11, "run summary counts 50 certificates, the log has 10")]
    report = ms.verify_certificates(rows[:10] + ['{"run_complete":true}'])
    assert report.failures == [(11, "run summary counts None certificates, the log has 10")]


def test_verify_fails_a_log_without_a_summary(default_group):
    report = ms.verify_certificates("")
    assert report.checked == 0
    assert report.failures == [(1, "the log ends without a run summary after 0 certificate rows")]
    # a log cut above its summary, as `head -3` would
    lines = ms.certificates_to_lines(ms.drive(default_group, 5), default_group).splitlines()
    report = ms.verify_certificates(lines[:3])
    assert report.checked == report.witnesses_ok == 3
    assert report.failures == [(4, "the log ends without a run summary after 3 certificate rows")]
    # rows after the last summary are not covered by it
    report = ms.verify_certificates(lines + lines[:2])
    assert report.failures == [(9, "the log ends without a run summary after 2 certificate rows")]
    assert ms.verify_certificates(lines + lines).ok


def test_verify_fails_a_row_whose_instance_is_malformed(default_group):
    lines = ms.certificates_to_lines(ms.drive(default_group, 3), default_group).splitlines()
    for field, value, reason in [
        ("c", ["n"], "ParseError: instance needs an int p and a spec string c, got 2, ['n']"),
        ("c", 2, "ParseError: instance needs an int p and a spec string c, got 2, 2"),
        ("p", 4, "ValueError: p must be prime, got 4"),
        ("p", 2.0, "ParseError: instance needs an int p and a spec string c, got 2.0, 'n'"),
    ]:
        data = json.loads(lines[1])
        data["instance"][field] = value
        report = ms.verify_certificates(lines[:1] + [json.dumps(data)] + lines[2:])
        assert report.failures == [(2, reason)], (field, value)
        assert report.checked == 3 and report.witnesses_ok == 2


def test_verify_accepts_the_partial_log_of_a_refused_drive():
    narrow = LimitGroup(2, "n", max_window_width=2)
    partial = ms.drive(narrow, 1130)
    assert not partial.complete and len(partial.certificates) == 1120
    report = ms.verify_certificates(ms.certificates_to_lines(partial, narrow))
    assert report.ok and report.checked == report.witnesses_ok == 1120


def _forged(rows, i, field, value):
    data = json.loads(rows[i])
    if field == "c":
        data["instance"]["c"] = value
    else:
        data[field] = value
    return rows[:i] + [json.dumps(data, sort_keys=True)] + rows[i + 1:]


def test_verify_fails_exactly_the_forged_row(default_group):
    """Every row shares the item memo of its group, and a forged row still
    fails on its own text."""
    lines = ms.certificates_to_lines(ms.drive(default_group, 200), default_group).splitlines()
    rows = [json.loads(row) for row in lines[:-1]]
    assert ms.verify_certificates(lines).ok
    for i in range(0, 200, 10):
        row = rows[i]
        # w a0 evaluates to w(g) a0, which is not w(g)
        forgeries = [("word", row["word"] + " a0"), ("evaluation_normal_form", row["evaluation_normal_form"] + " a9")]
        if row["witness"] != "1":
            # the identity is the first candidate, so a later witness means w(1) = 1
            forgeries.append(("witness", "1"))
        for field, value in forgeries:
            report = ms.verify_certificates(_forged(lines, i, field, value))
            assert [line for line, _ in report.failures] == [i + 1], (i, field)
    # a certificate moved to another instance fails exactly where its recorded
    # value is not the value in that instance
    other = LimitGroup(2, "2")
    moved = 0
    for i in range(0, 200, 5):
        row = rows[i]
        value = mw.evaluate(parse_mixed_word(row["word"], other), {1: parse_element(row["witness"], other)})
        false_there = value.render_canonical() != row["evaluation_normal_form"]
        moved += false_there
        report = ms.verify_certificates(_forged(lines, i, "c", "2"))
        assert [line for line, _ in report.failures] == ([i + 1] if false_there else []), i
    assert moved


def test_bounds_validation():
    with pytest.raises(ValueError):
        ms.SearchBounds(max_beta=-1)


def test_candidate_order_prefix(default_group):
    got = []
    for g in ms.candidate_elements(default_group, ms.SearchBounds(max_support_radius=1, max_beta=1)):
        got.append(g.render())
        if len(got) == 8:
            break
    assert got[:6] == ["1", "a0", "t", "t^-1", "a0 t", "a0 t^-1"]


# -- cost and persistence of the driver -------------------------------------------

DRIVE_500_SHA256 = "f0658417566b28b2b949da729d4e7423d9b15e2377bd76fa0f96f1c91cbfe5d8"


def test_drive_500_certificate_log_is_pinned(default_group):
    lines = ms.certificates_to_lines(ms.drive(default_group, 500), default_group)
    assert hashlib.sha256(lines.encode()).hexdigest() == DRIVE_500_SHA256


def _reference_log(result, group):
    """The log as a general JSON encoder writes it: each row a dict, keys
    sorted, compact separators, ASCII escapes."""

    def line(data):
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"

    rows = [
        line({
            "index": cert.index,
            "word": cert.word,
            "status": cert.status,
            "witness": cert.witness,
            "evaluation_normal_form": cert.evaluation_normal_form,
            "bounds": {
                "max_support_radius": cert.bounds.max_support_radius,
                "max_beta": cert.bounds.max_beta,
                "max_word_length": cert.bounds.max_word_length,
                "max_candidates": cert.bounds.max_candidates,
            },
            "candidates_tried": cert.candidates_tried,
            "instance": {"p": group.p, "c": group.c.spec()},
        })
        for cert in result.certificates
    ]
    summary = {"run_complete": result.complete, "certificates": len(result.certificates)}
    if result.reason:
        summary["reason"] = result.reason
    return "".join(rows) + line(summary)


def test_certificate_rows_match_a_general_json_encoder(default_group):
    c12 = LimitGroup(3, "1,2")
    odd = ms.SearchBounds(max_support_radius=1, max_beta=2, max_word_length=9, max_candidates=7)
    exhausted = ms.drive(default_group, 3, ms.SearchBounds(max_candidates=1))
    assert ms.SEARCH_EXHAUSTED in {c.status for c in exhausted.certificates}
    text = 'a "quoted" \\ back\nslash, é and ∞'
    bounds = ms.SearchBounds()
    hand_built = ms.DriveResult(
        [
            ms.Certificate(1, text, ms.WITNESS_FOUND, text + " w", "∞" + text, bounds, 12),
            ms.Certificate(2, "x", ms.SEARCH_EXHAUSTED, None, None, odd, 0),
            ms.Certificate(3, text, ms.SEARCH_EXHAUSTED, None, None, bounds, 100_000),
        ],
        complete=False,
        reason='stopped: "width" é\\∞\nnext',
        witness_set=[],
    )
    for result, group in [
        (ms.drive(default_group, 500), default_group),
        (ms.drive(c12, 200), c12),
        (exhausted, default_group),
        (ms.drive(default_group, 40, odd), default_group),
        (hand_built, default_group),
    ]:
        written = ms.certificates_to_lines(result, group)
        assert written.isascii()
        assert written.splitlines(keepends=True) == _reference_log(result, group).splitlines(
            keepends=True
        )


DRIVE_3000_SHA256 ="5a2e044a18f30e449172731724e469eac0c0ec4e4ef841a7db6da8c7715b644b"


def test_one_letter_values_are_not_traced(monkeypatch):
    """One-letter A-words are their own normal form: of the 3,888 traces
    `drive(3000)` made through the window tables, and the 2,387 of its
    verification, 2,950 and 1,653 were for one letter."""
    traces = [0]
    normal_form = CosetTable.normal_form

    def counted(self, word):
        traces[0] += 1
        return normal_form(self, word)

    monkeypatch.setattr(CosetTable, "normal_form", counted)
    group = LimitGroup(2, "n")
    lines = ms.certificates_to_lines(ms.drive(group, 3000), group)
    assert hashlib.sha256(lines.encode()).hexdigest() == DRIVE_3000_SHA256
    assert traces[0] <= 1000
    traces[0] = 0
    assert ms.verify_certificates(lines).ok
    assert traces[0] <= 800


def test_drive_work_is_linear_in_the_word_count(monkeypatch):
    """One search plus one re-check per word needs ~11 k GElement.is_trivial
    calls; re-testing every recorded value after every word needs ~335 k."""
    calls = [0]
    original = GElement.is_trivial

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(GElement, "is_trivial", counted)
    result = ms.drive(LimitGroup(2, "n"), 800)
    assert result.complete and len(result.certificates) == 800
    assert calls[0] < 30_000


def test_drive_builds_the_candidates_once_per_run(monkeypatch):
    entered = [0]
    walks = Counter()
    evaluations = [0]
    candidates, words, evaluate = ms.candidate_elements, CosetTable.words, mw.evaluate

    def counted_candidates(group, bounds):
        entered[0] += 1
        return candidates(group, bounds)

    def counted_words(self):
        walks[id(self)] += 1
        return words(self)

    def counted_evaluate(word, assignment):
        evaluations[0] += 1
        return evaluate(word, assignment)

    monkeypatch.setattr(ms, "candidate_elements", counted_candidates)
    monkeypatch.setattr(CosetTable, "words", counted_words)
    monkeypatch.setattr(mw, "evaluate", counted_evaluate)
    result = ms.drive(LimitGroup(2, "n"), 800)
    assert result.complete and len(result.certificates) == 800
    assert entered[0] == 1
    assert walks and max(walks.values()) == 1
    # one evaluation per candidate tried
    assert evaluations[0] == sum(c.candidates_tried for c in result.certificates)


def test_shared_candidates_repeat_the_order_and_its_errors(default_group):
    bounds = ms.SearchBounds(max_support_radius=2, max_beta=1)
    shared = ms.SharedCandidates(default_group, bounds)
    first = [g.render() for g in islice(shared, 12)]
    assert [g.render() for g in islice(shared, 20)][:12] == first
    assert first == [g.render() for g in islice(ms.candidate_elements(default_group, bounds), 12)]
    narrow = LimitGroup(2, "n", max_window_width=1)
    shared = ms.SharedCandidates(narrow, bounds)
    for _ in range(2):  # the radius-1 window (width 2) is refused every time
        with pytest.raises(CapacityExceeded, match="window width 2"):
            list(shared)


def _patch_search(monkeypatch, words_searched, stop_with=None, forget=True):
    """After `words_searched` searches, the next search raises `stop_with`
    (if given) and, with `forget`, every recorded value canonicalises to the
    empty word from then on."""
    recorded = []
    searched = [0]
    search = ms.find_witness
    canonical = LimitGroup.canonical_aword

    def find_witness(word, bounds, **kwargs):
        if searched[0] == words_searched and stop_with is not None:
            raise stop_with
        result = search(word, bounds, **kwargs)
        searched[0] += 1
        if result.value is not None:
            recorded.append(result.value.a)
        return result

    def canonical_aword(self, word):
        if forget and searched[0] == words_searched and any(word is a for a in recorded):
            return AWord(self.p, ())
        return canonical(self, word)

    monkeypatch.setattr(ms, "find_witness", find_witness)
    monkeypatch.setattr(LimitGroup, "canonical_aword", canonical_aword)


def test_persistence_check_can_fail(monkeypatch):
    # every recorded value already carries its canonical form, so a check
    # through the cache would pass here
    _patch_search(monkeypatch, 20)
    with pytest.raises(VerificationError, match="witness-set persistence violated"):
        ms.drive(LimitGroup(2, "n"), 20)


def test_persistence_check_runs_on_the_partial_path(monkeypatch):
    stop = CapacityExceeded("window too wide")
    _patch_search(monkeypatch, 7, stop_with=stop, forget=False)
    result = ms.drive(LimitGroup(2, "n"), 20)
    assert not result.complete and result.reason == "window too wide"
    assert len(result.certificates) == len(result.witness_set) == 7
    monkeypatch.undo()
    _patch_search(monkeypatch, 7, stop_with=stop)
    with pytest.raises(VerificationError, match="witness-set persistence violated"):
        ms.drive(LimitGroup(2, "n"), 20)


# -- the capacity wall ------------------------------------------------------------


def _rows(result, group):
    return ms.certificates_to_lines(result, group).splitlines()[:-1]


def test_drive_keeps_the_partial_log_at_the_enumeration_wall():
    # word 1,121 needs a constant of width 3 to be told apart from earlier words
    narrow = LimitGroup(2, "n", max_window_width=2)
    full = ms.drive(narrow, 1120)
    assert full.complete
    partial = ms.drive(narrow, 1130)
    assert not partial.complete
    assert partial.reason == "window width 3 exceeds the configured bound 2"
    assert _rows(partial, narrow) == _rows(full, narrow)


def test_drive_keeps_the_partial_log_at_the_width_3_wall():
    # the enumeration reaches 4,452 words, but the certificate of word 3,709
    # (value a0 a4 t^4) already needs width 4, so both runs stop there
    narrow = LimitGroup(2, "n", max_window_width=3)
    shorter = ms.drive(narrow, 4452)
    result = ms.drive(narrow, 4468)
    for run in (shorter, result):
        assert not run.complete
        assert run.reason == "window width 4 exceeds the configured bound 3"
        assert len(run.certificates) == 3708
    assert _rows(result, narrow) == _rows(shorter, narrow)


def test_verify_raises_beyond_the_caps(default_group):
    # certificate 235 evaluates to a0 a2 t^2, of support width 2
    lines = ms.certificates_to_lines(ms.drive(default_group, 240), default_group)
    assert ms.verify_certificates(lines).ok
    with pytest.raises(CapacityExceeded, match="window width 2 exceeds the configured bound 1"):
        ms.verify_certificates(lines, max_window_width=1)
    with pytest.raises(CapacityExceeded, match="max_cosets=1 "):
        ms.verify_certificates(lines, max_cosets=1)
