"""Witness search: enumeration order, canonical-first witnesses, certificates."""

import hashlib
import json
from collections import Counter
from itertools import islice, product

import pytest

from miflab import CapacityExceeded, LimitGroup, parse_element, parse_mixed_word
from miflab import mif_search as ms
from miflab import mixed_words as mw
from miflab import parser
from miflab.parser import _Parser
from miflab.coset_enum import CosetTable
from miflab.limit_group import GElement


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
    words = list(ms.iter_words(group, count))
    reference = _reference_words(group, count)
    assert [w.render() for w in words] == [w.render() for w in reference]
    assert [w.structural_key() for w in words] == [w.structural_key() for w in reference]


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
    parse, build = ms.parse_mixed_word, _Parser.parse_atom

    def word_parse(*args, **kwargs):
        in_word[0] = True
        try:
            return parse(*args, **kwargs)
        finally:
            in_word[0] = False

    def counted(self, kind, val):
        if in_word[0]:
            built[val] += 1
        return build(self, kind, val)

    monkeypatch.setattr(ms, "parse_mixed_word", word_parse)
    monkeypatch.setattr(_Parser, "parse_atom", counted)
    report = ms.verify_certificates(lines)
    assert report.ok and report.witnesses_ok == 800
    # the 800 words hold 2,780 item tokens; each item builds its atom once,
    # so an atom is built once per distinct power of it
    item_texts = {item for row in lines.splitlines()[:-1] for item in json.loads(row)["word"].split()}
    assert built and sum(built.values()) == len(item_texts)
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


def _log_with_line_separators(group):
    """A valid `drive(5)` log whose third word holds a raw U+2028, U+2029
    and U+0085: JSON allows them in a string, and the parser reads them as
    whitespace."""
    lines = ms.certificates_to_lines(ms.drive(group, 5), group).split("\n")
    word = json.loads(lines[2])["word"]
    lines[2] = lines[2].replace(f'"word":"{word}"', f'"word":"\u2028{word}\u2029\x85"')
    assert not lines[2].isascii()
    return "\n".join(lines)


def test_verify_splits_text_at_newlines_only(default_group):
    text = _log_with_line_separators(default_group)
    assert len(text.splitlines()) == 9  # str.splitlines breaks the third row three times
    for lines in (text, text.split("\n")):
        report = ms.verify_certificates(lines)
        assert (report.checked, report.witnesses_ok, report.failures) == (5, 5, [])
    # a log without its final newline, and with CRLF line ends
    assert ms.verify_certificates(text.rstrip("\n")).ok
    assert ms.verify_certificates(text.replace("\n", "\r\n")).ok


def test_verify_decodes_each_row_whole(default_group):
    *rows, summary = ms.certificates_to_lines(ms.drive(default_group, 3), default_group).splitlines()
    for bad in ["\ufeff" + rows[1], rows[1] + " {}", rows[1] + rows[1], rows[1] + "]", '"x" 1', "nul"]:
        report = ms.verify_certificates([rows[0], bad, rows[2], summary])
        assert report.checked == 2
        assert report.failures == [
            (2, "not valid JSON"),
            (4, "run summary counts 3 certificates, the log has 2"),
        ]


def test_verify_refuses_bytes_rows(default_group):
    lines = ms.certificates_to_lines(ms.drive(default_group, 3), default_group).splitlines()
    with pytest.raises(TypeError, match="not bytes"):
        ms.verify_certificates([line.encode() for line in lines])


def test_verify_fails_a_forged_normal_form_on_a_gapped_row():
    # row 235 evaluates to a0 a2 t^2: verify decides it in B({0,2}), as drive did
    group = LimitGroup(2, "n")
    rows = ms.certificates_to_lines(ms.drive(group, 240), group).splitlines()
    assert json.loads(rows[234])["evaluation_normal_form"] == "a0 a2 t^2"
    assert (0, 2) in group.index_set_tables() and 2 not in group.cached_tables()
    assert ms.verify_certificates(rows).ok
    for forged in ("a2 a0 t^2", "a0 a2 a0 a0 t^2", "a0 a1 t^2"):
        report = ms.verify_certificates(_forged(rows, 234, "evaluation_normal_form", forged))
        assert report.checked == 240 and report.witnesses_ok == 239
        assert report.failures == [(235, "evaluation normal form mismatch")]


def test_verify_records_a_syntax_error_behind_a_wide_constant(default_group):
    """All items of a word are read before they are joined, so a row whose
    word holds a constant past the width cap and then a syntax error fails
    at its line; it does not abort the check."""
    lines = ms.certificates_to_lines(ms.drive(default_group, 5), default_group).splitlines()
    report = ms.verify_certificates(_forged(lines, 2, "word", "a0 a7 ]"))
    assert report.checked == 5 and report.witnesses_ok == 4
    assert report.failures == [(3, "ParseError: unexpected token ']' in 'a0 a7 ]'")]
    with pytest.raises(CapacityExceeded):
        ms.verify_certificates(_forged(lines, 2, "word", "a0 a7"))


def test_verify_tests_only_merged_constants_for_the_identity(monkeypatch):
    """Each word is reduced by joining its reduced items at their seams, so
    only a constant merged there is tested for the identity; tracing
    through the window tables is unchanged."""
    group = LimitGroup(2, "n")
    lines = ms.certificates_to_lines(ms.drive(group, 800), group)
    calls = Counter()

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(LimitGroup, "is_identity")
    counted(CosetTable, "normal_form")
    report = ms.verify_certificates(lines)
    assert report.ok and report.witnesses_ok == 800
    # 1,563 when every syllable of every word was tested
    assert calls["is_identity"] <= 600
    assert calls["normal_form"] == 142


def test_the_word_enumerator_tests_no_letter_for_the_identity(monkeypatch):
    """Each word grows by one letter joined at the seam, and no letter is
    trivial, so only a constant merged there is tested for the identity."""
    group = LimitGroup(2, "n")
    calls = Counter()
    is_identity = LimitGroup.is_identity

    def counted(self, g):
        calls["is_identity"] += 1
        return is_identity(self, g)

    monkeypatch.setattr(LimitGroup, "is_identity", counted)
    assert len(ms.drive(group, 3000).certificates) == 3000
    # 3,016 when every constant letter after a variable was tested on its own
    assert calls["is_identity"] <= 1800


def test_verify_joins_rows_of_known_items_without_tokenizing(monkeypatch):
    """A row whose chunks are all items already in the memo is joined from
    it, so the tokenizer runs only on the first row that holds an unseen
    item and on each distinct witness; the joins, and so the identity tests
    and the traces through the window tables, are those of a full parse."""
    group = LimitGroup(2, "n")
    lines = ms.certificates_to_lines(ms.drive(group, 3000), group)
    rows = [json.loads(row) for row in lines.splitlines()[:-1]]
    item_texts = {chunk for row in rows for chunk in row["word"].split()}
    witnesses = {row["witness"] for row in rows}
    assert (len(item_texts), len(witnesses)) == (31, 4)
    calls = Counter()

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(parser, "tokenize")
    counted(_Parser, "parse_atom")
    counted(LimitGroup, "is_identity")
    counted(CosetTable, "normal_form")
    report = ms.verify_certificates(lines)
    assert report.ok and report.witnesses_ok == 3000
    # 3,004 tokenize calls when every row was tokenized
    assert calls["tokenize"] <= len(item_texts) + len(witnesses)
    assert (calls["parse_atom"], calls["is_identity"], calls["normal_form"]) == (36, 1723, 734)


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


def test_verify_checks_each_row_kind(default_group):
    """A SearchExhausted row and a TrivialInFreeProduct row of the word `1`
    (which older logs can carry) pass; a TrivialInFreeProduct row of a
    nonempty word and a row of unknown status fail at their lines."""
    rows = ms.certificates_to_lines(ms.drive(default_group, 6), default_group).splitlines()
    rows = _forged(rows, 1, "status", ms.SEARCH_EXHAUSTED)
    rows = _forged(rows, 1, "witness", None)
    rows = _forged(rows, 2, "status", ms.TRIVIAL_IN_FREE_PRODUCT)
    rows = _forged(rows, 2, "word", "1")
    rows = _forged(rows, 3, "status", ms.TRIVIAL_IN_FREE_PRODUCT)
    rows = _forged(rows, 4, "status", "Proved")
    report = ms.verify_certificates(rows)
    assert report.failures == [
        (4, "word is not trivial in the free product"),
        (5, "unknown status 'Proved'"),
    ]
    assert report.checked == 6 and report.witnesses_ok == 2


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
                "max_support_radius": result.bounds.max_support_radius,
                "max_beta": result.bounds.max_beta,
                "max_word_length": result.bounds.max_word_length,
                "max_candidates": result.bounds.max_candidates,
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
    hand_built = ms.DriveResult(
        [
            ms.Certificate(1, text, ms.WITNESS_FOUND, text + " w", "∞" + text, 12),
            ms.Certificate(2, "x", ms.SEARCH_EXHAUSTED, None, None, 0),
            ms.Certificate(3, text, ms.SEARCH_EXHAUSTED, None, None, 100_000),
        ],
        reason='stopped: "width" é\\∞\nnext',
        bounds=odd,
    )
    assert not hand_built.complete
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
    verification, 2,950 and 1,653 were for one letter.  Each recorded value
    is canonicalised once, to render it: 938 traces when a pass after the
    run canonicalised every value again."""
    calls = Counter()

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(CosetTable, "normal_form")
    counted(CosetTable, "words")
    counted(LimitGroup, "is_identity")
    group = LimitGroup(2, "n")
    result = ms.drive(group, 3000)
    lines = ms.certificates_to_lines(result, group)
    assert hashlib.sha256(lines.encode()).hexdigest() == DRIVE_3000_SHA256
    assert sum(c.candidates_tried for c in result.certificates) == 3312
    # the candidates' a-parts are read off the table's tree, not its words
    assert [calls[k] for k in ("normal_form", "is_identity", "words")] == [770, 1800, 0]
    calls.clear()
    assert ms.verify_certificates(lines).ok
    assert calls["normal_form"] <= 800


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
    """The group memoises each radius's listing, so two runs on one group
    build it once per radius between them (each build reads its window
    table through `table_for_width`, which nothing else in a run calls),
    and each candidate is evaluated once."""
    builds = Counter()
    evaluations = [0]
    table_for_width, evaluate = LimitGroup.table_for_width, mw.evaluate

    def counted_table_for_width(self, width):
        builds[id(self), width] += 1
        return table_for_width(self, width)

    def counted_evaluate(word, assignment):
        evaluations[0] += 1
        return evaluate(word, assignment)

    monkeypatch.setattr(LimitGroup, "table_for_width", counted_table_for_width)
    monkeypatch.setattr(mw, "evaluate", counted_evaluate)
    group = LimitGroup(2, "n")
    # with no t-part, the witnesses of words like [x,a0] need radius 1
    bounds = ms.SearchBounds(max_support_radius=1, max_beta=0)
    tried = 0
    for _ in range(2):
        result = ms.drive(group, 800, bounds)
        assert result.complete and len(result.certificates) == 800
        tried += sum(c.candidates_tried for c in result.certificates)
    assert builds == {(id(group), 0): 1, (id(group), 2): 1}
    assert evaluations[0] == tried


def test_shared_candidates_repeat_the_order_and_its_errors(default_group):
    bounds = ms.SearchBounds(max_support_radius=2, max_beta=1)

    def pull(group, n):
        return [g.render() for g in islice(ms.candidate_elements(group, bounds), n)]

    # a second search of one group pulls the same order from the memo
    first = pull(default_group, 12)
    assert pull(default_group, 20)[:12] == first
    assert first == pull(LimitGroup(2, "n"), 12)
    narrow = LimitGroup(2, "n", max_window_width=1)
    for _ in range(2):  # the radius-1 window (width 2) is refused every time
        with pytest.raises(CapacityExceeded, match="window width 2"):
            pull(narrow, 100)


def _stop_search(monkeypatch, words_searched, stop_with):
    """After `words_searched` searches, the next search raises `stop_with`."""
    searched = [0]
    search = ms.find_witness

    def find_witness(word, bounds):
        if searched[0] == words_searched:
            raise stop_with
        searched[0] += 1
        return search(word, bounds)

    monkeypatch.setattr(ms, "find_witness", find_witness)


def test_the_partial_path_keeps_verifiable_rows(monkeypatch):
    _stop_search(monkeypatch, 7, CapacityExceeded("window too wide"))
    group = LimitGroup(2, "n")
    result = ms.drive(group, 20)
    assert not result.complete and result.reason == "window too wide"
    assert len(result.certificates) == 7
    report = ms.verify_certificates(ms.certificates_to_lines(result, group))
    assert report.ok and report.checked == report.witnesses_ok == 7


# -- the capacity wall ------------------------------------------------------------


def _rows(result, group):
    return ms.certificates_to_lines(result, group).splitlines()[:-1]


def test_drive_keeps_the_partial_log_at_the_enumeration_wall():
    # word 1,121 needs a constant on {0,3}, of spread 3, to be told apart
    # from earlier words
    narrow = LimitGroup(2, "n", max_window_width=2)
    full = ms.drive(narrow, 1120)
    assert full.complete
    partial = ms.drive(narrow, 1130)
    assert not partial.complete
    assert partial.reason == "index set {0,3} of spread 3 exceeds the configured bound 2"
    assert _rows(partial, narrow) == _rows(full, narrow)


def test_drive_keeps_the_partial_log_at_the_width_3_wall():
    # the enumeration reaches 4,452 words, but the certificate of word 3,709
    # (value a0 a4 t^4) already needs {0,4}, of spread 4, so both runs stop there
    narrow = LimitGroup(2, "n", max_window_width=3)
    shorter = ms.drive(narrow, 4452)
    result = ms.drive(narrow, 4468)
    for run in (shorter, result):
        assert not run.complete
        assert run.reason == "index set {0,4} of spread 4 exceeds the configured bound 3"
        assert len(run.certificates) == 3708
    assert _rows(result, narrow) == _rows(shorter, narrow)


def test_verify_raises_beyond_the_caps(default_group):
    # certificate 235 evaluates to a0 a2 t^2, on the index set {0,2} of spread 2
    lines = ms.certificates_to_lines(ms.drive(default_group, 240), default_group)
    assert ms.verify_certificates(lines).ok
    with pytest.raises(
        CapacityExceeded, match=r"^index set \{0,2\} of spread 2 exceeds the configured bound 1$"
    ):
        ms.verify_certificates(lines, max_window_width=1)
    with pytest.raises(CapacityExceeded, match="max_cosets=1 "):
        ms.verify_certificates(lines, max_cosets=1)
    # p = 2 and p^2 are within this cap, so the enumeration refuses: B({0,2})
    # has 8 elements, and closing it needs a fifth live coset of B(0..0)
    with pytest.raises(CapacityExceeded, match=r"max_cosets=8 for index set \{0,2\} "):
        ms.verify_certificates(lines, max_cosets=8)
