"""CLI surface: outputs, JSON mode, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from miflab import LimitGroup, Window
from miflab.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "miflab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_order_examples():
    code, out, _ = run_cli("order", "--p", "2", "--c", "1,1", "--window", "0..1")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli("order", "--p", "2", "--c", "1", "--window", "0..0")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli("order", "--p", "3", "--c", "2", "--window", "0..1")
    assert code == 0 and out.strip() == "27"


def test_order_json():
    code, out, _ = run_cli("--json", "order", "--p", "2", "--c", "1,1", "--window", "0..1")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4 and data["window"] == "0..1"


def test_check_direct_product():
    code, out, _ = run_cli("--json", "check", "--id", "direct-product", "--A", "C2", "--B", "C2")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_wreath():
    code, out, _ = run_cli("--json", "check", "--id", "wreath", "--base", "C2", "--top", "C2")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_factorial():
    code, out, _ = run_cli(
        "--json", "check", "--id", "factorial", "--group", "S4",
        "--normal", "(12)(34),(13)(24)",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True and data["normal_order"] == 4


def test_check_word_with_witness():
    code, out, _ = run_cli("--json", "check", "--word", "[[x,(12)],(13)]", "--group", "S3")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is False
    assert "counterexample" in data


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ("--id", "direct-product", "--A", "C2", "--B", "S3"),
            '{"group": "C2xS3", "identity": "[[x,a],b]", "substitutions_checked": 60, "verdict": true}\n',
        ),
        (
            ("--id", "direct-product", "--A", "S3", "--B", "C3"),
            '{"group": "S3xC3", "identity": "[[x,a],b]", "substitutions_checked": 180, "verdict": true}\n',
        ),
        (
            ("--id", "wreath", "--base", "C2", "--top", "C6"),
            '{"group": "C2wrC6", "identity": "[[[x,a],a],b]", "substitutions_checked": 11904, "verdict": true}\n',
        ),
        (
            ("--word", "[x,(12)]", "--group", "S3"),
            '{"counterexample": {"x1": "(23)"}, "group": "S3", "substitutions_checked": 2, '
            '"verdict": false, "word": "x^-1 (12) x (12)"}\n',
        ),
        (
            # a product label has a comma inside its parentheses
            ("--id", "factorial", "--group", "S3xC2", "--normal", "(e,g1)"),
            '{"g": "(e,g1)", "group": "S3xC2", "identity": "[x^2!, g]", "normal_order": 2, "verdict": true}\n',
        ),
        (
            ("--word", "[x,((12),e)]", "--group", "S3xC2"),
            '{"counterexample": {"x1": "((23),e)"}, "group": "S3xC2", "substitutions_checked": 3, '
            '"verdict": false, "word": "x^-1 ((12),e) x ((12),e)"}\n',
        ),
    ],
    ids=["C2xS3", "S3xC3", "C2wrC6", "S3-word", "S3xC2-factorial", "S3xC2-word"],
)
def test_check_output_is_pinned(args, expected):
    assert run_cli("--json", "check", *args) == (0, expected, "")


def test_printed_labels_go_back_to_check():
    # the word and the labels a check prints are valid input to the next one
    code, out, _ = run_cli("--json", "check", "--word", "[x,((12),e)]", "--group", "S3xC2")
    assert code == 0
    data = json.loads(out)
    code, again, _ = run_cli("--json", "check", "--word", data["word"], "--group", "S3xC2")
    assert code == 0 and again == out
    witness = data["counterexample"]["x1"]
    code, _, err = run_cli(
        "--json", "check", "--id", "factorial", "--group", "S3xC2", "--normal", f"{witness},(e,g1)",
    )
    assert code == 4 and "generates a subgroup of order 4 of S3xC2" in json.loads(err)["detail"]


BAD_INPUTS = [
    # (arguments, exit code, a piece of the error detail)
    (("check", "--id", "direct-product", "--B", "C2"), 4, "--A is required"),
    (("check", "--id", "direct-product", "--A", "C2"), 4, "--B is required"),
    (("check", "--id", "wreath", "--top", "C2"), 4, "--base is required"),
    (("check", "--id", "wreath", "--base", "C2"), 4, "--top must name a cyclic group"),
    (("check", "--word", "x"), 4, "--group is required"),
    (("check", "--id", "factorial", "--normal", "e"), 4, "--group is required"),
    (("check", "--word", "x", "--group", "C0"), 4, "--group: group name 'C0'"),
    (("check", "--word", "x", "--group", "D2"), 4, "--group: group name 'D2'"),
    (("check", "--word", "x", "--group", "S6"), 4, "--group: group name 'S6'"),
    (("check", "--word", "x", "--group", "C2x"), 4, "--group: unknown group name 'C2x'"),
    (("check", "--id", "factorial", "--normal", "(12)", "--group", "S3"), 4,
     "N is not a normal subgroup: --normal '(12)'"),
    (("check", "--id", "factorial", "--normal", "(123)", "--group", "S3", "--g", "(12)"), 4,
     "g must be a nontrivial element of N: --normal '(123)' generates a subgroup of order 3 "
     "of S3, --g '(12)'"),
    (("check", "--id", "factorial", "--normal", "e", "--group", "S3"), 4,
     "g must be a nontrivial element of N: --normal 'e'"),
    (("check", "--id", "wreath", "--base", "C2", "--top", "S3"), 4, "--top must name a cyclic group"),
    (("check", "--id", "wreath", "--base", "C2", "--top", "C0"), 4, "--top must name a cyclic group"),
    (("check", "--id", "wreath", "--base", "C2", "--top", "C" + "9" * 5000), 4, "--top must name a cyclic group"),
    (("check", "--word", "x", "--group", "C" + "9" * 5000), 4, "--group: group name"),
    (("check", "--word", "x", "--group", "C5000"), 2, "C5000 has order 5000, over the 4096-element cap"),
    (("check", "--word", "x", "--group", "D2049"), 2, "D2049 has order 4098"),
    (("check", "--id", "direct-product", "--A", "C5000", "--B", "C1"), 2, "C5000 has order 5000"),
    (("check", "--id", "direct-product", "--A", "S5", "--B", "S5"), 2, "S5xS5 has order 14400"),
    (("check", "--id", "wreath", "--base", "C2", "--top", "C13"), 2, "C2wrC13 has order 106496"),
    (("check", "--id", "wreath", "--base", "C2", "--top", "C99999999999"), 2,
     "C2wrC99999999999's top C99999999999 has order 99999999999"),
]


@pytest.mark.parametrize("args, code, detail", BAD_INPUTS, ids=[" ".join(a)[:60] for a, _, _ in BAD_INPUTS])
def test_bad_input_exits_with_a_json_error(args, code, detail):
    got, out, err = run_cli(*args)
    assert (got, out) == (code, "")
    error = json.loads(err)
    assert error["error"] == {2: "capacity", 4: "parse"}[code]
    assert detail in error["detail"]


def test_grig_subcommands():
    code, out, _ = run_cli("grig", "act", "--word", "a", "--string", "010")
    assert code == 0 and out.strip() == "110"
    code, out, _ = run_cli("--json", "grig", "trivial", "--word", "adadadad")
    assert code == 0 and json.loads(out)["trivial"] is True
    code, out, _ = run_cli("--json", "grig", "trivial", "--word", "ab")
    data = json.loads(out)
    assert code == 0 and data["trivial"] is False and "moved_string" in data
    code, out, _ = run_cli("--json", "grig", "verify-identity", "--max-len", "4")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == [] and data["words_checked"] == 41
    assert data["elements_checked"] == 40  # adad = dada
    assert run_cli("grig", "verify-identity", "--max-len", "4") == (
        0, "checked 41 words, 0 violations\n", ""
    )


@pytest.mark.parametrize(
    "args",
    [
        ("grig", "act", "--word", "xb", "--string", "01"),
        ("grig", "act", "--word", "ab", "--string", "012"),
        ("grig", "trivial", "--word", "abx"),
        ("grig", "verify-identity", "--max-len", "-1"),
    ],
    ids=["act-word", "act-string", "trivial", "verify-identity"],
)
def test_grig_bad_input_is_a_parse_error(args):
    code, out, err = run_cli(*args)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "parse"


def test_python_dash_m_miflab():
    proc = subprocess.run(
        [sys.executable, "-m", "miflab", "grig", "trivial", "--word", "adadadad"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "True\n"


def test_search():
    code, out, _ = run_cli("--json", "search", "--word", "[x, t]")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "WitnessFound" and data["witness"] == "a0"
    # the exponent is raised in place and reduced by each candidate's order
    assert run_cli("search", "--word", "x^1000000000") == (0, "witness t\n", "")


def test_search_refuses_a_word_in_two_variables():
    code, out, err = run_cli("search", "--word", "[x1,x2]")
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "parse",
        "detail": "witness search expects a single-variable word",
    }


def test_search_refuses_a_long_word_power():
    code, out, err = run_cli("search", "--word", "[x,a0]^1000000000")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "capacity",
        "detail": "the power ^1000000000 of a 4-syllable word would write out "
        "4000000000 syllables, past the parser's limit of 100000",
    }


def test_drive_verify_round_trip(tmp_path):
    certs = tmp_path / "certs.jsonl"
    code, _, _ = run_cli("drive", "--count", "8", "--out", str(certs))
    assert code == 0
    code, out, _ = run_cli("--json", "verify", str(certs))
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_detects_forgery(tmp_path):
    certs = tmp_path / "certs.jsonl"
    run_cli("drive", "--count", "3", "--out", str(certs))
    lines = certs.read_text().splitlines()
    data = json.loads(lines[0])
    data["witness"] = "1"
    lines[0] = json.dumps(data)
    certs.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli("--json", "verify", str(certs))
    assert code == 3
    assert json.loads(out)["failures"]


def test_verify_fails_a_truncated_log(tmp_path):
    certs = tmp_path / "certs.jsonl"
    run_cli("drive", "--count", "50", "--out", str(certs))
    lines = certs.read_text().splitlines()
    certs.write_text("\n".join(lines[:10] + lines[-1:]) + "\n")
    code, out, _ = run_cli("--json", "verify", str(certs))
    assert code == 3
    assert json.loads(out) == {
        "checked": 10,
        "witnesses_ok": 10,
        "failures": [{"line": 11, "reason": "run summary counts 50 certificates, the log has 10"}],
    }


def test_verify_fails_a_log_without_a_summary(tmp_path):
    certs = tmp_path / "certs.jsonl"
    certs.write_text("")
    code, out, _ = run_cli("verify", str(certs))
    assert (code, out) == (3, "checked 0, failures 1\n")
    run_cli("drive", "--count", "5", "--out", str(certs))
    certs.write_text("\n".join(certs.read_text().splitlines()[:3]) + "\n")
    code, out, _ = run_cli("--json", "verify", str(certs))
    assert code == 3
    assert json.loads(out) == {
        "checked": 3,
        "witnesses_ok": 3,
        "failures": [{"line": 4, "reason": "the log ends without a run summary after 3 certificate rows"}],
    }


def test_verify_lists_a_row_that_is_not_an_object(tmp_path):
    certs = tmp_path / "certs.jsonl"
    run_cli("drive", "--count", "3", "--out", str(certs))
    lines = certs.read_text().splitlines()
    lines.insert(2, "null")
    certs.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli("--json", "verify", str(certs))
    assert code == 3 and err == ""
    data = json.loads(out)
    assert data["failures"] == [{"line": 3, "reason": "not a JSON object"}]
    assert data["checked"] == data["witnesses_ok"] == 3


def test_exit_code_capacity():
    code, _, err = run_cli(
        "order", "--p", "2", "--c", "n", "--window", "0..4", "--max-cosets", "1000"
    )
    assert code == 2
    assert json.loads(err)["error"] == "capacity"


def test_drive_writes_the_partial_log_at_the_capacity_wall(tmp_path):
    from miflab import mif_search

    certs = tmp_path / "certs.jsonl"
    code, out, _ = run_cli(
        "drive", "--count", "4468", "--max-window-width", "3", "--out", str(certs)
    )
    assert code == 2 and out == ""
    *rows, summary = certs.read_text().splitlines()
    assert json.loads(summary) == {
        "certificates": 3708,
        "reason": "window width 4 exceeds the configured bound 3",
        "run_complete": False,
    }
    group = LimitGroup(2, "n", max_window_width=3)
    expected = mif_search.certificates_to_lines(mif_search.drive(group, 4452), group)
    assert rows == expected.splitlines()[:-1]


def test_verify_honours_the_caps(tmp_path):
    certs = tmp_path / "certs.jsonl"
    assert run_cli("drive", "--count", "240", "--out", str(certs))[0] == 0
    assert run_cli("verify", str(certs))[0] == 0
    # certificate 235 needs a width-2 window: that is a refusal, not a failure
    code, out, err = run_cli("verify", "--max-window-width", "1", str(certs))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "capacity",
        "detail": "window width 2 exceeds the configured bound 1",
    }


def _width_one_cache_file(tmp_path):
    return LimitGroup(2, "1,2", cache_dir=str(tmp_path))._cache_path(1)


def test_exit_code_corrupt_cache(tmp_path):
    args = ("order", "--p", "2", "--c", "1,2", "--window", "0..1", "--cache-dir", str(tmp_path))
    assert run_cli(*args)[:2] == (0, "4\n")
    path = _width_one_cache_file(tmp_path)
    action = np.load(path)
    action[0][1] = 99
    np.save(path, action)
    code, _, err = run_cli(*args)
    assert code == 3
    assert json.loads(err)["error"] == "verification"


def test_directory_at_a_cache_entry_is_a_verification_error(tmp_path):
    args = ("order", "--p", "2", "--c", "1,2", "--window", "0..1", "--cache-dir", str(tmp_path))
    assert run_cli(*args)[:2] == (0, "4\n")
    path = _width_one_cache_file(tmp_path)
    os.unlink(path)
    os.mkdir(path)
    code, out, err = run_cli(*args)
    assert code == 3 and out == ""
    data = json.loads(err)
    assert data["error"] == "verification" and str(path) in data["detail"]


def test_cache_dir_that_is_a_file_is_a_parse_error(tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    code, out, err = run_cli("order", "--window", "0..1", "--cache-dir", str(not_a_dir))
    assert code == 4 and out == ""
    data = json.loads(err)
    assert data["error"] == "parse" and str(not_a_dir) in data["detail"]


def test_relabelled_cache_is_refused_not_reordered(tmp_path):
    # a relabelled table is a valid group table, but its numbering would
    # reorder the witness search; only the canonical numbering loads
    args = ("--json", "search", "--word", "[x,a1]", "--c", "1,2", "--max-support-radius", "2",
            "--max-beta", "0", "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(*args)
    assert code == 0 and json.loads(cold)["witness"] == "a-1"
    assert run_cli(*args) == (0, cold, "")
    rng = np.random.default_rng(0)
    for path in tmp_path.iterdir():
        action = np.load(path)
        n = action.shape[1]
        if n > 2:  # a group of order 2 has only its canonical numbering
            perm = rng.permutation(n)
            np.save(path, perm[action[:, np.argsort(perm)]].astype(np.int32))
    code, out, err = run_cli(*args)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "verification"


def test_a_cached_table_obeys_the_coset_cap(tmp_path):
    # the verdict under a cap does not depend on what an earlier run left on disk
    capped = ("order", "--window", "0..3", "--max-cosets", "100", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(*capped)
    assert (code, out) == (2, "") and "max_cosets=100 " in json.loads(err)["detail"]
    assert run_cli("order", "--window", "0..3", "--cache-dir", str(tmp_path)) == (0, "1024\n", "")
    code, out, err = run_cli(*capped)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "capacity"
    path = LimitGroup(2, "n", cache_dir=str(tmp_path))._cache_path(3)
    assert error["detail"] == (
        f"the cached table of window 0..3 (p=2, c=n) has 1024 cosets, over "
        f"max_cosets=100 (cache file {path})"
    )


def test_only_the_cli_reads_the_cache_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("MIFLAB_CACHE", str(tmp_path))
    assert LimitGroup(2, "1,2").window_order(Window(0, 2)) == 16
    assert os.listdir(tmp_path) == []
    assert run_cli("order", "--c", "1,2", "--window", "0..2") == (0, "16\n", "")
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(LimitGroup(2, "1,2", cache_dir=str(tmp_path))._cache_path(w))
        for w in range(3)
    )


def test_check_word_refuses_the_assignments_before_building_the_group(capsys):
    tracemalloc.start()
    try:
        code = main(["check", "--word", "[x,x2]", "--group", "S5xS4"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == '{"error": "capacity", "detail": "2880^2 substitutions exceed the assignment cap"}\n'
    assert peak < 2**20


def test_exit_code_parse_error():
    code, _, err = run_cli("search", "--word", "[x")
    assert code == 4
    assert json.loads(err)["error"] == "parse"


def test_drive_count_below_one_is_a_parse_error():
    code, out, err = run_cli("drive", "--count", "0")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "parse", "detail": "count must be at least 1"}


@pytest.mark.parametrize(
    "args, detail",
    [
        (("order", "--window", "0..1", "--max-cosets", "-5"), "--max-cosets must be at least 1, got -5"),
        (("order", "--window", "0..1", "--max-window-width", "-1"),
         "--max-window-width must be non-negative, got -1"),
        (("search", "--word", "[x,t]", "--p", "4"), "p must be prime, got 4"),
        (("search", "--word", "[x,t]", "--max-beta", "-1"), "max_beta must be non-negative"),
        (("verify", "--max-cosets", "0", "missing.jsonl"), "--max-cosets must be at least 1, got 0"),
    ],
)
def test_bad_flag_values_are_parse_errors(args, detail):
    code, out, err = run_cli(*args)
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "parse", "detail": detail}


def test_missing_or_unwritable_file_is_a_parse_error(tmp_path):
    missing = tmp_path / "missing"
    code, out, err = run_cli("verify", str(missing))
    assert code == 4 and out == ""
    data = json.loads(err)
    assert data["error"] == "parse" and str(missing) in data["detail"]

    unwritable = missing / "certs.jsonl"
    code, out, err = run_cli("drive", "--count", "2", "--out", str(unwritable))
    assert code == 4 and out == ""
    data = json.loads(err)
    assert data["error"] == "parse" and str(unwritable) in data["detail"]
    assert "finished with 2 certificates, but the log was not written" in data["detail"]

    not_utf8 = tmp_path / "utf16.jsonl"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00\n\x00")
    code, out, err = run_cli("verify", str(not_utf8))
    assert code == 4 and out == ""
    data = json.loads(err)
    assert data["error"] == "parse" and str(not_utf8) in data["detail"]
    assert "not UTF-8" in data["detail"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_log_device_is_a_parse_error():
    code, out, err = run_cli("drive", "--count", "5", "--out", "/dev/full")
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "parse",
        "detail": "drive finished with 5 certificates, but the log was not written: "
        "cannot write '/dev/full': No space left on device",
    }


def test_a_failing_stdout_is_a_parse_error(monkeypatch, capsys):
    class FullStdout:
        def write(self, text):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", FullStdout())
    full = "cannot write stdout: No space left on device"
    drive = f"drive finished with 3 certificates, but the log was not written: {full}"
    for argv, detail in [
        (["drive", "--count", "3"], drive),
        (["grig", "trivial", "--word", "ab"], full),
        (["--json", "order", "--window", "0..1"], full),
    ]:
        assert main(argv) == 4
        assert json.loads(capsys.readouterr().err) == {"error": "parse", "detail": detail}


def test_selftest_seeded():
    code, out, _ = run_cli("--json", "selftest", "--seed", "3", "--samples", "50")
    assert code == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize(
    "args",
    [
        ("order",),
        ("order", "--window", "0..1", "--bogus"),
        ("--threads", "1", "drive"),
        ("order", "--window", "0..1", "--max-beta", "1"),
        ("selftest", "--max-candidates", "5"),
        # deleted flags: neither changed any output
        ("search", "--word", "x", "--max-word-length", "5"),
        ("grig", "act", "--word", "ab", "--string", "01", "--reduce"),
    ],
    ids=[
        "missing-required", "unknown-flag", "threads", "order-search-bound",
        "selftest-search-bound", "search-word-length", "grig-act-reduce",
    ],
)
def test_usage_errors_are_parse_errors(args):
    code, out, err = run_cli(*args)
    assert code == 4 and out == ""
    assert "usage: miflab" in err


def test_help_exits_zero():
    code, out, _ = run_cli("order", "--help")
    assert code == 0 and "--window" in out and "--max-beta" not in out
