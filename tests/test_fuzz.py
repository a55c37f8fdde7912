"""Hostile word texts and flag values through the CLI: every call ends with a
documented exit code (0, 2, 3 or 4) and, when it fails, with one JSON error on
stderr; none ends in a traceback or runs past a few seconds."""

import contextlib
import io
import json
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from miflab import cli

_BIG = "9" * 30
# atoms of the grammar in each mode, some with 30-digit integers
_LIMIT_ATOMS = ["a0", "a1", "a-1", "t", "x", "1", "a" + _BIG, "x" + _BIG]
_S3_ATOMS = ["e", "(12)", "(123)", "x", "x2", "1", "x" + _BIG]
_POWERS = ["", "", "^2", "^-1", "^0", " ^2", "^" + _BIG, "^-" + _BIG]
# whitespace to str.split and to the tokenizer alike
_SEPARATORS = [" ", " ", "\t", "\n", "\u3000", "\u2028", "\u00a0", "\x1c"]
_HOSTILE = [
    "", "",
    "[" * 120,  # deeper than the parser's nesting limit
    _BIG,
    "\u0663",  # ARABIC-INDIC DIGIT THREE
    "\uff11",  # FULLWIDTH DIGIT ONE
    "^",
    "(",
    "((12)",
    "]",
    ",",
]


def _texts(atoms):
    """Words over `atoms` with powers and nested commutators, each with one
    hostile piece spliced in at some position."""
    item = st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.lists(inner, min_size=2, max_size=3).map(
            lambda parts: "[" + ",".join(parts) + "]"
        ),
        max_leaves=5,
    )
    powered = st.tuples(item, st.sampled_from(_POWERS)).map("".join)
    word = st.tuples(st.lists(powered, max_size=5), st.sampled_from(_SEPARATORS)).map(
        lambda a: a[1].join(a[0])
    )
    return st.tuples(word, st.sampled_from(_HOSTILE), st.integers(0, 200)).map(_splice)


def _splice(args):
    text, piece, at = args
    at %= len(text) + 1
    return text[:at] + piece + text[at:]


_SEARCH = ["--max-support-radius", "1", "--max-beta", "1", "--max-candidates", "50"]
_ARGVS = st.one_of(
    _texts(_LIMIT_ATOMS).map(lambda text: ["--json", "search", "--word", text, *_SEARCH]),
    _texts(_S3_ATOMS).map(lambda text: ["--json", "check", "--group", "S3", "--word", text]),
)
# seconds a single call may take; every one of them finishes in well under 1 s
_ALARM = 5


class _Alarm(BaseException):
    """Not an Exception, so no handler in the code under test swallows it."""


def _raise_alarm(signum, frame):
    raise _Alarm(f"the call ran past {_ALARM} s")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.alarm(_ALARM)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _assert_documented(argv):
    """Run `argv` and check that it ended with a documented exit code and,
    if it failed, one JSON error on stderr.  A drive that stops at a cap
    (exit 2) instead writes its partial log, whose summary names the
    reason, and nothing on stderr.  Returns the exit code and stderr."""
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0 or (code == 2 and "drive" in argv and out):
        assert err == ""
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows
        if code == 2:
            assert rows[-1]["run_complete"] is False and rows[-1]["reason"]
        return code, err
    assert out == "" and err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)
    assert set(error) == {"error", "detail"}
    assert error["error"] == {2: "capacity", 3: "verification", 4: "parse"}[code]
    return code, err


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ARGVS)
# these ended in a RecursionError traceback: commutators nested past the
# interpreter's stack, and a Grigorchuk letter acting bit by bit by recursion
@example(["--json", "check", "--group", "S3", "--word", "[" * 400 + "x" + ",1]" * 400])
@example(["--json", "search", "--word", "[" * 330 + "x" + ",a0]" * 330, *_SEARCH])
@example(["--json", "search", "--word", "[" * 3000, *_SEARCH])
@example(["--json", "grig", "act", "--word", "b", "--string", "1" * 5000])
# this one looped once per unit of the exponent: a commutator that reduces to
# the empty word, raised to a 13-digit power
@example(["--json", "search", "--word", "[x,1]^1000000000000", *_SEARCH])
# an index set of spread 10^30: refused before its table's key is formed
@example(["--json", "search", "--word", "a0 a0 a0 a" + _BIG, *_SEARCH])
def test_hostile_word_texts_end_with_a_documented_exit_code(argv):
    _assert_documented(argv)


# -- flag values ---------------------------------------------------------------

# zero, negative, 30-digit and non-ASCII-digit values of every integer flag
_NUMBERS = ["0", "-1", "-" + _BIG, _BIG, "\u0663", "\uff11", "\u0663\u0660"]
_SPECS = _NUMBERS + [
    ",".join(["1"] * 10_000),
    ",".join(map(str, range(1, 2_001))),
    "1," + _BIG,
    _BIG + "," + _BIG,
    "\u0663,\u0664",
    "1,0",
    "2,1",
]
_WINDOWS = [
    "0..0", "0..-1", "-1..1", "0.." + _BIG, _BIG + ".." + _BIG, "-" + _BIG + "..0",
    "-" + _BIG + ".." + _BIG, "\u0660..\u0661", "\uff10..\uff13",
]
# every other flag holds a small value, so each call does little work however
# the one flag under test is set
_COMMANDS = {
    "order": ["order", "--window=0..1", "--max-cosets=20000"],
    "search": ["search", "--word=[x,a0]", "--max-cosets=20000", "--max-candidates=50"],
    "drive": ["drive", "--count=20", "--max-cosets=20000", "--max-candidates=50"],
    "selftest": ["selftest", "--samples=20", "--max-cosets=20000"],
    "grig": ["grig", "verify-identity"],
    "check": ["check", "--word=x", "--group=S3"],
    "wreath": ["check", "--id=wreath", "--base=C2", "--top=C2"],
}
# a 30-digit prime: no small factor ends its primality test early; and a
# prime whose B([0,0]) = C_p is listed as the search's radius-0 a-parts
_PRIME = "9" * 28 + "89"
_INSTANCE = {
    "--p": [*_NUMBERS, _PRIME, "19997"],
    "--c": _SPECS,
    "--max-cosets": _NUMBERS,
    "--max-window-width": _NUMBERS,
}
_SEARCH_FLAGS = {**_INSTANCE, "--max-support-radius": _NUMBERS, "--max-beta": _NUMBERS}
_FLAGS = {
    "order": {**_INSTANCE, "--window": _WINDOWS},
    "search": _SEARCH_FLAGS,
    "drive": {**_SEARCH_FLAGS, "--max-word-length": _NUMBERS},
    # a huge sample count is the user's own budget
    "selftest": {**_INSTANCE, "--samples": [v for v in _NUMBERS if v != _BIG]},
    "grig": {"--max-len": _NUMBERS},
    # the integers of catalog group names
    "check": {"--group": ["C" + v for v in _NUMBERS] + ["D" + v for v in _NUMBERS]},
    "wreath": {"--top": ["C" + v for v in _NUMBERS], "--base": ["C" + v for v in _NUMBERS]},
}


def _flag_argv(command, flag, value):
    """The command's argv with `flag` set to `value`, given as `flag=value`
    so that argparse never reads a value that starts with '-' as a flag."""
    argv = [a for a in _COMMANDS[command] if a.split("=")[0] != flag]
    return ["--json", *argv, f"{flag}={value}"]


_FLAG_CASES = [
    (command, flag, value)
    for command, flags in _FLAGS.items()
    for flag, values in flags.items()
    for value in values
]


def _case_id(case):
    command, flag, value = case
    if len(value) > 12:  # a long value by its ends and its length
        value = f"{value[:6]}...{value[-2:]}({len(value)})"
    return f"{command} {flag}={value}"


# flags whose value is a spec, read by the command, not by argparse
_SPEC_FLAGS = {"--c", "--window", "--group", "--top", "--base"}


@pytest.mark.parametrize("command, flag, value", _FLAG_CASES, ids=map(_case_id, _FLAG_CASES))
def test_hostile_flag_values_end_with_a_documented_exit_code(command, flag, value):
    code, err = _assert_documented(_flag_argv(command, flag, value))
    if not value.isascii():
        # integers are ASCII digits, in specs as in the word grammar: a spec's
        # reader and an integer flag's, through argparse, refuse the value
        # with the same one JSON line
        assert code == 4
        if flag not in _SPEC_FLAGS:
            assert f"argument {flag}: invalid integer value" in json.loads(err)["detail"]


def test_a_large_prime_window_is_fast():
    # B([0,0]) = C_p is written down, not scanned from each of its p cosets
    # (4.6 s when it was)
    argv = ["order", "--p", "19997", "--window", "0..0", "--max-cosets", "20000"]
    assert _run(argv) == (0, "19997\n", "")
