"""Hostile word texts through the CLI: every call ends with a documented exit
code (0, 2, 3 or 4) and, when it fails, with one JSON error on stderr; none
ends in a traceback or runs past a few seconds."""

import contextlib
import io
import json
import signal

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
def test_hostile_word_texts_end_with_a_documented_exit_code(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        assert err == "" and json.loads(out)
    else:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        error = json.loads(err)
        assert set(error) == {"error", "detail"}
        assert error["error"] == {2: "capacity", 3: "verification", 4: "parse"}[code]
