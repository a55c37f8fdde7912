"""Recursive-descent parser for the shared word grammar.

Grammar (whitespace separates items; items multiply left to right):

    word  := item*
    item  := atom ('^' int)?
    atom  := 'a' int            indexed generator (limit-group mode)
           | 't'                stable letter (limit-group mode)
           | 'x' | 'x' int      variable x_1 resp. x_i
           | '[' word (',' word)+ ']'    n-ary left-normed commutator
           | '1'                identity
           | constant name      (finite-group mode: a bound label,
                                 parenthesised names like "(12)" allowed)

Parsing returns a reduced MixedWord over the given context; a word with
no variables can be collapsed to a group element.
"""

from __future__ import annotations

import re

from . import mixed_words as mw
from .errors import ParseError

_TOKEN = re.compile(
    r"""
    (?P<lbrack>\[) | (?P<rbrack>\]) | (?P<comma>,)
    | (?P<pow>\^-?\d+)
    | (?P<paren>\([^()]*\))
    | (?P<name>[A-Za-z](?:-?\d+|\w*)?)
    | (?P<one>1)
    | (?P<bad>\S)
    """,
    re.VERBOSE,
)


def tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in {text!r}")
        tokens.append((kind, m.group()))
    return tokens


class _Parser:
    def __init__(self, text: str, group, constants: dict | None):
        self.text = text
        self.group = group
        self.constants = constants
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_word(self, stop=()) -> "mw.MixedWord":
        syllables = []
        while True:
            kind, _ = self.peek()
            if kind is None or kind in stop:
                return mw.reduce(self.group, syllables)
            syllables.extend(self.parse_item().syllables)

    def parse_item(self) -> "mw.MixedWord":
        atom = self.parse_atom()
        kind, val = self.peek()
        if kind == "pow":
            self.take()
            k = int(val[1:])
            atom = _word_power(atom, k)
        return atom

    def parse_atom(self) -> "mw.MixedWord":
        kind, val = self.take()
        if kind == "lbrack":
            parts = [self.parse_word(stop=("comma", "rbrack"))]
            while True:
                k, _ = self.take()
                if k == "rbrack":
                    break
                if k != "comma":
                    raise ParseError(f"expected ',' or ']' in {self.text!r}")
                parts.append(self.parse_word(stop=("comma", "rbrack")))
            if len(parts) < 2:
                raise ParseError("commutator needs at least two entries")
            return mw.left_normed(parts)
        if kind == "one":
            return mw.MixedWord(self.group, ())
        if kind == "paren":
            return self._constant(val)
        if kind == "name":
            head = val[0]
            rest = val[1:]
            if head == "x" and (rest == "" or re.fullmatch(r"\d+", rest)):
                vid = 1 if rest == "" else int(rest)
                if vid < 1:
                    raise ParseError(f"variable ids start at 1: {val!r}")
                return mw.variable(self.group, vid)
            if self.constants is None:
                if head == "a" and re.fullmatch(r"-?\d+", rest):
                    return mw.constant(self.group, self.group.generator(int(rest)))
                if val == "t":
                    return mw.constant(self.group, self.group.t_power(1))
                raise ParseError(f"unknown generator {val!r} in {self.text!r}")
            return self._constant(val)
        raise ParseError(f"unexpected token {val!r} in {self.text!r}")

    def _constant(self, name: str) -> "mw.MixedWord":
        if self.constants is None or name not in self.constants:
            raise ParseError(f"unbound constant {name!r} in {self.text!r}")
        return mw.constant(self.group, self.constants[name])


def _word_power(word: "mw.MixedWord", k: int) -> "mw.MixedWord":
    """word^k.  A single syllable is raised in place (a variable's exponent
    is multiplied, a constant goes through `group.power`), so its cost does
    not grow with |k|; a longer word is repeated |k| times."""
    group = word.group
    if k == 0:
        return mw.MixedWord(group, ())
    if len(word.syllables) == 1:
        s = word.syllables[0]
        if s[0] == mw.CONST:
            return mw.constant(group, group.power(s[1], k))
        return mw.variable(group, s[1], s[2] * k)
    base = word if k > 0 else word.inverse()
    return mw.reduce(group, base.syllables * abs(k))


def parse_mixed_word(text: str, group, constants: dict | None = None) -> "mw.MixedWord":
    """Parse `text` over the given context.

    In limit-group mode (constants=None) the indexed letters and t are
    available; in finite-group mode constants come from the binding map.
    """
    parser = _Parser(text, group, constants)
    word = parser.parse_word()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"trailing input in {text!r}")
    return word


def parse_element(text: str, group):
    """Parse a constant word and collapse it to a group element."""
    word = parse_mixed_word(text, group)
    if not word.is_constant():
        raise ParseError(f"{text!r} contains variables; expected a constant word")
    return word.constant_value()
