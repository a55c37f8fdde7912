"""Recursive-descent parser for the shared word grammar.

Grammar (whitespace separates items; items multiply left to right):

    word  := item*
    item  := atom ('^' int)?
    atom  := 'a' int            indexed generator (limit-group mode)
           | 't'                stable letter (limit-group mode)
           | 'x' | 'x' int      variable x_1 resp. x_i
           | '[' word (',' word)+ ']'    n-ary left-normed commutator
           | '1'                identity
           | constant name      (finite-group mode: a bound label;
                                 a parenthesised name such as "(12)" or
                                 "((12),e)" runs to its balancing ')')

Integers are ASCII digits only (`a٣` is an error, not `a3`); any Unicode
whitespace separates items.

Parsing returns a reduced MixedWord over the given context; a word with
no variables can be collapsed to a group element.  The parser keeps only
the grammar: every syllable list is written out by the word calculus.
Each item is reduced on its own (`mw.power` raises it, `mw.left_normed`
folds a commutator's entries), and once all items of a word are read, so
that a syntax error among them is met before any join, `mw.joined` joins
them at their seams; only constants that merge there are tested for the
identity.

Every item that is not a commutator (an atom token plus its optional
`^k`, such as `a0`, `t^-1` or `x^2`) is built once per distinct text
and kept in the `items` memo, which maps the item text to its reduced
syllables.  `parse_item` reads and writes the memo.  `parse_mixed_word`
first splits the text at whitespace (`str.split`, which splits where the
tokenizer does); if every chunk is a key, it joins their syllables
straight away, without tokenizing.  By default each parse has its own
memo.  A caller that parses many texts over one context, such as
`verify_certificates`, passes one dict to all of them, so each distinct
item is built once; the dict must only ever see that one group and
binding map.  A commutator item is built afresh, from items looked up
the same way.  An item that fails to parse leaves no entry.

The word calculus bounds each list it writes out (`mw.bound`): a word is
refused at the first item that brings its count, as written out before
reduction, past `mw.MAX_SYLLABLES`.  A commutator nested more than
`MAX_NESTING` deep raises FixedLimitExceeded before its entries are read.
"""

from __future__ import annotations

import re

from . import mixed_words as mw
from .errors import FixedLimitExceeded, ParseError

# the deepest commutator nesting the parser reads; each level is three
# Python frames (parse_word, parse_item, parse_commutator), so a text
# nested past it is refused before it could exhaust the interpreter's stack
MAX_NESTING = 100

_TOKEN = re.compile(
    r"""
    (?P<lbrack>\[) | (?P<rbrack>\]) | (?P<comma>,)
    | (?P<pow>\^-?\d+)
    | (?P<paren>\()
    | (?P<name>[A-Za-z](?:-?\d+|\w*)?)
    | (?P<one>1)
    | (?P<bad>(?u:\S))
    """,
    re.VERBOSE | re.ASCII,
)
# the token kinds an item's atom can be; an item of any other kind is a
# commutator or an error
_ATOMS = ("name", "paren", "one")


def tokenize(text: str):
    """(kind, text) of each token.  A "paren" token is a parenthesised
    label, flat such as `(12)` or nested such as `((12),e)`: it runs from
    its '(' to the ')' that balances it."""
    tokens = []
    pos = 0
    while (m := _TOKEN.search(text, pos)):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in {text!r}")
        pos = _balanced_end(text, m.start()) if kind == "paren" else m.end()
        tokens.append((kind, text[m.start():pos]))
    return tokens


def split_labels(text: str) -> list[str]:
    """The items of a comma-separated list of labels, split at the comma
    tokens only, so a comma inside a label such as `((12),e)` stays in it;
    whitespace between tokens is dropped."""
    labels = [""]
    for kind, val in tokenize(text):
        if kind == "comma":
            labels.append("")
        else:
            labels[-1] += val
    return labels


def _balanced_end(text: str, start: int) -> int:
    """The index just past the ')' that balances the '(' at `start`."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    raise ParseError(f"unbalanced '(' at {start} in {text!r}")


class _Parser:
    def __init__(self, text: str, group, constants: dict | None, items: dict | None = None):
        self.text = text
        self.group = group
        self.constants = constants
        self.items = {} if items is None else items
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # commutators open at the current token

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def take_power(self) -> str:
        """The `^k` token after an atom, consumed, or "" if there is none."""
        return self.take()[1] if self.peek()[0] == "pow" else ""

    def parse_word(self, stop=()) -> "mw.MixedWord":
        """The reduced word up to a token in `stop` or the end.  Its items
        are read first and then joined by `mw.joined`; the word is refused
        at the first item that brings their count past the limit, so it
        never holds more than one item past it."""
        pieces = []
        written = 0
        while (kind := self.peek()[0]) is not None and kind not in stop:
            syllables = self.parse_item()
            pieces.append(syllables)
            written += len(syllables)
            mw.bound(written, "the word")
        return mw.joined(self.group, pieces)

    def parse_item(self) -> tuple:
        """The reduced syllables of the next item.  An item that is not a
        commutator is looked up in `items` by its text (with its `^k`), and
        built and stored there if it is not yet a key."""
        kind, val = self.take()
        if kind == "lbrack":
            return _word_power(self.parse_commutator(), self.take_power()).syllables
        if kind not in _ATOMS:
            raise ParseError(f"unexpected token {val!r} in {self.text!r}")
        power = self.take_power()
        syllables = self.items.get(val + power)
        if syllables is None:
            word = _word_power(self.parse_atom(kind, val), power)
            syllables = self.items[val + power] = word.syllables
        return syllables

    def parse_commutator(self) -> "mw.MixedWord":
        """The left-normed commutator after a '[' (`mw.left_normed`).  A
        commutator nested more than MAX_NESTING deep is refused before its
        entries are read."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FixedLimitExceeded(
                f"a commutator nested {self.depth} deep is past the parser's "
                f"nesting limit of {MAX_NESTING}"
            )
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
        self.depth -= 1
        return mw.left_normed(parts)

    def parse_atom(self, kind: str, val: str) -> "mw.MixedWord":
        if kind == "one":
            return mw.MixedWord(self.group, ())
        if kind == "paren":
            return self._constant(val)
        vid = _variable_id(val)
        if vid is not None:
            if vid < 1:
                raise ParseError(f"variable ids start at 1: {val!r}")
            return mw.variable(self.group, vid)
        if self.constants is None:
            if val[0] == "a" and re.fullmatch(r"-?\d+", val[1:]):
                return mw.constant(self.group, self.group.generator(int(val[1:])))
            if val == "t":
                return mw.constant(self.group, self.group.t_power(1))
            raise ParseError(f"unknown generator {val!r} in {self.text!r}")
        return self._constant(val)

    def _constant(self, name: str) -> "mw.MixedWord":
        if self.constants is None or name not in self.constants:
            raise ParseError(f"unbound constant {name!r} in {self.text!r}")
        return mw.constant(self.group, self.constants[name])


def _variable_id(name: str) -> int | None:
    """The id of the variable a name token denotes: 1 for `x`, i for `x<i>`
    (ASCII digits only); None for a name that is not a variable."""
    if name == "x":
        return 1
    if name[0] == "x" and name[1:].isascii() and name[1:].isdecimal():
        return int(name[1:])
    return None


def named_variables(text: str) -> set[int]:
    """The ids of the variables `text` names, from its tokens alone.  The
    parsed word has no others, but may have fewer: a variable can cancel."""
    return {
        vid for kind, val in tokenize(text)
        if kind == "name" and (vid := _variable_id(val)) is not None
    }


def _word_power(word: "mw.MixedWord", power: str) -> "mw.MixedWord":
    """word^k for the power token `power` = "^k"; the word itself if
    `power` is ""."""
    return mw.power(word, int(power[1:])) if power else word


def parse_mixed_word(
    text: str, group, constants: dict | None = None, *, items: dict | None = None
) -> "mw.MixedWord":
    """Parse `text` over the given context.

    In limit-group mode (constants=None) the indexed letters and t are
    available; in finite-group mode constants come from the binding map.
    `items` is the item memo (see the module docstring): pass one dict to
    every parse over the same `group` and `constants` to build each
    distinct item once; by default the parse has its own.
    """
    if items and isinstance(text, str):
        # a whitespace-separated chunk that is a key is one item to the
        # tokenizer too, so a text of keys alone is joined without it; a
        # text that is no str gets the tokenizer's TypeError
        pieces = list(map(items.get, text.split()))
        if None not in pieces:
            try:
                return mw.joined(group, pieces)
            except FixedLimitExceeded:
                pass  # the parse below refuses it at the item that passes the limit
    parser = _Parser(text, group, constants, items)
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
