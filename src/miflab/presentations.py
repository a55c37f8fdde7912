"""Finite presentations of window groups B(W) = <a_lo, ..., a_hi>.

A window group is presented on the generators indexed by an integer
interval.  Every generator gets a power relator a_i^p, and every index
tuple inside the window contributes a left-normed commutator relator
whose weight is governed by the tuple's spread: a tuple of spread d
(maximum pairwise index distance) of length c_d + 1 yields the relator
[a_{i_0}, a_{i_1}, ..., a_{i_{c_d}}] = 1.

Conventions, fixed globally:
    [u, v] = u^-1 v^-1 u v
    [u_1, ..., u_k] = [[u_1, ..., u_{k-1}], u_k]

Relator order is deterministic: power relators by generator index, then
commutator relators lexicographically by (spread, index tuple).  Tuples
with i_0 = i_1 are skipped (freely trivial).  No relator repeats: a
left-normed commutator's letters determine its index tuple, each tuple is
visited once, and power relators carry no inverse letters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import CapacityExceeded, ParseError

# A letter is (generator position, sign); a relator is a tuple of letters.
Letter = tuple[int, int]
Relator = tuple[Letter, ...]

# default caps of every engine and CLI command
DEFAULT_MAX_WINDOW_WIDTH = 6
DEFAULT_MAX_COSETS = 1_000_000
# most letters the relators of one presentation may have in all
MAX_RELATOR_LETTERS = 2**21


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def integer(text: str) -> int:
    """The integer `text` spells in ASCII digits, with an optional sign and
    whitespace around them, as the word grammar reads its integers: `٣`
    raises ValueError instead of reading as 3.  The one reader of integer
    flags and of the integers in window and class-bound specs."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def is_prime(n: int) -> bool:
    # 2.0 and 3.5 pass the trial division below, and True is an int
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class CSequence:
    """Non-decreasing class-bound sequence c_1 <= c_2 <= ... , total on n >= 1.

    A non-empty prefix whose last value repeats forever, or the empty
    prefix, meaning c_n = n (spec ``"n"``).
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix=()):
        prefix = tuple(int(v) for v in prefix)
        if any(v < 1 for v in prefix):
            raise ParseError("CSequence entries must be positive")
        if any(a > b for a, b in zip(prefix, prefix[1:])):
            raise ParseError("CSequence prefix must be non-decreasing")
        self.prefix = prefix

    @classmethod
    def from_spec(cls, text) -> "CSequence":
        if isinstance(text, CSequence):
            return text
        if isinstance(text, (tuple, list)):
            if not text:
                raise ParseError("CSequence needs a nonempty prefix")
            return cls(text)
        t = str(text).strip().lower()
        if t in ("n", "identity"):
            return cls()
        if not t:
            raise ParseError(f"empty CSequence spec {text!r}")
        try:
            values = tuple(integer(p) for p in t.split(","))
        except ValueError:  # an entry that is empty or not an integer
            raise ParseError(f"bad CSequence spec {text!r}") from None
        return cls(values)

    def spec(self) -> str:
        return ",".join(str(v) for v in self.prefix) or "n"

    def __getitem__(self, n: int) -> int:
        if n < 1:
            raise IndexError("CSequence is indexed from 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.prefix[-1] if self.prefix else n

    def key(self, width: int) -> tuple[int, ...]:
        """The values that matter for a window of the given width."""
        return tuple(self[d] for d in range(1, width + 1))

    def __eq__(self, other):
        return isinstance(other, CSequence) and self.prefix == other.prefix

    def __hash__(self):
        return hash(self.prefix)

    def __repr__(self):
        return f"CSequence({self.spec()!r})"


@dataclass(frozen=True)
class Window:
    """Inclusive integer interval [lo, hi] of generator indices."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ParseError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    @classmethod
    def from_spec(cls, text: str) -> "Window":
        t = str(text).strip()
        if ".." not in t:
            raise ParseError(f"window spec must look like 'lo..hi', got {text!r}")
        a, b = t.split("..", 1)
        try:
            return cls(integer(a), integer(b))
        except ValueError:
            raise ParseError(f"bad window spec {text!r}") from None

    def __str__(self):
        return f"{self.lo}..{self.hi}"


@dataclass(frozen=True)
class RelatorLabel:
    """Provenance of one relator: a power a_i^p or a (spread, weight) commutator."""

    kind: str  # "power" | "commutator"
    index: int | None = None  # generator index for powers
    spread: int | None = None
    weight: int | None = None
    indices: tuple[int, ...] | None = None  # commutator entry indices


def invert_word(word: Relator) -> Relator:
    return tuple((pos, -s) for pos, s in reversed(word))


def left_normed_commutator(positions) -> Relator:
    """Letters of [a_{p_0}, a_{p_1}, ..., a_{p_k}] under the fixed convention."""
    positions = tuple(positions)
    if len(positions) < 2:
        raise ValueError("commutator needs at least two entries")
    w: Relator = ((positions[0], 1),)
    for pos in positions[1:]:
        w = invert_word(w) + ((pos, -1),) + w + ((pos, 1),)
    return w


def _commutator_letters(width: int, weight: int, spread: int) -> int:
    """Letters of the weight-`weight` commutator relators of spread
    `spread` in a window of the given width, counted without building them.

    Tuples of exact spread d over a run of d + 1 values number
    g(k) = (d+1)^k - 2 d^k + (d-1)^k; there are width + 1 - d such runs;
    the tuples with i_0 = i_1 are those of length k - 1, doubled in front.
    Each relator has 3 * 2^(k-1) - 2 letters.
    """

    def g(k: int) -> int:
        return (spread + 1) ** k - 2 * spread**k + (spread - 1) ** k

    count = (width + 1 - spread) * (g(weight) - g(weight - 1))
    return count * (3 * 2 ** (weight - 1) - 2)


def _tuples_with_spread(lo: int, hi: int, length: int, spread: int):
    """All index tuples in [lo, hi]^length with max pairwise distance exactly
    `spread`, in lexicographic order.  Branches that already exceed the spread
    are pruned."""
    tup = [0] * length

    def rec(pos, mn, mx):
        if pos == length:
            if mx - mn == spread:
                yield tuple(tup)
            return
        for v in range(lo, hi + 1):
            nmn = v if v < mn else mn
            nmx = v if v > mx else mx
            if nmx - nmn > spread:
                continue
            tup[pos] = v
            yield from rec(pos + 1, nmn, nmx)

    yield from rec(0, hi, lo)


@dataclass(frozen=True)
class Presentation:
    """Generators and relators of one window group."""

    p: int
    c: CSequence
    window: Window
    generator_count: int
    relators: tuple[Relator, ...]
    labels: tuple[RelatorLabel, ...]

    def relator_text(self, i: int) -> str:
        label = self.labels[i]
        if label.kind == "power":
            return " ".join([f"a{label.index}"] * self.p)
        return "[" + ",".join(f"a{j}" for j in label.indices) + "]"

    def to_text(self) -> str:
        lines = [f"gens {self.generator_count}"]
        lines.extend(self.relator_text(i) for i in range(len(self.relators)))
        return "\n".join(lines) + "\n"


def build_window_presentation(
    p: int,
    c,
    window: Window,
    max_width: int = DEFAULT_MAX_WINDOW_WIDTH,
) -> Presentation:
    """Presentation of B(window) for the parameters (p, c).

    Relators: a_i^p for every window index, plus one left-normed commutator
    of weight c_d + 1 for every index tuple of exact spread d (1 <= d <=
    window width) whose first two entries differ.

    Raises CapacityExceeded, before any relator is built and before p is
    tested for primality, if the relators would have more than
    MAX_RELATOR_LETTERS letters in all; the letters are counted from (p,
    c_d, d, width) alone.  So the trial division of `is_prime` takes at
    most sqrt(MAX_RELATOR_LETTERS) steps.
    """
    if isinstance(p, bool) or not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be prime, got {p}")
    c = CSequence.from_spec(c)
    if window.width > max_width:
        raise CapacityExceeded(
            f"window width {window.width} exceeds the configured bound {max_width}"
        )
    # the power relators a_i^p: one per generator
    letters = (window.width + 1) * p
    if letters > MAX_RELATOR_LETTERS:
        raise CapacityExceeded(
            f"the power relators of window {window} (p={p}, c={c.spec()}) would "
            f"have {letters} letters, more than {MAX_RELATOR_LETTERS}"
        )
    for d in range(1, window.width + 1):
        weight = c[d] + 1
        # one relator of this weight has 3 * 2^(weight-1) - 2 letters: compare
        # exponents first, so a huge weight is refused without forming 2^weight
        if weight - 1 >= MAX_RELATOR_LETTERS.bit_length():
            letters = MAX_RELATOR_LETTERS + 1
        else:
            letters += _commutator_letters(window.width, weight, d)
        if letters > MAX_RELATOR_LETTERS:
            raise CapacityExceeded(
                f"the commutator relators of window {window} (p={p}, c={c.spec()}) would "
                f"have more than {MAX_RELATOR_LETTERS} letters, at spread {d} "
                f"(weight {weight}: 3*2^{weight - 1}-2 letters each)"
            )
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    lo, hi = window.lo, window.hi
    ngens = window.width + 1

    relators: list[Relator] = []
    labels: list[RelatorLabel] = []

    for pos in range(ngens):
        relators.append(((pos, 1),) * p)
        labels.append(RelatorLabel("power", index=lo + pos))

    for d in range(1, window.width + 1):
        weight = c[d] + 1
        for tup in _tuples_with_spread(lo, hi, weight, d):
            if tup[0] == tup[1]:
                continue
            relators.append(left_normed_commutator(tuple(i - lo for i in tup)))
            labels.append(
                RelatorLabel("commutator", spread=d, weight=weight, indices=tup)
            )

    return Presentation(
        p=p,
        c=c,
        window=window,
        generator_count=ngens,
        relators=tuple(relators),
        labels=tuple(labels),
    )


def relator_count(p: int, c, window: Window, max_width: int = DEFAULT_MAX_WINDOW_WIDTH) -> int:
    return len(build_window_presentation(p, c, window, max_width).relators)
