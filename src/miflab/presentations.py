"""Finite presentations of the groups B(T) = <a_t : t in T>.

B(T) is presented on the generators indexed by a finite set T of
integers, kept sorted; a window B(W) is the interval case, T = [lo, hi].
Every generator gets a power relator a_i^p, and every index tuple over T
contributes a left-normed commutator relator whose weight is governed by
the tuple's spread: a tuple of spread d (maximum pairwise index distance)
of length c_d + 1 yields the relator [a_{i_0}, a_{i_1}, ..., a_{i_{c_d}}] = 1.

Killing every a_j with j outside T retracts B(W), for any window W that
holds T, onto <a_T>: a relator whose tuple lies in T maps to itself, any
other to a commutator with an entry 1.  So <a_T> in B(W) is B(T), and
B(T) depends on T only through T - min T (Holt, Eick & O'Brien, Handbook
of Computational Group Theory, 2005, ch. 5).

Conventions, fixed globally:
    [u, v] = u^-1 v^-1 u v
    [u_1, ..., u_k] = [[u_1, ..., u_{k-1}], u_k]

Relator order is deterministic: power relators by generator index, then
commutator relators lexicographically by (spread, index tuple), over the
spreads that occur in T.  Tuples with i_0 = i_1 are skipped (freely
trivial).  No relator repeats: a left-normed commutator's letters
determine its index tuple, each tuple is visited once, and power relators
carry no inverse letters.  Each relator is recorded once, beside its
index tuple ((i,) for a_i^p), from which its kind, spread and weight
follow.
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


def _class_bound(value) -> int:
    """One entry of a CSequence prefix: an int that is not a bool as it is,
    a str as an entry of a text spec reads; nothing else is an entry."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return integer(value)
        except ValueError:
            pass
    raise ParseError(f"bad CSequence entry {value!r}")


class CSequence:
    """Non-decreasing class-bound sequence c_1 <= c_2 <= ... , total on n >= 1.

    A non-empty prefix whose last value repeats forever, or the empty
    prefix, meaning c_n = n (spec ``"n"``).
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix=()):
        prefix = tuple(map(_class_bound, prefix))
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

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))

    @property
    def label(self) -> str:
        return f"window {self}"

    def width_refusal(self, max_width: int) -> str:
        return f"window width {self.width} exceeds the configured bound {max_width}"

    def __str__(self):
        return f"{self.lo}..{self.hi}"


@dataclass(frozen=True)
class IndexSet:
    """A finite set of generator indices that is not an interval, as its
    strictly increasing tuple; `IndexSet.of` gives a `Window` for an
    interval.  `width` is the spread hi - lo."""

    indices: tuple[int, ...]

    def __post_init__(self):
        t = self.indices
        if len(t) < 2 or any(a >= b for a, b in zip(t, t[1:])) or t[-1] - t[0] < len(t):
            raise ValueError(f"not a gapped increasing index tuple: {t!r}")

    @classmethod
    def of(cls, indices) -> "Window | IndexSet":
        """The set of the distinct integers `indices` (at least one): a
        Window if they form an interval."""
        t = tuple(sorted(set(indices)))
        if t[-1] - t[0] == len(t) - 1:
            return Window(t[0], t[-1])
        return cls(t)

    @property
    def width(self) -> int:
        return self.indices[-1] - self.indices[0]

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def label(self) -> str:
        return f"index set {self}"

    def width_refusal(self, max_width: int) -> str:
        return f"index set {self} of spread {self.width} exceeds the configured bound {max_width}"

    def __str__(self):
        return "{" + ",".join(map(str, self.indices)) + "}"


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


def _commutator_letters(indices: tuple[int, ...], weight: int, spread: int) -> int:
    """Letters of the weight-`weight` commutator relators of spread
    `spread` over the sorted index tuple `indices`, counted without
    building them.

    For a pair a < b of `indices` with b - a = spread, and m indices in
    [a, b], the tuples of length k with min a and max b number
    g(k) = m^k - 2 (m-1)^k + (m-2)^k; the tuples with i_0 = i_1 are those
    of length k - 1, doubled in front.  Each relator has 3 * 2^(k-1) - 2
    letters.
    """

    def g(m: int, k: int) -> int:
        return m**k - 2 * (m - 1) ** k + (m - 2) ** k

    place = {v: n for n, v in enumerate(indices)}
    count = 0
    for n, a in enumerate(indices):
        end = place.get(a + spread)
        if end is not None:
            m = end - n + 1
            count += g(m, weight) - g(m, weight - 1)
    return count * (3 * 2 ** (weight - 1) - 2)


def _spreads(indices: tuple[int, ...]) -> range | list[int]:
    """The spreads of the tuples over `indices`: their pairwise distances."""
    if indices[-1] - indices[0] == len(indices) - 1:  # an interval has them all
        return range(1, len(indices))
    return sorted({b - a for n, a in enumerate(indices) for b in indices[n + 1:]})


def _tuples_with_spread(indices: tuple[int, ...], length: int, spread: int):
    """All tuples in indices^length with max pairwise distance exactly
    `spread`, in lexicographic order.  Branches that already exceed the spread
    are pruned."""
    tup = [0] * length

    def rec(pos, mn, mx):
        if pos == length:
            if mx - mn == spread:
                yield tuple(tup)
            return
        for v in indices:
            nmn = v if v < mn else mn
            nmx = v if v > mx else mx
            if nmx - nmn > spread:
                continue
            tup[pos] = v
            yield from rec(pos + 1, nmn, nmx)

    yield from rec(0, indices[-1], indices[0])


@dataclass(frozen=True)
class Presentation:
    """Generators and relators of one group B(T); generator n is a_{T[n]}.

    `labels[k]` names relator k by its generator indices: `(i,)` for the
    power a_i^p, the entries (i_0, ..., i_{c_d}) for a commutator, which
    has at least two.  The count of generators is read off `index_set`.
    """

    p: int
    c: CSequence
    index_set: Window | IndexSet
    relators: tuple[Relator, ...]
    labels: tuple[tuple[int, ...], ...]

    @property
    def generator_count(self) -> int:
        return self.index_set.size

    def relator_text(self, i: int) -> str:
        label = self.labels[i]
        if len(label) == 1:
            return " ".join([f"a{label[0]}"] * self.p)
        return "[" + ",".join(f"a{j}" for j in label) + "]"

    def to_text(self) -> str:
        lines = [f"gens {self.generator_count}"]
        lines.extend(self.relator_text(i) for i in range(len(self.relators)))
        return "\n".join(lines) + "\n"


def build_window_presentation(
    p: int,
    c,
    window: Window | IndexSet,
    max_width: int = DEFAULT_MAX_WINDOW_WIDTH,
) -> Presentation:
    """Presentation of B(T), T the indices of `window` (a Window, or a
    gapped IndexSet), for the parameters (p, c).

    Relators: a_i^p for every index of T, plus one left-normed commutator
    of weight c_d + 1 for every tuple over T of exact spread d (each d
    that occurs in T) whose first two entries differ.

    Raises CapacityExceeded, before any relator is built and before p is
    tested for primality, if the spread of T exceeds `max_width`, or if
    the relators would have more than MAX_RELATOR_LETTERS letters in all;
    the letters are counted from (p, c_d, T) alone.  So the trial division
    of `is_prime` takes at most sqrt(MAX_RELATOR_LETTERS) steps.
    """
    if isinstance(p, bool) or not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be prime, got {p}")
    c = CSequence.from_spec(c)
    if window.width > max_width:
        raise CapacityExceeded(window.width_refusal(max_width))
    # the power relators a_i^p: one per generator
    letters = window.size * p
    if letters > MAX_RELATOR_LETTERS:
        raise CapacityExceeded(
            f"the power relators of {window.label} (p={p}, c={c.spec()}) would "
            f"have {letters} letters, more than {MAX_RELATOR_LETTERS}"
        )
    indices = window.indices
    spreads = _spreads(indices)
    for d in spreads:
        weight = c[d] + 1
        # one relator of this weight has 3 * 2^(weight-1) - 2 letters: compare
        # exponents first, so a huge weight is refused without forming 2^weight
        if weight - 1 >= MAX_RELATOR_LETTERS.bit_length():
            letters = MAX_RELATOR_LETTERS + 1
        else:
            letters += _commutator_letters(indices, weight, d)
        if letters > MAX_RELATOR_LETTERS:
            raise CapacityExceeded(
                f"the commutator relators of {window.label} (p={p}, c={c.spec()}) would "
                f"have more than {MAX_RELATOR_LETTERS} letters, at spread {d} "
                f"(weight {weight}: 3*2^{weight - 1}-2 letters each)"
            )
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    place = {v: n for n, v in enumerate(indices)}

    relators = [((pos, 1),) * p for pos in range(len(indices))]
    labels = [(i,) for i in indices]
    for d in spreads:
        for tup in _tuples_with_spread(indices, c[d] + 1, d):
            if tup[0] == tup[1]:
                continue
            relators.append(left_normed_commutator(tuple(place[i] for i in tup)))
            labels.append(tup)

    return Presentation(
        p=p,
        c=c,
        index_set=window,
        relators=tuple(relators),
        labels=tuple(labels),
    )
