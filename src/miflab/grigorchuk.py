"""Exact engine for the Grigorchuk group acting on the binary rooted tree.

Generators a, b, c, d act on finite binary strings by

    a(0w) = 1w    a(1w) = 0w
    b(0w) = 0 a(w)    b(1w) = 1 c(w)
    c(0w) = 0 a(w)    c(1w) = 1 d(w)
    d(0w) = 0 w       d(1w) = 1 b(w)

Words multiply by concatenation and act right-to-left.  The word problem
is decided exactly by first-level splitting: an even-a-count word rewrites
over {b, c, d, aba, aca, ada} and maps into G x G through

    b -> (a, c)   aba -> (c, a)
    c -> (a, d)   aca -> (d, a)
    d -> (1, b)   ada -> (b, 1)

and a word is trivial iff both coordinates are, recursively.

The independent cross-check is a depth-12 action oracle that never reduces
a word.  It reads the reversed word in chunks of CHUNK = 4 letters, each a
cached step, into the action on tree level 8, a 256-byte bytes.translate
table, and into the level-4 action of the section at each level-8 vertex,
padded to the same 256 bytes; the word fixes level 12 iff it fixes level 8
and every section fixes level 4.  A section's action fits one table, so
the oracle's depth is at most 16.  The `grig` workload of perfbench/run.py,
whose `verify_s` is nearly all oracle calls (2,401 words, 78,702 letters),
measures a median `verify_s` of ~0.060 s, down from ~0.085 s with a
letter-by-letter walk (2-vCPU VM, Python 3.11).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .errors import BudgetExceeded

KLEIN = ("b", "c", "d")
# bc = cb = d, bd = db = c, cd = dc = b; equal letters cancel
_KLEIN_MUL = {
    "bc": "d",
    "cb": "d",
    "bd": "c",
    "db": "c",
    "cd": "b",
    "dc": "b",
    "bb": "",
    "cc": "",
    "dd": "",
}
_NEXT = {"b": "c", "c": "d", "d": "b"}  # the recursion letter on the 1-branch
# a word is reduced iff no two a's and no two Klein letters are adjacent
_NOT_REDUCED = re.compile(r"aa|[bcd][bcd]|[^abcd]")
_WORD = re.compile(r"[abcd]*")
_BINARY = re.compile(r"[01]*")
ORACLE_DEPTH = 12
# tree level whose action keys the elements of verify_grig_identity and
# splits the depth oracle into a byte-string action plus sections
KEY_DEPTH = 8
# words the solver remembers (verify_grig_identity(16) decides 3,909)
SOLVER_CACHE_SIZE = 2**14
# most reduced words verify_grig_identity checks (max_len 22 has 885,731)
MAX_IDENTITY_WORDS = 1_000_000


def reduce_word(word: str) -> str:
    """Reduced alternating form, action-equivalent to the input.

    The stack alternates a with a Klein letter, so each letter meets only
    the top: a product of two Klein letters lands on an a and never
    cascades.  Already reduced words are returned as they are.
    """
    if not _NOT_REDUCED.search(word):
        return word
    out: list = []
    for ch in word:
        if ch == "a":
            if out and out[-1] == "a":
                out.pop()
            else:
                out.append(ch)
        elif ch in KLEIN:
            if out and out[-1] != "a":
                prod = _KLEIN_MUL[out.pop() + ch]
                if prod:
                    out.append(prod)
            else:
                out.append(ch)
        else:
            raise ValueError(f"bad Grigorchuk letter {ch!r}")
    return "".join(out)


def _mul(u: str, v: str) -> str:
    """Reduced form of uv for reduced u and v.

    In C2 * V4 reduced words cancel only at the seam: equal letters there
    cancel in pairs, and two different Klein letters merge into the third.
    """
    i, j = len(u), 0
    while i and j < len(v):
        x, y = u[i - 1], v[j]
        if x == y:
            i -= 1
            j += 1
        elif x == "a" or y == "a":
            break
        else:
            return u[: i - 1] + _KLEIN_MUL[x + y] + v[j + 1 :]
    return u[:i] + v[j:]


def invert(word: str) -> str:
    # every generator is an involution, so inversion is reversal
    return word[::-1]


def _commutator_reduced(u: str, v: str) -> str:
    return _mul(_mul(invert(u), invert(v)), _mul(u, v))


def commutator(u: str, v: str) -> str:
    return _commutator_reduced(reduce_word(u), reduce_word(v))


def act_letter(ch: str, s: str) -> str:
    """The image of `s` under one letter.  a flips the first bit; b, c and d
    walk down the string: each 1 passes on _NEXT of the letter, and the
    first 0 passes on a (d fixes the rest), so at most one bit flips."""
    for i, bit in enumerate(s):
        if ch == "a":
            return s[:i] + ("1" if bit == "0" else "0") + s[i + 1 :]
        if bit == "0":
            if ch == "d":
                return s
            ch = "a"
        else:
            ch = _NEXT[ch]
    return s


def act(word: str, s: str) -> str:
    """Apply the word to a binary string, letters acting right to left."""
    if not _WORD.fullmatch(word):
        raise ValueError(f"{word!r} is not a word over a, b, c, d")
    if not _BINARY.fullmatch(s):
        raise ValueError(f"{s!r} is not a binary string")
    for ch in reversed(word):
        s = act_letter(ch, s)
    return s


def a_count(word: str) -> int:
    return word.count("a")


# Under the coordinate map of the module docstring, a Klein letter x with an
# even number of a's before it goes to (_PLAIN[x], _CONJUGATED[x]), and one
# with an odd number (a conjugate axa) to (_CONJUGATED[x], _PLAIN[x]).  "1"
# marks the identity until it is deleted.
_PLAIN = str.maketrans("bcd", "aa1")
_CONJUGATED = str.maketrans("bcd", "cdb")


def _join_pieces(coordinate: str) -> str:
    """Reduced form of a coordinate: reduced pieces separated by "1" marks.

    The pieces meet only at their seams, so they are joined by _mul,
    pairwise in a balanced tree: each letter is copied O(log k) times for
    k pieces, where a left fold would copy the growing prefix k times.
    """
    pieces = coordinate.split("1")
    while len(pieces) > 1:
        odd = pieces[-1:] if len(pieces) % 2 else []
        pairs = iter(pieces)
        pieces = [_mul(u, v) for u, v in zip(pairs, pairs)] + odd
    return pieces[0]


def _split_reduced(word: str) -> tuple[str, str]:
    """split() for a reduced word with even a-count.

    Consecutive Klein letters of a reduced word are one a apart, so they
    alternate between plain and conjugated, and each coordinate interleaves
    the two translations of the Klein letters.  A coordinate so alternates
    a Klein letter with an a or a "1" mark: the runs between the marks are
    reduced, and _join_pieces merges them only at their seams, pairwise.
    """
    klein = word.replace("a", "")
    plain = klein.translate(_PLAIN)
    conjugated = klein.translate(_CONJUGATED)
    if word[:1] == "a":
        plain, conjugated = conjugated, plain
    left = list(plain)
    left[1::2] = conjugated[1::2]
    right = list(conjugated)
    right[1::2] = plain[1::2]
    return _join_pieces("".join(left)), _join_pieces("".join(right))


def split(word: str) -> tuple[str, str]:
    """First-level splitting of a word in the stabilizer H.

    Rewrites over {b, c, d, aba, aca, ada} and applies the coordinate map;
    both outputs are reduced and strictly shorter than the input once the
    input has more than one letter.
    """
    word = reduce_word(word)
    if a_count(word) % 2:
        raise ValueError(f"{word!r} has odd a-count; not in the stabilizer")
    return _split_reduced(word)


@lru_cache(maxsize=SOLVER_CACHE_SIZE)
def _is_trivial_reduced(word: str) -> bool:
    if not word:
        return True
    if a_count(word) % 2:
        return False
    left, right = _split_reduced(word)
    return _is_trivial_reduced(left) and _is_trivial_reduced(right)


def is_trivial(word: str) -> bool:
    """Exact word-problem decision by recursive splitting."""
    return _is_trivial_reduced(reduce_word(word))


# -- depth-bounded action oracle ----------------------------------------------


@lru_cache(maxsize=None)
def level_permutations(depth: int) -> dict[str, tuple[int, ...]]:
    """Permutations of the 2^depth strings of one tree level, per generator.

    Strings are indexed by their integer value with the first character as
    the most significant bit.
    """
    perms = {ch: (0,) for ch in "abcd"}
    # level d from level d - 1; shallower levels are not kept
    for d in range(1, depth + 1):
        prev = perms
        half = 1 << (d - 1)
        perms = {"a": tuple(x ^ half for x in range(1 << d))}
        for ch, (low_ch, high_ch) in (("b", ("a", "c")), ("c", ("a", "d")), ("d", (None, "b"))):
            low = prev[low_ch] if low_ch else tuple(range(half))
            perms[ch] = low + tuple(x + half for x in prev[high_ch])
    return perms


_IDENTITY = bytes(range(1 << KEY_DEPTH))
_TOP = (1 << KEY_DEPTH) - 1  # the vertex 1^KEY_DEPTH; _TOP - 1 is 1^(KEY_DEPTH-1) 0
MAX_ORACLE_DEPTH = 2 * KEY_DEPTH  # a section's action fits one 256-byte table
CHUNK = 4  # letters per step of the oracle's walk
_CHUNKS = re.compile(f".{{1,{CHUNK}}}")


@lru_cache(maxsize=None)
def _level_letters(level: int) -> dict[str, bytes]:
    """bytes.translate tables of the generators' actions on tree level
    `level` <= KEY_DEPTH, padded to 256 bytes by the identity."""
    pad = _IDENTITY[1 << level :]
    return {ch: bytes(perm) + pad for ch, perm in level_permutations(level).items()}


def _klein_sections() -> dict[str, tuple[str, str]]:
    """The sections of each Klein letter at 1^KEY_DEPTH and 1^(KEY_DEPTH-1) 0.

    A Klein letter x has section _NEXT^k(x) at 1^k, and at 1^k 0 the
    section a or 1 that _PLAIN gives for _NEXT^k(x); the sections of a at
    nonempty strings are trivial, so all other level-KEY_DEPTH sections
    of x are.  "" marks a trivial section.
    """
    sections = {}
    for x in KLEIN:
        y = x
        for _ in range(KEY_DEPTH - 1):
            y = _NEXT[y]
        sections[x] = (_NEXT[y], y.translate(_PLAIN).replace("1", ""))
    return sections


_KLEIN_SECTIONS = _klein_sections()


class _Steps(dict):
    """The walk's steps at one depth, keyed by a chunk of the reversed word:
    the chunk's level-KEY_DEPTH table and, for each vertex u its Klein
    letters touch, the level-(depth - KEY_DEPTH) action of their sections
    at u.  A step is built on first use from the chunk one letter shorter,
    whose table sends the new letter's sections to table[_TOP] and
    table[_TOP - 1]."""

    def __init__(self, depth: int):
        super().__init__({"": (_IDENTITY, ())})
        self.letters = _level_letters(min(depth, KEY_DEPTH))
        self.below = _level_letters(depth - KEY_DEPTH) if depth > KEY_DEPTH else None

    def __missing__(self, chunk: str) -> tuple[bytes, tuple[tuple[int, bytes], ...]]:
        table, touched = self[chunk[:-1]]
        ch = chunk[-1]
        if self.below and ch != "a":
            touched = dict(touched)
            for u, section in zip((table[_TOP], table[_TOP - 1]), _KLEIN_SECTIONS[ch]):
                if section:
                    touched[u] = touched.get(u, _IDENTITY).translate(self.below[section])
            touched = tuple(touched.items())
        step = self[chunk] = (self.letters[ch].translate(table), touched)
        return step


_steps = lru_cache(maxsize=None)(_Steps)  # one _Steps per depth


def _walk(word: str, depth: int) -> tuple[bytes, dict[int, bytes]]:
    """The word's action down to `depth`: the action of its inverse on
    level min(depth, KEY_DEPTH) (string x goes to inv[x]) and, when depth >
    KEY_DEPTH, the level-(depth - KEY_DEPTH) action of its section's
    inverse at each level-KEY_DEPTH vertex that a Klein letter touches;
    every action is padded to 256 bytes.

    The walk reads the word right to left, CHUNK letters per step, and
    applies each step's table before inv, so inv is the action of the suffix
    after the chunk: a vertex u of the chunk's sections is the walk's vertex
    inv[u].  The word is not reduced: the oracle shares no code with the
    solver it cross-checks.
    """
    steps = _steps(depth)
    inv, sections = _IDENTITY, {}
    for chunk in _CHUNKS.findall(word[::-1]):
        table, touched = steps[chunk]
        for u, section in touched:
            v = inv[u]
            sections[v] = sections.get(v, _IDENTITY).translate(section)
        inv = table.translate(inv)
    return inv, sections


def _fixes(word: str, depth: int) -> bool:
    # a word fixes level depth iff it fixes level KEY_DEPTH and every section
    # fixes level depth - KEY_DEPTH; a word and its inverse fix the same strings
    inv, sections = _walk(word, depth)
    return inv == _IDENTITY and all(s == _IDENTITY for s in sections.values())


def _moved(perm: bytes, level: int) -> str | None:
    # x and perm[x] first differ at the level of their highest differing bit
    moved = [(level + 1 - (x ^ y).bit_length(), x) for x, y in enumerate(perm) if x != y]
    if not moved:
        return None
    d, x = min(moved)
    return format(x >> (level - d), f"0{d}b")


def _first_moved(word: str, depth: int) -> str | None:
    inv, sections = _walk(word, depth)
    s = _moved(inv, min(depth, KEY_DEPTH))
    if s is not None:
        return s
    below = []
    for vertex, section in sections.items():
        s = _moved(section, depth - KEY_DEPTH)
        if s is not None:
            below.append((len(s), vertex, s))
    if not below:
        return None
    _, vertex, s = min(below)
    return format(vertex, f"0{KEY_DEPTH}b") + s


def _check_oracle_input(word: str, depth: int, name: str) -> None:
    if not _WORD.fullmatch(word):
        raise ValueError(f"{word!r} is not a word over a, b, c, d")
    if depth < 0:
        raise ValueError(f"{name} must be non-negative, got {depth}")
    if depth > MAX_ORACLE_DEPTH:
        raise ValueError(f"{name} must be at most {MAX_ORACLE_DEPTH}, got {depth}")


def acts_trivially_to_depth(word: str, depth: int = ORACLE_DEPTH) -> bool:
    """True iff the word fixes every string of the given length (hence all
    shorter ones too)."""
    _check_oracle_input(word, depth, "depth")
    return _fixes(word, depth)


def find_moved_string(word: str, max_depth: int = ORACLE_DEPTH) -> str | None:
    """Shortest string moved by the word, first in lexicographic order, or
    None if it fixes level max_depth.

    The action preserves prefixes, so levels up to KEY_DEPTH are read off
    the level-KEY_DEPTH action; below a fixed level KEY_DEPTH, a string vu
    is moved iff the section at v moves u.
    """
    _check_oracle_input(word, max_depth, "max_depth")
    return _first_moved(word, max_depth)


# -- enumeration and the canned identity --------------------------------------


def reduced_words(max_len: int):
    """All reduced words of length <= max_len, in shortlex order.

    Reduced words alternate a-letters and Klein letters, so a word of each
    length is a pattern, starting with a or with a Klein letter, filled with
    Klein letters in lexicographic order; no shorter word is kept.
    """
    yield ""
    for n in range(1, max_len + 1):
        for first, other in (("a", "%s"), ("%s", "a")):  # a sorts before b, c, d
            pattern = "".join(other if i % 2 else first for i in range(n))
            for klein in product(KLEIN, repeat=pattern.count("%s")):
                yield pattern % klein


@dataclass
class IdentityReport:
    word: str
    max_len: int
    words_checked: int
    elements_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "identity": self.word,
            "max_len": self.max_len,
            "words_checked": self.words_checked,
            "elements_checked": self.elements_checked,
            "violations": list(self.violations),
        }


def grig_identity_word(g: str) -> str:
    """The witness word [[[[g, b], d], d], ada], reduced."""
    w = _commutator_reduced(reduce_word(g), "b")
    w = _commutator_reduced(w, "d")
    w = _commutator_reduced(w, "d")
    return _commutator_reduced(w, "ada")


def reduced_word_count(max_len: int) -> int:
    """Number of reduced words of length <= max_len: a word of length n
    alternates a with Klein letters, ceil(n/2) or floor(n/2) of them."""
    return 1 + sum(3 ** (n // 2) + 3 ** ((n + 1) // 2) for n in range(1, max_len + 1))


# the letters that keep a reduced word reduced, by the word's last letter
_EXTENSIONS = {"": "abcd", "a": "bcd", "b": "a", "c": "a", "d": "a"}


def verify_grig_identity(max_len: int) -> IdentityReport:
    """Check [[[[x, b], d], d], ada] = 1 for every element of the ball of
    radius max_len, each once, via the recursive solver.

    A breadth-first search by spheres finds each element at its
    shortlex-least word: sphere n is grown from the words of sphere n - 1,
    in order, by the letters that keep them reduced, in abcd order.  A
    candidate w is keyed by the level-KEY_DEPTH action of w^-1 (a byte
    string, one letter's translate from the key of its parent; the
    generators are involutions).  Equal keys only suggest equal elements:
    w is dropped only when the solver finds w s^-1 trivial for a word s of
    the bucket.  The walk's words are reduced, so w s^-1 is joined at its
    seam by _mul and, like the reduced identity word, goes to the
    reduced-word solver without a rescan.  The neighbours of sphere n - 1
    lie in spheres n - 2 to n, so only those keys are kept.

    A ball of more than MAX_IDENTITY_WORDS reduced words raises
    BudgetExceeded before the walk.  `violations` holds the shortlex-least
    word of each element that breaks the identity, in shortlex order.
    Every reduced word of length <= max_len names an element of the ball,
    so all `words_checked` of them are covered; `elements_checked` counts
    the elements.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    # the count passes 3^(max_len // 2), so a max_len past twice the cap's
    # bit length is refused before any power of 3 is formed
    cap = MAX_IDENTITY_WORDS
    if max_len > 2 * cap.bit_length() or reduced_word_count(max_len) > cap:
        largest = max(n for n in range(2 * cap.bit_length()) if reduced_word_count(n) <= cap)
        raise BudgetExceeded(
            f"the ball of radius {max_len} has more than {cap} reduced words to check; "
            f"max_len {largest} is the largest within the cap"
        )
    letters = _level_letters(KEY_DEPTH)
    root = _IDENTITY
    sphere = [("", root)]
    older, last = {}, {root: [""]}
    violations = [] if _is_trivial_reduced(grig_identity_word("")) else [""]
    elements = 1
    for _ in range(max_len):
        grown, current = [], {}
        for r, key in sphere:
            for ch in _EXTENSIONS[r[-1:]]:
                w = r + ch
                k = key.translate(letters[ch])
                if any(
                    _is_trivial_reduced(_mul(w, invert(s)))
                    for bucket in (older, last, current)
                    for s in bucket.get(k, ())
                ):
                    continue
                current.setdefault(k, []).append(w)
                grown.append((w, k))
                if not _is_trivial_reduced(grig_identity_word(w)):
                    violations.append(w)
        elements += len(grown)
        sphere, older, last = grown, last, current
    return IdentityReport(
        word="[[[[x,b],d],d],ada]",
        max_len=max_len,
        words_checked=reduced_word_count(max_len),
        elements_checked=elements,
        violations=violations,
    )
