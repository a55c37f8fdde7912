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

and a word is trivial iff both coordinates are, recursively.  A depth-12
action oracle (tree-level permutations) provides the independent
cross-check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

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
# tree level whose action keys the elements of verify_grig_identity
KEY_DEPTH = 8
# words the solver remembers (verify_grig_identity(16) decides 3,909)
SOLVER_CACHE_SIZE = 2**14


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
    if not s:
        return s
    head, tail = s[0], s[1:]
    if ch == "a":
        return ("1" if head == "0" else "0") + tail
    if head == "0":
        if ch == "d":
            return s
        return "0" + act_letter("a", tail)
    return "1" + act_letter(_NEXT[ch], tail)


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


def _split_reduced(word: str) -> tuple[str, str]:
    """split() for a reduced word with even a-count.

    Consecutive Klein letters of a reduced word are one a apart, so they
    alternate between plain and conjugated, and each coordinate interleaves
    the two translations of the Klein letters.
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
    return (
        reduce_word("".join(left).replace("1", "")),
        reduce_word("".join(right).replace("1", "")),
    )


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
def level_permutations(depth: int) -> dict[str, np.ndarray]:
    """Permutations of the 2^depth strings of one tree level, per generator.

    Strings are indexed by their integer value with the first character as
    the most significant bit.
    """
    perms = {ch: np.zeros(1, dtype=np.int64) for ch in "abcd"}
    # level d from level d - 1; shallower levels are not kept
    for d in range(1, depth + 1):
        prev = perms
        half = 1 << (d - 1)
        perms = {"a": np.arange(1 << d, dtype=np.int64) ^ half}
        for ch, (low_ch, high_ch) in (("b", ("a", "c")), ("c", ("a", "d")), ("d", (None, "b"))):
            low = prev[low_ch] if low_ch else np.arange(half, dtype=np.int64)
            perms[ch] = np.concatenate([low, prev[high_ch] + half])
    return perms


@lru_cache(maxsize=None)
def _pair_permutations(depth: int) -> dict[str, np.ndarray]:
    """P_x o P_y for every two-letter word xy, from level_permutations."""
    perms = level_permutations(depth)
    return {x + y: perms[x][perms[y]] for x in "abcd" for y in "abcd"}


def word_permutation(word: str, depth: int) -> np.ndarray:
    # fold left: P_{w0...wk} = P_{w0} o ... o P_{wk} with (P o Q)[i] = P[Q[i]],
    # two letters per gather
    if not _WORD.fullmatch(word):
        raise ValueError(f"{word!r} is not a word over a, b, c, d")
    pairs = _pair_permutations(depth)
    acc = np.arange(1 << depth, dtype=np.int64)
    for i in range(0, len(word) - 1, 2):
        acc = acc[pairs[word[i : i + 2]]]
    if len(word) % 2:
        acc = acc[level_permutations(depth)[word[-1]]]
    return acc


def acts_trivially_to_depth(word: str, depth: int = ORACLE_DEPTH) -> bool:
    """True iff the word fixes every string of the given length (hence all
    shorter ones too)."""
    perm = word_permutation(word, depth)
    return bool(np.array_equal(perm, np.arange(1 << depth, dtype=np.int64)))


def find_moved_string(word: str, max_depth: int = ORACLE_DEPTH) -> str | None:
    """Shortest string moved by the word, or None if it fixes level max_depth.

    The action preserves prefixes, so a string of length d is moved iff the
    level-max_depth strings that extend it are moved in their first d
    letters; one permutation at max_depth answers every shorter level.
    """
    perm = word_permutation(word, max_depth)
    idx = np.arange(1 << max_depth, dtype=np.int64)
    for depth in range(1, max_depth + 1):
        shift = max_depth - depth
        moved = np.flatnonzero((perm >> shift) != (idx >> shift))
        if moved.size:
            return format(int(moved[0]) >> shift, f"0{depth}b")
    return None


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


@lru_cache(maxsize=None)
def _key_letters() -> dict[str, bytes]:
    """bytes.translate tables of the generators' level-KEY_DEPTH actions."""
    return {ch: bytes(perm.tolist()) for ch, perm in level_permutations(KEY_DEPTH).items()}


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
    the bucket.  The neighbours of sphere n - 1 lie in spheres n - 2 to n,
    so only those keys are kept.

    `violations` holds the shortlex-least word of each element that breaks
    the identity, in shortlex order.  Every reduced word of length
    <= max_len names an element of the ball, so all `words_checked` of
    them are covered; `elements_checked` counts the elements.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    letters = _key_letters()
    root = bytes(range(1 << KEY_DEPTH))
    sphere = [("", root)]
    older, last = {}, {root: [""]}
    violations = [] if is_trivial(grig_identity_word("")) else [""]
    elements = 1
    for _ in range(max_len):
        grown, current = [], {}
        for r, key in sphere:
            for ch in _EXTENSIONS[r[-1:]]:
                w = r + ch
                k = key.translate(letters[ch])
                if any(
                    is_trivial(w + invert(s))
                    for bucket in (older, last, current)
                    for s in bucket.get(k, ())
                ):
                    continue
                current.setdefault(k, []).append(w)
                grown.append((w, k))
                if not is_trivial(grig_identity_word(w)):
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
