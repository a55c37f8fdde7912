"""Reduced words in the free product of an ambient group with free variables.

A mixed word alternates constant syllables (nontrivial ambient-group
elements) and variable syllables (x_i with a nonzero integer exponent).
The ambient group is any context object providing `mul`, `product` (of a
sequence of elements, left to right), `inv`, `power`, `is_identity`,
`render_element` and `element_key`; both the limit-group instances and
the finite-group lab satisfy this, so one word calculus serves both.
Constants of one word all belong to a single context; mixing contexts is
an error.

Two reduced words interact only at their seam (Lyndon & Schupp,
*Combinatorial Group Theory*, ch. IV), so the calculus has three
builders: `join` joins one nontrivial syllable at the seam, `extend` a
reduced piece, and `reduce` a list that is not reduced, dropping its
trivial syllables.  Only merged constants are tested for the identity.

Every list written out from reduced pieces goes through `joined`, which
bounds its count of syllables, as written out before reduction, by
`MAX_SYLLABLES` (`bound`) before it builds the list: concatenations,
commutator steps, the |k| copies of a `power`, the images of a
substitution and the items of a parsed word.  The limit is defined here;
only the limit-group powers read it too.
"""

from __future__ import annotations

from .errors import FixedLimitExceeded

# Most syllables one list of the word calculus writes out, and most letters a
# limit-group power with a t-part writes out (`GElement.__pow__`).
MAX_SYLLABLES = 100_000

CONST = "c"
VAR = "v"


def const_syllable(element):
    return (CONST, element)

def var_syllable(vid: int, exp: int = 1):
    if vid < 1:
        raise ValueError("variable ids start at 1")
    return (VAR, vid, exp)


def syllable_key(group, s):
    """Hashable identity of one syllable: constants by their canonical
    element key, variable syllables as they are."""
    return (CONST, group.element_key(s[1])) if s[0] == CONST else s


class MixedWord:
    """A reduced alternating word over group constants and variables.

    Build through `reduce` or `joined` (or the parser); direct
    construction assumes the syllables are already reduced.
    """

    __slots__ = ("group", "syllables")

    def __init__(self, group, syllables=()):
        self.group = group
        self.syllables = tuple(syllables)

    # -- structure ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.syllables

    def is_constant(self) -> bool:
        return all(s[0] == CONST for s in self.syllables)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("word contains variables")
        return self.group.product(s[1] for s in self.syllables)

    @property
    def variable_ids(self) -> tuple[int, ...]:
        return tuple(sorted({s[1] for s in self.syllables if s[0] == VAR}))

    # -- word operations --------------------------------------------------

    def concat(self, other: "MixedWord") -> "MixedWord":
        if other.group is not self.group:
            raise ValueError("cannot mix ambient contexts")
        return joined(self.group, (self.syllables, other.syllables))

    def inverse(self) -> "MixedWord":
        out = []
        for s in reversed(self.syllables):
            if s[0] == CONST:
                out.append((CONST, self.group.inv(s[1])))
            else:
                out.append((VAR, s[1], -s[2]))
        return MixedWord(self.group, out)

    def __mul__(self, other):
        return self.concat(other)

    def render(self) -> str:
        parts = []
        for s in self.syllables:
            if s[0] == CONST:
                parts.append(self.group.render_element(s[1]))
            else:
                name = "x" if s[1] == 1 else f"x{s[1]}"
                parts.append(name if s[2] == 1 else f"{name}^{s[2]}")
        return " ".join(parts) if parts else "1"

    def structural_key(self):
        return tuple(syllable_key(self.group, s) for s in self.syllables)

    def __eq__(self, other):
        return (
            isinstance(other, MixedWord)
            and other.group is self.group
            and self.structural_key() == other.structural_key()
        )

    def __hash__(self):
        return hash(self.structural_key())

    def __repr__(self):
        return f"MixedWord({self.render()!r})"


def join(group, stack: list, s) -> bool:
    """Join the nontrivial syllable s to the end of the reduced list
    `stack`, so the list stays reduced: merge it with a like last
    syllable, cancel both, or append it.  Only the end of the list
    changes, and its length grows by one, stays or shrinks by one.  True
    when the two cancelled, so the new end of the list may meet the
    syllable after s.  Only a merged constant is tested for the identity
    (by the ambient context; for limit groups that is the window engine).
    """
    if stack:
        last = stack[-1]
        if s[0] == CONST:
            if last[0] == CONST:
                el = group.mul(last[1], s[1])
                if group.is_identity(el):
                    stack.pop()
                    return True
                stack[-1] = (CONST, el)
                return False
        elif last[0] == VAR and last[1] == s[1]:
            exp = last[2] + s[2]
            if exp == 0:
                stack.pop()
                return True
            stack[-1] = (VAR, s[1], exp)
            return False
    stack.append(s)
    return False


def extend(group, stack: list, syllables) -> None:
    """Append the reduced syllable sequence `syllables` to the reduced list
    `stack`, so the list stays reduced.

    Two reduced words interact only where they meet: the first syllable
    is joined at the seam, and while the seam cancels the next one is
    joined to the new end; the rest is appended as it is.  So only merged
    constants are tested for the identity.
    """
    if not stack:  # nothing to meet: the piece is appended as it is
        stack.extend(syllables)
        return
    for i, s in enumerate(syllables):
        if not join(group, stack, s):
            stack.extend(syllables[i + 1:])
            return


def bound(count: int, what: str) -> None:
    """Refuse `what`, which would write out `count` syllables, if that is
    past MAX_SYLLABLES."""
    if count > MAX_SYLLABLES:
        raise FixedLimitExceeded(
            f"{what} would write out {count} syllables, past the limit of {MAX_SYLLABLES}"
        )


def joined(group, pieces, what: str = "the word") -> MixedWord:
    """The word of the sequence `pieces` of reduced syllable tuples, each
    joined to the word so far at their seam (`extend`).  Their syllables,
    counted as written out before reduction, are bounded first."""
    bound(sum(map(len, pieces)), what)
    stack: list = []
    for syllables in pieces:
        extend(group, stack, syllables)
    return MixedWord(group, stack)


def reduce(group, syllables) -> MixedWord:
    """Unique reduced form: drop trivial syllables and `join` the rest.

    Merging is confluent, so a single left-to-right pass suffices.  A
    constant after a constant is not tested on its own: the merge leaves
    the last syllable as it was if it is trivial.  For syllables that are
    pieces already reduced, `extend` joins them at their seams instead.
    """
    stack: list = []
    for s in syllables:
        if s[0] == CONST:
            if (not stack or stack[-1][0] != CONST) and group.is_identity(s[1]):
                continue
        elif s[2] == 0:
            continue
        join(group, stack, s)
    return MixedWord(group, stack)


def variable(group, vid: int = 1, exp: int = 1) -> MixedWord:
    return reduce(group, [var_syllable(vid, exp)])


def constant(group, element) -> MixedWord:
    return reduce(group, [const_syllable(element)])


def commutator(u: MixedWord, v: MixedWord) -> MixedWord:
    """[u, v] = u^-1 v^-1 u v at the word level."""
    if u.group is not v.group:
        raise ValueError("cannot mix ambient contexts")
    pieces = (u.inverse().syllables, v.inverse().syllables, u.syllables, v.syllables)
    return joined(u.group, pieces, "a commutator")


def left_normed(words) -> MixedWord:
    words = list(words)
    if len(words) < 2:
        raise ValueError("left-normed commutator needs at least two entries")
    acc = words[0]
    for w in words[1:]:
        acc = commutator(acc, w)
    return acc


def power(word: MixedWord, k: int) -> MixedWord:
    """word^k, reduced.  The empty word stays empty and a single syllable
    is raised in place (a variable's exponent is multiplied, a constant
    goes through `group.power`), so their cost does not grow with |k|; a
    longer word is |k| copies of itself, or of its inverse for k < 0,
    bounded before any copy exists."""
    group = word.group
    n = len(word.syllables)
    if k == 0 or n == 0:
        return MixedWord(group, ())
    if n == 1:
        s = word.syllables[0]
        if s[0] == CONST:
            return constant(group, group.power(s[1], k))
        return variable(group, s[1], s[2] * k)
    what = f"the power ^{k} of a {n}-syllable word"
    bound(n * abs(k), what)
    return joined(group, [(word if k > 0 else word.inverse()).syllables] * abs(k), what)


def evaluate(word: MixedWord, assignment: dict):
    """Image of the word under the homomorphism fixing constants and
    sending x_i to assignment[i].

    One pass builds the syllables' values and one `group.product` takes
    them; a variable syllable x_i^e enters as `group.power(assignment[i],
    e)`, so a large exponent costs O(log |e|) multiplications.  A missing
    variable raises ValueError naming every missing id; any other
    KeyError passes through.
    """
    group = word.group
    try:
        values = [
            s[1] if s[0] == CONST else group.power(assignment[s[1]], s[2])
            for s in word.syllables
        ]
    except KeyError:
        missing = [v for v in word.variable_ids if v not in assignment]
        if missing:
            raise ValueError(f"assignment missing variables {missing}") from None
        raise
    return group.product(values)


def _substitute(word: MixedWord, images: dict) -> MixedWord:
    """Image of the word under the homomorphism fixing constants and
    sending x_i to the nonempty reduced word images[i], reduced.

    A variable syllable x_i^e becomes |e| copies of images[i], or of its
    inverse for e < 0, and `joined` joins them at their seams.  The
    syllables this writes out are counted and bounded first, before any
    copy exists.
    """
    images = {vid: (w.syllables, w.inverse().syllables) for vid, w in images.items()}
    copies = [
        ((s,), 1) if s[0] == CONST else (images[s[1]][s[2] < 0], abs(s[2]))
        for s in word.syllables
    ]
    bound(sum(len(piece) * n for piece, n in copies), "the substitution")
    pieces = [piece for piece, n in copies for _ in range(n)]
    return joined(word.group, pieces, "the substitution")


def iota_embed(word: MixedWord, g) -> MixedWord:
    """Image of a multi-variable word under x_i -> x^i g x^i, reduced.

    The result is a single-variable word; g must be nontrivial for the
    substitution to be an embedding.
    """
    group = word.group
    if group.is_identity(g):
        raise ValueError("iota embedding needs a nontrivial g")
    return _substitute(word, {
        i: MixedWord(group, (var_syllable(1, i), const_syllable(g), var_syllable(1, i)))
        for i in word.variable_ids
    })


def sub_commutator(word: MixedWord, n) -> MixedWord:
    """Substitute x -> [x, n] into a single-variable word, reduced."""
    group = word.group
    if group.is_identity(n):
        raise ValueError("sub_commutator needs a nontrivial n")
    if any(v != 1 for v in word.variable_ids):
        raise ValueError("sub_commutator expects a single-variable word (x = x_1)")
    return _substitute(word, {1: commutator(variable(group), constant(group, n))})
