"""Reduced words in the free product of an ambient group with free variables.

A mixed word alternates constant syllables (nontrivial ambient-group
elements) and variable syllables (x_i with a nonzero integer exponent).
The ambient group is any context object providing `mul`, `product` (of a
sequence of elements, left to right), `inv`, `power`, `is_identity`,
`render_element` and `element_key`; both the limit-group instances and
the finite-group lab satisfy this, so one word calculus serves both.
Constants of one word all belong to a single context; mixing contexts is
an error.
"""

from __future__ import annotations

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

    Build through `reduce` (or the parser); direct construction assumes
    the syllables are already reduced.
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
        return reduce(self.group, self.syllables + other.syllables)

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


def push(group, stack: list, s) -> None:
    """Append syllable s to the reduced syllable list `stack`, merging it
    with the last syllable or cancelling both at the seam, so the list
    stays reduced.  Only the end of the list changes: for a nontrivial s
    its length grows by one (appended), stays (merged into a new last
    syllable) or shrinks by one (cancelled).

    Constant triviality is decided by the ambient context (for limit
    groups that is the window engine).
    """
    if s[0] == CONST:
        el = s[1]
        if stack and stack[-1][0] == CONST:
            el = group.mul(stack.pop()[1], el)
        if not group.is_identity(el):
            stack.append((CONST, el))
    else:
        _, vid, exp = s
        if exp == 0:
            return
        if stack and stack[-1][0] == VAR and stack[-1][1] == vid:
            exp += stack.pop()[2]
            if exp == 0:
                return
        stack.append((VAR, vid, exp))


def reduce(group, syllables) -> MixedWord:
    """Unique reduced form: merge adjacent like syllables, drop trivial ones.

    Merging is confluent, so a single left-to-right pass of `push`
    suffices.
    """
    stack: list = []
    for s in syllables:
        push(group, stack, s)
    return MixedWord(group, stack)


def variable(group, vid: int = 1, exp: int = 1) -> MixedWord:
    return reduce(group, [var_syllable(vid, exp)])


def constant(group, element) -> MixedWord:
    return reduce(group, [const_syllable(element)])


def commutator(u: MixedWord, v: MixedWord) -> MixedWord:
    """[u, v] = u^-1 v^-1 u v at the word level."""
    if u.group is not v.group:
        raise ValueError("cannot mix ambient contexts")
    return reduce(
        u.group,
        u.inverse().syllables + v.inverse().syllables + u.syllables + v.syllables,
    )


def left_normed(words) -> MixedWord:
    words = list(words)
    if len(words) < 2:
        raise ValueError("left-normed commutator needs at least two entries")
    acc = words[0]
    for w in words[1:]:
        acc = commutator(acc, w)
    return acc


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


def iota_embed(word: MixedWord, g) -> MixedWord:
    """Image of a multi-variable word under x_i -> x^i g x^i, reduced.

    The result is a single-variable word; g must be nontrivial for the
    substitution to be an embedding.
    """
    group = word.group
    if group.is_identity(g):
        raise ValueError("iota embedding needs a nontrivial g")
    g_inv = group.inv(g)
    out = []
    for s in word.syllables:
        if s[0] == CONST:
            out.append(s)
            continue
        _, vid, exp = s
        if exp > 0:
            block = [var_syllable(1, vid), const_syllable(g), var_syllable(1, vid)]
            out.extend(block * exp)
        else:
            block = [var_syllable(1, -vid), const_syllable(g_inv), var_syllable(1, -vid)]
            out.extend(block * (-exp))
    return reduce(group, out)


def sub_commutator(word: MixedWord, n) -> MixedWord:
    """Substitute x -> [x, n] into a single-variable word, reduced."""
    group = word.group
    if group.is_identity(n):
        raise ValueError("sub_commutator needs a nontrivial n")
    ids = word.variable_ids
    if any(v != 1 for v in ids):
        raise ValueError("sub_commutator expects a single-variable word (x = x_1)")
    n_inv = group.inv(n)
    block = [
        var_syllable(1, -1),
        const_syllable(n_inv),
        var_syllable(1, 1),
        const_syllable(n),
    ]
    block_inv = [
        const_syllable(n_inv),
        var_syllable(1, -1),
        const_syllable(n),
        var_syllable(1, 1),
    ]
    out = []
    for s in word.syllables:
        if s[0] == CONST:
            out.append(s)
            continue
        exp = s[2]
        out.extend((block if exp > 0 else block_inv) * abs(exp))
    return reduce(group, out)
