"""Brute-force mixed-identity verdicts on finite groups.

Groups are multiplication tables on element ids 0..n-1 with optional
labels.  A "true" verdict from `is_mixed_identity` is a proof: every
substitution is tried, and oversized instances are refused rather than
sampled.  Verdicts are batched: the word is evaluated on whole blocks of
substitutions at once, in `itertools.product` order, so the first
counterexample found is the lexicographically first one.  Each syllable
costs one 1-D gather on the multiplication table per block: a constant c
reads column c, a variable reads the flat cells acc*n + v.  A variable
power x^e with e other than 1 or -1 reads a power map, built with e
reduced mod |G| (Lagrange).  The canned identities, the factorial one
`[x^{|N|!}, g]` too, go through the same batched verdict.

A table passed to `FiniteGroup` is checked against every group axiom and then
made read-only; one of order above `FULL_AXIOM_CHECK_LIMIT` is refused, not
sampled.  Catalog groups (cyclic, dihedral, symmetric) and direct and wreath
products of groups are built by a fixed formula, so they are groups by
construction and their tables are not checked; they are read-only too.
Cyclic and dihedral tables come from closed forms, symmetric ones from
composing permutations; cyclic, dihedral, direct-product and wreath tables
are written in place, with no temporary of the table's size.  Every built
group has one order cap, `MAX_ORDER`, checked from the order before any
array of the group exists; `small_group_order` reads the order of a
product from its whole name, before any factor is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial, reduce
from itertools import permutations, product

import numpy as np

from . import mixed_words as mw
from .errors import BudgetExceeded, ParseError

FULL_AXIOM_CHECK_LIMIT = 512
ASSIGNMENT_LIMIT = 1_000_000
MAX_ORDER = 4096  # largest group built; its n*n int64 table takes 128 MiB
VERDICT_BLOCK = 2**16  # substitutions evaluated per batch


class FiniteGroup:
    """A finite group as a full multiplication table on 0..n-1.

    The constructor copies the table and checks every group axiom; a
    table of order above `FULL_AXIOM_CHECK_LIMIT` is refused with
    BudgetExceeded.  `table` and `inverse_table` are read-only, so a group
    cannot change after its check.  Catalog groups and products are built
    by a fixed formula and go through `_by_construction`, which skips the
    check.
    """

    def __init__(self, table, labels=None, name: str = "group"):
        table = np.array(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        if table.shape[0] > FULL_AXIOM_CHECK_LIMIT:
            raise BudgetExceeded(
                f"{name}: a table of order {table.shape[0]} is over the "
                f"{FULL_AXIOM_CHECK_LIMIT}-element limit of the group axiom check"
            )
        self._setup(table, labels, name)
        self._validate()
        self._invert()

    @classmethod
    def _by_construction(cls, table: np.ndarray, labels, name: str) -> "FiniteGroup":
        """A table built by a fixed group formula: a group without a check."""
        group = cls.__new__(cls)
        group._setup(table, labels, name)
        group._invert()
        return group

    # -- construction checks ---------------------------------------------

    def _setup(self, table: np.ndarray, labels, name: str) -> None:
        """Own `table` read-only and find the identity."""
        table.flags.writeable = False
        self.table = table
        self.size = int(table.shape[0])
        self.name = name
        self.labels = list(labels) if labels is not None else [str(i) for i in range(self.size)]
        if len(self.labels) != self.size:
            raise ValueError("label count does not match group size")
        self.identity = self._find_identity()

    def _invert(self) -> None:
        """The read-only inverse table from the power map: x^(|G|-1) = x^-1
        (Lagrange).  It needs a group, so a given table is checked first."""
        self.inverse_table = _power_map(self, -1)
        self.inverse_table.flags.writeable = False

    def _find_identity(self) -> int:
        n = self.size
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        raise ValueError(f"{self.name}: no identity element")

    def _validate(self) -> None:
        n = self.size
        if self.table.min() < 0 or self.table.max() >= n:
            raise ValueError(f"{self.name}: table entries out of range")
        idx = np.arange(n)
        for a in range(n):
            if not np.array_equal(np.sort(self.table[a]), idx):
                raise ValueError(f"{self.name}: row {a} is not a permutation")
        for a in range(n):
            # (a*b)*c == a*(b*c) for all b, c, vectorized over the (b, c) plane
            left = self.table[self.table[a][:, None], np.arange(n)[None, :]]
            right = self.table[a][self.table]
            if not np.array_equal(left, right):
                raise ValueError(f"{self.name}: associativity fails at row {a}")

    # -- group-context protocol -------------------------------------------

    @property
    def identity_element(self) -> int:
        return self.identity

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def product(self, factors) -> int:
        """The product of `factors`, left to right: a fold through `table`."""
        acc = self.identity
        for a in factors:
            acc = self.table[acc, a]
        return int(acc)

    def inv(self, a: int) -> int:
        return int(self.inverse_table[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        acc = self.identity
        cur = a
        while k:
            if k & 1:
                acc = self.mul(acc, cur)
            k >>= 1
            if k:
                cur = self.mul(cur, cur)
        return acc

    def is_identity(self, a: int) -> bool:
        return a == self.identity

    def render_element(self, a: int) -> str:
        return self.labels[a]

    def element_key(self, a: int) -> int:
        return a

    # -- structure helpers ---------------------------------------------------

    def __len__(self):
        return self.size

    def elements(self):
        return range(self.size)

    def element_order(self, a: int) -> int:
        k = 1
        cur = a
        while cur != self.identity:
            cur = self.mul(cur, a)
            k += 1
        return k

    def element_by_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ParseError(f"{self.name} has no element labelled {label!r}") from None

    def constants(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def closure(self, subset) -> frozenset[int]:
        found = {self.identity}
        frontier = [self.identity]
        gens = sorted(set(subset))
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.mul(a, g)
                    if b not in found:
                        found.add(b)
                        nxt.append(b)
                    b = self.mul(g, a)
                    if b not in found:
                        found.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(found)

    def _members(self, subset) -> tuple[np.ndarray, np.ndarray]:
        """(sorted ids, membership mask) of `subset`."""
        members = np.array(sorted(set(subset)), dtype=np.int64)
        mask = np.zeros(self.size, dtype=bool)
        mask[members] = True
        return members, mask

    def is_subgroup(self, subset) -> bool:
        return self._is_closed(*self._members(subset))

    def _is_closed(self, members: np.ndarray, mask: np.ndarray) -> bool:
        """A finite subset is a subgroup iff it holds 1 and is closed under
        products; checked one row of products a*S at a time."""
        if not mask[self.identity]:
            return False
        return all(mask[self.table[a, members]].all() for a in members)

    def is_normal(self, subset) -> bool:
        """A subgroup N is normal iff gN = Ng for every g outside N.  Both
        cosets have |N| elements, so it is enough that gN lies in Ng, and
        Ng = (g^-1 N)^-1 as N is closed under inverses: both are read from
        rows of the table, one g at a time."""
        members, mask = self._members(subset)
        if not self._is_closed(members, mask):
            return False
        right = np.zeros(self.size, dtype=bool)
        for g in np.flatnonzero(~mask):
            coset = self.inverse_table[self.table[self.inverse_table[g], members]]
            right[coset] = True
            if not right[self.table[g, members]].all():
                return False
            right[coset] = False
        return True

    def center(self) -> list[int]:
        return [
            z
            for z in self.elements()
            if all(self.mul(z, g) == self.mul(g, z) for g in self.elements())
        ]

    def all_subgroups(self) -> list[frozenset[int]]:
        """Every subgroup, found by closing extensions of known subgroups."""
        found = {frozenset({self.identity})}
        frontier = [frozenset({self.identity})]
        while frontier:
            nxt = []
            for sub in frontier:
                for g in self.elements():
                    if g in sub:
                        continue
                    bigger = frozenset(self.closure(set(sub) | {g}))
                    if bigger not in found:
                        found.add(bigger)
                        nxt.append(bigger)
            frontier = nxt
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.size})"


# -- small-group catalog -----------------------------------------------------


def _check_order(name: str, order: int) -> None:
    """Refuse a group of more than `MAX_ORDER` elements before its table exists."""
    if order > MAX_ORDER:
        raise BudgetExceeded(
            f"{name} has order {order}, over the {MAX_ORDER}-element cap: "
            f"its table would take {order * order * 8} bytes"
        )


def _catalog_order(kind: str, n: int) -> int:
    """Order of the catalog group C<n>, D<n> or S<n>; ValueError for an n
    out of the catalog's range."""
    if kind == "C":
        if n < 1:
            raise ValueError("cyclic group order must be positive")
        return n
    if kind == "D":
        if n < 3:
            # below the triangle the n-gon degenerates
            raise ValueError("dihedral groups need n >= 3 (use C2 or V4 below that)")
        return 2 * n
    if not (1 <= n <= 5):
        raise ValueError("symmetric groups supported up to S5")
    return math.factorial(n)


def _fill_addition_table(out: np.ndarray, n: int, sign: int) -> None:
    """out[i, j] = (i + sign * j) mod n, written in place (no n*n temporary)."""
    idx = np.arange(n)
    (np.add if sign > 0 else np.subtract)(idx[:, None], idx[None, :], out=out)
    np.remainder(out, n, out=out)


def cyclic(n: int) -> FiniteGroup:
    _check_order(f"C{n}", _catalog_order("C", n))
    table = np.empty((n, n), dtype=np.int64)
    _fill_addition_table(table, n, 1)
    labels = [f"g{i}" for i in range(n)]
    labels[0] = "e"
    return FiniteGroup._by_construction(table, labels, name=f"C{n}")


def _cycle_label(perm) -> str:
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric(n: int) -> FiniteGroup:
    _catalog_order("S", n)  # the range check
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # the product p q applies q first
    table = np.array([[index[tuple(p[k] for k in q)] for q in perms] for p in perms], dtype=np.int64)
    labels = [_cycle_label(p) for p in perms]
    return FiniteGroup._by_construction(table, labels, name=f"S{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon).

    Element f*n + r is (f, r): the rotation by r, after the reflection
    k -> -k when f = 1.  (f1, r1)(f2, r2) = (f1 ^ f2, r1 + (-1)^f1 r2 mod n).
    Each n*n block of the table is written in place.
    """
    _check_order(f"D{n}", _catalog_order("D", n))
    table = np.empty((2 * n, 2 * n), dtype=np.int64)
    rotations, reflections = table[:n, :n], table[n:, n:]
    _fill_addition_table(rotations, n, 1)  # f1 = f2 = 0
    np.add(rotations, n, out=table[:n, n:])  # f1 = 0, f2 = 1
    _fill_addition_table(reflections, n, -1)  # f1 = f2 = 1
    np.add(reflections, n, out=table[n:, :n])  # f1 = 1, f2 = 0
    labels = ["e"] + [f"r{i}" for i in range(1, n)] + [f"s{i}" for i in range(n)]
    return FiniteGroup._by_construction(table, labels, name=f"D{n}")


def klein_four() -> FiniteGroup:
    g = direct_product(cyclic(2), cyclic(2))
    g.name = "V4"
    return g


_FACTOR = re.compile(r"([CDS])([0-9]+)|V4", re.IGNORECASE)
_CATALOG = {"C": cyclic, "D": dihedral, "S": symmetric}


def _resolve(name: str) -> tuple[int, list]:
    """(order, a builder per factor) of a catalog name, checked as in `small_group`."""
    text = name.strip()
    builders = []
    order = 1
    for part in re.split("[xX]", text):
        m = _FACTOR.fullmatch(part.strip())
        if m is None:
            raise ParseError(f"unknown group name {name!r}")
        if m.group(1) is None:
            builders.append(klein_four)
            order *= 4
            continue
        kind = m.group(1).upper()
        try:
            n = int(m.group(2))
            order *= _catalog_order(kind, n)
        except ValueError as exc:  # C0, D2, S6
            raise ParseError(f"group name {name!r}: {exc}") from None
        builders.append(partial(_CATALOG[kind], n))
    _check_order(text, order)
    return order, builders


def small_group_order(name: str) -> int:
    """The order of `small_group(name)`, read from the name alone."""
    return _resolve(name)[0]


def small_group(name: str) -> FiniteGroup:
    """Resolve catalog names: C<n>, D<n>, S<n>, V4, and x-products thereof.

    A malformed or out-of-range name raises ParseError; a group past
    `MAX_ORDER` raises BudgetExceeded, with the order read from the whole
    name, before any factor is built.
    """
    _, builders = _resolve(name)
    acc = reduce(direct_product, [build() for build in builders])
    if len(builders) > 1:
        acc.name = name.strip()
    return acc


# -- products ----------------------------------------------------------------


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (x, y) has id x*|B| + y.

    The table is written in place through its (x, y, x', y') view.
    """
    na, nb = a.size, b.size
    _check_order(f"{a.name}x{b.name}", na * nb)
    table = np.empty((na * nb, na * nb), dtype=np.int64)
    blocks = table.reshape(na, nb, na, nb)
    np.multiply(a.table[:, None, :, None], nb, out=blocks)
    np.add(blocks, b.table[None, :, None, :], out=blocks)
    labels = [f"({a.labels[x]},{b.labels[y]})" for x in range(na) for y in range(nb)]
    return FiniteGroup._by_construction(table, labels, name=f"{a.name}x{b.name}")


@dataclass
class WreathData:
    """A wreath product base^k ⋊ C_k plus its canonical base decomposition:
    base^k is the elements of shift 0 (ids 0, k, 2k, ...), the product of
    the two factors below."""

    group: FiniteGroup
    first_factor: tuple[int, ...]  # coordinate 0 copy of the base group
    rest_factor: tuple[int, ...]  # coordinates 1..k-1


def wreath_product(top_order: int, base: FiniteGroup) -> WreathData:
    """base wr C_k with the cyclic top rotating coordinates.

    Element ((b_0, ..., b_{k-1}), s) has id f*k + s, where f is the id of
    (b_0, ..., b_{k-1}) in the direct power base^k.  Coordinate c of
    (f, s)(g, u) is f_c g_{(c-s) mod k}, so block (s, u) of the table is
    the power's table with its columns rotated by s digits, times k, plus
    (s + u) mod k; each block is written in place.
    """
    k = top_order
    if k < 1:
        raise ValueError("top order must be positive")
    name = f"{base.name}wrC{k}"
    # the order is at least k, so a top past the cap is refused before nb**k is computed
    _check_order(f"{name}'s top C{k}", k)
    nb = base.size
    m = nb**k
    total = m * k
    _check_order(name, total)
    power = reduce(direct_product, [base] * k).table
    table = np.empty((total, total), dtype=np.int64)
    blocks = table.reshape(m, k, m, k)
    g = np.arange(m)
    for s in range(k):
        rotated = g % nb**s * nb ** (k - s) + g // nb**s
        first = blocks[:, s, :, 0]
        # mode="clip" writes straight into `out`; the default buffers a copy
        np.take(power, rotated, axis=1, out=first, mode="clip")
        np.multiply(first, k, out=first)
        for u in range(k - 1, -1, -1):  # block u = 0 last: it is the source
            np.add(first, (s + u) % k, out=blocks[:, s, :, u])
    labels = [
        "(" + ",".join(base.labels[b] for b in f) + f";{s})"
        for f in product(range(nb), repeat=k) for s in range(k)
    ]
    # coordinate 0 has place value nb^(k-1) in base^k, and (e, ..., e) has
    # id e*(1 + nb + ... + nb^(k-2)) in base^(k-1)
    place = nb ** (k - 1)
    rest_identity = base.identity * sum(nb**j for j in range(k - 1))
    return WreathData(
        group=FiniteGroup._by_construction(table, labels, name=name),
        first_factor=tuple((b * place + rest_identity) * k for b in range(nb)),
        rest_factor=tuple((base.identity * place + r) * k for r in range(place)),
    )


# -- identity checks ----------------------------------------------------------


@dataclass
class MixedIdentityVerdict:
    holds: bool
    counterexample: dict | None
    substitutions_checked: int

    def to_json_dict(self, group: FiniteGroup, word: "mw.MixedWord") -> dict:
        out = {
            "word": word.render(),
            "group": group.name,
            "verdict": self.holds,
            "substitutions_checked": self.substitutions_checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = {
                f"x{v}": group.render_element(e) for v, e in self.counterexample.items()
            }
        return out


def is_mixed_identity(word: "mw.MixedWord", group: FiniteGroup) -> MixedIdentityVerdict:
    """Exhaustively decide whether word = 1 holds under every substitution.

    Each block of substitutions costs one 1-D gather per syllable after the
    first: the running product `acc` starts as the first syllable's values,
    a constant c multiplies through column c of the table, and a variable
    value v through the flat cell acc*n + v.  A variable x_i^e substitutes
    the digits of x_i themselves for e = 1, their inverses for e = -1 and
    a power map, with e reduced mod |G|, for any other e.  The
    counterexample, when one exists, is the lexicographically first
    assignment in element-id order.
    """
    if word.group is not group:
        raise ValueError("word constants are not resolved in this group")
    ids = word.variable_ids
    nvars = len(ids)
    n = group.size
    check_assignments(n, nvars)
    if nvars == 0:
        val = word.constant_value()
        holds = group.is_identity(val)
        return MixedIdentityVerdict(holds, None if holds else {}, 1)
    table = group.table
    cells = table.ravel()
    inverse = group.inverse_table
    powers = {
        s[2]: _power_map(group, s[2])
        for s in word.syllables if s[0] == mw.VAR and s[2] not in (1, -1)
    }
    first, *rest = word.syllables
    total = n**nvars
    # substitution k assigns ids[p] the base-n digit of k at place nvars-1-p
    place = {vid: n ** (nvars - 1 - p) for p, vid in enumerate(ids)}

    def values(s, digits):
        """The value vector of variable syllable s on a block with these digits."""
        x = digits[s[1]]
        return x if s[2] == 1 else inverse[x] if s[2] == -1 else powers[s[2]][x]

    for start in range(0, total, VERDICT_BLOCK):
        flat = np.arange(start, min(start + VERDICT_BLOCK, total))
        # one variable: n <= MAX_ORDER < VERDICT_BLOCK, so its digits are `flat`
        digits = {ids[0]: flat} if nvars == 1 else {vid: flat // place[vid] % n for vid in ids}
        # `acc` is always an array of its own: the in-place steps below never
        # write into `digits`, `flat` or a power map
        acc = np.full(flat.shape, first[1]) if first[0] == mw.CONST else values(first, digits).copy()
        for s in rest:
            if s[0] == mw.CONST:
                acc = table[:, s[1]][acc]
            else:
                np.multiply(acc, n, out=acc)
                np.add(acc, values(s, digits), out=acc)
                acc = cells.take(acc)
        bad = np.flatnonzero(acc != group.identity)
        if bad.size:
            hit = int(bad[0])
            assignment = {vid: int(digits[vid][hit]) for vid in ids}
            return MixedIdentityVerdict(False, assignment, start + hit + 1)
    return MixedIdentityVerdict(True, None, total)


def check_assignments(order: int, nvars: int) -> None:
    """Refuse a verdict over more than `ASSIGNMENT_LIMIT` substitutions."""
    if order ** max(nvars, 1) > ASSIGNMENT_LIMIT:
        raise BudgetExceeded(f"{order}^{nvars} substitutions exceed the assignment cap")


def _power_map(group: FiniteGroup, e: int) -> np.ndarray:
    """x -> x^e for every element x, by repeated squaring on whole vectors.

    x^|G| = 1 (Lagrange), so x^e = x^(e mod |G|): a negative or huge e,
    such as the factorial identity's |N|!, costs at most log2 |G| squarings.
    """
    table = group.table
    cur = np.arange(group.size)
    acc = np.full(group.size, group.identity)
    k = e % group.size
    while k:
        if k & 1:
            acc = table[acc, cur]
        k >>= 1
        if k:
            cur = table[cur, cur]
    return acc


def factorial_identity_check(group: FiniteGroup, normal_subset, g: int) -> bool:
    """Decide [x^{n!}, g] = 1 for all x, where n = |N| and g in N \\ {1}.

    N must be a normal subgroup containing the nontrivial g; this is the
    canned identity every group with a finite normal subgroup satisfies.
    """
    sub = set(normal_subset)
    if not group.is_normal(sub):
        raise ValueError("N is not a normal subgroup")
    if g not in sub or group.is_identity(g):
        raise ValueError("g must be a nontrivial element of N")
    x = mw.variable(group, 1, math.factorial(len(sub)))
    return is_mixed_identity(mw.commutator(x, mw.constant(group, g)), group).holds
