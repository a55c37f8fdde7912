"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT-style relator scanning with immediate coincidence handling: dead
cosets go through a union-find and are processed from a FIFO queue.  Row
filling is deterministic (lowest live coset first, columns in fixed
order), and the finished table is compressed and renumbered by a
breadth-first sweep in letter order, so the numbering and the stored
shortlex words are independent of the enumeration history.

The completed table is the regular representation of the presented
group: cosets are group elements, and tracing a word from the identity
coset multiplies by that word.  Column order is
a_0 < a_0^-1 < a_1 < a_1^-1 < ... (column 2*pos for a generator, 2*pos+1
for its inverse).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import CapacityExceeded, VerificationError
from .presentations import Presentation, invert_word

Letters = tuple  # sequence of (position, sign)


def column(pos: int, sign: int) -> int:
    return 2 * pos + (0 if sign > 0 else 1)


def letters_to_columns(letters) -> tuple[int, ...]:
    return tuple(column(pos, s) for pos, s in letters)


class CosetTable:
    """Complete coset action of a window-group presentation."""

    def __init__(self, presentation: Presentation, action: list[np.ndarray]):
        self.presentation = presentation
        self.action = action
        self.coset_count = int(action[0].shape[0]) if action else 1
        self.identity_coset = 0
        self._action_lists = [col.tolist() for col in action]
        self.words = self._derive_words()

    # -- canonical shortlex words ------------------------------------

    def _derive_words(self) -> tuple[Letters, ...]:
        """Shortlex word for every coset, by BFS in column order.

        The canonical numbering makes coset ids ascend in shortlex order,
        so words[c] is found on first visit.
        """
        n = self.coset_count
        ncols = len(self.action)
        cols = self._action_lists
        words: list = [None] * n
        words[0] = ()
        order = [0]
        qi = 0
        while qi < len(order):
            cur = order[qi]
            qi += 1
            w = words[cur]
            for x in range(ncols):
                nxt = cols[x][cur]
                if words[nxt] is None:
                    words[nxt] = w + ((x >> 1, -1 if x & 1 else 1),)
                    order.append(nxt)
        if len(order) != n:
            raise VerificationError(
                f"coset table leaves {n - len(order)} of {n} cosets unreachable from the identity"
            )
        return tuple(words)

    # -- queries ------------------------------------------------------

    def trace(self, coset: int, letters) -> int:
        cols = self._action_lists
        for pos, s in letters:
            coset = cols[column(pos, s)][coset]
        return coset

    def trace_word(self, letters) -> int:
        return self.trace(self.identity_coset, letters)

    def multiply(self, u, v) -> int:
        """Coset reached from the identity by tracing u then v."""
        return self.trace(self.trace_word(u), v)

    def normal_form(self, letters) -> Letters:
        return self.words[self.trace_word(letters)]

    def element_order(self, letters) -> int:
        """Least k >= 1 with u^k at the identity coset."""
        c = self.identity_coset
        k = 0
        cols = self._action_lists
        word = letters_to_columns(letters)
        while True:
            for x in word:
                c = cols[x][c]
            k += 1
            if c == self.identity_coset:
                return k
            if k > self.coset_count:
                raise RuntimeError("element order exceeded the group order")

    # -- validation ---------------------------------------------------

    def relator_violations(self) -> int:
        """Number of (coset, relator) pairs whose trace does not close.

        Zero for any table produced by `enumerate_presentation`.
        """
        idx = np.arange(self.coset_count, dtype=np.int64)
        bad = 0
        for rel in self.presentation.relators:
            v = idx
            for pos, s in rel:
                v = self.action[column(pos, s)][v]
            bad += int(np.count_nonzero(v != idx))
        return bad

    def columns_are_permutations(self) -> bool:
        idx = np.arange(self.coset_count, dtype=np.int64)
        return all(
            np.array_equal(np.sort(col), idx) for col in self.action
        )

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "coset_count": self.coset_count,
            "action": [col.tolist() for col in self.action],
        }

    @classmethod
    def from_json_dict(cls, presentation: Presentation, data: dict) -> "CosetTable":
        action = [np.asarray(col, dtype=np.int64) for col in data["action"]]
        table = cls(presentation, action)
        if table.coset_count != data["coset_count"]:
            raise ValueError("corrupt coset table data")
        return table


def enumerate_presentation(pres: Presentation, max_cosets: int = 1_000_000) -> CosetTable:
    """Run the enumeration to completion and return the collapsed table.

    Raises CapacityExceeded if the live-coset count would exceed
    `max_cosets`; a partial table is never returned.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    ngens = pres.generator_count
    ncols = 2 * ngens
    rels = []
    seen = set()
    for rel in pres.relators:
        w = letters_to_columns(rel)
        if w not in seen:
            seen.add(w)
            rels.append(w)

    table: list[list[int]] = [[-1] * ncols]
    uf = [0]
    live = 1

    def rep(k: int) -> int:
        l = k
        while uf[l] != l:
            l = uf[l]
        while uf[k] != l:
            uf[k], k = l, uf[k]
        return l

    def define(a: int, x: int) -> None:
        nonlocal live
        if live >= max_cosets:
            raise CapacityExceeded(
                f"live coset count would exceed max_cosets={max_cosets} "
                f"for window {pres.window} (p={pres.p}, c={pres.c.spec()})"
            )
        n = len(table)
        table.append([-1] * ncols)
        uf.append(n)
        live += 1
        table[a][x] = n
        table[n][x ^ 1] = a

    def coincidence(a: int, b: int) -> None:
        nonlocal live
        q = deque()

        def merge(k: int, l: int) -> None:
            nonlocal live
            k = rep(k)
            l = rep(l)
            if k != l:
                if k > l:
                    k, l = l, k
                uf[l] = k
                live -= 1
                q.append(l)

        merge(a, b)
        while q:
            g = q.popleft()
            row = table[g]
            for x in range(ncols):
                d = row[x]
                if d != -1:
                    table[d][x ^ 1] = -1
                    mu = rep(g)
                    nu = rep(d)
                    t1 = table[mu][x]
                    if t1 != -1:
                        merge(nu, t1)
                    else:
                        t2 = table[nu][x ^ 1]
                        if t2 != -1:
                            merge(mu, t2)
                        else:
                            table[mu][x] = nu
                            table[nu][x ^ 1] = mu

    def scan_and_fill(a: int, word) -> None:
        f = a
        i = 0
        b = a
        j = len(word) - 1
        while True:
            while i <= j:
                n = table[f][word[i]]
                if n == -1:
                    break
                f = n
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                n = table[b][word[j] ^ 1]
                if n == -1:
                    break
                b = n
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):
        if uf[alpha] == alpha:
            for w in rels:
                scan_and_fill(alpha, w)
                if uf[alpha] != alpha:
                    break
            if uf[alpha] == alpha:
                row = table[alpha]
                for x in range(ncols):
                    if row[x] == -1:
                        define(alpha, x)
        alpha += 1

    # canonical renumbering: BFS from the identity coset in column order
    root = rep(0)
    idx_of = {root: 0}
    order = [root]
    qi = 0
    while qi < len(order):
        c = order[qi]
        row = table[c]
        qi += 1
        for x in range(ncols):
            d = rep(row[x])
            if d not in idx_of:
                idx_of[d] = len(order)
                order.append(d)
    if len(order) != live:
        raise VerificationError(
            f"enumeration left {live - len(order)} unreachable live cosets"
        )

    action = []
    for x in range(ncols):
        col = np.empty(live, dtype=np.int64)
        for new_c, old_c in enumerate(order):
            col[new_c] = idx_of[rep(table[old_c][x])]
        action.append(col)
    return CosetTable(pres, action)
