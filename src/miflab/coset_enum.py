"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT-style relator scanning with immediate coincidence handling: dead
cosets go through a union-find and are processed from a FIFO queue.  Row
filling is deterministic (lowest live coset first, columns in fixed
order), and the finished table is compressed and renumbered by a
breadth-first sweep in letter order, so the numbering and the shortlex
words are independent of the enumeration history.

Scanning costs (cosets) x (total relator length), so every relator is
cyclically reduced first and only one relator of each class up to cyclic
rotation and inversion is scanned: a relator closed at every coset closes
its conjugates and its inverse as well, so the finished table is the same.
The working table is stored column by column (one growing list per
column), and each relator is compiled to the column lists it walks, so a
scan step is a single index operation.

The completed table is the regular representation of the presented
group: cosets are group elements, and tracing a word from the identity
coset multiplies by that word.  Column order is a_0 < a_0^-1 < a_1 <
a_1^-1 < ... (column 2*pos for a generator, 2*pos+1 for its inverse).
The table is kept once, as an int32 array; the shortlex word of a coset
is read off the parent chain of the breadth-first sweep on demand.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, VerificationError
from .presentations import Presentation

Letters = tuple  # sequence of (position, sign)


def column(pos: int, sign: int) -> int:
    return 2 * pos + (0 if sign > 0 else 1)


def letters_to_columns(letters) -> tuple[int, ...]:
    return tuple(column(pos, s) for pos, s in letters)


@dataclass(frozen=True)
class EnumStats:
    """Deterministic work counters of one enumeration."""

    relators_scanned: int  # relators left after reduction and deduplication
    defined: int  # cosets defined besides the identity coset
    coincidences: int  # cosets merged away
    scans: int  # (coset, relator) scans
    peak_live: int  # most live cosets at any time


class CosetTable:
    """Complete coset action of a window-group presentation.

    `action[x][c]` (one int32 array) is the image of coset c under column
    x.  `parent[c]` and `via[c]` are the coset and column from which the
    sweep in column order first reached c; `word(c)` and `words()` derive
    shortlex words from them.  `stats` holds the counters of the
    enumeration that built the table, and is None for one loaded from disk.
    """

    def __init__(self, presentation: Presentation, action, stats: EnumStats | None = None):
        self.presentation = presentation
        self.action = np.asarray(action, dtype=np.int32)
        self.stats = stats
        self.coset_count = n = self.action.shape[1]
        self.identity_coset = 0
        order, parent, via = _bfs(self.action, n, 0)
        if len(order) != n:
            raise VerificationError(
                f"coset table leaves {n - len(order)} of {n} cosets unreachable from the identity"
            )
        self.parent, self.via = np.empty((2, n), dtype=np.int32)
        self.parent[order], self.via[order] = parent, via
        # zero-copy views: indexing one yields a Python int
        self._rows = [memoryview(row) for row in self.action]
        self._parent = memoryview(self.parent)
        self._via = memoryview(self.via)

    # -- canonical shortlex words ------------------------------------

    def word(self, coset: int) -> Letters:
        """Shortlex word of `coset`: its parent chain, read backwards."""
        parent, via = self._parent, self._via
        out = []
        while coset != self.identity_coset:
            x = via[coset]
            out.append((x >> 1, -1 if x & 1 else 1))
            coset = parent[coset]
        out.reverse()
        return tuple(out)

    def words(self) -> tuple[Letters, ...]:
        """Shortlex word of every coset, in coset order (built on each call)."""
        return tuple(map(self.word, range(self.coset_count)))

    # -- queries ------------------------------------------------------

    def trace(self, coset: int, letters) -> int:
        cols = self._rows
        for pos, s in letters:
            coset = cols[column(pos, s)][coset]
        return coset

    def trace_word(self, letters) -> int:
        return self.trace(self.identity_coset, letters)

    def multiply(self, u, v) -> int:
        """Coset reached from the identity by tracing u then v."""
        return self.trace(self.trace_word(u), v)

    def normal_form(self, letters) -> Letters:
        return self.word(self.trace_word(letters))

    def element_order(self, letters) -> int:
        """Least k >= 1 with u^k at the identity coset."""
        c = self.identity_coset
        k = 0
        cols = self._rows
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
            "action": self.action.tolist(),
        }

    @classmethod
    def from_json_dict(cls, presentation: Presentation, data) -> "CosetTable":
        """Rebuild a table from `to_json_dict` output, refusing corrupt data.

        Checks, all O(n): one column per generator and inverse, `coset_count`
        integer entries in each, and every column the inverse of its
        partner (so each is a permutation).  Relators are not re-checked.
        """

        def corrupt(why: str) -> VerificationError:
            return VerificationError(f"corrupt coset table data: {why}")

        if not isinstance(data, dict) or "coset_count" not in data or "action" not in data:
            raise corrupt("coset_count or action is missing")
        n = data["coset_count"]
        cols = data["action"]
        ncols = 2 * presentation.generator_count
        if type(n) is not int or n < 1:
            raise corrupt(f"coset_count {n!r} is not a positive integer")
        if not isinstance(cols, list) or len(cols) != ncols:
            raise corrupt(f"expected {ncols} columns")
        action = np.empty((ncols, n), dtype=np.int32)
        for x, col in enumerate(cols):
            try:
                arr = np.asarray(col)
            except ValueError:
                raise corrupt(f"column {x} is not a flat list") from None
            if arr.shape != (n,):
                raise corrupt(f"column {x} has shape {arr.shape}, expected ({n},)")
            if arr.dtype.kind not in "iu":
                raise corrupt(f"column {x} holds non-integer entries")
            if arr.min() < 0 or arr.max() >= n:
                raise corrupt(f"column {x} has an entry outside [0, {n})")
            action[x] = arr
        idx = np.arange(n)
        for x in range(0, ncols, 2):
            if not np.array_equal(action[x + 1][action[x]], idx):
                raise corrupt(f"columns {x} and {x + 1} are not inverse permutations")
        return cls(presentation, action)


def _bfs(columns: np.ndarray, n: int, root: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first sweep from `root` over points 0..n-1, where the
    (columns, points) array `columns` maps c to columns[x][c] under column x.

    Returns the points reached, in order of first discovery by
    (discoverer's place in that order, column), and for each the point and
    the column it was first reached from (-1 for the root).  Runs one BFS
    level per numpy pass.
    """
    ncols = len(columns)
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    first = np.empty(n, dtype=np.int64)  # first place of a candidate in `found`
    level = np.array([root], dtype=np.int64)
    reached, parents, via = [level], [np.array([-1])], [np.array([-1])]
    while ncols:  # without columns only the root is reached
        # candidates in order of (discoverer, column)
        found = columns[:, level].T.ravel()
        fresh = np.flatnonzero(~seen[found])
        if not fresh.size:
            break
        cand = found[fresh]
        first[cand] = found.size
        np.minimum.at(first, cand, fresh)
        pick = fresh[first[cand] == fresh]
        parents.append(level[pick // ncols])
        via.append(pick % ncols)
        level = found[pick]
        seen[level] = True
        reached.append(level)
    return np.concatenate(reached), np.concatenate(parents), np.concatenate(via)


def _cyclically_reduced(letters) -> tuple[int, ...]:
    """Column word of a letter sequence, freely and then cyclically reduced."""
    out: list[int] = []
    for pos, sign in letters:
        x = 2 * pos + (sign < 0)
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i += 1
        j -= 1
    return tuple(out[i : j + 1])


def _least_rotation(s: str) -> str:
    """The least cyclic rotation of a word written one character per column."""
    twice = s + s
    n = len(s)
    low = min(s)  # the least rotation starts at an occurrence of the least letter
    k = s.find(low)
    best = twice[k : k + n]
    k = s.find(low, k + 1)
    while k >= 0:
        best = min(best, twice[k : k + n])
        k = s.find(low, k + 1)
    return best


def scan_relators(pres: Presentation) -> list[tuple[int, ...]]:
    """Relators the enumerator scans, as column words.

    Every relator is cyclically reduced; of each class up to cyclic
    rotation and inversion only the first is kept, and relators that
    reduce to the empty word are dropped.  A relator that closes at every
    coset of a complete table closes its rotations, its inverse and its
    conjugates too, so the kept set has the same normal closure.
    """
    inverse = {x: x ^ 1 for x in range(2 * pres.generator_count)}
    kept = []
    seen = set()
    for rel in pres.relators:
        w = _cyclically_reduced(rel)
        if not w:
            continue
        s = "".join(map(chr, w))
        key = min(_least_rotation(s), _least_rotation(s[::-1].translate(inverse)))
        if key not in seen:
            seen.add(key)
            kept.append(w)
    return kept


def _coincide(cols: list[list[int]], uf: list[int], a: int, b: int) -> int:
    """Merge cosets a and b and everything their rows force; return the number killed."""

    def rep(k: int) -> int:
        l = k
        while uf[l] != l:
            l = uf[l]
        while uf[k] != l:
            uf[k], k = l, uf[k]
        return l

    q: deque = deque()

    def merge(k: int, l: int) -> None:
        k = rep(k)
        l = rep(l)
        if k != l:
            if k > l:
                k, l = l, k
            uf[l] = k
            q.append(l)

    merge(a, b)
    killed = 0
    while q:
        g = q.popleft()
        killed += 1
        for x, col in enumerate(cols):
            d = col[g]
            if d:
                inv = cols[x ^ 1]
                inv[d] = 0
                mu = rep(g)
                nu = rep(d)
                t1 = col[mu]
                if t1:
                    merge(nu, t1)
                else:
                    t2 = inv[nu]
                    if t2:
                        merge(mu, t2)
                    else:
                        col[mu] = nu
                        inv[nu] = mu
    return killed


def enumerate_presentation(pres: Presentation, max_cosets: int = 1_000_000) -> CosetTable:
    """Run the enumeration to completion and return the collapsed table.

    Raises CapacityExceeded if the live-coset count would exceed
    `max_cosets`; a partial table is never returned.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    # the working table is freed before the CosetTable sweeps its action
    action, stats = _enumerate(pres, max_cosets)
    return CosetTable(pres, action, stats)


def _enumerate(pres: Presentation, max_cosets: int) -> tuple[np.ndarray, EnumStats]:
    """HLT enumeration; the canonical int32 action array and the work counters."""
    ncols = 2 * pres.generator_count
    rels = scan_relators(pres)

    # column-major table: cols[x][c] is the image of coset c under column x.
    # Coset 0 is a sink that stands for "undefined": every column maps it to
    # itself, so a trace through an undefined entry ends at 0.  The identity
    # coset is 1.
    cols: list[list[int]] = [[0, 0] for _ in range(ncols)]
    uf = [0, 1]
    # each relator as its columns (forward scan) and their inverses (backward scan)
    compiled = [
        (tuple(cols[x] for x in w), tuple(cols[x ^ 1] for x in w), len(w) - 1)
        for w in rels
    ]
    live = peak = 1
    scans = 0

    def define(col: list[int], inv: list[int], a: int) -> None:
        """New coset as the image of a in `col` (`inv` is its inverse column)."""
        nonlocal live, peak
        if live >= max_cosets:
            raise CapacityExceeded(
                f"live coset count would exceed max_cosets={max_cosets} "
                f"for window {pres.window} (p={pres.p}, c={pres.c.spec()})"
            )
        n = len(uf)
        uf.append(n)
        for c in cols:
            c.append(0)
        col[a] = n
        inv[n] = a
        live += 1
        peak = max(peak, live)

    alpha = 1
    while alpha < len(uf):
        if uf[alpha] == alpha:
            for fwd, bwd, last in compiled:
                scans += 1
                f = alpha
                for col in fwd:
                    f = col[f]
                if f:
                    # the relator traces through defined entries only
                    if f != alpha:
                        live -= _coincide(cols, uf, f, alpha)
                        if uf[alpha] != alpha:
                            break
                    continue
                # HLT scan of the relator at alpha, defining cosets as needed
                f = b = alpha
                i = 0
                j = last
                while True:
                    while i <= j:
                        n = fwd[i][f]
                        if not n:
                            break
                        f = n
                        i += 1
                    if i > j:
                        if f != b:
                            live -= _coincide(cols, uf, f, b)
                        break
                    while j >= i:
                        n = bwd[j][b]
                        if not n:
                            break
                        b = n
                        j -= 1
                    if j < i:
                        live -= _coincide(cols, uf, f, b)
                        break
                    if j == i:
                        fwd[i][f] = b
                        bwd[i][b] = f
                        break
                    define(fwd[i], bwd[i], f)
                if uf[alpha] != alpha:
                    break
            else:
                for x, col in enumerate(cols):
                    if not col[alpha]:
                        define(col, cols[x ^ 1], alpha)
        alpha += 1

    # every union-find parent precedes its child, so pointer jumping
    # reaches the representatives in a few passes
    reps = np.asarray(uf, dtype=np.int32)
    while True:
        up = reps[reps]
        if np.array_equal(up, reps):
            break
        reps = up
    image = np.empty((ncols, len(uf)), dtype=np.int32)
    for x, col in enumerate(cols):
        image[x] = reps[col]
        col.clear()  # free each working column once copied: lowers peak memory

    # canonical renumbering: BFS from the identity coset in column order
    order = _bfs(image, len(uf), int(reps[1]))[0]
    if len(order) != live:
        raise VerificationError(
            f"enumeration left {live - len(order)} unreachable live cosets"
        )
    new = np.empty(len(uf), dtype=np.int32)
    new[order] = np.arange(live)
    action = new[image[:, order]]
    defined = len(uf) - 2  # neither the sink nor the identity coset
    stats = EnumStats(
        relators_scanned=len(rels),
        defined=defined,
        coincidences=defined + 1 - live,
        scans=scans,
        peak_live=peak,
    )
    return action, stats
