"""Todd-Coxeter coset enumeration of the presentations of the groups B(T).

A group B(T) retracts onto B(T'), T' being T without its last index:
setting the last generator to 1 leaves every relator that involves it
freely trivial.  So the subgroup H generated by the other generators is
a copy of the group one generator down, and B is enumerated as the [B:H]
cosets of H.  H's table is the `below` table the caller passes (a limit
group builds the prefixes of T in order, so it holds that table already
and no group is enumerated twice), or else it is built the same way,
recursively.  B acts on the pairs (coset Hg, retraction of g)
coordinatewise; that action is transitive on [B:H] * |H| points, so it
is the regular one.  A presentation without that retraction (a hand-made
one, say) is enumerated over the trivial subgroup instead.  For (3, "2")
on [0, 3] this is 81 cosets of a group of order 729 instead of 59,049
elements, and 2,268 relator scans instead of 1,653,372.  The cap
`max_cosets` bounds live cosets times |H|, so a group whose index is too
large is refused while the working table is still small.

HLT-style relator scanning with immediate coincidence handling: dead
cosets go through a union-find and are processed from a FIFO queue.  Row
filling is deterministic (lowest live coset first, columns in fixed
order), and every finished table is compressed and renumbered by a
breadth-first sweep in letter order, so the numbering and the shortlex
words are independent of the enumeration history and of the subgroup.

Scanning costs (cosets) x (total relator length), so every relator is
cyclically reduced first and only one relator of each class up to cyclic
rotation and inversion is scanned: a relator closed at every coset closes
its conjugates and its inverse as well, so the finished table is the same.
The working table is stored column by column (one growing list per
column), and each relator is compiled to the column lists it walks, so a
scan step is a single index operation.

The completed table is the regular representation of the presented
group: cosets are group elements, coset 0 is the identity, and tracing a
word from it multiplies by that word.  Column order is a_0 < a_0^-1 < a_1
< a_1^-1 < ... (column 2*pos for a generator, 2*pos+1 for its inverse).
Tables take and return column words, sequences of those columns; only
relators, in (pos, sign) letters, are converted, by `_cyclically_reduced`.
The table is kept once, as a row-major int32 array (each column of the
action contiguous), and the same array is the on-disk cache format.  It
is built in place: the lift writes the pair action into the array that
becomes the table, and the renumbering rewrites that array one row at a
time, so building a lifted table peaks at under twice its size (1.6-1.8x
on (3, "2") w3, (2, "1,2") w5 and (3, "1,2") w4, under tracemalloc).
`CosetTable` checks every action it is given, built or loaded: entries
in range, inverse column pairs, canonical breadth-first numbering.  The
shortlex word of a coset is read off its parent chain (each coset's least
(preimage, column) pair) on demand.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, VerificationError
from .presentations import DEFAULT_MAX_COSETS, IndexSet, Presentation

BFS_BLOCK = 2**14  # candidates the renumbering sweep examines per numpy pass

@dataclass(frozen=True)
class EnumStats:
    """Deterministic work counters of the top-level coset enumeration of a
    table: the cosets of the subgroup one generator down, or of the
    trivial subgroup."""

    relators_scanned: int  # relators left after reduction and deduplication
    defined: int  # cosets defined besides the identity coset
    coincidences: int  # cosets merged away
    scans: int  # (coset, relator) scans
    peak_live: int  # most live cosets at any time
    subgroup_order: int  # order of that subgroup (1 if trivial)


class CosetTable:
    """Complete coset action of the presentation of a group B(T).

    `action[x][c]` (one row-major int32 array) is the image of coset c
    under column x; the table keeps that array (a row-major int32 array it
    is given is kept as it is, any other is copied to one) and makes it
    read-only, so the action stays the one that was checked.  The
    constructor, for built and loaded tables alike, refuses
    with VerificationError an action that is not a 2-D integer array with
    one row per column and entries in [0, n), whose columns are not
    inverse pairs, or whose numbering is not the canonical breadth-first
    one.
    `parent[c]` and `via[c]` are the least (preimage, column) pair of c,
    where the sweep in column order from coset 0, the identity, first
    reaches it; the numbering is canonical iff parent[c] < c for c >= 1
    and the keys parent * ncols + via strictly increase.  `word(c)` and
    `words()` derive shortlex column words from them; `trace`,
    `normal_form` and `element_order` take column words.  `stats` holds
    the counters of the enumeration that built the table, and is None for
    one loaded from disk; `relators`, if given, are the presentation's
    scan relators, as that enumeration computed them.
    """

    def __init__(
        self,
        presentation: Presentation,
        action,
        stats: EnumStats | None = None,
        relators: list[tuple[int, ...]] | None = None,
    ):
        def corrupt(why: str) -> VerificationError:
            return VerificationError(f"corrupt coset table: {why}")

        action = np.asarray(action)
        ncols = 2 * presentation.generator_count
        if action.ndim != 2 or action.shape[0] != ncols or not action.shape[1]:
            raise corrupt(f"shape {action.shape} is not ({ncols}, n) with n >= 1")
        if action.dtype.kind not in "iu":
            raise corrupt(f"entries of dtype {action.dtype} are not integers")
        n = action.shape[1]
        if action.min() < 0 or action.max() >= n:
            raise corrupt(f"an entry lies outside [0, {n})")
        self.presentation = presentation
        self.action = action = np.ascontiguousarray(action, dtype=np.int32)
        action.flags.writeable = False
        self.stats = stats
        self._relators = relators
        self.coset_count = n
        # one int64 scratch vector serves every per-row pass below
        scratch = np.empty(n, dtype=np.int64)
        inverse = scratch.view(np.int32)[:n]
        idx = np.arange(n, dtype=np.int32)
        for x in range(0, ncols, 2):
            # entries are in range (checked above); "clip" writes `out` unbuffered
            np.take(action[x + 1], action[x], out=inverse, mode="clip")
            if not np.array_equal(inverse, idx):
                raise corrupt(f"columns {x} and {x + 1} are not inverse permutations")
        # the least (preimage, column) key of each coset; the preimage of c
        # under column x is its image under the partner column x ^ 1
        key = action[1].astype(np.int64)
        key *= ncols
        for x in range(1, ncols):
            np.multiply(action[x ^ 1], ncols, out=scratch)
            scratch += x
            np.minimum(key, scratch, out=key)
        np.floor_divide(key, ncols, out=scratch)
        unreached = np.any(scratch[1:] >= idx[1:])
        del idx
        self.parent = scratch.astype(np.int32)
        np.remainder(key, ncols, out=scratch)
        self.via = scratch.astype(np.int32)
        self.parent[0] = self.via[0] = -1
        if unreached or np.any(key[2:] <= key[1:-1]):
            raise corrupt(
                "cosets are unreachable from the identity or not in canonical breadth-first order"
            )
        # zero-copy views: indexing one yields a Python int
        self._rows = [memoryview(row) for row in action]
        self._parent = memoryview(self.parent)
        self._via = memoryview(self.via)

    @property
    def scan_relators(self) -> list[tuple[int, ...]]:
        """`scan_relators(presentation)`: kept from the enumeration that
        built the table, else computed on first use and kept."""
        if self._relators is None:
            self._relators = scan_relators(self.presentation)
        return self._relators

    # -- canonical shortlex words ------------------------------------

    def word(self, coset: int) -> tuple[int, ...]:
        """Shortlex column word of `coset`: its parent chain, read backwards."""
        parent, via = self._parent, self._via
        out = []
        while coset:
            out.append(via[coset])
            coset = parent[coset]
        out.reverse()
        return tuple(out)

    def words(self) -> tuple[tuple[int, ...], ...]:
        """Shortlex column word of every coset, in coset order (built on each call)."""
        return tuple(map(self.word, range(self.coset_count)))

    # -- queries ------------------------------------------------------

    def trace(self, word, coset: int = 0) -> int:
        """The image of `coset` (the identity coset 0 by default) under `word`."""
        cols = self._rows
        for x in word:
            coset = cols[x][coset]
        return coset

    def normal_form(self, word) -> tuple[int, ...]:
        return self.word(self.trace(word))

    def element_order(self, word) -> int:
        """Least k >= 1 with word^k at the identity coset.

        Every column is a permutation (the constructor checks the inverse
        pairs, and the action is read-only), so the word permutes the cosets
        and the orbit of the identity coset closes within `coset_count` steps.
        """
        c = 0
        k = 0
        cols = self._rows
        while True:
            for x in word:
                c = cols[x][c]
            k += 1
            if not c:
                return k

    # -- validation ---------------------------------------------------

    def relator_violations(self) -> int:
        """Number of (coset, scan relator) pairs whose trace does not close.

        The scan relators (`scan_relators`) have the normal closure of the
        presentation's relators, so the count is zero iff every relator
        closes at every coset; it is zero for any table produced by
        `enumerate_presentation`.
        """
        idx = np.arange(self.coset_count, dtype=np.int32)
        bad = 0
        for rel in self.scan_relators:
            v = idx
            for x in rel:
                v = self.action[x][v]
            bad += int(np.count_nonzero(v != idx))
        return bad


def _bfs(columns: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first sweep from `root` over the points 0..n-1 of the
    (columns, n) array `columns`, which maps c to columns[x][c] under
    column x.

    Returns the points reached, in order of first discovery by
    (discoverer's place in that order, column).  The returned array is
    also the queue: one numpy pass examines the candidates of the next
    BFS_BLOCK // ncols discoverers, so the temporaries stay bounded
    whatever the size of a BFS level.
    """
    ncols, n = columns.shape
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    first = np.empty(n, dtype=np.int32)  # first place of a candidate in its block
    order = np.empty(n, dtype=np.int32)
    order[0] = root
    head, tail = 0, 1
    step = max(1, BFS_BLOCK // ncols) if ncols else 0  # without columns only the root is reached
    while head < tail and step:
        # candidates in order of (discoverer, column)
        stop = min(head + step, tail)
        found = columns[:, order[head:stop]].T.ravel()
        head = stop
        fresh = np.flatnonzero(~seen[found]).astype(np.int32)  # the dtype of `first`
        if not fresh.size:
            continue
        cand = found[fresh]
        first[cand] = found.size
        np.minimum.at(first, cand, fresh)
        new = cand[first[cand] == fresh]
        seen[new] = True
        order[tail : tail + new.size] = new
        tail += new.size
    return order[:tail]


def _freely_reduced(columns) -> list[int]:
    """A column word with adjacent inverse pairs cancelled until none is left."""
    out: list[int] = []
    for x in columns:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclically_reduced(letters) -> tuple[int, ...]:
    """Column word of a letter sequence, freely and then cyclically reduced."""
    out = _freely_reduced([2 * pos + (sign < 0) for pos, sign in letters])
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i += 1
        j -= 1
    return tuple(out[i : j + 1])


def _least_rotation(s: str) -> str:
    """The least cyclic rotation of a word written one character per column."""
    low = min(s)  # the least rotation starts at an occurrence of the least letter
    if s.count(low) == len(s):  # a power a^p: each of its p rotations is itself
        return s
    twice = s + s
    n = len(s)
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


def enumerate_presentation(
    pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS, below: CosetTable | None = None
) -> CosetTable:
    """Run the enumeration to completion and return the collapsed table.

    `below`, if given, is the table of the retract: `pres` without its
    last generator.  It is used in place of enumerating the retract again,
    and ValueError is raised if `pres` has no retraction onto it, or if its
    scan relators are not those of `pres` that avoid the last generator.
    Without it the retract is enumerated first, recursively.

    Raises CapacityExceeded if the live cosets, times the order of the
    subgroup they are cosets of, would exceed `max_cosets`; a partial table
    is never returned.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    rels = scan_relators(pres)
    ngens = pres.generator_count
    sub = None
    if below is not None:
        kept = _retract_relators(ngens, rels)
        if kept is None:
            raise ValueError(f"the presentation of {pres.index_set.label} has no retraction")
        if (
            below.presentation.generator_count != ngens - 1
            or below.scan_relators != kept
        ):
            q = below.presentation
            raise ValueError(
                f"the table of {q.index_set.label} (p={q.p}, c={q.c.spec()}) is not the "
                f"retract of {pres.index_set.label} (p={pres.p}, c={pres.c.spec()})"
            )
        sub = below.action
    # the working tables are freed before the CosetTable checks its action
    action, stats = _table(pres, ngens, rels, max_cosets, sub)
    return CosetTable(pres, action, stats, rels)


def _retract_relators(ngens: int, rels) -> list | None:
    """The relators among `rels` that avoid the last generator b, if
    deleting b leaves every relator that involves it freely trivial (so
    b -> 1 is a retraction onto the group they present); None otherwise."""
    b = 2 * ngens - 2  # column of the last generator; b + 1 is its inverse
    kept, moved = [], []
    for w in rels:
        (moved if b in w or b + 1 in w else kept).append(w)
    if ngens == 1 or any(_freely_reduced([x for x in w if x < b]) for w in moved):
        return None
    return kept


def _table(
    pres: Presentation, ngens: int, rels, max_cosets: int, sub: np.ndarray | None = None
) -> tuple[np.ndarray, EnumStats]:
    """Canonical action of B = <a_0, ..., a_{ngens-1} | rels> and the
    counters of its top-level enumeration.

    If deleting the last generator b leaves every relator that involves it
    freely trivial, b -> 1 is a retraction pi of B onto B' = <a_0, ... |
    the relators without b>, so H = <a_0, ...> in B is a copy of B'.  Then
    B' is built one generator down, only the [B:H] cosets of H are
    enumerated, and B acts on the pairs (Hg, pi(g)) coordinatewise.  That
    action is transitive (the renumbering sweep checks it) on [B:H] * |B'|
    points, while |B| = [B:H] * |H|, so it is the regular one.  Otherwise
    H is trivial.  A caller that has checked the retraction and holds the
    canonical action of B' passes it as `sub`, and B' is not built again.
    """
    if sub is None:
        kept = _retract_relators(ngens, rels)
        if kept is None:
            return _enumerate(pres, ngens, rels, max_cosets)
        sub = _table(pres, ngens - 1, kept, max_cosets)[0]
    b = 2 * ngens - 2  # column of the last generator
    order = sub.shape[1]
    cosets, stats = _enumerate(pres, ngens, rels, max_cosets, order)
    # point k * order + h is the pair (coset k, element h of B'); b fixes h
    m = cosets.shape[1]
    pairs = np.empty((2 * ngens, m * order), dtype=np.int32)
    fixed = np.arange(order, dtype=np.int32)
    for x, row in enumerate(pairs):
        np.add.outer(cosets[x] * order, sub[x] if x < b else fixed, out=row.reshape(m, order))
    return _renumbered(pairs, 0, m * order), stats


def _renumbered(image: np.ndarray, root: int, count: int) -> np.ndarray:
    """The row-major `image` restricted to the `count` points reached from
    `root`, renumbered in the order the BFS in column order reaches them.

    The rows are renumbered one at a time into the front of `image`'s own
    buffer, so the work beside it is a few vectors of one entry per point;
    the result is that buffer itself when every point is reached, else a
    copy of its front.
    """
    ncols, n = image.shape
    order = _bfs(image, root)
    if len(order) != count:
        raise VerificationError(
            f"{count - len(order)} of {count} cosets are unreachable from the identity"
        )
    new = np.empty(n, dtype=np.int32)
    new[order] = np.arange(count, dtype=np.int32)
    flat = image.reshape(-1)
    for x in range(ncols):
        # row x is read whole before its result overwrites the front of it;
        # every index is in range, and under mode "raise" `out` is buffered
        np.take(new, image[x].take(order), out=flat[x * count : (x + 1) * count], mode="clip")
    front = flat[: ncols * count].reshape(ncols, count)
    return front if count == n else front.copy()


def _cyclic_action(n: int) -> np.ndarray:
    """The canonical action of C_n = <a | a^n> on its elements.

    The sweep in column order (a before a^-1) reaches a^k and a^-k at
    level k, a^k first: a^j is coset 2j - 1 if 2j <= n, else 2(n - j).
    """
    j = np.arange(n, dtype=np.int32)
    coset = np.where(2 * j <= n, 2 * j - 1, 2 * (n - j)).astype(np.int32)
    coset[0] = 0
    action = np.empty((2, n), dtype=np.int32)
    action[0][coset] = np.roll(coset, -1)  # a^j -> a^(j+1)
    action[1][coset] = np.roll(coset, 1)  # a^j -> a^(j-1)
    return action


def _refusal(pres: Presentation, ngens: int, sub_order: int, live: int, max_cosets: int) -> str:
    """Why `live` cosets of <a_0, ..., a_{ngens-2}>, of order `sub_order`
    (the trivial subgroup if it is 1), in the group on the first `ngens`
    generators of `pres` pass `max_cosets`."""
    t = pres.index_set.indices

    def group(k: int) -> str:
        return f"B({IndexSet.of(t[:k])})"

    h = group(ngens - 1) if sub_order > 1 else "the trivial subgroup"
    return (
        f"live coset count would exceed max_cosets={max_cosets} "
        f"for {pres.index_set.label} (p={pres.p}, c={pres.c.spec()}): {live} cosets of "
        f"{h} (order {sub_order}) were live in {group(ngens)}"
    )


def _enumerate(
    pres: Presentation, ngens: int, rels, max_cosets: int, sub_order: int = 1
) -> tuple[np.ndarray, EnumStats]:
    """HLT enumeration in <a_0, ..., a_{ngens-1} | rels> of the cosets of
    H = <a_0, ..., a_{ngens-2}>, of order `sub_order`, or of the trivial
    subgroup if `sub_order` is 1; the canonical int32 action array and the
    work counters.

    At most `max_cosets // sub_order` cosets are live at once.  A refusal
    names the index set of `pres`, the one the caller asked for.

    <a | a^n> is C_n, whose cosets are the powers of a: its canonical
    action is written down in O(n) (`_cyclic_action`), where scanning the
    n-letter relator from each of n cosets would take O(n^2)."""
    ncols = 2 * ngens
    limit = max_cosets // sub_order
    if ngens == 1 and len(rels) == 1 and len(set(rels[0])) == 1:
        n = len(rels[0])
        if n > limit:
            raise CapacityExceeded(_refusal(pres, ngens, sub_order, limit, max_cosets))
        stats = EnumStats(
            relators_scanned=1, defined=n - 1, coincidences=0, scans=0, peak_live=n,
            subgroup_order=sub_order,
        )
        return _cyclic_action(n), stats

    # working table, one list per column: cols[x][c] is the image of coset c
    # under column x.
    # Coset 0 is a sink that stands for "undefined": every column maps it to
    # itself, so a trace through an undefined entry ends at 0.  The identity
    # coset is 1, and the generators of H fix it.
    in_h = ncols - 2 if sub_order > 1 else 0
    cols: list[list[int]] = [[0, 1] if x < in_h else [0, 0] for x in range(ncols)]
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
        if live >= limit:
            raise CapacityExceeded(_refusal(pres, ngens, sub_order, live, max_cosets))
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
                # HLT scan of the relator at alpha, defining cosets as needed.
                # The forward scan stops short of the end (i <= j): the trace
                # above met an undefined entry, and a fresh coset has only its
                # inverse entry, which a freely reduced relator never reads next.
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
    action = _renumbered(image, int(reps[1]), live)
    defined = len(uf) - 2  # neither the sink nor the identity coset
    stats = EnumStats(
        relators_scanned=len(rels),
        defined=defined,
        coincidences=defined + 1 - live,
        scans=scans,
        peak_live=peak,
        subgroup_order=sub_order,
    )
    return action, stats
