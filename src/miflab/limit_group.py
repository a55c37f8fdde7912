"""Exact arithmetic in the locally finite p-group A and its extension G = A ⋊ <t>.

A is generated by involution-like letters a_i (i ranging over the
integers) subject to the window relator families; every finitely
supported computation lands in a finite window group whose coset table
supplies canonical forms.  G adds a stable letter t acting by the shift
a_i -> a_{i+1}, and every G-element has the normal form a * t^beta.

Tables take and return column words; `LimitGroup` alone translates
AWords to and from them.

An A-word whose letters use the index set T is decided in B(T): killing
every a_j with j outside T retracts each window group that holds T onto
<a_T>, which is B(T), so its normal form and order there are those of
every such window.  Tables are cached per pattern T - min T (shift
equivariance makes B(T) and B(T + k) isomorphic via index translation),
built at most once each, and immutable afterwards; a window is the
interval case.  `max_window_width` bounds the spread max T - min T.  With
a cache directory, each window table's int32 action is also kept on disk
as `table-<digest>.npy` (the suffix versions the format; files of
another format are ignored) and goes through the same `CosetTable`
checks when it is loaded; an entry with more cosets than `max_cosets` is
refused from its header, before its data is read.  Tables of gapped
index sets stay in memory.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .coset_enum import CosetTable, enumerate_presentation
from .errors import CapacityExceeded, FixedLimitExceeded, ParseError, VerificationError
from .mixed_words import MAX_SYLLABLES
from .presentations import (
    DEFAULT_MAX_COSETS,
    DEFAULT_MAX_WINDOW_WIDTH,
    MAX_RELATOR_LETTERS,
    CSequence,
    IndexSet,
    Window,
    build_window_presentation,
    is_prime,
)

INFINITE = math.inf


def _key(indices: tuple[int, ...]) -> int | tuple[int, ...]:
    """The cache key of the table of B(T), T = `indices` with min T = 0: the
    width of a window, else T itself."""
    return len(indices) - 1 if indices[-1] == len(indices) - 1 else indices


def _merge_letters(p: int, items) -> tuple:
    """Collapse adjacent equal-index letters, exponents mod p, dropping zeros."""
    out = []
    for idx, exp in items:
        exp %= p
        if exp == 0:
            continue
        if out and out[-1][0] == idx:
            combined = (out[-1][1] + exp) % p
            out.pop()
            if combined:
                out.append((idx, combined))
        else:
            out.append((idx, exp))
    return tuple(out)


class AWord:
    """Word in the indexed generators: a sequence of (index, exponent) letters.

    Exponents live in 1..p-1 and adjacent letters always have distinct
    indices; the empty word is the identity.  AWords are immutable.
    """

    __slots__ = ("p", "letters")

    def __init__(self, p: int, letters=(), _merged: bool = False):
        self.p = p
        self.letters = tuple(letters) if _merged else _merge_letters(p, letters)

    @property
    def support(self) -> tuple[int, int] | None:
        if not self.letters:
            return None
        indices = [i for i, _ in self.letters]
        return (min(indices), max(indices))

    def is_empty(self) -> bool:
        return not self.letters

    def __mul__(self, other: "AWord") -> "AWord":
        if self.p != other.p:
            raise ValueError("cannot multiply AWords over different p")
        return AWord(self.p, self.letters + other.letters)

    def inverse(self) -> "AWord":
        return AWord(
            self.p,
            tuple((i, self.p - e) for i, e in reversed(self.letters)),
            _merged=True,
        )

    def total_exponent(self) -> int:
        return sum(e for _, e in self.letters) % self.p

    def index_vector(self) -> dict[int, int]:
        """Index-wise exponent sums mod p (zero entries omitted)."""
        sums: dict[int, int] = {}
        for i, e in self.letters:
            sums[i] = (sums.get(i, 0) + e) % self.p
        return {i: v for i, v in sums.items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, AWord)
            and self.p == other.p
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.p, self.letters))

    def __repr__(self):
        return f"AWord({render_aword(self)!r})"


def shift(u: AWord, k: int) -> AWord:
    """The shift automorphism a_i -> a_{i+k} applied letterwise."""
    return AWord(u.p, tuple((i + k, e) for i, e in u.letters), _merged=True)


def render_aword(u: AWord) -> str:
    parts = []
    for i, e in u.letters:
        parts.append(f"a{i}" if e == 1 else f"a{i}^{e}")
    return " ".join(parts)


@dataclass(frozen=True)
class AbelianImage:
    """Abelianization data for a G-element; `kind` is read off `beta`.

    kind "index_vector": beta == 0, so the element lies in A, and `vector`
    holds its index-wise exponent sums mod p.  Every relator of A is a
    p-th power or a commutator, so A^ab is the direct sum of the C_p on
    the a_i and the vector is that map: a nonzero vector proves the
    element nontrivial, whatever word built it.
    kind "collapsed": beta != 0, the vector is empty, and only the pair
    (total exponent sum mod p, beta) is reported, since conjugation by t
    shifts indices.
    """

    vector: dict
    total: int
    beta: int

    @property
    def kind(self) -> str:
        return "index_vector" if self.beta == 0 else "collapsed"

    @property
    def nonzero_on_a_part(self) -> bool:
        if self.kind == "index_vector":
            return bool(self.vector)
        return self.total != 0


class GElement:
    """Element of G in the normal form a * t^beta.

    The carried AWord is unreduced; the canonical window-group form is
    computed on demand and cached.  The element lies in A iff beta == 0.
    """

    __slots__ = ("group", "a", "beta", "_canon")

    def __init__(self, group: "LimitGroup", a: AWord, beta: int = 0):
        if a.p != group.p:
            raise ValueError("AWord does not match the group's p")
        self.group = group
        self.a = a
        self.beta = beta
        self._canon = None

    # -- group operations ---------------------------------------------

    def __mul__(self, other: "GElement") -> "GElement":
        return self.group.product((self, other))

    def inverse(self) -> "GElement":
        return GElement(self.group, shift(self.a.inverse(), -self.beta), -self.beta)

    def __pow__(self, k: int) -> "GElement":
        """Square-and-multiply.  An element with no a-part is t^beta, and
        its power is t^(beta*k) at once.  For beta == 0 an exponent past
        the coset cap, which bounds every window order, is first reduced
        modulo the element's order, so the letters stay short; a support
        past the caps raises CapacityExceeded before any letter is built.
        For beta != 0 no reduction applies: the power writes out |k|
        shifted copies of the a-part, and one that would write out more
        than `MAX_SYLLABLES` letters raises FixedLimitExceeded before any is
        built."""
        if not self.a.letters:
            return GElement(self.group, self.a, self.beta * k)
        if self.beta == 0 and abs(k) > self.group.max_cosets:
            k %= self.order()
        letters = abs(k) * len(self.a.letters)
        if self.beta and letters > MAX_SYLLABLES:
            raise FixedLimitExceeded(
                f"the power ^{k} of {self.render()} would write out {letters} letters, "
                f"past the limit of {MAX_SYLLABLES}"
            )
        if k == 0:
            return self.group.identity_element
        base = self if k > 0 else self.inverse()
        k = abs(k)
        acc = None
        cur = base
        while k:
            if k & 1:
                acc = cur if acc is None else acc * cur
            k >>= 1
            if k:
                cur = cur * cur
        return acc

    def conjugate_by(self, h: "GElement") -> "GElement":
        return h.inverse() * self * h

    # -- canonical form and predicates ----------------------------------

    def canonical_aword(self) -> AWord:
        if self._canon is None:
            self._canon = self.group.canonical_aword(self.a)
        return self._canon

    def is_trivial(self) -> bool:
        if self.beta != 0:
            return False
        if self.a.is_empty():
            return True
        return self.canonical_aword().is_empty()

    def order(self):
        """Element order: INFINITE iff beta != 0, else the p-power window order."""
        if self.beta != 0:
            return INFINITE
        canon = self.canonical_aword()
        if canon.is_empty():
            return 1
        return self.group.aword_order(canon)

    def abelianize(self) -> AbelianImage:
        vector = self.a.index_vector() if self.beta == 0 else {}
        return AbelianImage(vector, self.a.total_exponent(), self.beta)

    def __eq__(self, other):
        if not isinstance(other, GElement) or other.group is not self.group:
            return NotImplemented
        if self.beta != other.beta:
            return False
        if self.a.letters == other.a.letters:
            return True
        return self.canonical_aword() == other.canonical_aword()

    def __hash__(self):
        return hash((self.beta, self.canonical_aword()))

    def render(self) -> str:
        parts = []
        if self.a.letters:
            parts.append(render_aword(self.a))
        if self.beta == 1:
            parts.append("t")
        elif self.beta != 0:
            parts.append(f"t^{self.beta}")
        return " ".join(parts) if parts else "1"

    def render_canonical(self) -> str:
        """Render with the A-part in window normal form."""
        return GElement(self.group, self.canonical_aword(), self.beta).render()

    def __repr__(self):
        return f"GElement({self.render()!r})"


def _npy_header(fh) -> tuple:
    """The array shape and dtype in the header of the `.npy` file `fh`,
    data unread."""
    version = np.lib.format.read_magic(fh)
    read_header = (
        np.lib.format.read_array_header_1_0 if version == (1, 0)
        else np.lib.format.read_array_header_2_0
    )
    shape, _, dtype = read_header(fh)
    return shape, dtype


class LimitGroup:
    """The limit group G of (p, c): owns the caps, the tables of the groups
    B(T) and the memo of the a-parts each search radius reads (`radius_awords`).

    Construct one directly; two groups never share tables.  A p past
    `max_cosets` or `MAX_RELATOR_LETTERS` raises CapacityExceeded before p
    is tested for primality; a p that is not prime raises ValueError.
    """

    def __init__(
        self,
        p: int = 2,
        c="n",
        *,
        max_cosets: int = DEFAULT_MAX_COSETS,
        max_window_width: int = DEFAULT_MAX_WINDOW_WIDTH,
        cache_dir: str | None = None,
    ):
        # B([0,0]) has order p and a_i^p is a relator of every B(T); both are
        # checked first, as the primality test takes sqrt(p) divisions
        if isinstance(p, int) and p > max_cosets:
            raise CapacityExceeded(
                f"p={p} exceeds max_cosets={max_cosets} for window 0..0, a group of order p"
            )
        if isinstance(p, int) and p > MAX_RELATOR_LETTERS:
            raise CapacityExceeded(
                f"p={p} exceeds MAX_RELATOR_LETTERS={MAX_RELATOR_LETTERS}, the letters of a_i^p"
            )
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.c = CSequence.from_spec(c)
        self.max_cosets = max_cosets
        self.max_window_width = max_window_width
        self.cache_dir = cache_dir  # None: no disk cache
        # a window's table by its width, a gapped set's by T - min T
        self._tables: dict[int | tuple[int, ...], CosetTable] = {}
        self._radius_awords: dict[int, tuple] = {}

    # -- element constructors -------------------------------------------

    def aword(self, items=()) -> AWord:
        return AWord(self.p, items)

    def element(self, a=None, beta: int = 0) -> GElement:
        if a is None:
            a = self.aword()
        elif not isinstance(a, AWord):
            a = self.aword(a)
        return GElement(self, a, beta)

    @property
    def identity_element(self) -> GElement:
        return GElement(self, self.aword(), 0)

    def generator(self, i: int, exp: int = 1) -> GElement:
        return GElement(self, self.aword([(i, exp)]), 0)

    def t_power(self, k: int = 1) -> GElement:
        return GElement(self, self.aword(), k)

    def parse(self, text: str) -> GElement:
        from .parser import parse_element

        return parse_element(text, self)

    # -- group-context protocol (shared with mixed words) ----------------

    def mul(self, g: GElement, h: GElement) -> GElement:
        return g * h

    def product(self, factors) -> GElement:
        """The product of `factors`, left to right, with one merge.

        Each factor's letters are shifted by the sum of the betas before
        it (`a t^b * a' t^b' = a shift(a', b) t^(b+b')`) and the whole
        list is merged once.  Merging in the free product of the C_p is
        confluent, so the letters and beta equal those of the pairwise left
        fold.
        """
        letters = []
        beta = 0
        for g in factors:
            if g.group is not self:
                raise ValueError("cannot mix elements of different instances")
            if beta:
                letters.extend([(i + beta, e) for i, e in g.a.letters])
            else:
                letters.extend(g.a.letters)
            beta += g.beta
        return GElement(self, AWord(self.p, letters), beta)

    def inv(self, g: GElement) -> GElement:
        return g.inverse()

    def power(self, g: GElement, k: int) -> GElement:
        return g ** k

    def is_identity(self, g: GElement) -> bool:
        return g.is_trivial()

    def render_element(self, g: GElement) -> str:
        return g.render()

    def element_key(self, g: GElement):
        return (g.beta, g.canonical_aword().letters)

    # -- tables ------------------------------------------------------------

    def table_for_width(self, width: int) -> CosetTable:
        """Coset table of the base window [0, width] (shared by all shifts)."""
        return self._table_for(Window(0, width))

    def _table_for(self, index_set: Window | IndexSet) -> CosetTable:
        """Coset table of B(T), T the indices of `index_set` (min T = 0).

        The missing prefixes of T are built shortest first, each enumeration
        taking the table of the prefix one index shorter as the retract, so a
        group past the coset cap is refused at the shortest prefix that
        breaks it.  Before any is built, a T whose spread is past the width
        bound is refused, and so is a T with p^|T| > max_cosets: B(T) maps
        onto C_p^|T|.
        """
        if index_set.width > self.max_window_width:
            raise CapacityExceeded(index_set.width_refusal(self.max_window_width))
        order = 1
        for _ in range(index_set.size):  # p^|T|, stopped past the cap
            order *= self.p
            if order > self.max_cosets:
                n = index_set.size
                raise CapacityExceeded(
                    f"{index_set.label} (p={self.p}, c={self.c.spec()}) maps onto "
                    f"C_{self.p}^{n}, so its order is at least "
                    f"{self.p}^{n}, over max_cosets={self.max_cosets}"
                )
        indices = index_set.indices
        tbl = self._tables.get(_key(indices))
        if tbl is not None:
            return tbl
        prefixes = (indices[:k] for k in range(1, len(indices) + 1))
        chain = [IndexSet.of(t) for t in prefixes if _key(t) not in self._tables]
        for sub in chain:
            pres = build_window_presentation(self.p, self.c, sub, self.max_window_width)
            tbl = self._load_cached(pres)
            if tbl is None:
                below = self._tables.get(_key(sub.indices[:-1])) if sub.width else None
                tbl = enumerate_presentation(pres, self.max_cosets, below=below)
                self._store_cached(tbl)
            self._tables[_key(sub.indices)] = tbl
        return tbl

    def cached_tables(self) -> dict[int, CosetTable]:
        """The window tables built or loaded so far, by width."""
        return {k: tbl for k, tbl in self._tables.items() if isinstance(k, int)}

    def index_set_tables(self) -> dict[tuple[int, ...], CosetTable]:
        """The tables of gapped index sets T built so far, keyed by T - min T."""
        return {k: tbl for k, tbl in self._tables.items() if isinstance(k, tuple)}

    def window_order(self, window: Window) -> int:
        return self.table_for_width(window.width).coset_count

    def _cache_path(self, width: int) -> str | None:
        """The cache file of the window table of `width`; None without a
        cache directory."""
        if not self.cache_dir:
            return None
        key = f"{self.p}|{self.c.key(width)}|{width}"
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return os.path.join(self.cache_dir, f"table-{digest}.npy")

    def _load_cached(self, pres) -> CosetTable | None:
        """The cached table of the window of `pres`, or None if there is no
        cache entry; index-set tables are not cached on disk.

        The `.npy` header is checked in full before the data is read.  An
        entry of more than `max_cosets` cosets raises CapacityExceeded, as
        enumerating it would.  An entry whose header is not that of an
        int32 array of shape (2 * generators, cosets), that is not a
        readable `.npy` file, or whose action `CosetTable` refuses, raises
        VerificationError naming the file.
        """
        window = pres.index_set
        if not isinstance(window, Window):
            return None
        path = self._cache_path(window.width)
        if not path or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                shape, dtype = _npy_header(fh)
                if len(shape) == 2 and shape[1] > self.max_cosets:
                    raise CapacityExceeded(
                        f"the cached table of window {window} (p={self.p}, "
                        f"c={self.c.spec()}) has {shape[1]} cosets, over "
                        f"max_cosets={self.max_cosets} (cache file {path})"
                    )
                rows = 2 * pres.generator_count
                if dtype != np.int32 or len(shape) != 2 or shape[0] != rows:
                    raise VerificationError(
                        f"corrupt coset table cache file {path}: header says dtype {dtype}, "
                        f"shape {shape}; expected an int32 array of shape ({rows}, n)"
                    )
                fh.seek(0)
                action = np.load(fh, allow_pickle=False)
        except (OSError, ValueError, EOFError) as exc:  # unreadable, truncated or not .npy
            raise VerificationError(f"corrupt coset table cache file {path}: {exc}") from exc
        try:
            return CosetTable(pres, action)  # checks the shape, range and canonical order
        except VerificationError as exc:
            raise VerificationError(f"{exc} (cache file {path})") from None

    def _store_cached(self, table: CosetTable) -> None:
        """Write a window table's action through a private temp file, so
        concurrent writers never share a partial file.  A cache directory
        that cannot be written raises ParseError."""
        window = table.presentation.index_set
        path = isinstance(window, Window) and self._cache_path(window.width)
        if not path:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.cache_dir, prefix=os.path.basename(path) + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.save(fh, table.action)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise ParseError(f"cannot write coset table cache file {path}: {exc}") from exc

    # -- word-level engine -------------------------------------------------

    def _columns(self, word: AWord, at: int | tuple[int, ...]) -> list[int]:
        """Column word of `word` in the table of a window from `at`, an int,
        or of an index set `at`, a tuple, whose generator n is a_{at[n]}:
        a_i^e is e copies of the column of a_i."""
        if isinstance(at, int):
            return [2 * (i - at) for i, e in word.letters for _ in range(e)]
        column = {i: 2 * n for n, i in enumerate(at)}
        return [column[i] for i, e in word.letters for _ in range(e)]

    def _aword(self, columns, at: int | tuple[int, ...]) -> AWord:
        """AWord of a column word of the table `_columns` names by `at`:
        column x is generator x >> 1, to the exponent 1 if x is even and
        p - 1 if odd."""
        p = self.p
        if isinstance(at, int):
            return AWord(p, tuple(((x >> 1) + at, p - 1 if x & 1 else 1) for x in columns))
        return AWord(p, tuple((at[x >> 1], p - 1 if x & 1 else 1) for x in columns))

    def _decider(self, word: AWord) -> tuple[CosetTable, int | tuple[int, ...]]:
        """The table that decides `word`, of two letters or more, and where
        it starts, as `_columns` takes it.

        That is the table of the word's own index set T, keyed by T - min T,
        unless the window table of T's spread is built already: <a_T> is
        B(T) in every window that holds T, so both give the same normal
        form, letter for letter, and the same orders.
        """
        indices = sorted({i for i, _ in word.letters})
        lo = indices[0]
        tbl = self._tables.get(indices[-1] - lo)
        if tbl is not None:
            return tbl, lo
        return self._table_for(IndexSet.of([i - lo for i in indices])), tuple(indices)

    def radius_awords(self, radius: int) -> tuple[AWord, ...]:
        """The a-parts a search reads at `radius`, in the coset order of the
        table of B([-radius, radius]): every element at radius 0, the
        identity first, else those whose shortlex letters reach index -radius
        or radius.  A coset's letters are its parent's in the table's
        breadth-first tree plus its column's letter, merged at the seam (a
        shortlex word is geodesic, so no exponent merges to 0).  Memoised per
        radius; a refused radius keeps nothing, so every call raises again."""
        awords = self._radius_awords.get(radius)
        if awords is None:
            table = self.table_for_width(2 * radius)
            p, ends = self.p, {-radius, radius}
            letter = [((x >> 1) - radius, p - 1 if x & 1 else 1) for x in range(len(table.action))]
            words, reaches = [()], [radius == 0]
            for parent, x in zip(table.parent.tolist()[1:], table.via.tolist()[1:]):
                (i, e), head = letter[x], words[parent]
                if head and head[-1][0] == i:
                    head, e = head[:-1], (head[-1][1] + e) % p
                words.append(head + ((i, e),))
                reaches.append(reaches[parent] or i in ends)
            awords = self._radius_awords[radius] = tuple(
                AWord(p, w, _merged=True) for w, kept in zip(words, reaches) if kept
            )
        return awords

    def canonical_aword(self, word: AWord) -> AWord:
        """Shortlex normal form in B(T), T the index set of the word's
        letters (`_decider`).

        The canonical word is window-stable: any window containing T
        yields the same letters.  A word of at most one letter (i, e),
        0 < e < p, is its own normal form, with no table: its abelian image
        e at i is nonzero, so it is nontrivial, and the shortest words with
        that image are powers of a_i, which merge to the same (i, e).
        """
        if len(word.letters) <= 1:
            return word
        table, at = self._decider(word)
        return self._aword(table.normal_form(self._columns(word, at)), at)

    def aword_order(self, word: AWord) -> int:
        """Order of the word in A, decided in B(T) as `canonical_aword` is.
        One letter a_i^e, 0 < e < p, has order p with no table: a_i^p is a
        relator and a_i^e is nontrivial."""
        if word.is_empty():
            return 1
        if len(word.letters) == 1:
            return self.p
        table, at = self._decider(word)
        return table.element_order(self._columns(word, at))
