"""Directed site animals on the square and triangular lattices, as heaps.

An animal is stored in heap coordinates: cells (fiber, height) over the
integer chain, the source cell at (0, 0).  Supports are the directed
steps read downwards: a non-ground cell rests on (fiber+-1, height-1), or
on (fiber, height-2) on the triangular lattice only.  The familiar
lattice picture is a rotation of this one (East/North steps on the square
lattice, East/North/North-East on the triangular) and is applied only
when rendering.

An `Animal` holds its cells as two columns in cell order, fibres and
heights, and no other form: an animal made from (fibre, height) pairs
splits them once, the stacker and the JSON reader fill the columns and
build no per-cell tuple, the JSON writer formats them with one `%`, and
`validate` checks them in one pass, int64 on every valid animal (sorted
keys and `searchsorted` lookups of the supports).  The tuple view `cells`
is built only when something asks.  `validate` is this module's one numpy
user and imports it when it runs: the counts, the stacker and the JSON
writer never load it.

Words map to animals by stacking equerres: reading the celibate-marked
word left to right, `a` opens a sub-equerre one fiber left and queues a
sibling on the current fiber, `c` moves one fiber left, `d` stays (same
fiber, two levels up), `b` closes back to the queued sibling, and marked
`A`/`B` jump to a fresh base one/two fibers right of the previous base.
Heights follow the parity-coloured drop on both lattices: one level above
the highest neighbour fiber, or two above the cell's own fiber when it is
strictly highest, which square words never reach.  The loop below is the
iterative form of that recursion, so word length is bounded by memory,
not the call stack.  The stacker reads the word's letters: int step codes
exist only inside `randgen`'s numpy draw.

The inverse replays the same stacking forwards: with each fiber's heights
sorted once, every step places the next cell in O(1) amortised time by
asking which fibers' lowest unplaced cells are minimal in the remainder,
so decoding an n-cell animal is O(n) after the per-fiber sort.
"""

from __future__ import annotations

import gc
import json
import math
import operator
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from ._args import LATTICES, SOURCES, count_arg
from .paths import StepWord, _marked_letters, is_motzkin_prefix

if TYPE_CHECKING:  # numpy loads when an animal is first validated
    import numpy as np

# oracle growth bounds keeping brute-force enumeration under a minute
ORACLE_BOUNDS = {"square": 12, "triangular": 10}


class AnimalError(ValueError):
    """Malformed animal or incompatible word/lattice combination."""


def _check_kind(lattice: str, source: str) -> None:
    lattice_colors(lattice)  # rejects an unknown lattice
    if source not in SOURCES:
        raise AnimalError(f"unknown source {source!r}")


def lattice_colors(lattice: str) -> int:
    """Horizontal colors of the word alphabet: 1 on square, 2 on triangular."""
    if lattice not in LATTICES:
        raise AnimalError(f"unknown lattice {lattice!r}")
    return 1 if lattice == "square" else 2


class Animal:
    """Directed animal: its cells as two columns, fibre and height, in cell order.

    `fibres[i]` and `heights[i]` are the coordinates of the i-th cell.
    `Animal(lattice, source, cells)` splits the (fibre, height) pairs into
    the columns once; a cell that is not a pair raises ValueError.  The
    builders in this module (`animal_of_word`, `animal_from_json`) fill the
    columns and build no per-cell tuple.  `cells`, the tuple of (fibre,
    height) pairs in the same order, is a view built on first use.
    Animals are immutable; equality and hash follow the lattice, the
    source and the cell set, so cell order does not matter.
    """

    lattice: str
    source: str
    fibres: tuple[int, ...]
    heights: tuple[int, ...]
    # lazy state, read from the class until set: the cell set is built on
    # first use, as constructing a million-cell animal should not pay for
    # hashing it; _valid is set by the first validate() that passes, as the
    # cells never change
    _cell_set: frozenset[tuple[int, int]] | None = None
    _valid = False

    def __init__(
        self, lattice: str, source: str, cells: Sequence[Sequence[int]]
    ) -> None:
        _check_kind(lattice, source)
        # strict: a cell that is not a pair raises ValueError
        fibres, heights = zip(*cells, strict=True) if cells else ((), ())
        self.__dict__.update(
            lattice=lattice, source=source, fibres=fibres, heights=heights
        )

    @classmethod
    def _of_columns(
        cls,
        lattice: str,
        source: str,
        fibres: tuple[int, ...],
        heights: tuple[int, ...],
    ) -> Animal:
        _check_kind(lattice, source)
        an = cls.__new__(cls)
        an.__dict__.update(
            lattice=lattice, source=source, fibres=fibres, heights=heights
        )
        return an

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"Animal(lattice={self.lattice!r}, source={self.source!r}, "
            f"cells={self.cells!r})"
        )

    @cached_property
    def cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.fibres, self.heights))

    @property
    def size(self) -> int:
        return len(self.fibres)

    def cell_set(self) -> frozenset[tuple[int, int]]:
        if self._cell_set is None:
            self.__dict__["_cell_set"] = frozenset(self.cells)
        return self._cell_set  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Animal):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.source == other.source
            and self.cell_set() == other.cell_set()
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.source, self.cell_set()))

    def lattice_cells(self) -> list[tuple[int, int]]:
        """Rotated view: ((x+y)/2, (y-x)/2); directed steps become E/N(/NE)."""
        return [((x + y) // 2, (y - x) // 2) for x, y in zip(self.fibres, self.heights)]

    def validate(self) -> None:
        """Raise AnimalError unless this is a directed animal of its source kind.

        One pass over the columns, int64 for every valid animal.  Each cell
        is keyed as x*m + y, m = 2n + 1; the keys are sorted once, and the
        supports of every cell are looked up together by `searchsorted` of
        the sorted keys shifted by each support offset.  A valid n-cell animal has
        0 <= y <= 2(n-1), so in that range keys are distinct exactly when
        cells are, and each support is one key lookup.  A cell out of the
        range is itself unsupported, so a key it aliases never makes an
        invalid animal pass.  Columns with a value beyond +-lim, lim =
        2^62 // (m + 2), are kept as exact Python ints, so that no key
        overflows; only an invalid animal has such a value.  An animal
        passes when every y lies in 0..m-3 and every non-ground cell hits
        a support; only one that fails is searched for its first bad cell.
        Faults are reported in the order duplicate, empty, ground, then
        the first bad cell in cell order.  A pass is recorded, so the
        checks run once per animal.
        """
        if self._valid:
            return
        import numpy as np  # here, not at module level: only validate needs it

        fibres, heights = self.fibres, self.heights
        n = len(fibres)
        m = 2 * n + 1
        x, y = _columns(fibres, heights, (1 << 62) // (m + 2))
        keys = x * m
        keys += y
        order = keys.argsort()
        keys = keys[order]
        # equal neighbours: a duplicate, or an out-of-range cell's alias
        if np.count_nonzero(keys[1:] == keys[:-1]) and len(self.cell_set()) != n:
            raise AnimalError("duplicate cell")
        if not n:
            raise AnimalError("empty animal")
        ground = x[y == 0].tolist()  # in cell order; an odd fiber fails the rule
        if self.source == "point":
            if ground != [0]:
                raise AnimalError("point source requires exactly cell (0,0) on the ground")
        elif (
            not ground
            or min(ground) < 0
            or max(ground) != 2 * (len(ground) - 1)
            or any(v & 1 for v in ground)
        ):
            raise AnimalError("compact source requires ground cells at fibers 0,2,...")
        triangular = self.lattice == "triangular"
        # supports (x-1, y-1), (x+1, y-1) and, triangular only, (x, y-2)
        offsets = (-(m + 1), m - 1, -2) if triangular else (-(m + 1), m - 1)
        probes = keys + np.array(offsets)[:, None]  # one sorted row per offset
        hits = keys.take(keys.searchsorted(probes), mode="clip") == probes
        # with every y in 0..m-3, as in a valid animal, no probe aliases:
        # the ground cells hit nothing, and the animal is valid when every
        # other cell hits a support, which also makes it even, like the
        # ground cells it rests on
        supported = hits[0] | hits[1]
        if triangular:
            supported |= hits[2]
        if (
            y.dtype == np.int64  # exact ints hold a value no valid animal reaches
            and not np.count_nonzero(y.view(np.uint64) > m - 3)
            and np.count_nonzero(supported) == n - len(ground)
        ):
            self.__dict__["_valid"] = True
            return
        # the first bad cell in cell order; m is odd, so a key's parity is
        # its cell's
        y = y[order]
        if triangular:
            hits[2] &= y > 1  # y = 1 would alias k - 2 to the cell (x-1, m-1)
        bad = (y != 0) & (((keys & 1) == 1) | (y < 0) | (y >= m) | ~hits.any(0))
        i = int(order[bad].min())
        cx, cy = fibres[i], heights[i]
        if (cx + cy) & 1:
            raise AnimalError(f"cell ({cx},{cy}) off the even sublattice")
        raise AnimalError(f"unsupported cell ({cx},{cy})")


def _columns(fibres: Sequence[int], heights: Sequence[int], lim: int) -> np.ndarray:
    """Both columns as the rows of one array: int64 when every value lies
    within +-lim, else the exact Python ints (dtype object).

    A value that is not an integer raises TypeError.
    """
    import numpy as np

    xy = np.array((fibres, heights))
    # abs(-2^63) wraps to -2^63, which reads as 2^63 unsigned
    if xy.dtype == np.int64 and not np.count_nonzero(np.abs(xy).view(np.uint64) > lim):
        return xy  # empty columns convert to float64 and take the exact ints
    return np.array([list(map(operator.index, c)) for c in (fibres, heights)], dtype=object)


def animal_of_word(w: StepWord, lattice: str, source: str) -> Animal:
    """Animal of a word of length n-1: mark celibates, stack equerres.

    Point sources mark celibate ascents only (the word is a Motzkin
    prefix); compact sources mark celibate descents too, and their bases
    may reach fiber 2n, which bounds the flat height table.  One cell is
    dropped per letter, plus the final one, into the animal's two columns.
    """
    compact = source == "compact"
    n_cells = len(w) + 1
    marked = _marked_letters(w, descents=compact)
    off = n_cells + 1
    max_right = 2 * n_cells if compact else n_cells
    top = [-1] * (n_cells + max_right + 3 + off)  # fiber + off -> top height
    fibres: list[int] = []
    heights: list[int] = []
    add_fibre, add_height = fibres.append, heights.append
    pending: list[int] = []
    f = 0
    base = 0
    for ch in marked + ".":  # "." = end-of-word terminator
        j = f + off
        left = top[j - 1]
        mid = top[j]
        right = top[j + 1]
        m = left if left >= mid else mid
        if right > m:
            m = right
        h = m + 2 if (mid == m and left < mid) else m + 1
        top[j] = h
        add_fibre(f)
        add_height(h)
        if ch == "a":
            pending.append(f)
            f -= 1
        elif ch == "c":
            f -= 1
        elif ch == "b":
            f = pending.pop()
        elif ch == "A":
            base += 1
            f = base
        elif ch == "B":
            base += 2
            f = base
        # "d" and the terminator leave f unchanged
    return Animal._of_columns(lattice, source, tuple(fibres), tuple(heights))


def _check_word_lattice(w: StepWord, lattice: str) -> None:
    r = lattice_colors(lattice)
    if w.r != r:
        raise AnimalError(
            f"word has r={w.r} but lattice {lattice!r} needs r={r}"
        )


def beta(w: StepWord, lattice: str) -> Animal:
    """Bijection Motzkin prefix of length n-1 -> point-source animal of size n."""
    _check_word_lattice(w, lattice)
    if not is_motzkin_prefix(w):
        raise AnimalError("beta needs a Motzkin prefix")
    return animal_of_word(w, lattice, "point")


def compact_animal(w: StepWord, lattice: str) -> Animal:
    """Any word of length n-1 -> compact-source animal of size n (a bijection)."""
    _check_word_lattice(w, lattice)
    return animal_of_word(w, lattice, "compact")


def half_width(an: Animal) -> int:
    """Largest occupied fiber index of a point-source animal."""
    if an.source != "point":
        raise AnimalError("half-width is defined for point sources only")
    return max(an.fibres)


def beta_inverse(an: Animal) -> StepWord:
    """The unique Motzkin prefix with beta(beta_inverse(an)) == an."""
    if an.source != "point":
        raise AnimalError("beta_inverse is defined for point sources only")
    return StepWord(lattice_colors(an.lattice), _decode(an).lower())


def _decode(an: Animal) -> str:
    """Celibate-marked word of a point-source animal: beta_inverse with its `A`s.

    Replays the equerre stacking forwards, one cell per step.  Each fiber's
    heights are sorted once; a cell is *free* when it is the lowest
    unplaced cell of its fiber and both neighbour fibers' lowest unplaced
    cells sit higher, i.e. it is a minimal cell of the remainder.  After
    placing a cell on fiber x the next letter is `d` if x's next cell is
    free, else a tentative `c` (pushing x) if x-1's next cell is free.
    Otherwise pending fibers are popped: each whose next cell is not free
    keeps its `c`, the first whose next cell is free turns its letter into
    `a` and the current letter is `b`.  With nothing pending the letter is
    the chain separator, and the walk restarts one fiber right of the
    previous base.  No later `b` closes a separator, so the separators are
    exactly the celibate ascents and are emitted as `A`.  Every push is
    popped at most once, so the walk costs O(n) after the O(n log n)
    per-fiber sort.
    """
    an.validate()
    r = lattice_colors(an.lattice)
    fibres, heights = an.fibres, an.heights
    lo, hi = min(fibres), max(fibres)
    # column k holds fiber k + lo - 2, heights descending so pop() is the
    # lowest; two empty columns on each side keep every lookup in range
    off = 2 - lo
    cols: list[list[int]] = [[] for _ in range(hi - lo + 5)]
    for x, y in zip(fibres, heights):
        cols[x + off].append(y)
    for col in cols:
        col.sort(reverse=True)
    inf = 2 * an.size + 2  # above every height
    low = [col[-1] if col else inf for col in cols]

    letters: list[str] = []
    pending: list[tuple[int, int]] = []  # (fiber column, letter index)
    x = base = off
    remaining = an.size
    while True:
        col = cols[x]
        col.pop()
        low[x] = col[-1] if col else inf
        remaining -= 1
        if not remaining:
            break
        h = low[x]
        if h < low[x - 1] and h < low[x + 1]:
            if r < 2:
                raise AnimalError("same-fiber stacking on a square-lattice animal")
            letters.append("d")
            continue
        h = low[x - 1]
        if h < low[x - 2] and h < low[x]:
            pending.append((x, len(letters)))
            letters.append("c")
            x -= 1
            continue
        while pending:
            q, i = pending.pop()
            h = low[q]
            if h < low[q - 1] and h < low[q + 1]:
                letters[i] = "a"
                letters.append("b")
                x = q
                break
        else:
            letters.append("A")
            base += 1
            x = base
            h = low[x]
            if not (h < low[x - 1] and h < low[x + 1]):
                raise AnimalError("no free cell right of the chain base")
    return "".join(letters)


def enumerate_animals(n: int, lattice: str, source: str = "point") -> list[Animal]:
    """Brute-force oracle: grow animals cell by cell from the source.

    Independent of the word bijection: candidate cells are the directed
    out-steps of occupied cells, deduplicated per size.  Bounded by
    ORACLE_BOUNDS to stay desk-scale.
    """
    n = count_arg(n, 1, "n")
    _check_kind(lattice, source)
    triangular = lattice == "triangular"
    bound = ORACLE_BOUNDS[lattice]
    if n > bound:
        raise AnimalError(f"oracle bound is {bound} for {lattice}")

    seeds: list[frozenset[tuple[int, int]]] = []
    if source == "point":
        seeds.append(frozenset({(0, 0)}))
    else:
        for k in range(n):
            seeds.append(frozenset((2 * i, 0) for i in range(k + 1)))

    current: set[frozenset[tuple[int, int]]] = {
        s for s in seeds if len(s) <= n
    }
    final: set[frozenset[tuple[int, int]]] = {s for s in current if len(s) == n}
    while current:
        nxt: set[frozenset[tuple[int, int]]] = set()
        for cells in current:
            if len(cells) == n:
                continue
            grown = set()
            for x, y in cells:
                grown.add((x - 1, y + 1))
                grown.add((x + 1, y + 1))
                if triangular:
                    grown.add((x, y + 2))
            for cand in grown - set(cells):
                bigger = cells | {cand}
                if len(bigger) == n:
                    final.add(bigger)
                else:
                    nxt.add(bigger)
        current = nxt
    out = [
        Animal(lattice, source, tuple(sorted(cells, key=lambda c: (c[1], c[0]))))
        for cells in final
    ]
    out.sort(key=lambda a: tuple(sorted(a.cell_set())))
    return out


def _trinomial_endpoint(length: int, height: int, r: int) -> int:
    """Unconstrained walks of given length over {+1, -1, 0 x r} ending at height.

    Term-ratio sum over the number k of down steps: the k = 0 term is
    C(length, height) r^flat, and one more up/down pair turns two flat steps
    into it, T_{k+1} = T_k flat (flat-1) / ((k+1) (k+height+1) r^2), a division
    that is exact.  O(length) small-factor bigint steps in all.
    """
    height = abs(height)
    if height > length:
        return 0
    if r == 0:
        # no flat steps: a single term, present on matching parity only
        rest = length - height
        return 0 if rest % 2 else math.comb(length, rest // 2)
    flat = length - height
    term = math.comb(length, height) * r**flat
    total = term
    r2 = r * r
    k = 0
    while flat >= 2:
        k += 1
        term = term * flat * (flat - 1) // (k * (k + height) * r2)
        flat -= 2
        total += term
    return total


def prefix_count_closed(length: int, r: int) -> int:
    """Non-negative walks of given length, by reflection: N(l,0) + N(l,1)."""
    return _trinomial_endpoint(length, 0, r) + _trinomial_endpoint(length, 1, r)


def motzkin_number(n: int) -> int:
    """Motzkin words of length n, by reflection: N(n,0) - N(n,2) with r = 1."""
    return _trinomial_endpoint(n, 0, 1) - _trinomial_endpoint(n, 2, 1)


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def animal_count(n: int, lattice: str, source: str = "point") -> int:
    """Closed-form animal counts (the cross-check against the path DP).

    point: square = Motzkin-prefix count (trinomial reflection formula),
    triangular = C(2n,n)/2; equerre: Motzkin / Catalan numbers;
    compact: 3^(n-1) / 4^(n-1).
    """
    n = count_arg(n, 1, "n")
    r = lattice_colors(lattice)
    if source == "point":
        if lattice == "triangular":
            return math.comb(2 * n, n) // 2
        return prefix_count_closed(n - 1, r)
    if source == "compact":
        return (r + 2) ** (n - 1)
    if source == "equerre":
        # size-n equerres are words of length n-1: Motzkin number M_{n-1}
        # on the square lattice, Catalan number C_n on the triangular one
        return motzkin_number(n - 1) if lattice == "square" else catalan_number(n)
    raise AnimalError(f"unknown source {source!r}")


def average_width(n: int, lattice: str) -> Fraction:
    """Exact mean width 2 (r+2)^{n-1} / a_n - 2 of point-source animals."""
    r = lattice_colors(lattice)
    a_n = animal_count(n, lattice, "point")
    return Fraction(2 * (r + 2) ** (n - 1), a_n) - 2


def animal_to_json(an: Animal) -> str:
    """Compact JSON, byte-identical to json.dumps(..., separators=(",", ":")).

    Every cell is formatted by one `%` over the interleaved columns.
    Lattice and source are names from LATTICES and SOURCES, which need no
    escaping.
    """
    n = an.size
    flat: list[int] = [0] * (2 * n)
    flat[::2] = an.fibres
    flat[1::2] = an.heights
    cells = ("[%d,%d]," * n)[:-1] % tuple(flat)
    return f'{{"lattice":"{an.lattice}","source":"{an.source}","cells":[{cells}]}}'


def animal_from_json(text: str) -> Animal:
    """Parse and validate one animal; every coordinate must be a JSON integer.

    The columns come straight from the parsed lists, `zip(*cells)`; no cell
    tuple is built.
    """
    # collections here find no garbage: the parse keeps all it builds
    enabled = gc.isenabled()
    gc.disable()
    try:
        payload = json.loads(text)
        if type(payload) is not dict:
            raise TypeError("not a JSON object")
        raw = payload["cells"]
        if type(raw) is not list:
            raise TypeError("cells must be a list")
        if raw and set(map(type, raw)) != {list}:
            raise TypeError("every cell must be a list of two coordinates")
        try:  # the strict zip fails on unequal lengths, the unpacking on others than 2
            fibres, heights = zip(*raw, strict=True) if raw else ((), ())
        except ValueError:
            raise TypeError("every cell must be a list of two coordinates") from None
        if raw and set(map(type, fibres)) | set(map(type, heights)) != {int}:
            raise TypeError("every coordinate must be an integer")
        an = Animal._of_columns(payload["lattice"], payload["source"], fibres, heights)
    except (KeyError, TypeError, ValueError) as exc:
        raise AnimalError(f"bad animal JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()
    del payload, raw  # free the parsed lists before validate builds its arrays
    an.validate()
    return an


def all_words(length: int, r: int) -> list[StepWord]:
    """Every unmarked word of the given length (oracle helper)."""
    length = count_arg(length, 0, "length")
    r = count_arg(r, 0, "r")  # StepWord rejects r > 2
    alphabet = "ab" + "cd"[:r]
    words = [""]
    for _ in range(length):
        words = [w + ch for w in words for ch in alphabet]
    return [StepWord(r, w) for w in words]


def all_prefixes(length: int, r: int) -> list[StepWord]:
    """Every Motzkin prefix of the given length."""
    return [w for w in all_words(length, r) if is_motzkin_prefix(w)]
