"""Heaps of pieces: the canonical layered form of traces.

A heap over a commutation graph is a sequence of non-empty stable layers
C_1..C_n with each C_i (i>1) inside the closed neighbourhood N[C_{i-1}]:
the Cartier-Foata normal form.  Words map onto heaps by dropping each
letter to height 1 + max{height of occupied neighbouring fibres}, and two
words yield the same heap exactly when they differ by exchanges of
adjacent commuting letters.  Heaps therefore *are* the elements of the
partially commutative monoid, and everything downstream (series, animals,
sampling) works on this canonical form.

A `Heap` is stored as its key, its layers as vertex bitmasks bottom-up;
its layers as vertex tuples, its cells and its canonical word are views
of the key.  `Heap(g, layers)` checks the layers it is given; every other
builder lands the key itself and cannot build a bad one.  One kernel,
`_drop`, lands every letter: it reads per-fibre tops and ORs the letter
into its layer's bitmask, so no layer is sorted.  A product of two heaps
lands the right one's word on the left one's key (`drop_word`); the
series product lands each node of its right factor's word trie on a copy
of its parent's masks and tops, one letter per node.  Listing and
counting heaps grow the layers themselves instead, by one Cartier-Foata
layer transfer (`_layer_transfer`): a heap grows by a stable layer inside
the closed neighbourhood of its top layer, and the heaps whose tops share
that neighbourhood move together.  It lists the keys for
`enumerate_heaps` and the series builders, and counts them for
`count_pyramids`.

Conventions: a layer's vertices ascend; the canonical word of a heap
enumerates the layers bottom-up, each in ascending index order.  Heap
values are immutable; they hash by their key alone and compare their
graph too, so heaps over different graphs are never equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, zip_longest
from typing import Iterable, Iterator

from .graphs import (
    Coloring, CommutationGraph, _members, format_graph_literal, parse_graph_literal
)

Cell = tuple[int, int]  # (vertex index, 1-based height)
Layers = tuple[tuple[int, ...], ...]
Key = tuple[int, ...]  # a heap's layers as vertex bitmasks, bottom-up


class HeapError(ValueError):
    """Operation on incompatible or malformed heaps."""


@dataclass(frozen=True, init=False)
class Heap:
    """Canonical heap, stored as its key; the empty key is the unit of the monoid.

    `Heap(g, layers)` checks the layers once.  The key is that of their
    word, landed by the one drop rule, which checks every vertex against
    g: an out-of-range one, negative ones included, raises GraphError.
    Layers that are not the canonical form of that word (a repeated,
    unsorted or unsupported vertex, an unstable or empty layer) raise
    HeapError naming the first layer that differs: the drop builds only
    non-empty, ascending, stable, supported layers.  The builders of this
    package hand in the keys they land (`_of_key`).
    """

    graph: CommutationGraph = field(hash=False)  # one graph serves a whole series
    key: Key

    def __init__(
        self, graph: CommutationGraph, layers: Iterable[tuple[int, ...]]
    ) -> None:
        layers = tuple(map(tuple, layers))  # lists compare unequal to the tuples below
        key = drop_word(graph, (), chain.from_iterable(layers))
        for i, (got, want) in enumerate(zip_longest(layers, map(_members, key)), 1):
            if got != want:
                raise HeapError(f"layer {i} is not the canonical form of its word")
        self.__dict__.update(graph=graph, key=key)

    @classmethod
    def _of_key(cls, graph: CommutationGraph, key: Key) -> Heap:
        """The heap whose key is `key`, a canonical key landed in this package."""
        h = cls.__new__(cls)
        fields = h.__dict__  # item stores: a call fewer per heap than update()
        fields["graph"], fields["key"] = graph, key
        return h

    @cached_property
    def layers(self) -> Layers:
        return tuple(map(_members, self.key))

    @property
    def size(self) -> int:
        return sum(map(int.bit_count, self.key))

    def cells(self) -> list[Cell]:
        return [(v, i + 1) for i, layer in enumerate(self.layers) for v in layer]

    def canonical_word(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.layers))

    def is_pyramid(self) -> bool:
        """Non-empty with a singleton base layer."""
        return bool(self.key) and self.key[0].bit_count() == 1


def empty_heap(g: CommutationGraph) -> Heap:
    return Heap._of_key(g, ())


def _drop(
    g: CommutationGraph, masks: list[int], tops: list[int], word: Iterable[int],
    coloring: Coloring | None = None,
) -> None:
    """The drop rule: lands the letters of `word` in order, updating `masks`
    (layer bitmasks, bottom-up) and `tops` (fibre -> top height) in place.

    A letter on fibre v lands one above the highest top in N[v]; with a
    coloring it rises further to the next layer of its own color, layer i
    carrying color ((i-1) mod r) + 1, so layers may stay empty.  Its bit is
    OR-ed into its layer.  Out-of-range letters, negative ones included,
    raise GraphError (checked inline: hot loop).
    """
    neighborhoods = g._neighborhoods
    count = len(neighborhoods)
    for v in word:
        if not 0 <= v < count:
            g.check_vertex(v)
        floor = 0
        for u in neighborhoods[v]:
            top = tops[u]
            if top > floor:
                floor = top
        if coloring is None:
            height = floor + 1
        else:
            height = floor + 1 + (coloring.colors[v] - 1 - floor) % coloring.r
        tops[v] = height
        if height > len(masks):
            masks += [0] * (height - len(masks))
        masks[height - 1] |= 1 << v


def push(h: Heap, v: int) -> Heap:
    """Drop one cell on fibre v onto h (see `_drop` for the rule)."""
    return Heap._of_key(h.graph, drop_word(h.graph, h.key, (v,)))


def heap_of_word(g: CommutationGraph, word: Iterable[int]) -> Heap:
    """Fold of push; the canonical heap of the trace of `word`.

    The word drops onto the empty heap through the one kernel `_drop`,
    which reads fibre tops and ORs each letter into its layer's bitmask:
    n cells cost O(n * maxdeg), and no layer is sorted.
    """
    return Heap._of_key(g, drop_word(g, (), word))


def product(h1: Heap, h2: Heap) -> Heap:
    """Monoid product: h2's canonical word dropped on h1's key."""
    if h2.graph is not h1.graph and h2.graph != h1.graph:
        raise HeapError("product of heaps over different graphs")
    return Heap._of_key(h1.graph, drop_word(h1.graph, h1.key, h2.canonical_word()))


def _fibre_tops(g: CommutationGraph, key: Key) -> list[int]:
    """Fibre -> height of its top cell in the heap `key`, 0 on an empty
    fibre: the tops `_drop` reads, off the layer bitmasks."""
    tops = [0] * g.vertex_count
    for height, mask in enumerate(key, 1):
        for v in _members(mask):
            tops[v] = height
    return tops


def drop_word(g: CommutationGraph, key: Key, word: Iterable[int]) -> Key:
    """Key of the heap `key` times `word`: the entry of heap products.

    The fibre tops are read off the layer bitmasks; the word's n letters
    land on a copy of the masks, one OR per letter and no layer sorted:
    O(n * maxdeg) plus the copy.
    """
    masks = list(key)
    _drop(g, masks, _fibre_tops(g, key), word)
    return tuple(masks)


def equivalent(g: CommutationGraph, u: Iterable[int], v: Iterable[int]) -> bool:
    """Trace equality: same heap iff equal modulo allowed commutations."""
    return heap_of_word(g, u) == heap_of_word(g, v)


def dual(h: Heap) -> Heap:
    """Heap of the reversed word (gravity flipped); an involution."""
    return heap_of_word(h.graph, tuple(reversed(h.canonical_word())))


def is_strict(h: Heap) -> bool:
    """No vertex occupies two consecutive layers.

    This is the layer form of the word criterion (consecutive occurrences
    of a letter have a true neighbour between them); the strict layer
    transfer applies the same rule to each new layer.
    """
    return all(not a & b for a, b in zip(h.key, h.key[1:]))


def strict_skeleton(h: Heap) -> tuple[Heap, dict[Cell, int]]:
    """Unique strict heap S and cell multiplicities expanding back to h.

    Runs are vertical columns: a cell (v, j) joins the run of (v, j-1)
    when that cell is in h, and starts a new run otherwise.  For j > 1,
    v at height j rests on a cell of N[v] at height j-1; that cell is
    either v itself, which the letter merges with, or a true neighbour,
    which blocks it from sliding any lower.  Runs land on S as their
    bottom cells are met, in canonical order: the support word is strict.
    """
    g = h.graph
    masks: list[int] = []
    tops = [0] * g.vertex_count
    mult: dict[Cell, int] = {}
    below: dict[int, Cell] = {}  # fibre -> S's cell of its run in the layer below
    for layer in h.layers:
        here = {}
        for v in layer:
            cell = below.get(v)
            if cell is None:  # a new run: its letter lands on S, at tops[v]
                _drop(g, masks, tops, (v,))
                cell = (v, tops[v])
            here[v] = cell
            mult[cell] = mult.get(cell, 0) + 1
        below = here
    return Heap._of_key(g, tuple(masks)), mult


def pyramid_split(h: Heap, c: Cell) -> tuple[Heap, Heap]:
    """Unique factorization h = X * P with P the pyramid generated by cell c.

    P is c plus every higher cell whose closed neighbourhood meets a fibre
    P reached in a lower layer: one sweep up the layers, growing the set of
    reached fibres, decides every cell.  Cells of one layer never interact
    (layers are stable sets), and P's word comes out in canonical order.
    P is up-closed, so X is a down-set of h: a cell's layer depends only on
    the cells below it, which all stay, so X keeps its layers.  Its key is
    h's with P's bits cleared; a layer emptied that way has only P above
    it, so only top layers empty, and they are dropped.  Only P is restacked.
    """
    masks = h.graph._masks
    reached = 0  # the fibres P holds so far
    rest = list(h.key)
    pyramid: list[int] = []
    for height, layer in enumerate(h.layers, 1):
        for v in layer:
            if (v, height) == c or reached & masks[v]:
                reached |= 1 << v
                pyramid.append(v)
                rest[height - 1] ^= 1 << v
    if not pyramid:
        raise HeapError(f"cell {c} not in heap")
    while rest and not rest[-1]:
        rest.pop()
    return Heap._of_key(h.graph, tuple(rest)), heap_of_word(h.graph, pyramid)


def _pyramid_roots(g: CommutationGraph, base: int | None) -> Iterable[int]:
    """The base layers of pyramids, as the transfer's `roots`: every vertex,
    or the base alone, checked against g."""
    if base is None:
        return range(g.vertex_count)
    g.check_vertex(base)
    return (base,)


def _layer_transfer(
    g: CommutationGraph,
    n: int,
    keys: bool,
    strict: bool = False,
    roots: Iterable[int] | None = None,
) -> Iterator[Iterable[list[Key] | int]]:
    """The one Cartier-Foata layer transfer: the heaps of each size 0..n.

    It yields, size by size, one payload per top layer: the keys of the
    heaps with that top when `keys`, else how many there are.  The empty
    heap grows by every non-empty stable set; for pyramids it grows by the
    singletons of `roots` alone (see `_pyramid_roots`) and is not yielded.
    A heap with top C grows by each stable D inside N[C], outside C too
    when `strict` (no vertex in two consecutive layers).  Those moves
    depend on that set alone, so at each size the payloads of the tops
    sharing it are joined by `+` and moved once; its moves are listed when
    it is first met, at the smallest size, where the most fit.  A move
    carries the keys of the heaps below D, and D is appended to each once,
    when their size comes up.  Each heap is reached once, by its own layers.
    """
    unit, zero = ([()], []) if keys else (1, 0)
    levels: list[dict] = [{0: unit}] + [{} for _ in range(n)]
    near: dict[int, int | None] = {0: None}  # top -> where its next layer lies
    # where a next layer lies -> (k, its stable subsets of k members), k >= 1
    moves = {} if roots is None else {None: [(1, [1 << v for v in roots])]}
    for s in range(n + 1):
        level, levels[s] = levels[s], {}  # complete: moves only grow heaps
        if keys and s:
            for top, below in level.items():
                level[top] = [key + (top,) for key in below]
        yield () if roots is not None and not s else level.values()
        joined: dict[int | None, list[Key] | int] = {}
        for top, payload in level.items():
            if top not in near:
                reach = g._closed_reach(top)
                near[top] = reach & ~top if strict else reach
            w = near[top]
            joined[w] = joined.get(w, zero) + payload
        for w, payload in joined.items():
            if w not in moves:
                moves[w] = list(enumerate(g._stable_sets(n - s, w)))[1:]
            for size, layers in moves[w]:
                if s + size > n:
                    break
                nxt = levels[s + size]
                for d in layers:
                    nxt[d] = nxt.get(d, zero) + payload


class _Words(dict):
    """Layer bitmask -> its word as a string, one character per vertex
    (`chr`), spelled on first lookup: joined words compare as their vertex
    tuples do.  A dict and not `functools.cache`: a hit is one C call, and
    `enumerate_heaps(path5, 7)` looks up 59,829 layers."""

    def __missing__(self, mask: int) -> str:
        word = self[mask] = "".join(map(chr, _members(mask)))
        return word


def enumerate_heaps(g: CommutationGraph, n: int) -> list[Heap]:
    """All canonical heaps of size <= n, by size, then canonical word.

    The keys the layer transfer `_layer_transfer` lists, each size sorted
    by its keys' words, spelled from each layer's word (`_Words`).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    word = _Words().__getitem__
    heaps: list[Heap] = []
    for payloads in _layer_transfer(g, n, True):
        keys = chain.from_iterable(payloads)
        heaps += [
            Heap._of_key(g, key)
            for key in sorted(keys, key=lambda k: "".join(map(word, k)))
        ]
    return heaps


def count_pyramids(g: CommutationGraph, n: int, base: int | None = None) -> list[int]:
    """Number of pyramids of each size 0..n (base vertex pinned if given),
    counted by the layer transfer `_layer_transfer`: no heap is built."""
    if n < 0:
        raise ValueError("n must be >= 0")
    levels = _layer_transfer(g, n, False, roots=_pyramid_roots(g, base))
    return [sum(counts) for counts in levels]


@dataclass(frozen=True)
class ColoredHeap:
    """Heap variant whose layer i may only hold vertices of color i (mod r).

    Layers may be empty; the flattened bottom-up reading is a representative
    word of the same trace as the standard heap of that word.
    """

    graph: CommutationGraph
    coloring: Coloring
    layers: tuple[tuple[int, ...], ...]

    def reading(self) -> tuple[int, ...]:
        return tuple(v for layer in self.layers for v in layer)


def colored_layers(
    g: CommutationGraph, coloring: Coloring, word: Iterable[int]
) -> ColoredHeap:
    """Colored layering of a word.

    Each letter lands in the lowest layer of its own color strictly above
    every occupied cell on neighbouring fibres (own fibre included).
    Layer i (1-based) carries color ((i-1) mod r) + 1.
    """
    coloring.validate(g)
    masks: list[int] = []
    _drop(g, masks, [0] * g.vertex_count, word, coloring)
    return ColoredHeap(g, coloring, tuple(map(_members, masks)))


def heap_to_json(h: Heap) -> str:
    """Portable JSON form: graph literal plus label layers."""
    payload = {
        "graph": format_graph_literal(h.graph),
        "layers": [[h.graph.labels[v] for v in layer] for layer in h.layers],
    }
    return json.dumps(payload, separators=(",", ":"))


def heap_from_json(text: str) -> Heap:
    try:
        payload = json.loads(text)
        if type(payload) is not dict:
            raise TypeError("not a JSON object")
        g = parse_graph_literal(payload["graph"])
        raw = payload["layers"]
        if type(raw) is not list or any(type(layer) is not list for layer in raw):
            raise TypeError("layers must be a list of lists of labels")
        layers = tuple(tuple(sorted(map(g.index, layer))) for layer in raw)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise HeapError(f"bad heap JSON: {exc}") from exc
    return Heap(g, layers)

