"""Heap monoid: canonical form, product, duality, strictness, pyramids."""

import copy
import pickle
import random
import time
from collections import deque
from dataclasses import FrozenInstanceError
from itertools import chain, combinations, product as product_of

import pytest
from hypothesis import given, settings, strategies as st

from heappieces import (
    Coloring,
    GraphError,
    Heap,
    HeapError,
    build_graph,
    colored_layers,
    configurations_series,
    count_pyramids,
    dual,
    empty_heap,
    enumerate_heaps,
    equivalent,
    heap_from_json,
    heap_of_word,
    heap_to_json,
    heaps_series,
    is_strict,
    linear_window,
    product,
    project,
    push,
    pyramid_split,
    strict_skeleton,
    trace_series,
)
from heappieces.heaps import _drop, drop_word
from heappieces.verify import graph_suite

from conftest import to_word


def _landings(g, word, tops, coloring=None):
    """The drop rule: landing height of each letter of `word`, in order.

    A letter on fibre v lands one above the highest occupied cell of its
    closed neighbourhood, read from `tops` (fibre -> top height, updated in
    place).  With a coloring it rises further to the next layer of its own
    color, layer i carrying color ((i-1) mod r) + 1.  Out-of-range letters,
    negative ones included, raise GraphError (checked inline: hot loop).
    """
    neighborhoods = g._neighborhoods
    count = len(neighborhoods)
    heights = []
    for v in word:
        if not 0 <= v < count:
            g.check_vertex(v)
        floor = 0
        for u in neighborhoods[v]:
            top = tops.get(u, 0)
            if top > floor:
                floor = top
        if coloring is None:
            height = floor + 1
        else:
            height = floor + 1 + (coloring.colors[v] - 1 - floor) % coloring.r
        tops[v] = height
        heights.append(height)
    return heights


def _place(layers, word, heights):
    """`layers` with each letter added at its height; re-sorts only touched layers."""
    out = list(layers)
    grown = {}
    for v, height in zip(word, heights):
        if height in grown:
            grown[height].append(v)
        else:
            out += [()] * (height - len(out))
            grown[height] = [*out[height - 1], v]
    for height, layer in grown.items():
        layer.sort()
        out[height - 1] = tuple(layer)
    return tuple(out)


def drop_by_sorted_layers(g, layers, word, coloring=None):
    """Declared oracle for the drop kernel `_drop`: the same rule on vertex tuples.

    The landings read a dict of fibre tops taken from `layers` (`_landings`),
    and each touched layer is rebuilt and sorted (`_place`).  Returns the new
    layers and the landing heights.
    """
    word = tuple(word)
    tops = {v: i for i, layer in enumerate(layers, 1) for v in layer}
    heights = _landings(g, word, tops, coloring)
    return _place(layers, word, heights), heights


def is_pyramid(h):
    """A pyramid is a non-empty heap whose base layer holds one cell."""
    return len(h.layers) > 0 and len(h.layers[0]) == 1


def is_strict_by_word(h):
    """Declared oracle for is_strict: the word criterion on the canonical word.

    For consecutive occurrences of a letter, some intervening letter must
    be a true neighbour (adjacent, not equal) of it.
    """
    word = h.canonical_word()
    last_seen = {}
    for i, v in enumerate(word):
        j = last_seen.get(v)
        if j is not None:
            between = word[j + 1 : i]
            if not any(u != v and v in h.graph._neighborhoods[u] for u in between):
                return False
        last_seen[v] = i
    return True


def strict_skeleton_by_merging(h):
    """Declared oracle for strict_skeleton: greedy run-merging.

    Each letter of the canonical word slides left past commuting runs and
    merges with an equal run when it reaches one; the support word lands
    by the drop rule.
    """
    g = h.graph
    runs = []  # [vertex, multiplicity]
    for v in h.canonical_word():
        merged = False
        for run in reversed(runs):
            u = run[0]
            if u == v:
                run[1] += 1
                merged = True
                break
            if v in g._neighborhoods[u]:
                break
        if not merged:
            runs.append([v, 1])
    support = tuple(v for v, _ in runs)
    layers, heights = drop_by_sorted_layers(g, (), support)
    mult = {(v, height): m for (v, m), height in zip(runs, heights)}
    return Heap(g, layers), mult


def pyramid_split_by_closure(h, c):
    """Declared oracle for pyramid_split: the up-closure search.

    P is every cell >= c for the order in which a cell precedes the
    higher cells of its closed neighbourhood; each part is restacked from
    its cells in (height, vertex) order.
    """
    cells = h.cells()
    if c not in cells:
        raise HeapError(f"cell {c} not in heap")
    closure = {c}
    frontier = [c]
    while frontier:
        v, i = frontier.pop()
        for cell in cells:
            u, j = cell
            if cell not in closure and j > i and v in h.graph._neighborhoods[u]:
                closure.add(cell)
                frontier.append(cell)

    def restack(chosen):
        word = [v for v, _ in sorted(chosen, key=lambda cell: (cell[1], cell[0]))]
        return heap_of_word(h.graph, word)

    return restack(set(cells) - closure), restack(closure)


def validate_by_checks(g, layers):
    """Declared oracle for the check `Heap(g, layers)` makes: the layer
    conditions one by one.

    Each layer is non-empty, ascending and stable, each cell above the
    first layer has a neighbour in the layer below, and the layers are
    the heap of their own word.
    """
    for i, layer in enumerate(layers):
        if not layer:
            raise HeapError(f"empty layer {i + 1}")
        if tuple(sorted(layer)) != layer:
            raise HeapError(f"layer {i + 1} not in ascending order")
        for v in layer:
            g.check_vertex(v)
        if any(v in g._neighborhoods[u] for u, v in combinations(layer, 2)):
            raise HeapError(f"layer {i + 1} is not a stable set")
        if i > 0:
            below = set().union(*(g._neighborhoods[u] for u in layers[i - 1]))
            if any(v not in below for v in layer):
                raise HeapError(f"unsupported cell in layer {i + 1}")
    if heap_of_word(g, chain.from_iterable(layers)).layers != layers:
        raise HeapError("layers are not the canonical form of their word")


def layer_tuples(values, max_cells, count):
    """Every tuple of `count` layers over `values` with at most max_cells
    cells in all, empty and unsorted layers included."""
    if count == 0:
        yield ()
        return
    for cells in range(max_cells + 1):
        for first in product_of(values, repeat=cells):
            for rest in layer_tuples(values, max_cells - cells, count - 1):
                yield (first, *rest)


def oracle_graphs(cube):
    return [g for _, g in graph_suite()] + [cube]


def expand_skeleton(skeleton, mult):
    """Inverse of strict_skeleton: repeat each cell's letter mult times."""
    word = [v for v, height in skeleton.cells() for _ in range(mult[(v, height)])]
    return heap_of_word(skeleton.graph, word)


def word_strategy(g, max_len=8):
    return st.lists(
        st.integers(0, g.vertex_count - 1), max_size=max_len
    ).map(tuple)


def equivalence_class(g, word):
    """All words reachable by adjacent transpositions of commuting letters."""
    seen = {tuple(word)}
    queue = deque(seen)
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            u, v = w[i], w[i + 1]
            if u != v and v not in g._neighborhoods[u]:
                swapped = w[:i] + (v, u) + w[i + 2 :]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return seen


class TestPush:
    def test_first_cell(self, window4):
        g, _ = window4
        h = push(empty_heap(g), g.index("0"))
        assert h.cells() == [(g.index("0"), 1)]

    def test_word_010(self, window4):
        g, _ = window4
        v0, v1 = g.index("0"), g.index("1")
        h = heap_of_word(g, [v0, v1, v0])
        assert h.cells() == [(v0, 1), (v1, 2), (v0, 3)]

    def test_commuting_letters_side_by_side(self, window4):
        g, _ = window4
        v0, v2 = g.index("0"), g.index("2")
        h = heap_of_word(g, [v0, v2])
        assert h.layers == ((min(v0, v2), max(v0, v2)),)

    def test_out_of_range(self, path3):
        with pytest.raises(Exception):
            push(empty_heap(path3), 7)


class TestHeapOfWord:
    def test_worked_example(self, cube):
        h = heap_of_word(cube, to_word(cube, "acbegeaf"))
        named = tuple(tuple(cube.labels[v] for v in l) for l in h.layers)
        assert named == (("a", "c"), ("b", "e", "g"), ("e",), ("a", "f"))

    def test_empty(self, cube):
        assert heap_of_word(cube, ()) == empty_heap(cube)

    def test_alternate_representative(self, cube):
        assert heap_of_word(cube, to_word(cube, "cgabeeaf")) == heap_of_word(
            cube, to_word(cube, "acbegeaf")
        )

    def test_canonical_word_round_trip(self, cube):
        h = heap_of_word(cube, to_word(cube, "acbegeaf"))
        assert h.canonical_word() == to_word(cube, "acbegeaf")
        assert heap_of_word(cube, h.canonical_word()) == h

    def test_cached_size_leaves_equality_and_hash(self, cube):
        word = to_word(cube, "acbegeaf")
        read, fresh = heap_of_word(cube, word), heap_of_word(cube, word)
        assert read.size == 8
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert {read: 1}[fresh] == 1

    def test_single_cell_word(self, path3):
        h = heap_of_word(path3, (2,))
        assert h.canonical_word() == (2,)

    def test_empty_canonical_word(self, path3):
        assert empty_heap(path3).canonical_word() == ()

    def test_canonical_fixed_point_exhaustive(self, path5):
        # every heap of size <= 8 is the heap of its canonical word; this is
        # the length-<=8 word round-trip statement, quotiented by the trace
        for h in enumerate_heaps(path5, 8):
            assert heap_of_word(path5, h.canonical_word()) == h

    @given(data=st.data())
    def test_theorem1_round_trip(self, path5, data):
        w = data.draw(word_strategy(path5, 8))
        h = heap_of_word(path5, w)
        assert heap_of_word(path5, h.canonical_word()) == h


class TestMonoid:
    def test_worked_product(self, cube):
        h = heap_of_word(cube, to_word(cube, "acbegeaf"))
        hc = product(h, heap_of_word(cube, to_word(cube, "c")))
        named = tuple(tuple(cube.labels[v] for v in l) for l in hc.layers)
        assert named == (("a", "c"), ("b", "e", "g"), ("c", "e"), ("a", "f"))

    def test_unit(self, path3):
        h = heap_of_word(path3, (0, 1, 2))
        assert product(h, empty_heap(path3)) == h
        assert product(empty_heap(path3), h) == h

    def test_noncommuting_order_matters(self, window4):
        g, _ = window4
        v0, v1 = g.index("0"), g.index("1")
        h01 = product(heap_of_word(g, (v0,)), heap_of_word(g, (v1,)))
        h10 = product(heap_of_word(g, (v1,)), heap_of_word(g, (v0,)))
        assert h01 != h10
        assert h01.cells() == [(v0, 1), (v1, 2)]
        assert h10.cells() == [(v1, 1), (v0, 2)]

    def test_graph_mismatch(self, path3, k3):
        with pytest.raises(HeapError):
            product(empty_heap(path3), empty_heap(k3))

    @given(data=st.data())
    def test_associativity(self, path5, data):
        a = heap_of_word(path5, data.draw(word_strategy(path5, 5)))
        b = heap_of_word(path5, data.draw(word_strategy(path5, 5)))
        c = heap_of_word(path5, data.draw(word_strategy(path5, 5)))
        assert product(product(a, b), c) == product(a, product(b, c))


class TestDropKernel:
    """Every heap operation shares one landing kernel; these pin it against
    the definitions it replaced (declared oracles: fold of push over the
    concatenated word, and the inversion formula for the size counts)."""

    @given(data=st.data())
    def test_product_is_concatenation(self, path5, data):
        w1 = data.draw(word_strategy(path5, 8))
        w2 = data.draw(word_strategy(path5, 8))
        got = product(heap_of_word(path5, w1), heap_of_word(path5, w2))
        assert got == heap_of_word(path5, w1 + w2)

    def test_product_is_concatenation_worked(self, cube):
        w1, w2 = to_word(cube, "acbegeaf"), to_word(cube, "cgdhbe")
        got = product(heap_of_word(cube, w1), heap_of_word(cube, w2))
        assert got == heap_of_word(cube, w1 + w2)

    @given(data=st.data())
    def test_drop_words_is_product_per_word(self, path5, data):
        h = heap_of_word(path5, data.draw(word_strategy(path5, 8)))
        words = data.draw(st.lists(word_strategy(path5, 6), max_size=4))
        want = [heap_of_word(path5, h.canonical_word() + w).key for w in words]
        assert [drop_word(path5, h.key, w) for w in words] == want

    def test_push_is_appended_letter(self, path5):
        for h in enumerate_heaps(path5, 5):
            for v in range(path5.vertex_count):
                assert push(h, v) == heap_of_word(path5, h.canonical_word() + (v,))

    @given(data=st.data())
    def test_one_color_layers_match_heap(self, edgeless3, data):
        one = Coloring((1,) * edgeless3.vertex_count, 1)
        w = data.draw(word_strategy(edgeless3, 8))
        assert colored_layers(edgeless3, one, w).layers == heap_of_word(edgeless3, w).layers

    @given(data=st.data())
    def test_one_color_kernel_is_plain_rule(self, cube, data):
        one = Coloring((1,) * cube.vertex_count, 1)
        w = data.draw(word_strategy(cube, 10))
        n = cube.vertex_count
        landed = []  # (masks, tops) that each drop leaves
        for coloring in (one, None):
            masks, tops = [], [0] * n
            _drop(cube, masks, tops, w, coloring)
            landed.append((masks, tops))
        assert landed[0] == landed[1]

    def test_size_counts_match_inversion(self, path5):
        counts = [0] * 9
        for h in enumerate_heaps(path5, 8):
            counts[h.size] += 1
        theta = project(configurations_series(path5, 8, signed=True)).invert()
        assert counts == list(theta.coefficients)

    def test_linear_cost_on_ragged_words(self, path5):
        # the kernel reads per-fibre tops, so a letter costs O(deg) however
        # many layers lie between it and the top; scanning the layer masks
        # down from the top would be quadratic on this word
        k = 20_000
        start = time.perf_counter()
        h = heap_of_word(path5, (0,) * k + (4,) * k)
        elapsed = time.perf_counter() - start
        assert h.layers == ((0, 4),) * k
        assert elapsed < 2.0

    def test_out_of_range_vertex(self, path3):
        h = heap_of_word(path3, (0, 1))
        with pytest.raises(GraphError):
            heap_of_word(path3, (0, 7))
        with pytest.raises(GraphError):
            push(h, 3)
        with pytest.raises(GraphError):
            push(h, -1)
        with pytest.raises(GraphError):
            product(h, Heap(path3, ((7,),)))
        with pytest.raises(GraphError):
            product(h, Heap(path3, ((-1,),)))
        with pytest.raises(GraphError):
            heap_of_word(path3, (-1,))


class TestEquivalence:
    def test_chain_word_pair(self, window4):
        g, _ = window4
        assert equivalent(g, to_word(g, "0102302302401"), to_word(g, "0102030203241"))

    def test_commuting_pair(self, path3):
        assert equivalent(path3, (0, 2), (2, 0))

    def test_noncommuting_pair(self, path3):
        assert not equivalent(path3, (0, 1), (1, 0))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_rewriting_search(self, path5, data):
        w = data.draw(word_strategy(path5, 7))
        cls = equivalence_class(path5, w)
        for other in list(cls)[:50]:
            assert equivalent(path5, w, other)
        outside = data.draw(word_strategy(path5, 7))
        assert equivalent(path5, w, outside) == (tuple(outside) in cls)


class TestDual:
    def test_empty(self, path3):
        assert dual(empty_heap(path3)) == empty_heap(path3)

    def test_two_cells(self, window4):
        g, _ = window4
        v0, v1 = g.index("0"), g.index("1")
        d = dual(heap_of_word(g, (v0, v1)))
        assert d.cells() == [(v1, 1), (v0, 2)]

    def test_single_cell_fixed(self, path3):
        h = heap_of_word(path3, (1,))
        assert dual(h) == h

    def test_involution_and_size(self, path5):
        for h in enumerate_heaps(path5, 4):
            assert dual(dual(h)) == h
            assert dual(h).size == h.size


class TestStrict:
    def test_examples(self, window4):
        g, _ = window4
        v0, v1, v2 = g.index("0"), g.index("1"), g.index("2")
        assert is_strict(heap_of_word(g, (v0, v1, v0)))
        assert not is_strict(heap_of_word(g, (v0, v0)))
        assert not is_strict(heap_of_word(g, (v0, v2, v0)))

    def test_word_and_layer_criteria_agree(self, path5):
        for h in enumerate_heaps(path5, 5):
            assert is_strict(h) == is_strict_by_word(h)

    def test_skeleton_examples(self, window4):
        g, _ = window4
        v0, v1 = g.index("0"), g.index("1")
        s, mult = strict_skeleton(heap_of_word(g, (v0, v0, v0)))
        assert s.cells() == [(v0, 1)] and mult == {(v0, 1): 3}
        s2, mult2 = strict_skeleton(heap_of_word(g, (v0, v1, v1, v0)))
        assert s2 == heap_of_word(g, (v0, v1, v0))
        assert mult2 == {(v0, 1): 1, (v1, 2): 2, (v0, 3): 1}

    def test_strict_heap_is_fixed_point(self, path3):
        h = heap_of_word(path3, (0, 1, 0))
        s, mult = strict_skeleton(h)
        assert s == h and all(m == 1 for m in mult.values())

    def test_skeleton_bijection(self, path5):
        import math

        heaps = enumerate_heaps(path5, 5)
        all_counts = [0] * 6
        strict_counts = [0] * 6
        for h in heaps:
            s, mult = strict_skeleton(h)
            assert is_strict(s)
            assert sum(mult.values()) == h.size
            assert expand_skeleton(s, mult) == h
            all_counts[h.size] += 1
            if is_strict(h):
                strict_counts[h.size] += 1
        # heaps of size n <-> (strict heap of size k, composition of n into k parts)
        for n in range(1, 6):
            assert all_counts[n] == sum(
                strict_counts[k] * math.comb(n - 1, k - 1) for k in range(1, n + 1)
            )


class TestFactorizationOracles:
    """The one-sweep rewrites against the searches they replaced."""

    def test_skeleton_equals_run_merging(self, cube):
        for g in oracle_graphs(cube):
            for h in enumerate_heaps(g, 6):
                assert strict_skeleton(h) == strict_skeleton_by_merging(h)

    def test_pyramid_split_equals_up_closure(self, cube):
        for g in oracle_graphs(cube):
            for h in enumerate_heaps(g, 6):
                for cell in h.cells():
                    assert pyramid_split(h, cell) == pyramid_split_by_closure(h, cell)


class TestFactorizationsAtScale:
    @pytest.fixture(scope="class")
    def big_heap(self):
        g, _ = linear_window(30)
        rng = random.Random(10_000)
        return heap_of_word(g, [rng.randrange(g.vertex_count) for _ in range(10_000)])

    def test_skeleton_expands_back(self, big_heap):
        s, mult = strict_skeleton(big_heap)
        assert is_strict(s)
        assert expand_skeleton(s, mult) == big_heap

    def test_pyramid_splits(self, big_heap):
        cells = big_heap.cells()
        for cell in cells[:: len(cells) // 20][:20]:
            x, p = pyramid_split(big_heap, cell)
            assert is_pyramid(p)
            assert product(x, p) == big_heap


class TestPyramids:
    def test_is_pyramid(self, cube, window4):
        g, _ = window4
        assert not is_pyramid(heap_of_word(cube, to_word(cube, "acbegeaf")))
        assert is_pyramid(heap_of_word(g, to_word(g, "010")))
        assert not is_pyramid(empty_heap(g))

    def test_worked_splits(self, cube):
        h = heap_of_word(cube, to_word(cube, "acbegeaf"))
        x, p = pyramid_split(h, (cube.index("g"), 2))
        assert x == heap_of_word(cube, to_word(cube, "acbeea"))
        assert p == heap_of_word(cube, to_word(cube, "gf"))
        x2, p2 = pyramid_split(h, (cube.index("f"), 4))
        assert x2 == heap_of_word(cube, to_word(cube, "acbegea"))
        assert p2 == heap_of_word(cube, to_word(cube, "f"))

    def test_single_cell(self, path3):
        h = heap_of_word(path3, (1,))
        assert pyramid_split(h, (1, 1)) == (empty_heap(path3), h)

    def test_missing_cell(self, path3):
        with pytest.raises(HeapError):
            pyramid_split(heap_of_word(path3, (0,)), (2, 1))

    def test_unique_factorization_per_cell(self, path3):
        for h in enumerate_heaps(path3, 5):
            splits = set()
            for cell in h.cells():
                x, p = pyramid_split(h, cell)
                assert is_pyramid(p)
                assert product(x, p) == h
                splits.add((x.layers, p.layers))
            assert len(splits) == h.size


def listed(s):
    """A trace series' heaps, sorted as `enumerate_heaps` lists heaps: by
    size, then canonical word."""
    return sorted(s.terms, key=lambda h: (h.size, h.canonical_word()))


class TestEnumeration:
    def test_counts_path3(self, path3):
        heaps = enumerate_heaps(path3, 3)
        assert sum(1 for h in heaps if h.size == 3) == 21
        pyramids = listed(trace_series(path3, "pi", 3))
        assert sum(1 for h in pyramids if h.size == 3) == 18

    def test_size_zero(self, k3):
        assert enumerate_heaps(k3, 0) == [empty_heap(k3)]

    def test_deterministic_order(self, path3):
        first = enumerate_heaps(path3, 4)
        second = enumerate_heaps(path3, 4)
        assert first == second
        sizes = [h.size for h in first]
        assert sizes == sorted(sizes)

    def test_base_filter(self, path3):
        based = listed(trace_series(path3, "pi", 3, 0))
        assert based and all(h.layers[0] == (0,) for h in based)


def all_heaps_by_closure(g, n):
    """Declared oracle of the layer transfer: breadth-first closure under push
    over every vertex, deduplicated by layers, sorted by (size, word)."""
    levels = [[empty_heap(g)]]
    seen = {()}
    for _ in range(n):
        nxt = []
        for h in levels[-1]:
            for v in range(g.vertex_count):
                child = push(h, v)
                if child.layers not in seen:
                    seen.add(child.layers)
                    nxt.append(child)
        levels.append(sorted(nxt, key=lambda x: x.canonical_word()))
    return [h for level in levels for h in level]


def filter_heaps(heaps, strict_only=False, pyramids_only=False, pyramid_base=None):
    """Strict heaps, pyramids and pyramids on one base: the heaps that
    `trace_series` lists for theta-strict and pi, picked out of a full
    enumeration."""
    return [
        h
        for h in heaps
        if (not strict_only or is_strict_by_word(h))
        and (not (pyramids_only or pyramid_base is not None) or is_pyramid(h))
        and (pyramid_base is None or h.layers[0] == (pyramid_base,))
    ]


def random_graph(seed):
    """A graph on 1-7 letters, each edge present with probability 0.4."""
    rng = random.Random(seed)
    labels = "abcdefg"[: 1 + seed % 7]
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    return build_graph(labels, [pair for pair in pairs if rng.random() < 0.4])


DROP_GRAPHS = [
    *graph_suite(),
    ("cube", None),  # the `cube` fixture
    *((f"random{k}", random_graph(k)) for k in range(24)),
]


@pytest.fixture(
    scope="module", params=DROP_GRAPHS, ids=[name for name, _ in DROP_GRAPHS]
)
def drop_graph(request, cube):
    return request.param[1] or cube


def greedy_coloring(g, r, data):
    """A proper coloring with colors 1..r drawn vertex by vertex among the
    colors no earlier neighbour holds, or None when some vertex has none."""
    colors = [0] * g.vertex_count
    for v in range(g.vertex_count):
        taken = {colors[u] for u in g._neighborhoods[v]}
        free = [c for c in range(1, r + 1) if c not in taken]
        if not free:
            return None
        colors[v] = data.draw(st.sampled_from(free))
    return Coloring(tuple(colors), r)


class TestDropOracle:
    """The bitmask drop kernel against `drop_by_sorted_layers`, through every
    entry that drops letters, on the standing graphs, the cube and seeded
    random graphs."""

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_words_push_product(self, drop_graph, data):
        g = drop_graph
        w1, w2 = data.draw(word_strategy(g, 10)), data.draw(word_strategy(g, 10))
        h1, h2 = heap_of_word(g, w1), heap_of_word(g, w2)
        assert h1.layers == drop_by_sorted_layers(g, (), w1)[0]
        v = data.draw(st.integers(0, g.vertex_count - 1))
        assert push(h1, v).layers == drop_by_sorted_layers(g, h1.layers, (v,))[0]
        want = drop_by_sorted_layers(g, h1.layers, h2.canonical_word())[0]
        assert product(h1, h2).layers == want

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_drop_words_per_word(self, drop_graph, data):
        g = drop_graph
        h = heap_of_word(g, data.draw(word_strategy(g, 10)))
        words = data.draw(st.lists(word_strategy(g, 6), max_size=5))
        got = [Heap._of_key(g, drop_word(g, h.key, w)).layers for w in words]
        assert got == [drop_by_sorted_layers(g, h.layers, w)[0] for w in words]

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_colored_layers(self, drop_graph, data):
        g = drop_graph
        w = data.draw(word_strategy(g, 10))
        for r in (1, 2, 3):
            coloring = greedy_coloring(g, r, data)
            if coloring is not None:  # r = 1 colors the edgeless graphs alone
                want = drop_by_sorted_layers(g, (), w, coloring)[0]
                assert colored_layers(g, coloring, w).layers == want

    def test_colored_layers_leave_empty_layers(self, window4):
        g, coloring = window4
        w = to_word(g, "1313")  # color 2 only, so every odd layer stays empty
        got = colored_layers(g, coloring, w).layers
        assert got == drop_by_sorted_layers(g, (), w, coloring)[0]
        assert got[0] == got[2] == () and got[1] and got[3]

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_strict_skeleton_multiplicities(self, drop_graph, data):
        h = heap_of_word(drop_graph, data.draw(word_strategy(drop_graph, 10)))
        assert strict_skeleton(h) == strict_skeleton_by_merging(h)

    def test_out_of_range_letters(self, drop_graph):
        g = drop_graph
        n = g.vertex_count
        h = heap_of_word(g, range(n))
        distinct = Coloring(tuple(range(1, n + 1)), n)
        for bad in (-1, n, n + 3):
            for call in (
                lambda: drop_by_sorted_layers(g, h.layers, (0, bad)),
                lambda: heap_of_word(g, (0, bad)),
                lambda: push(h, bad),
                lambda: product(h, Heap(g, ((bad,),))),
                lambda: product(Heap(g, ((bad,),)), h),
                lambda: drop_word(g, h.key, (0, bad)),
                lambda: colored_layers(g, distinct, (0, bad)),
                lambda: strict_skeleton(Heap(g, ((bad,),))),
            ):
                with pytest.raises(GraphError):
                    call()


class TestEnumerationOracle:
    """`enumerate_heaps` and the listings of `trace_series` (strict heaps,
    pyramids, pyramids on each base) against the push closure, filtered."""

    GRAPHS = [*graph_suite(), *((f"random{k}", random_graph(k)) for k in range(24))]

    @pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
    def test_matches_closure_then_filter(self, name, g):
        top = 6 if name in dict(graph_suite()) else 5 if g.vertex_count <= 5 else 4
        kinds = [("theta-strict", None, {"strict_only": True}),
                 ("pi", None, {"pyramids_only": True})]
        kinds += [("pi", v, {"pyramid_base": v}) for v in range(g.vertex_count)]
        everything = all_heaps_by_closure(g, top)
        for n in range(top + 1):
            upto_n = [h for h in everything if h.size <= n]
            got = enumerate_heaps(g, n)
            assert got == upto_n, n
            assert len(set(got)) == len(got)
            for kind, base, kw in kinds:
                got = listed(trace_series(g, kind, n, base))
                assert got == filter_heaps(upto_n, **kw), (n, kind, base)


def complete_graph(m):
    return build_graph([f"v{i}" for i in range(m)], list(combinations(
        [f"v{i}" for i in range(m)], 2)))


def count_pyramids_per_top(g, n, base=None):
    """Declared oracle of the reach-grouped `count_pyramids`: the same layer
    transfer with each top layer moving on its own, its moves listed by brute
    force over the subsets of the top's closed neighbourhood."""

    def stable(d):
        return all(v not in g._neighborhoods[u] for u, v in combinations(d, 2))

    roots = range(g.vertex_count) if base is None else (base,)
    levels = [{(): 1}] + [{} for _ in range(n)]
    for s, level in enumerate(levels):
        for top, c in level.items():
            if top:
                reach = sorted(set().union(*(g._neighborhoods[u] for u in top)))
                moves = [
                    d for k in range(1, n - s + 1)
                    for d in combinations(reach, k) if stable(d)
                ]
            else:
                moves = [(v,) for v in roots if s < n]
            for d in moves:
                nxt = levels[s + len(d)]
                nxt[d] = nxt.get(d, 0) + c
    return [0] + [sum(level.values()) for level in levels[1:]]


class TestCountPyramids:
    """count_pyramids against its declared oracles: the pyramids of the push
    closure, which shares no code with the layer transfer, and the transfer
    moving each top layer on its own."""

    GRAPHS = [*graph_suite(),
              ("star6", build_graph("abcdef", [("a", x) for x in "bcdef"])),
              ("edgeless6", build_graph("abcdef", []))]

    @pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
    def test_matches_enumeration(self, name, g):
        top = 7 if name in dict(graph_suite()) else 5
        everything = all_heaps_by_closure(g, top)
        for base in (None, *range(g.vertex_count)):
            want = [0] * (top + 1)
            for h in filter_heaps(everything, pyramids_only=True, pyramid_base=base):
                want[h.size] += 1
            for n in range(top + 1):  # each truncation lists its own moves
                assert count_pyramids(g, n, base) == want[: n + 1], (base, n)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_complete_graph_matches_per_top(self, m):
        g = complete_graph(m)
        for base in (None, *range(m)):
            assert count_pyramids(g, 9, base) == count_pyramids_per_top(g, 9, base)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_graph_matches_per_top(self, seed):
        g = random_graph(seed)
        for base in (None, *range(g.vertex_count)):
            assert count_pyramids(g, 7, base) == count_pyramids_per_top(g, 7, base)

    def test_complete_graph_counts_chains(self):
        # on K_m every heap is a chain of its letters, hence a pyramid
        g = complete_graph(100)
        assert count_pyramids(g, 400) == [0] + [100**k for k in range(1, 401)]
        assert count_pyramids(g, 400, 0) == [0] + [100 ** (k - 1) for k in range(1, 401)]

    def test_no_vertices(self):
        assert count_pyramids(build_graph([], []), 3) == [0, 0, 0, 0]

    def test_rejects_what_enumerate_heaps_rejects(self, path3):
        for call in (enumerate_heaps, count_pyramids):
            with pytest.raises(ValueError, match="n must be >= 0"):
                call(path3, -1)
        for bad in (-1, 3):
            with pytest.raises(GraphError):
                count_pyramids(path3, 2, bad)


class TestColoredLayers:
    def test_fig_words(self, window4):
        g, coloring = window4
        heap = colored_layers(g, coloring, to_word(g, "0102030203241"))
        assert heap.reading() == to_word(g, "0102302302401")

    def test_empty(self, window4):
        g, coloring = window4
        assert colored_layers(g, coloring, ()).layers == ()

    def test_single_letter_lands_on_its_color(self, window4):
        g, coloring = window4
        v1 = g.index("1")
        heap = colored_layers(g, coloring, (v1,))
        assert heap.layers == ((), (v1,))  # color 2 => layer 2

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reading_is_trace_equivalent(self, window4, data):
        g, coloring = window4
        w = data.draw(word_strategy(g, 8))
        heap = colored_layers(g, coloring, w)
        assert equivalent(g, w, heap.reading())

    def test_layer_color_classes(self, window4):
        g, coloring = window4
        heap = colored_layers(g, coloring, to_word(g, "0102030203241"))
        for i, layer in enumerate(heap.layers):
            want = (i % coloring.r) + 1
            assert all(coloring.colors[v] == want for v in layer)

    def test_improper_coloring_rejected(self, window4):
        from heappieces import Coloring, GraphError

        g, _ = window4
        bad = Coloring((1,) * g.vertex_count, 2)
        with pytest.raises(GraphError):
            colored_layers(g, bad, (0,))


class TestJson:
    def test_round_trip(self, cube):
        h = heap_of_word(cube, to_word(cube, "acbegeaf"))
        assert heap_from_json(heap_to_json(h)) == h

    def test_label_layers(self, path3):
        text = heap_to_json(heap_of_word(path3, (0, 2, 1)))
        assert '"layers":[["a","c"],["b"]]' in text

    @pytest.mark.parametrize(
        "text", ['{"graph": "vertices: a"}', "[1]", '{"graph": 5, "layers": []}']
    )
    def test_malformed_payload_is_heap_error(self, text):
        with pytest.raises(HeapError, match="bad heap JSON"):
            heap_from_json(text)

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("[1,2]", "not a JSON object"),
            ('"graph"', "not a JSON object"),
            ("nan", "Expecting value"),
            ('{"graph": "vertices: a"}', "'layers'"),
        ],
    )
    def test_names_the_fault(self, text, fault):
        with pytest.raises(HeapError, match="bad heap JSON: " + fault):
            heap_from_json(text)

    @pytest.mark.parametrize(
        "layers", ['["ac"]', '[{"a": 1, "c": 2}]', '"ac"', '[["a", 1]]', "null"]
    )
    def test_layers_that_are_not_label_lists(self, layers):
        text = '{"graph": "vertices: a b c\\nedge: a b\\nedge: b c\\n", "layers": %s}'
        with pytest.raises(HeapError, match="bad heap JSON"):
            heap_from_json(text % layers)

    def test_rejects_bad_layers(self, path3):
        bad = '{"graph": "vertices: a b c\\nedge: a b\\nedge: b c\\n", "layers": [["a","b"]]}'
        with pytest.raises(HeapError):
            heap_from_json(bad)


class TestValidate:
    """`Heap(g, layers)` checks its layers once, as it is built."""

    def test_catches_unsupported_layer(self, path3):
        with pytest.raises(HeapError):
            Heap(path3, ((0,), (2,)))

    def test_catches_non_stable_layer(self, path3):
        with pytest.raises(HeapError):
            Heap(path3, ((0, 1),))

    def test_accepts_enumerated(self, path3):
        for h in enumerate_heaps(path3, 4):
            assert Heap(path3, h.layers) == h

    def test_names_the_first_differing_layer(self, path3):
        with pytest.raises(HeapError, match="layer 1 is not the canonical form"):
            Heap(path3, ((0,), (2,)))
        with pytest.raises(HeapError, match="layer 1 is not the canonical form"):
            Heap(path3, [[2, 0]])  # unsorted, given as lists
        with pytest.raises(HeapError, match="layer 2 is not the canonical form"):
            Heap(path3, ((0,), ()))
        with pytest.raises(HeapError, match="layer 3 is not the canonical form"):
            Heap(path3, ((0,), (1,), (2,), (0,)))

    def test_out_of_range_vertex_is_graph_error(self, path3):
        for layers in (((7,),), ((0,), (), (7,)), ((2, 0), (-1,)), [[0], [7]]):
            with pytest.raises(GraphError):
                Heap(path3, layers)

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_bad_vertex_is_never_built(self, path5, bad):
        # no reader (heap_to_json, cells, a series dump) can meet such a heap
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            Heap(path5, ((bad,),))

    def test_layers_given_as_lists_are_a_value(self, path3):
        assert Heap(path3, [[0, 2], [1]]) == Heap(path3, ((0, 2), (1,)))
        assert Heap(path3, [[0]]).layers == ((0,),)

    def test_agrees_with_layer_checks(self):
        """Same verdict as the oracle on every tuple of up to 3 cells.

        Vertices run over -1..V, so out-of-range cells sit behind empty
        and unsorted layers too; there only the error class may differ.
        """
        for _, g in graph_suite():
            values = range(-1, g.vertex_count + 1)
            for layers in chain.from_iterable(
                layer_tuples(values, 3, count) for count in range(4)
            ):
                try:
                    validate_by_checks(g, layers)
                    want = None
                except (HeapError, GraphError):
                    want = HeapError
                out_of_range = any(
                    not 0 <= v < g.vertex_count for layer in layers for v in layer
                )
                if want and out_of_range:
                    want = GraphError
                if want is None:
                    assert Heap(g, layers).layers == layers
                else:
                    with pytest.raises(want):
                        Heap(g, layers)


class TestHashByLayers:
    def test_heaps_over_two_graphs_stay_two_keys(self, path3, edgeless3):
        a, b = heap_of_word(path3, (0, 2)), heap_of_word(edgeless3, (0, 2))
        assert a.layers == b.layers and hash(a) == hash(b)
        assert a != b
        table = {a: "path3", b: "edgeless3"}
        assert len(table) == 2
        assert table[heap_of_word(path3, (2, 0))] == "path3"
        assert table[heap_of_word(edgeless3, (2, 0))] == "edgeless3"


class TestValueSemantics:
    """A heap is its graph and its key; every other field is a view."""

    def test_every_builder_gives_one_value(self, path5):
        theta = heaps_series(path5, 4, signed=False)
        for h in enumerate_heaps(path5, 4):
            twins = [
                Heap(path5, h.layers),
                heap_of_word(path5, h.canonical_word()),
                next(t for t in theta.terms if t == h),
            ]
            for twin in twins:
                assert twin == h and hash(twin) == hash(h) and twin.key == h.key
        assert set(theta.terms) == set(enumerate_heaps(path5, 4))

    def test_pickle_and_deepcopy_before_and_after_the_view(self, path5):
        h = heap_of_word(path5, (0, 2, 1, 3, 0))
        for _ in range(2):  # the second pass after `layers` has been read
            for twin in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
                assert twin == h and hash(twin) == hash(h)
                assert twin.layers == h.layers == ((0, 2), (1, 3), (0,))
            assert "layers" in vars(h)

    def test_fields_cannot_be_assigned(self, path5):
        h = heap_of_word(path5, (0, 2))
        for name, value in (("key", (1,)), ("graph", path5), ("layers", ((0,),))):
            with pytest.raises(FrozenInstanceError):
                setattr(h, name, value)
        assert h.key == (5,)
