"""Trace series and univariate series: exact algebra and the named identities."""

import copy
import pickle
from fractions import Fraction as Q
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from heappieces import (
    GraphError,
    Heap,
    HeapError,
    SeriesError,
    build_graph,
    configurations_series,
    derive,
    enumerate_heaps,
    heap_of_word,
    heaps_series,
    invert,
    project,
    projected_series,
    product,
    pyramids_series,
    series_mul,
    strict_heaps_series,
    trace_series,
    univariate_substitute,
)
from heappieces import heaps as heaps_module, series as series_module
from heappieces.graphs import _members
from heappieces.heaps import empty_heap
from heappieces.series import (
    PROJECTED_KINDS,
    TraceSeries,
    UnivariateSeries,
    dump_trace_series,
    from_coefficient_fn,
    unit_series,
)
from heappieces.verify import graph_suite, suite_substitution


def from_counts(degree, counts):
    """Univariate series with the given leading coefficients, zero-padded."""
    coeffs = [Q(c) for c in counts][: degree + 1]
    coeffs += [Q(0)] * (degree + 1 - len(coeffs))
    return UnivariateSeries(degree, tuple(coeffs))


def poly_compose_oracle(outer, inner):
    """outer(inner(t)) by power accumulation: the oracle of univariate_substitute."""
    n = outer.degree
    coeffs = [Q(0)] * (n + 1)
    power = [Q(1)] + [Q(0)] * n  # inner^k, grown by raw convolution
    coeffs[0] = outer.coefficients[0]
    for k in range(1, n + 1):
        nxt = [Q(0)] * (n + 1)
        for i, a in enumerate(power):
            for j in range(n + 1 - i):
                nxt[i + j] += a * inner.coefficients[j]
        power = nxt
        for d in range(n + 1):
            coeffs[d] += outer.coefficients[k] * power[d]
    return UnivariateSeries(n, tuple(coeffs))


def random_series(g, degree, data, max_word=4):
    heaps = {}
    for _ in range(data.draw(st.integers(0, 5))):
        w = data.draw(
            st.lists(st.integers(0, g.vertex_count - 1), max_size=max_word)
        )
        h = heap_of_word(g, w)
        if h.size <= degree:
            heaps[h] = Q(data.draw(st.integers(-3, 3)))
    return TraceSeries(g, degree, heaps)


class TestTraceProduct:
    def test_unit_law(self, path3):
        s = heaps_series(path3, 3, signed=False)
        assert series_mul(s, unit_series(path3, 3)) == s
        assert series_mul(unit_series(path3, 3), s) == s

    def test_free_one_vertex_geometric(self):
        g = build_graph(["a"], [])
        n = 5
        one_minus_a = unit_series(g, n) - TraceSeries(
            g, n, {heap_of_word(g, (0,)): Q(1)}
        )
        geometric = TraceSeries(
            g, n, {heap_of_word(g, (0,) * k): Q(1) for k in range(n + 1)}
        )
        assert series_mul(one_minus_a, geometric) == unit_series(g, n)

    def test_inversion_pair(self, path3):
        gamma_bar = configurations_series(path3, 4, signed=True)
        theta = heaps_series(path3, 4, signed=False)
        assert series_mul(gamma_bar, theta) == unit_series(path3, 4)

    def test_operator_is_series_mul(self, path3):
        gamma_bar = configurations_series(path3, 4, signed=True)
        theta = heaps_series(path3, 4, signed=False)
        assert gamma_bar * theta == series_mul(gamma_bar, theta) == unit_series(path3, 4)

    def test_repr(self):
        g = build_graph(["a"], [])
        h = heap_of_word(g, (0,))
        assert repr(TraceSeries(g, 2, {h: 3})) == f"TraceSeries({g!r}, 2, {{{h!r}: 3}})"

    def test_mismatches_raise(self, path3, k3):
        with pytest.raises(SeriesError):
            series_mul(heaps_series(path3, 3, False), heaps_series(path3, 4, False))
        with pytest.raises(SeriesError):
            series_mul(heaps_series(path3, 3, False), heaps_series(k3, 3, False))


def spelled_word_trie(s):
    """The prefix trie of s's canonical words, each spelled from the root:
    the oracle of `series._word_trie`, which hangs each node off its parent."""
    root = [0, None]
    for bucket in s._sizes:
        for key, c in bucket.items():
            node = root
            for v in chain.from_iterable(map(_members, key)):
                if node[1] is None:
                    node[1] = {}
                node = node[1].setdefault(v, [0, None])
            node[0] = c
    return root


def assert_same_trie(trie, oracle):
    """Node by node: coefficients, leaves, and each node's children in order."""
    stack = [(trie, oracle)]
    while stack:
        (c, children), (c0, children0) = stack.pop()
        assert c == c0 and type(c) is type(c0)
        if children0 is None:
            assert children is None
            continue
        assert list(children) == list(children0)
        stack.extend(zip(children.values(), children0.values()))


def pairwise_mul(s1, s2):
    """Declared oracle for series_mul: `product(h1, h2)` summed pair by pair."""
    acc = {}
    for h1, c1 in s1.terms.items():
        for h2, c2 in s2.terms.items():
            if h1.size + h2.size <= s1.degree:
                key = product(h1, h2)
                acc[key] = acc.get(key, 0) + c1 * c2
    return TraceSeries(s1.graph, s1.degree, acc)


def pairwise_inverse(s):
    """Declared oracle for invert: T_k = -c0 sum_j T_{k-j} s_j, pair by pair."""
    c0 = s.coefficient(empty_heap(s.graph))
    parts = [{empty_heap(s.graph): c0}]
    for k in range(1, s.degree + 1):
        acc = {}
        for h2, c2 in s.terms.items():
            if 1 <= h2.size <= k:
                for h1, c1 in parts[k - h2.size].items():
                    key = product(h1, h2)
                    acc[key] = acc.get(key, 0) - c0 * c1 * c2
        parts.append(acc)
    return TraceSeries(s.graph, s.degree, {h: c for p in parts for h, c in p.items()})


class TestPairwiseOracle:
    @pytest.mark.parametrize("name", [name for name, _ in graph_suite()] + ["cube"])
    @pytest.mark.parametrize("signed", [True, False])
    def test_products_and_inverses_match(self, name, signed, request):
        g = dict(graph_suite()).get(name) or request.getfixturevalue(name)
        one = unit_series(g, 5)
        gamma = configurations_series(g, 5, signed)
        theta = heaps_series(g, 5, not signed)
        halved = one + (gamma - one).scale(Q(1, 2))  # Fraction coefficients
        for s1, s2 in ((gamma, theta), (theta, gamma), (halved, gamma)):
            assert series_mul(s1, s2) == pairwise_mul(s1, s2)
        for s in (gamma, theta, halved):
            assert invert(s) == pairwise_inverse(s)

    @pytest.mark.parametrize("name", [name for name, _ in graph_suite()])
    def test_right_factors_whose_prefixes_are_not_terms(self, name):
        # Gamma-bar and Theta hold every prefix of their canonical words, so
        # the products above never pass a word that only prefixes terms
        g = dict(graph_suite())[name]
        one = unit_series(g, 5)
        word = (tuple(range(g.vertex_count)) * 2)[:5]
        long = TraceSeries(g, 5, {heap_of_word(g, word): Q(-2, 3)})
        assert not long.coefficient(heap_of_word(g, word[:1]))
        rights = [pyramids_series(g, 5, signed) for signed in (True, False)]
        rights += [long, one + long]
        lefts = [configurations_series(g, 5, True), heaps_series(g, 5, False), one.scale(3)]
        for s1 in lefts:
            for s2 in rights:
                assert series_mul(s1, s2) == pairwise_mul(s1, s2)

    @given(
        data=st.data(),
        c0=st.sampled_from((1, -1)),
        name=st.sampled_from([name for name, _ in graph_suite()]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse_random_factors(self, data, c0, name):
        g = dict(graph_suite())[name]
        terms = dict(random_series(g, 5, data, max_word=5).terms)
        terms[empty_heap(g)] = c0
        s = TraceSeries(g, 5, terms)
        assert invert(s) == pairwise_inverse(s)
        theta = heaps_series(g, 5, signed=False)
        assert series_mul(theta, s) == pairwise_mul(theta, s)
        assert series_mul(s, theta) == pairwise_mul(s, theta)

    def test_one_letter_landed_per_trie_node(self, path5, monkeypatch):
        # Gamma-bar_6 * Theta_6 on path5 visits 10,583 key pairs; dropping
        # each whole right word on each left key would land 49,861 letters
        gamma_bar = configurations_series(path5, 6, signed=True)
        theta = heaps_series(path5, 6, signed=False)
        landed = []
        drop = heaps_module._drop

        def counting_drop(g, masks, tops, word, coloring=None):
            word = tuple(word)
            landed.append(len(word))
            return drop(g, masks, tops, word, coloring)

        monkeypatch.setattr(heaps_module, "_drop", counting_drop)
        monkeypatch.setattr(series_module, "_drop", counting_drop, raising=False)
        assert series_mul(gamma_bar, theta) == unit_series(path5, 6)
        assert sum(landed) == 10_570

    def test_word_trie_equals_the_spelled_trie_on_path5(self, path5):
        # the walk's order of children fixes each product bucket's order
        for s in (heaps_series(path5, 6, False), configurations_series(path5, 6, True)):
            assert_same_trie(series_module._word_trie(s), spelled_word_trie(s))

    @pytest.mark.parametrize("name", [name for name, _ in graph_suite()])
    def test_word_trie_equals_the_spelled_trie(self, name):
        # pyramids and the lone long word have prefixes that are not terms
        g = dict(graph_suite())[name]
        word = (tuple(range(g.vertex_count)) * 2)[:5]
        long = TraceSeries(g, 5, {heap_of_word(g, word): Q(-2, 3)})
        for s in (
            heaps_series(g, 5, False), configurations_series(g, 5, True),
            pyramids_series(g, 5, True), long, unit_series(g, 5) + long,
        ):
            assert_same_trie(series_module._word_trie(s), spelled_word_trie(s))

    @pytest.mark.parametrize("bad", [7, -1])
    def test_bad_vertex_raises(self, path3, bad):
        def terms():
            return {empty_heap(path3): 1, Heap(path3, ((bad,),)): 1}

        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            series_mul(unit_series(path3, 3), TraceSeries(path3, 3, terms()))
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            invert(TraceSeries(path3, 3, terms()))

    @pytest.mark.parametrize("bad", [7, -1])
    def test_bad_vertex_in_left_factor_raises(self, path5, bad):
        one = unit_series(path5, 3)
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            Heap(path5, ((0, 2), (bad,)))
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            series_mul(TraceSeries(path5, 3, {Heap(path5, ((bad,),)): 1}), one)
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            TraceSeries(path5, 3, {Heap(path5, ((0, 2), (bad,))): 1}) * one

    def test_equal_graphs_built_twice(self, path3):
        twin = build_graph("abc", [("a", "b"), ("b", "c")])
        assert twin is not path3 and twin == path3 and hash(twin) == hash(path3)
        ab, ca = heap_of_word(path3, (0, 1)), heap_of_word(twin, (2, 0))
        assert hash(heap_of_word(twin, (0, 1))) == hash(ab)
        assert product(ab, ca) == heap_of_word(path3, (0, 1, 2, 0))
        gamma = configurations_series(path3, 4, signed=True)
        theta = heaps_series(twin, 4, signed=False)
        assert series_mul(gamma, theta) == unit_series(path3, 4)
        assert series_mul(theta, gamma) == unit_series(twin, 4)
        with pytest.raises(SeriesError):
            series_mul(gamma, heaps_series(build_graph("abc", []), 4, signed=False))


class TestNamedSeries:
    def test_gamma_bar_path3(self, path3):
        s = configurations_series(path3, 2, signed=True)
        named = {
            tuple(tuple(path3.labels[v] for v in l) for l in h.layers): c
            for h, c in s.terms.items()
        }
        assert named == {
            (): Q(1),
            (("a",),): Q(-1),
            (("b",),): Q(-1),
            (("c",),): Q(-1),
            (("a", "c"),): Q(1),
        }

    def test_gamma_single_vertex(self):
        g = build_graph(["a"], [])
        s = configurations_series(g, 1, signed=True)
        assert project(s).coefficients == (Q(1), Q(-1))

    def test_gamma_unsigned_path3(self, path3):
        s = configurations_series(path3, 2, signed=False)
        assert all(c == 1 for c in s.terms.values())
        assert len(s.terms) == 5

    def test_theta_path3_degree2(self, path3):
        s = heaps_series(path3, 2, signed=False)
        assert project(s).coefficients == (Q(1), Q(3), Q(8))
        assert len(s.terms) == 12  # 1 + 3 + 8 traces

    def test_theta_degree_zero(self, k3):
        assert heaps_series(k3, 0, signed=False) == unit_series(k3, 0)

    def test_pi_path3(self, path3):
        s = pyramids_series(path3, 2)
        assert project(s).coefficients == (Q(0), Q(3), Q(7))

    def test_pi_tower(self):
        g = build_graph(["a"], [])
        s = pyramids_series(g, 3, base=0)
        assert project(s).coefficients == (Q(0), Q(1), Q(1), Q(1))

    def test_free_and_commutative_degenerations(self, k3, edgeless3):
        # complete graph: project(Theta) = 1/(1-3t)
        theta = project(heaps_series(k3, 5, signed=False))
        assert theta.coefficients == tuple(Q(3) ** n for n in range(6))
        # edgeless graph: project(GammaBar) = (1-t)^3
        gbar = project(configurations_series(edgeless3, 5, signed=True))
        assert gbar.coefficients == (Q(1), Q(-3), Q(3), Q(-1), Q(0), Q(0))


class TestListingIsTheSeries:
    """`enumerate_heaps` and `heaps_series` read one layer transfer: the heaps
    listed are the terms of the series, in the listing's order (by size,
    then canonical word).  tests/test_heaps.py checks the listings of the
    other kinds against the push closure."""

    @pytest.mark.parametrize(
        "g", [g for _, g in graph_suite()], ids=[name for name, _ in graph_suite()]
    )
    @pytest.mark.parametrize("degree", range(7))
    def test_heaps_are_the_sorted_terms(self, g, degree):
        def listed(s):
            return sorted(s.terms, key=lambda h: (h.size, h.canonical_word()))

        for signed in (False, True):
            assert enumerate_heaps(g, degree) == listed(heaps_series(g, degree, signed))


class TestDerive:
    def test_derive_unit(self, path3):
        assert derive(unit_series(path3, 3)) == TraceSeries(path3, 3, {})

    def test_derive_gamma_path3(self, path3):
        got = derive(configurations_series(path3, 2, signed=False))
        sizes = {h.size: c for h, c in got.terms.items() if h.size == 2}
        assert all(c == 2 for c in sizes.values())
        assert project(got).coefficients == (Q(0), Q(3), Q(2))

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_product_rule(self, path3, data):
        s1 = random_series(path3, 4, data)
        s2 = random_series(path3, 4, data)
        lhs = derive(series_mul(s1, s2))
        rhs = series_mul(derive(s1), s2) + series_mul(s1, derive(s2))
        assert lhs == rhs

    def test_project_derive_is_t_ddt(self, path3):
        s = heaps_series(path3, 4, signed=False)
        assert project(derive(s)) == project(s).t_derivative()


class TestInvert:
    def test_invert_gamma_bar_is_theta(self, path3):
        assert invert(configurations_series(path3, 4, signed=True)) == heaps_series(
            path3, 4, signed=False
        )

    def test_invert_gamma_is_theta_bar(self, path3):
        assert invert(configurations_series(path3, 4, signed=False)) == heaps_series(
            path3, 4, signed=True
        )

    def test_invert_one(self, path3):
        assert invert(unit_series(path3, 3)) == unit_series(path3, 3)

    def test_involution(self, path3):
        s = heaps_series(path3, 4, signed=False)
        assert invert(invert(s)) == s

    def test_bad_constant(self, path3):
        with pytest.raises(SeriesError):
            invert(heaps_series(path3, 3, signed=False).scale(2))


def power_sum_inverse(s):
    """Declared oracle for invert: s = c0 (1 + U), inverse c0 * sum (-U)^k.

    Built from `degree` full truncated products, independent of the
    one-pass recurrence.
    """
    c0 = s.coefficient(empty_heap(s.graph))
    one = unit_series(s.graph, s.degree)
    u = (s - one.scale(c0)).scale(c0)
    acc = power = one
    for _ in range(s.degree):
        power = series_mul(power, u).scale(-1)
        acc = acc + power
    return acc.scale(c0)


class TestInvertOracle:
    @pytest.mark.parametrize(
        "g", [g for _, g in graph_suite()], ids=[name for name, _ in graph_suite()]
    )
    def test_matches_power_sum(self, g):
        for degree in range(6):
            for signed in (True, False):
                for c0 in (1, -1):
                    s = configurations_series(g, degree, signed).scale(c0)
                    assert invert(s) == power_sum_inverse(s), (degree, signed, c0)

    def test_non_integer_terms(self, path5):
        gamma_bar = configurations_series(path5, 5, signed=True)
        s = TraceSeries(
            path5,
            5,
            {h: Q(c, 2) if h.size == 2 else c for h, c in gamma_bar.terms.items()},
        )
        inv = invert(s)
        assert inv == power_sum_inverse(s)
        assert any(type(c) is Q for c in inv.terms.values())
        assert series_mul(s, inv) == unit_series(path5, 5)

    def test_two_sided_noncommuting(self, path3):
        ab, ba = heap_of_word(path3, (0, 1)), heap_of_word(path3, (1, 0))
        assert ab != ba
        for c0 in (1, -1):
            s = TraceSeries(
                path3,
                6,
                {
                    empty_heap(path3): c0,
                    ab: 2,
                    ba: Q(-1, 3),
                    heap_of_word(path3, (1,)): 1,
                    heap_of_word(path3, (2, 1, 0)): -1,
                },
            )
            inv = invert(s)
            one = unit_series(path3, 6)
            assert series_mul(s, inv) == one
            assert series_mul(inv, s) == one
            assert inv == power_sum_inverse(s)

    @given(data=st.data(), c0=st.sampled_from((1, -1)))
    @settings(max_examples=30, deadline=None)
    def test_two_sided_random(self, path5, data, c0):
        terms = dict(random_series(path5, 5, data).terms)
        terms[empty_heap(path5)] = c0
        s = TraceSeries(path5, 5, terms)
        inv = invert(s)
        one = unit_series(path5, 5)
        assert series_mul(s, inv) == one
        assert series_mul(inv, s) == one


class TestCoefficientTypes:
    def test_named_series_have_int_coefficients(self, path5):
        gamma_bar = configurations_series(path5, 5, signed=True)
        theta = heaps_series(path5, 5, signed=False)
        for s in (
            gamma_bar,
            configurations_series(path5, 5, signed=False),
            theta,
            heaps_series(path5, 5, signed=True),
            strict_heaps_series(path5, 5, signed=True),
            pyramids_series(path5, 5),
            pyramids_series(path5, 5, signed=True, base=2),
            invert(gamma_bar),
            series_mul(theta, gamma_bar),
            unit_series(path5, 5),
        ):
            assert all(type(c) is int for c in s.terms.values())

    def test_scale(self, path3):
        s = heaps_series(path3, 3, signed=True)
        assert all(type(c) is Q for c in s.scale(Q(1, 2)).terms.values())
        doubled = s.scale(Q(2))
        assert all(type(c) is int for c in doubled.terms.values())
        assert doubled == s + s

    def test_fraction_one_equals_int_one(self, path3):
        heaps = heaps_series(path3, 3, signed=False).terms
        from_ints = TraceSeries(path3, 3, {h: 1 for h in heaps})
        from_fractions = TraceSeries(path3, 3, {h: Q(1) for h in heaps})
        assert from_fractions == from_ints
        assert dump_trace_series(from_fractions) == dump_trace_series(from_ints)
        assert all(type(c) is int for c in from_fractions.terms.values())


class TestTraceSeriesChecks:
    """What the one pass of TraceSeries.__post_init__ checks and normalises."""

    def test_term_beyond_degree_raises(self, path3):
        with pytest.raises(SeriesError, match="beyond truncation degree"):
            TraceSeries(path3, 2, {heap_of_word(path3, (0, 1, 2)): 1})

    def test_term_over_another_graph_raises(self, path3, k3):
        with pytest.raises(SeriesError, match="different graph"):
            TraceSeries(path3, 2, {heap_of_word(k3, (0,)): 1})

    def test_zero_coefficients_dropped(self, path3):
        a, b = heap_of_word(path3, (0,)), heap_of_word(path3, (1,))
        s = TraceSeries(path3, 2, {a: 0, b: Q(0), empty_heap(path3): 1})
        assert s.terms == {empty_heap(path3): 1}

    def test_integral_fraction_stored_as_int(self, path3):
        a, b = heap_of_word(path3, (0,)), heap_of_word(path3, (1,))
        s = TraceSeries(path3, 2, {a: Q(4, 2), b: Q(1, 3)})
        assert s.terms == {a: 2, b: Q(1, 3)}
        assert type(s.terms[a]) is int and type(s.terms[b]) is Q

    def test_negative_degree_raises(self, path3):
        for build in (
            lambda: TraceSeries(path3, -1, {}),
            lambda: UnivariateSeries(-1, ()),
            lambda: from_coefficient_fn(-1, lambda n: 1),
            lambda: suite_substitution(-1),
        ):
            with pytest.raises(ValueError, match="degree must be >= 0"):
                build()


class TestBadVertexTerms:
    """A heap with an out-of-range vertex raises GraphError where it is
    built, so no series, dump, sum, product or projection ever reads it."""

    @pytest.mark.parametrize("bad", [7, -1])
    def test_every_route_raises(self, path5, bad):
        def terms():
            return {Heap(path5, ((bad,),)): 1}

        one = unit_series(path5, 3)
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            dump_trace_series(TraceSeries(path5, 3, terms()))
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            one + TraceSeries(path5, 3, terms())
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            series_mul(one, TraceSeries(path5, 3, terms()))
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            project(TraceSeries(path5, 3, {empty_heap(path5): 1, **terms()}))

    def test_zero_term_is_dropped(self, path5):
        zero = heap_of_word(path5, (1, 3))
        s = TraceSeries(path5, 3, {zero: 0, empty_heap(path5): 1})
        assert s == unit_series(path5, 3) and s.coefficient(zero) == 0


class TestKeyedTerms:
    """Terms live as keys by size; `terms` is a Heap view built once."""

    def test_terms_view_is_built_once_and_read_only(self, path5):
        s = heaps_series(path5, 4, signed=True)
        assert s.terms is s.terms
        with pytest.raises(TypeError):
            s.terms[empty_heap(path5)] = 2
        assert dict(s.terms) == {
            h: (-1) ** h.size for h in enumerate_heaps(path5, 4)
        }

    def test_series_is_immutable(self, path3):
        s = unit_series(path3, 2)
        with pytest.raises(AttributeError):
            s.degree = 3
        with pytest.raises(AttributeError):
            del s.graph

    def test_algebra_builds_no_view(self, path5):
        gamma_bar = configurations_series(path5, 5, signed=True)
        theta = heaps_series(path5, 5, signed=False)
        made = [
            invert(gamma_bar),
            series_mul(gamma_bar, theta),
            theta + gamma_bar,
            theta.scale(Q(1, 2)),
            derive(theta),
            pyramids_series(path5, 5, base=2),
            strict_heaps_series(path5, 5, signed=True),
        ]
        assert made[0] == theta and made[1] == unit_series(path5, 5)
        project(made[2])
        dump_trace_series(made[3])
        one = empty_heap(path5)
        assert [s.coefficient(one) for s in made[2:4]] == [2, Q(1, 2)]
        assert all("terms" not in vars(s) for s in (gamma_bar, theta, *made))

    def test_pickle_and_deepcopy_before_and_after_the_view(self, path5):
        s = heaps_series(path5, 3, signed=True).scale(Q(1, 2))
        for _ in range(2):  # the second pass after `terms` has been read
            for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
                assert twin == s and "terms" not in vars(twin)
                assert dict(twin.terms) == dict(s.terms)
        assert "terms" in vars(s)

    def test_sizes_stop_at_the_largest_term(self, path5):
        # path5's largest stable set has 3 vertices: a degree of 10^8 costs
        # four sizes, through the algebra too
        huge = 10**8
        gamma = configurations_series(path5, huge, signed=False)
        gamma_bar = configurations_series(path5, huge, signed=True)
        one = unit_series(path5, huge)
        made = [
            gamma, gamma + gamma_bar, gamma - gamma, gamma.scale(2), derive(gamma),
            series_mul(gamma_bar, one), series_mul(one, one), invert(one),
            TraceSeries(path5, huge, {heap_of_word(path5, (1, 1)): 3}),
        ]
        assert [len(s._sizes) for s in made] == [4, 3, 0, 4, 4, 4, 1, 1, 3]
        assert made[1] == (gamma + gamma_bar) + TraceSeries(path5, huge, {})
        assert made[-1].coefficient(heap_of_word(path5, (1, 1))) == 3
        assert made[-1].coefficient(heap_of_word(path5, (1, 1, 1, 1))) == 0
        assert dump_trace_series(gamma) == dump_trace_series(
            configurations_series(path5, 3, signed=False)
        )
        small = configurations_series(path5, 5, signed=True)
        assert project(small).coefficients == (1, -5, 6, -1, 0, 0)
        assert series_mul(small, heaps_series(path5, 5, False)) == unit_series(path5, 5)

    @pytest.mark.parametrize(
        "layers",
        [((0, 0),), ((2, 0),), ((0,), (2,)), ((0, 1),), ((), (0,)), ((0,), ())],
    )
    def test_term_that_is_not_canonical_raises(self, path3, layers):
        # a repeated or unsorted vertex, a layer off its support, an unstable
        # layer, an empty layer: none is the canonical form of its word
        with pytest.raises(HeapError, match="not the canonical form"):
            TraceSeries(path3, 3, {Heap(path3, layers): 1})
        with pytest.raises(HeapError, match="not the canonical form"):
            unit_series(path3, 3).coefficient(Heap(path3, layers))
        with pytest.raises(HeapError, match="not the canonical form"):
            Heap(path3, layers)

    def test_coefficient(self, path3, k3):
        s = heaps_series(path3, 2, signed=True)
        assert s.coefficient(heap_of_word(path3, (0, 2))) == 1
        assert s.coefficient(heap_of_word(path3, (1,))) == -1
        assert s.coefficient(heap_of_word(path3, (0, 1, 2))) == 0  # beyond the degree
        assert s.coefficient(heap_of_word(k3, (0,))) == 0  # another graph


class TestUnivariate:
    def test_project_examples(self, path3):
        assert project(heaps_series(path3, 3, signed=False)).coefficients == (
            Q(1), Q(3), Q(8), Q(21),
        )
        assert project(unit_series(path3, 2)).coefficients == (Q(1), Q(0), Q(0))

    def test_substitute_motzkin_to_catalan(self):
        motzkin = from_counts(7, (1, 1, 1, 2, 4, 9, 21, 51))
        catalan = from_counts(7, (1, 1, 2, 5, 14, 42, 132, 429))
        got = univariate_substitute(motzkin, "t/(1-t)")
        assert got == catalan
        # independent composition oracle agrees
        inner = from_counts(7, (0,) + (1,) * 7)  # t/(1-t)
        assert poly_compose_oracle(motzkin, inner) == got

    @pytest.mark.parametrize("mode, sign", [("t/(1-t)", 1), ("t/(1+t)", -1)])
    def test_substitute_matches_oracle(self, mode, sign):
        for degree in range(11):
            # t/(1-t) = t + t^2 + ..., t/(1+t) = t - t^2 + t^3 - ...
            inner = from_counts(
                degree, [0] + [sign ** (n - 1) for n in range(1, degree + 1)]
            )
            for coeffs in (
                [(-2) ** n + 3 * n for n in range(degree + 1)],
                [Q(n - 2, n + 1) for n in range(degree + 1)],
            ):
                s = from_counts(degree, coeffs)
                assert univariate_substitute(s, mode) == poly_compose_oracle(s, inner)

    def test_substitute_square_to_triangular_at_degree_1000(self):
        from heappieces import animal_count
        from heappieces.series import from_coefficient_fn

        def counts(lattice):
            return from_coefficient_fn(
                1000, lambda n: animal_count(n, lattice, "point") if n else 0
            )

        square, triangular = counts("square"), counts("triangular")
        assert univariate_substitute(square, "t/(1-t)") == triangular
        assert univariate_substitute(triangular, "t/(1+t)") == square

    def test_substitute_rejects_unknown_mode(self):
        with pytest.raises(SeriesError):
            univariate_substitute(from_counts(2, (1,)), "t/(1-2t)")

    def test_coefficient_types(self):
        """The trace-series rule: an int unless a true fraction arises, never a float."""

        def exact(x):
            return all(
                type(c) is (int if c.denominator == 1 else Q) for c in x.coefficients
            )

        s = from_counts(6, (1, 3, 1))
        t = from_counts(6, (2, -1, 0, 5))
        for x in (
            s, s + t, s - t, s * t, s.scale(3), s.t_derivative(), s.invert(),
            univariate_substitute(s, "t/(1-t)"), univariate_substitute(s, "t/(1+t)"),
            from_counts(6, (Q(4, 2), Q(1))), s.scale(Q(1, 2)).scale(2),
        ):
            assert exact(x) and all(type(c) is int for c in x.coefficients)
        for x in (s.scale(Q(1, 2)), t.invert()):
            assert exact(x) and any(type(c) is Q for c in x.coefficients)
        assert t.invert()[0] == Q(1, 2)
        assert t.invert() * t == from_counts(6, (1,))

    def test_substitute_round_trip(self):
        s = from_counts(6, (1, 4, 1, 5, 9, 2, 6))
        back = univariate_substitute(univariate_substitute(s, "t/(1-t)"), "t/(1+t)")
        assert back == s

    def test_constant_unchanged(self):
        s = from_counts(4, (7,))
        assert univariate_substitute(s, "t/(1-t)") == s

    def test_division(self):
        num = from_counts(4, (0, 3, 2))
        den = from_counts(4, (1, 3, 1))
        quot = num * den.invert()
        assert quot * den == num
        for s in (from_counts(300, (1, -100)), from_counts(300, (2, 0, 0, -3, 0, 0, 0, 1))):
            assert s.invert() * s == from_counts(300, (1,))

    def test_mixed_degree_raises(self):
        with pytest.raises(SeriesError):
            from_counts(3, (1,)) + from_counts(4, (1,))

    def test_coefficient_count_must_be_degree_plus_one(self):
        with pytest.raises(SeriesError, match="coefficient count must be degree \\+ 1"):
            UnivariateSeries(1, (1, 2, 3))

    def test_invert_rejects_zero_constant(self):
        with pytest.raises(SeriesError, match="constant term zero is not invertible"):
            from_counts(3, (0, 1)).invert()

    def test_theorem4_projected(self, path3):
        from heappieces import linear_window

        graphs = [path3, build_graph("ab", [("a", "b")]),
                  linear_window(1)[0], linear_window(2)[0]]
        for g in graphs:
            allp = project(heaps_series(g, 6, signed=False))
            strictp = project(strict_heaps_series(g, 6, signed=False))
            assert univariate_substitute(strictp, "t/(1-t)") == allp
            assert univariate_substitute(allp, "t/(1+t)") == strictp


def stable_sets(g):
    """Every stable set of g, from all vertex subsets."""
    vertices = range(g.vertex_count)
    return [
        frozenset(c)
        for k in range(g.vertex_count + 1)
        for c in combinations(vertices, k)
        if not any(v in g._neighborhoods[u] for u, v in combinations(c, 2))
    ]


def signed_stable_counts(g, degree, v=None):
    """Gamma-bar's coefficients, or Gamma-bar_v's (the stable sets holding v)."""
    out = [0] * (degree + 1)
    for c in stable_sets(g):
        if (v is None or v in c) and len(c) <= degree:
            out[len(c)] += (-1) ** len(c)
    return out


def divide(num, den):
    """num/den as int coefficient lists by long division; den[0] == 1."""
    steps = [(j, d) for j, d in enumerate(den) if j and d]
    out = []
    for k, c in enumerate(num):
        out.append(c - sum(d * out[k - j] for j, d in steps if j <= k))
    return out


def strict_heap_counts(g, degree):
    """Strict heaps by size, by a layer transfer over sets: a layer D may
    follow C when it is a non-empty stable set inside N[C] disjoint from C."""
    layers = [c for c in stable_sets(g) if c]
    tops = [{} for _ in range(degree + 1)]  # size -> top layer -> count
    for c in layers:
        if len(c) <= degree:
            tops[len(c)][c] = 1
    out = [1] + [0] * degree
    for size in range(1, degree + 1):
        for top, count in tops[size].items():
            out[size] += count
            reach = set().union(*(g._neighborhoods[v] for v in top))
            for d in layers:
                if size + len(d) <= degree and d <= reach and not d & top:
                    tops[size + len(d)][d] = tops[size + len(d)].get(d, 0) + count
    return out


class TestProjectedSeries:
    @pytest.mark.parametrize(
        "g", [g for _, g in graph_suite()], ids=[name for name, _ in graph_suite()]
    )
    def test_matches_enumerated_projection(self, g):
        # trace_series, which lists the heaps, is the declared oracle here
        for kind in PROJECTED_KINDS:
            bases = range(g.vertex_count) if kind.startswith("pi") else ()
            for base in (None, *bases):
                for n in range(7):
                    got = projected_series(g, kind, n, base)
                    assert got == project(trace_series(g, kind, n, base)), (kind, base, n)
                    assert all(type(c) is int for c in got.coefficients)

    def test_no_vertices(self):
        g = build_graph([], [])
        for kind in PROJECTED_KINDS:
            want = "0 0 0 0" if kind.startswith("pi") else "1 0 0 0"
            assert str(projected_series(g, kind, 3)) == want

    def test_rejects_what_enumeration_rejects(self, path3):
        for series in (projected_series, trace_series):
            for kind in PROJECTED_KINDS:
                with pytest.raises(ValueError, match="degree must be >= 0"):
                    series(path3, kind, -1)
            for bad in (-1, 3):
                for kind in ("pi", "pi-bar"):
                    with pytest.raises(GraphError):
                        series(path3, kind, 2, bad)
        for build in (
            configurations_series, heaps_series, strict_heaps_series, pyramids_series
        ):
            for signed in (False, True):
                with pytest.raises(ValueError, match="degree must be >= 0"):
                    build(path3, -1, signed)

    def test_rejects_unknown_kind_and_stray_base(self, path3):
        for series in (projected_series, trace_series):
            with pytest.raises(SeriesError, match="unknown series kind"):
                series(path3, "delta", 2)
            with pytest.raises(SeriesError, match="base applies to pi and pi-bar"):
                series(path3, "theta", 2, 0)


class TestProjectedAtDegree200:
    """Each projected kind at degree 200 against a route it shares no code with."""

    DEGREE = 200

    @pytest.fixture(params=["path5", "cycle4"])
    def g(self, request):
        return request.getfixturevalue(request.param)

    def test_theta_log_derivative_is_pi(self, g):
        theta = projected_series(g, "theta", self.DEGREE)
        pi = projected_series(g, "pi", self.DEGREE)
        assert theta.t_derivative() == theta * pi

    def test_theta_is_one_over_gamma_bar(self, g):
        one = [1] + [0] * self.DEGREE
        want = divide(one, signed_stable_counts(g, self.DEGREE))
        assert list(projected_series(g, "theta", self.DEGREE).coefficients) == want
        bar = projected_series(g, "theta-bar", self.DEGREE).coefficients
        assert list(bar) == [(-1) ** n * c for n, c in enumerate(want)]

    def test_based_pyramids_are_minus_gamma_bar_v_over_gamma_bar(self, g):
        gamma_bar = signed_stable_counts(g, self.DEGREE)
        for v in range(g.vertex_count):
            minus = [-c for c in signed_stable_counts(g, self.DEGREE, v)]
            want = divide(minus, gamma_bar)
            got = projected_series(g, "pi", self.DEGREE, v).coefficients
            assert list(got) == want

    def test_theta_strict_is_the_strict_layer_transfer(self, g):
        got = projected_series(g, "theta-strict", self.DEGREE).coefficients
        assert list(got) == strict_heap_counts(g, self.DEGREE)


class TestDump:
    def test_path3_gamma_bar(self, path3):
        text = dump_trace_series(configurations_series(path3, 2, signed=True))
        assert text.splitlines() == [
            "1\t1",
            "-1\ta",
            "-1\tb",
            "-1\tc",
            "1\tac",
        ]

    def test_univariate_str(self):
        assert str(from_counts(3, (1, 3, 1))) == "1 3 1 0"
