"""Gas observables: partition functions, mean counts two ways, chain density."""

import math
from fractions import Fraction as Q

import pytest

from heappieces import animal_count, build_graph, count_pyramids, linear_window
from heappieces.gas import (
    GasError,
    density_taylor_oracle,
    evaluate_density,
    linear_density,
    mean_particles_direct,
    mean_particles_pyramids,
    partition_function,
)
from heappieces.series import UnivariateSeries, univariate_substitute
from heappieces.verify import graph_suite

from test_heaps import all_heaps_by_closure, filter_heaps


def divide_oracle(num, den, degree):
    """Long division with exact rationals, independent of invert()."""
    out = []
    rem = list(num) + [Q(0)] * (degree + 1 - len(num))
    den = list(den) + [Q(0)] * (degree + 1 - len(den))
    for k in range(degree + 1):
        c = rem[k] / den[0]
        out.append(c)
        for j in range(degree + 1 - k):
            rem[k + j] -= c * den[j]
    return UnivariateSeries(degree, tuple(out))


def mean_particles_by_enumeration(g, degree):
    """Declared oracle of mean_particles_pyramids: sum (-1)^{n-1} p_n t^n
    with p_n counted among the pyramids of the push closure, which shares
    no code with the layer transfer."""
    counts = [0] * (degree + 1)
    for h in filter_heaps(all_heaps_by_closure(g, degree), pyramids_only=True):
        counts[h.size] += 1
    coeffs = [0] + [(-1) ** (n - 1) * counts[n] for n in range(1, degree + 1)]
    return UnivariateSeries(degree, tuple(coeffs))


class TestPartitionFunction:
    def test_path3(self, path3):
        assert partition_function(path3, 3).coefficients == (Q(1), Q(3), Q(1), Q(0))

    def test_single_vertex(self):
        g = build_graph(["a"], [])
        assert partition_function(g, 2).coefficients == (Q(1), Q(1), Q(0))

    def test_edgeless_is_binomial(self, edgeless3):
        assert partition_function(edgeless3, 4).coefficients == (
            Q(1), Q(3), Q(3), Q(1), Q(0),
        )

    def test_z_at_zero_is_one(self):
        for _, g in graph_suite():
            assert partition_function(g, 3).coefficients[0] == 1


class TestMeanParticles:
    def test_single_vertex_alternating(self):
        g = build_graph(["a"], [])
        got = mean_particles_direct(g, 5)
        assert got.coefficients == (Q(0), Q(1), Q(-1), Q(1), Q(-1), Q(1))

    def test_path3_matches_division_oracle(self, path3):
        got = mean_particles_direct(path3, 3)
        want = divide_oracle([Q(0), Q(3), Q(2)], [Q(1), Q(3), Q(1)], 3)
        assert got == want

    def test_empty_graph_mean_zero(self):
        g = build_graph([], [])
        assert mean_particles_direct(g, 3).coefficients == (Q(0),) * 4

    def test_pyramid_route_path3(self, path3):
        got = mean_particles_pyramids(path3, 3)
        assert got.coefficients == (Q(0), Q(3), Q(-7), Q(18))

    def test_pyramid_route_single_vertex(self):
        g = build_graph(["a"], [])
        got = mean_particles_pyramids(g, 4)
        assert got.coefficients == (Q(0), Q(1), Q(-1), Q(1), Q(-1))

    def test_two_routes_agree_on_suite(self):
        for _, g in graph_suite():
            assert mean_particles_direct(g, 6) == mean_particles_pyramids(g, 6)

    def test_pyramid_route_matches_enumeration(self):
        for _, g in graph_suite():
            for degree in range(8):
                want = mean_particles_by_enumeration(g, degree)
                assert mean_particles_pyramids(g, degree) == want

    @pytest.mark.parametrize("name", ["path5", "cycle4"])
    def test_two_routes_agree_at_degree_200(self, name):
        g = dict(graph_suite())[name]
        assert mean_particles_direct(g, 200) == mean_particles_pyramids(g, 200)


class TestLinearDensity:
    def test_series_start(self):
        got = linear_density(4)
        assert got.coefficients == (Q(0), Q(1), Q(-3), Q(10), Q(-35))

    def test_int_coefficients(self, path3):
        for s in (linear_density(30), mean_particles_pyramids(path3, 6)):
            assert all(type(c) is int for c in s.coefficients)

    def test_matches_taylor_oracle_deg12(self):
        assert linear_density(12) == density_taylor_oracle(12)

    def test_ratio_matches_math_comb(self):
        """The central-binomial ratio against math.comb at every n <= 300."""
        got = linear_density(300).coefficients
        want = [0] + [(-1) ** (n - 1) * math.comb(2 * n, n) // 2 for n in range(1, 301)]
        assert list(got) == want
        assert all(type(c) is int for c in got)
        assert linear_density(0).coefficients == (0,)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            linear_density(-1)

    def test_point_values(self):
        assert evaluate_density(0) == 0.0
        assert abs(evaluate_density(1) - (1 - 1 / 5**0.5) / 2) < 1e-15
        assert abs(evaluate_density(Q(1)) - (1 - 1 / 5**0.5) / 2) < 1e-15

    def test_domain_error(self):
        with pytest.raises(GasError):
            evaluate_density(-0.25)
        with pytest.raises(GasError):
            evaluate_density(Q(-1, 2))

    def test_monotone_and_bounded(self):
        grid = [i / 16 for i in range(161)]  # 0 .. 10
        values = [evaluate_density(t) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0 <= v < 0.5 for v in values)

    def test_coefficient_ratio_tends_to_radius(self):
        s = linear_density(13)
        ratio = abs(s.coefficients[13] / s.coefficients[12])
        assert abs(ratio - 4) / 4 < 0.05


class TestChainPyramidsAreAnimals:
    """The paper's link between heaps and animals on the chain: the
    pyramids based at 0 are the point-source animals of the triangular
    lattice, t/(1+t) turns their series into the square lattice's, and the
    density's coefficients count the triangular ones with alternating signs."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_pyramids_at_zero_count_animals(self, n):
        g, _ = linear_window(n)
        pyramids = count_pyramids(g, n, base=g.index("0"))
        square = univariate_substitute(UnivariateSeries(n, tuple(pyramids)), "t/(1+t)")
        sizes = range(1, n + 1)
        assert pyramids[0] == square.coefficients[0] == 0
        assert pyramids[1:] == [animal_count(k, "triangular", "point") for k in sizes]
        assert list(square.coefficients[1:]) == [
            animal_count(k, "square", "point") for k in sizes
        ]

    def test_density_counts_animals_to_degree_1000(self):
        density = linear_density(1000).coefficients
        assert [(-1) ** (k - 1) * density[k] for k in range(1, 1001)] == [
            animal_count(k, "triangular", "point") for k in range(1, 1001)
        ]
