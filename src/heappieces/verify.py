"""Verification suites: the algebraic identities and statistical checks.

Each suite returns a list of Check records; the CLI prints one PASS/FAIL
line per record and exits non-zero on any failure.  Exact suites compare
rationals for equality; statistical suites (chi-square uniformity, mean
sampler cost, wall-clock scale) run at fixed seeds so they are
reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import gas
from .animals import (
    ORACLE_BOUNDS,
    AnimalError,
    all_prefixes,
    animal_count,
    animal_to_json,
    beta,
    beta_inverse,
    catalan_number,
    enumerate_animals,
    lattice_colors,
    motzkin_number,
)
from .graphs import CommutationGraph, build_graph, linear_window
from .heaps import colored_layers, equivalent
from .paths import count_paths
from .series import (
    configurations_series,
    derive,
    from_coefficient_fn,
    heaps_series,
    pyramids_series,
    series_mul,
    unit_series,
    univariate_substitute,
)


@dataclass(frozen=True)
class Check:
    suite: str
    label: str
    passed: bool
    detail: str = ""


def graph_suite() -> list[tuple[str, CommutationGraph]]:
    """The five standing test graphs: two paths, a cycle, K3, no edges."""
    return [
        ("path3", build_graph("abc", [("a", "b"), ("b", "c")])),
        (
            "path5",
            build_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
        ),
        (
            "cycle4",
            build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        ),
        ("K3", build_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])),
        ("edgeless3", build_graph("abc", [])),
    ]


def suite_inversion(degree: int = 5) -> list[Check]:
    """Alternating configurations invert heaps, both sides and both signs."""
    out = []
    for name, g in graph_suite():
        one = unit_series(g, degree)
        gamma_bar = configurations_series(g, degree, signed=True)
        gamma = configurations_series(g, degree, signed=False)
        theta = heaps_series(g, degree, signed=False)
        theta_bar = heaps_series(g, degree, signed=True)
        ok = (
            series_mul(gamma_bar, theta) == one
            and series_mul(theta, gamma_bar) == one
            and series_mul(gamma, theta_bar) == one
            and series_mul(theta_bar, gamma) == one
        )
        out.append(Check("inversion", name, ok))
    return out


def suite_derivative(degree: int = 5) -> list[Check]:
    """Theta' = Theta Pi and Gamma' = -PiBar Gamma."""
    out = []
    for name, g in graph_suite():
        theta = heaps_series(g, degree, signed=False)
        gamma = configurations_series(g, degree, signed=False)
        pi = pyramids_series(g, degree, signed=False)
        pi_bar = pyramids_series(g, degree, signed=True)
        ok = derive(theta) == series_mul(theta, pi) and derive(gamma) == series_mul(
            pi_bar, gamma
        ).scale(-1)
        out.append(Check("derivative", name, ok))
    return out


def suite_micro() -> list[Check]:
    """Hand-countable path3 data: GammaBar terms; 21 heaps and 18 pyramids of size 3."""
    g = dict(graph_suite())["path3"]
    gamma_bar = configurations_series(g, 3, signed=True)
    want = {
        (): 1,
        ((0,),): -1,
        ((1,),): -1,
        ((2,),): -1,
        ((0, 2),): 1,
    }
    got = {h.layers: c for h, c in gamma_bar.terms.items()}
    checks = [Check("micro", "path3 gamma-bar = 1-a-b-c+ac", got == want)]
    theta3 = [h for h in heaps_series(g, 3, signed=False).terms if h.size == 3]
    checks.append(Check("micro", "path3 heaps of size 3", len(theta3) == 21, f"{len(theta3)}"))
    pi3 = [h for h in pyramids_series(g, 3).terms if h.size == 3]
    checks.append(Check("micro", "path3 pyramids of size 3", len(pi3) == 18, f"{len(pi3)}"))
    return checks


# printed reference coefficients for the counting suite
SQUARE_POINT = (1, 2, 5, 13, 35, 96, 267, 750)
TRIANGULAR_POINT = (1, 3, 10, 35, 126, 462)
MOTZKIN = (1, 1, 2, 4, 9, 21, 51, 127, 323)
CATALAN = (1, 2, 5, 14, 42, 132, 429, 1430)
LARGE_COUNT = 1000


def suite_counting() -> list[Check]:
    """Triple agreement: growth oracle, closed forms, path DP; then the path
    DP against the closed forms at n = LARGE_COUNT, past any oracle."""
    checks = []
    for lattice, coeffs in (("square", SQUARE_POINT), ("triangular", TRIANGULAR_POINT)):
        r = lattice_colors(lattice)
        for i, want in enumerate(coeffs):
            n = i + 1
            got = (
                len(enumerate_animals(n, lattice, "point")),
                animal_count(n, lattice, "point"),
                count_paths(n - 1, r, "prefix"),
            )
            checks.append(
                Check(
                    "counting",
                    f"{lattice}/point n={n}",
                    got == (want,) * 3,
                    f"{got} vs {want}",
                )
            )
    words = (("motzkin", "square", MOTZKIN), ("catalan", "triangular", CATALAN))
    for name, lattice, coeffs in words:
        r = lattice_colors(lattice)
        for i, want in enumerate(coeffs):
            got = (count_paths(i, r, "word"), animal_count(i + 1, lattice, "equerre"))
            checks.append(
                Check("counting", f"{name} words n={i}", got == (want, want), f"{got}")
            )
    for lattice, base, top in (("square", 3, 8), ("triangular", 4, 6)):
        for n in range(1, top + 1):
            want = base ** (n - 1)
            got = (
                len(enumerate_animals(n, lattice, "compact")),
                animal_count(n, lattice, "compact"),
            )
            checks.append(
                Check(
                    "counting",
                    f"{lattice}/compact n={n}",
                    got == (want, want),
                    f"{got} vs {want}",
                )
            )
    # the path DP against the closed forms at a size the counts are claimed for
    n = LARGE_COUNT
    for label, got, want in (
        (f"square/point n={n}", count_paths(n - 1, 1, "prefix"),
         animal_count(n, "square", "point")),
        (f"triangular/point n={n}", count_paths(n - 1, 2, "prefix"),
         animal_count(n, "triangular", "point")),
        (f"motzkin words n={n}", count_paths(n, 1, "word"), motzkin_number(n)),
        (f"catalan words n={n}", count_paths(n, 2, "word"), catalan_number(n + 1)),
    ):
        checks.append(Check("counting", label, got == want, f"{len(str(want))} digits"))
    return checks


def suite_bijection(max_length: int = 7) -> list[Check]:
    """beta round-trips and its image matches the growth oracle."""
    for lattice, bound in ORACLE_BOUNDS.items():  # before any word is built
        if max_length + 1 > bound:
            raise AnimalError(f"oracle bound is {bound} for {lattice}")
    checks = []
    for lattice in ("square", "triangular"):
        r = lattice_colors(lattice)
        ok_round = True
        ok_image = True
        for length in range(max_length + 1):
            prefixes = all_prefixes(length, r)
            animals = [beta(w, lattice) for w in prefixes]
            for w, an in zip(prefixes, animals):
                if beta_inverse(an).letters != w.letters:
                    ok_round = False
            image = {an.cell_set() for an in animals}
            oracle = {
                an.cell_set() for an in enumerate_animals(length + 1, lattice, "point")
            }
            if image != oracle or len(image) != len(prefixes):
                ok_image = False
        checks.append(Check("bijection", f"{lattice} round-trip <= {max_length}", ok_round))
        checks.append(Check("bijection", f"{lattice} image = oracle", ok_image))
    return checks


def suite_substitution(degree: int = 8) -> list[Check]:
    """Square-lattice counting series maps to triangular under t -> t/(1-t)."""
    strict = from_coefficient_fn(
        degree, lambda n: animal_count(n, "square", "point") if n else 0
    )
    general = from_coefficient_fn(
        degree, lambda n: animal_count(n, "triangular", "point") if n else 0
    )
    sub = univariate_substitute(strict, "t/(1-t)")
    back = univariate_substitute(general, "t/(1+t)")
    return [
        Check("substitution", "square series o t/(1-t) = triangular", sub == general),
        Check("substitution", "triangular series o t/(1+t) = square", back == strict),
    ]


def suite_gas(degree: int = 6) -> list[Check]:
    """Mean particle count two ways: t Z'/Z vs alternating pyramid series."""
    out = []
    for name, g in graph_suite():
        direct = gas.mean_particles_direct(g, degree)
        pyramids = gas.mean_particles_pyramids(g, degree)
        out.append(Check("gas", name, direct == pyramids))
    return out


def suite_density(degree: int = 12) -> list[Check]:
    """Chain density: series vs Taylor oracle, plus the point value at t=1."""
    series = gas.linear_density(degree)
    oracle = gas.density_taylor_oracle(degree)
    val = gas.evaluate_density(1)
    want = (1 - 1 / 5**0.5) / 2
    return [
        Check("density", f"series = closed-form Taylor to degree {degree}", series == oracle),
        Check(
            "density",
            "evaluate at t=1",
            abs(val - want) < 1e-12,
            f"{val} vs {want}",
        ),
    ]


def suite_colored() -> list[Check]:
    """The two chain words are trace-equivalent and colored layers read one from the other."""
    g, coloring = linear_window(4)
    w_colored = [g.index(ch) for ch in "0102302302401"]
    w_standard = [g.index(ch) for ch in "0102030203241"]
    ok_equiv = equivalent(g, w_colored, w_standard)
    reading = colored_layers(g, coloring, w_standard).reading()
    ok_read = reading == tuple(w_colored)
    return [
        Check("colored", "words are trace-equivalent", ok_equiv),
        Check("colored", "colored layering reads back the colored word", ok_read),
    ]


CHI_SQUARE_PROTOCOLS = (
    ("square", "point", 6, 96),
    ("triangular", "point", 5, 126),
    ("square", "compact", 5, 81),
)
# the statistical suites' fixed sizes and seeds, and the sampling test's level
SAMPLING_SAMPLES, SAMPLING_SEED = 100_000, 2024
COST_N, COST_RUNS, COST_SEED = 200, 10_000, 7
SCALE_SIZE, SCALE_SEED = 1_000_000, 42
SIGNIFICANCE = 0.01


def chi_square_tail(x: float, k: int) -> float:
    """P(X >= x) for X chi-square with k >= 1 degrees of freedom, k an int.

    With h = x/2, the closed forms: for even k, e^-h sum_{i<k/2} h^i/i!; for
    odd k, erfc(sqrt h) + 2 e^-h sqrt(h/pi) sum_{i=1}^{(k-1)/2}
    h^(i-1)/((3/2)(5/2)...(i-1/2)).  Each term follows from the one before
    by one product, starting from e^-h, which underflows past h = 745
    (x = 1490): beyond that the tail reads 0 for even k and erfc(sqrt h) for
    odd k.
    """
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    if x <= 0:
        return 1.0
    h = x / 2
    if k % 2 == 0:
        term = total = math.exp(-h)
        for i in range(1, k // 2):
            term *= h / i
            total += term
        return total
    term = 2 * math.exp(-h) * math.sqrt(h / math.pi)
    total = math.erfc(math.sqrt(h))
    for i in range(1, (k + 1) // 2):
        total += term
        term *= h / (i + 0.5)
    return total


def chi_square_critical(k: int) -> float:
    """The x with `chi_square_tail(x, k)` = SIGNIFICANCE, by bisection: the
    tail falls as x grows, and the bracket halves until it cannot."""
    lo, hi = 0.0, float(k)
    while chi_square_tail(hi, k) > SIGNIFICANCE:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        if chi_square_tail(mid, k) > SIGNIFICANCE:
            lo = mid
        else:
            hi = mid


def chi_square_uniformity(
    lattice: str, source_kind: str, n: int, classes: int
) -> tuple[float, float]:
    """(statistic, critical value at significance 0.01) for animal sampling."""
    expected_animals = enumerate_animals(n, lattice, source_kind)
    if len(expected_animals) != classes:
        raise AssertionError(
            f"class count mismatch: {len(expected_animals)} vs {classes}"
        )
    from .randgen import RandomSource, random_animal  # numpy: sampling suites only

    counts: dict[frozenset, int] = {an.cell_set(): 0 for an in expected_animals}
    src = RandomSource(SAMPLING_SEED)
    for _ in range(SAMPLING_SAMPLES):
        an, _ = random_animal(n, lattice, source_kind, src)
        counts[an.cell_set()] += 1
    expected = SAMPLING_SAMPLES / classes
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    critical = chi_square_critical(classes - 1)
    return stat, critical


def suite_sampling() -> list[Check]:
    out = []
    for lattice, source_kind, n, classes in CHI_SQUARE_PROTOCOLS:
        stat, critical = chi_square_uniformity(lattice, source_kind, n, classes)
        out.append(
            Check(
                "sampling",
                f"{lattice}/{source_kind} n={n} ({classes} classes)",
                stat < critical,
                f"chi2={stat:.1f} < {critical:.1f}",
            )
        )
    return out


def suite_cost() -> list[Check]:
    """Mean draws per letter of the restart sampler must sit near 2."""
    from .randgen import RandomSource, random_motzkin_prefix

    src = RandomSource(COST_SEED)
    total = 0
    for _ in range(COST_RUNS):
        total += random_motzkin_prefix(COST_N, 1, src).nb_tirages
    ratio = total / (COST_RUNS * COST_N)
    return [
        Check(
            "cost",
            f"mean nb_tirages / n at n={COST_N}",
            1.8 <= ratio <= 2.2,
            f"ratio={ratio:.3f}",
        )
    ]


def suite_scale() -> list[Check]:
    """One large point-source animal generated and serialized under 5 s."""
    # imported before the clocks start: neither budget holds numpy's import
    from .randgen import RandomSource, random_animal

    # the small check runs first: timed while the large animal and its JSON
    # are alive, it would mostly time collector passes over them
    t0 = time.perf_counter()
    animal_to_json(random_animal(5000, "square", "point", RandomSource(SCALE_SEED))[0])
    small = time.perf_counter() - t0
    t0 = time.perf_counter()
    an, _ = random_animal(SCALE_SIZE, "square", "point", RandomSource(SCALE_SEED))
    text = animal_to_json(an)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0 and an.size == SCALE_SIZE and len(text) > SCALE_SIZE
    return [
        Check("scale", f"size {SCALE_SIZE} generate+serialize", ok, f"{elapsed:.2f}s"),
        Check("scale", "size 5000 generate+serialize", small < 0.1, f"{small * 1000:.1f}ms"),
    ]


SUITES = {
    "inversion": suite_inversion,
    "derivative": suite_derivative,
    "micro": suite_micro,
    "counting": suite_counting,
    "bijection": suite_bijection,
    "substitution": suite_substitution,
    "gas": suite_gas,
    "density": suite_density,
    "colored": suite_colored,
    "sampling": suite_sampling,
    "cost": suite_cost,
    "scale": suite_scale,
}


# suites called with the degree (the bijection's maximal word length) as
# their first positional argument when one is given
DEGREE_SUITES = frozenset(
    {"inversion", "derivative", "gas", "substitution", "density", "bijection"}
)


def run_suites(names: list[str], degree: int | None = None) -> list[Check]:
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    checks: list[Check] = []
    for name in names:
        args = (degree,) if degree is not None and name in DEGREE_SUITES else ()
        checks.extend(SUITES[name](*args))
    return checks
