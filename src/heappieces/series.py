"""Degree-truncated formal series over the trace monoid, exact coefficients.

A TraceSeries maps canonical heaps of size <= N to coefficients; the
product is the truncated convolution over monoid factorizations, realized
here by multiplying key pairs (sizes adding to <= N) in the heap monoid.
The classic identities live at this level: the alternating configuration
series inverts the heap series, and the pyramid series is the right
logarithmic derivative of the heap series.

Projection (every letter -> t) is a monoid morphism, so the projected
counting series need no heap: with Gamma-bar(t) = sum over stable sets C
of (-t)^|C|, theta = 1/Gamma-bar, theta-strict = theta o t/(1+t), and
pi = t theta'/theta = -t Gamma-bar'/Gamma-bar (with one base v,
-Gamma-bar_v/Gamma-bar over the stable sets holding v).
`projected_series` counts stable sets by size, inverts Gamma-bar for theta
and theta-strict, and counts pi by the layer transfer `heaps.count_pyramids`:
no heap is built, but every stable set is visited.  The trace series
themselves stay enumerated: their size is the number of heaps.

All arithmetic is exact, and trace and univariate series follow one
coefficient rule: a coefficient is a plain int unless it is a true
non-integer (from scaling by a fraction, or inverting a series whose
constant term is not +-1), which stays a fractions.Fraction; a Fraction
with denominator 1 is stored as its int.  Mixing truncation degrees or
graphs raises instead of silently re-truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Mapping

from .graphs import CommutationGraph
from .heaps import (
    Heap, Key, count_pyramids, drop_words, empty_heap, enumerate_heaps, heap_key,
    heap_of_key,
)

Coefficient = int | Fraction
Term = tuple[tuple[int, ...], Coefficient]  # (canonical word, coefficient)
Sums = list[dict[Key, Coefficient]]  # per size: product's heap key -> coefficient
PROJECTED_KINDS = (
    "gamma", "gamma-bar", "theta", "theta-bar", "theta-strict", "pi", "pi-bar"
)


class SeriesError(ValueError):
    """Incompatible operands or non-invertible series."""


def _exact(c: Coefficient) -> Coefficient:
    """c as an int when it is an integer, else as a Fraction."""
    if type(c) is int:
        return c
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class TraceSeries:
    graph: CommutationGraph
    degree: int
    terms: Mapping[Heap, Coefficient]

    def __post_init__(self) -> None:
        """One pass: check each term's graph and size, drop zeros, store ints."""
        g, n = self.graph, self.degree
        terms = dict(self.terms)  # a copy keeps each key's hash: none is rehashed
        for h, c in self.terms.items():
            if not c:
                del terms[h]
                continue
            if h.graph is not g and h.graph != g:
                raise SeriesError("term over a different graph")
            if h.size > n:
                raise SeriesError("term beyond truncation degree")
            if type(c) is not int:
                terms[h] = _exact(c)
        object.__setattr__(self, "terms", terms)

    def coefficient(self, h: Heap) -> Coefficient:
        return self.terms.get(h, 0)

    def __add__(self, other: "TraceSeries") -> "TraceSeries":
        _check_compat(self, other)
        acc = dict(self.terms)
        for h, c in other.terms.items():
            acc[h] = acc.get(h, 0) + c
        return TraceSeries(self.graph, self.degree, acc)

    def __sub__(self, other: "TraceSeries") -> "TraceSeries":
        return self + other.scale(-1)

    def scale(self, c: Coefficient) -> "TraceSeries":
        c = _exact(c)
        return TraceSeries(
            self.graph, self.degree, {h: c * x for h, x in self.terms.items()}
        )

    def __mul__(self, other: "TraceSeries") -> "TraceSeries":
        return series_mul(self, other)


def _check_compat(s1: TraceSeries, s2: TraceSeries) -> None:
    if s1.graph != s2.graph:
        raise SeriesError("series over different graphs")
    if s1.degree != s2.degree:
        raise SeriesError(
            f"mixed truncation degrees ({s1.degree} vs {s2.degree})"
        )


def unit_series(g: CommutationGraph, degree: int) -> TraceSeries:
    return TraceSeries(g, degree, {empty_heap(g): 1})


def _words_up_to(s: TraceSeries) -> list[list[Term]]:
    """Entry j: (canonical word, coefficient) of each term of s of size <= j."""
    parts: list[list[Term]] = [[] for _ in range(s.degree + 1)]
    for h, c in s.terms.items():
        parts[h.size].append((h.canonical_word(), c))
    return list(accumulate(parts))


def _add_products(
    accs: Sums, g: CommutationGraph, key1: Key, m: int, c1: Coefficient,
    items: list[Term],
) -> None:
    """accs[size][key of h1 * h2] += c1 * c2 for each (word of h2, c2) in `items`,
    h1 of size m and key `key1`: h2's word drops on h1's layer bitmasks."""
    for (word, c2), key in zip(items, drop_words(g, key1, (w for w, _ in items))):
        acc = accs[m + len(word)]
        acc[key] = acc.get(key, 0) + c1 * c2


def series_mul(s1: TraceSeries, s2: TraceSeries) -> TraceSeries:
    """Truncated product over key pairs, summed by layer key; one Heap per result."""
    _check_compat(s1, s2)
    g, n = s1.graph, s1.degree
    upto = _words_up_to(s2)
    accs: Sums = [{} for _ in range(n + 1)]
    for h1, c1 in s1.terms.items():
        _add_products(accs, g, heap_key(h1), h1.size, c1, upto[n - h1.size])
    terms = {heap_of_key(g, k): c for a in accs for k, c in a.items() if c}
    return TraceSeries(g, n, terms)


def _counting_series(
    g: CommutationGraph, degree: int, heaps: Iterable[Heap], signed: bool
) -> TraceSeries:
    """Each heap with coefficient (-1)^size when signed, else 1."""
    return TraceSeries(
        g, degree, {h: -1 if signed and h.size % 2 else 1 for h in heaps}
    )


def configurations_series(
    g: CommutationGraph, degree: int, signed: bool
) -> TraceSeries:
    """Stable sets as one-layer heaps; signed gives coefficient (-1)^{|C|}."""
    heaps = [Heap(g, (conf,) if conf else ()) for conf in g.configurations(degree)]
    return _counting_series(g, degree, heaps, signed)


def heaps_series(g: CommutationGraph, degree: int, signed: bool) -> TraceSeries:
    return _counting_series(g, degree, enumerate_heaps(g, degree), signed)


def strict_heaps_series(
    g: CommutationGraph, degree: int, signed: bool
) -> TraceSeries:
    heaps = enumerate_heaps(g, degree, strict_only=True)
    return _counting_series(g, degree, heaps, signed)


def pyramids_series(
    g: CommutationGraph,
    degree: int,
    signed: bool = False,
    base: int | None = None,
) -> TraceSeries:
    """Pyramid series (no constant term); `base` pins the base vertex."""
    heaps = enumerate_heaps(g, degree, pyramids_only=True, pyramid_base=base)
    return _counting_series(g, degree, heaps, signed)


def derive(s: TraceSeries) -> TraceSeries:
    """Size derivative: coefficient of each heap multiplied by its size."""
    return TraceSeries(
        s.graph, s.degree, {h: c * h.size for h, c in s.terms.items()}
    )


def invert(s: TraceSeries) -> TraceSeries:
    """Truncated two-sided inverse; requires constant coefficient c0 = +-1.

    One pass by size from T s = 1: T_0 = c0 and, for k >= 1,
    T_k = -c0 * sum_{j >= 1} T_{k-j} s_j, with s_j, T_j the size-j parts
    (c0 is its own inverse).  Each key of a complete T_m is dropped on
    once, its products with s_1..s_{n-m} summed by key into T_{m+1}..T_n.
    In the graded cancellative heap monoid the left inverse so built is
    also the right inverse.
    """
    g, n = s.graph, s.degree
    c0 = s.coefficient(empty_heap(g))
    if c0 not in (1, -1):
        raise SeriesError(f"constant term {c0} is not invertible")
    upto = [items[1:] for items in _words_up_to(s)]  # all but the constant term
    accs: Sums = [{heap_key(empty_heap(g)): c0}] + [{} for _ in range(n)]
    terms: dict[Heap, Coefficient] = {}
    for m, acc in enumerate(accs):  # T_m: complete once every T_k, k < m, is dropped
        for key, c1 in acc.items():
            if c1:
                terms[heap_of_key(g, key)] = c1
                if m < n:  # T_n has no product within the degree
                    _add_products(accs, g, key, m, -c0 * c1, upto[n - m])
    return TraceSeries(g, n, terms)


@dataclass(frozen=True)
class UnivariateSeries:
    """Truncated power series in one variable with exact coefficients."""

    degree: int
    coefficients: tuple[Coefficient, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_exact(c) for c in self.coefficients)
        if len(coeffs) != self.degree + 1:
            raise SeriesError("coefficient count must be degree + 1")
        object.__setattr__(self, "coefficients", coeffs)

    def __getitem__(self, n: int) -> Coefficient:
        return self.coefficients[n]

    def __add__(self, other: "UnivariateSeries") -> "UnivariateSeries":
        self._check(other)
        return UnivariateSeries(
            self.degree,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other: "UnivariateSeries") -> "UnivariateSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "UnivariateSeries") -> "UnivariateSeries":
        self._check(other)
        n = self.degree
        out: list[Coefficient] = [0] * (n + 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coefficients[j]
                if b != 0:
                    out[i + j] += a * b
        return UnivariateSeries(n, tuple(out))

    def scale(self, c: Coefficient) -> "UnivariateSeries":
        c = _exact(c)
        return UnivariateSeries(
            self.degree, tuple(c * a for a in self.coefficients)
        )

    def t_derivative(self) -> "UnivariateSeries":
        """t d/dt: coefficient n multiplied by n."""
        return UnivariateSeries(
            self.degree,
            tuple(n * c for n, c in enumerate(self.coefficients)),
        )

    def invert(self) -> "UnivariateSeries":
        """out_0 = 1/c0 and out_k = -(1/c0) sum_{j >= 1} c_j out_{k-j}, over the
        nonzero c_j alone: a polynomial of degree a inverts in O(degree * a)."""
        c = self.coefficients
        if c[0] == 0:
            raise SeriesError("constant term zero is not invertible")
        inv0 = _exact(Fraction(1, c[0]))  # never 1 / c[0]: int / int is a float
        out: list[Coefficient] = [inv0]
        nonzero: list[tuple[int, Coefficient]] = []  # (j, c_j != 0) for 1 <= j <= k
        for k in range(1, self.degree + 1):
            if c[k]:
                nonzero.append((k, c[k]))
            out.append(-inv0 * sum(cj * out[k - j] for j, cj in nonzero))
        return UnivariateSeries(self.degree, tuple(out))

    def _check(self, other: "UnivariateSeries") -> None:
        if self.degree != other.degree:
            raise SeriesError(
                f"mixed truncation degrees ({self.degree} vs {other.degree})"
            )

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coefficients)


def from_coefficient_fn(
    degree: int, fn: Callable[[int], Coefficient]
) -> UnivariateSeries:
    return UnivariateSeries(degree, tuple(fn(n) for n in range(degree + 1)))


def project(s: TraceSeries) -> UnivariateSeries:
    """Replace every letter by t: coefficient of t^n sums size-n terms."""
    out = [0] * (s.degree + 1)
    for h, c in s.terms.items():
        out[h.size] += c
    return UnivariateSeries(s.degree, tuple(out))


def univariate_substitute(s: UnivariateSeries, mode: str) -> UnivariateSeries:
    """Compose with t/(1-t) (mode 't/(1-t)') or t/(1+t) (mode 't/(1+t)').

    The first turns a strict-object counting series into the general one;
    the second inverts it.  With e = +1 or -1 respectively,
    (t/(1-e t))^k = sum_n C(n-1, k-1) e^(n-k) t^n, so
    [t^n] s(t/(1-e t)) = sum_{k=1..n} C(n-1, k-1) e^(n-k) s_k for n >= 1.
    Row n of the signed binomials follows from row n-1 by Pascal's rule,
    P_n[k] = e P_{n-1}[k] + P_{n-1}[k-1]: O(degree^2) steps, no products
    of series.
    """
    if mode not in ("t/(1-t)", "t/(1+t)"):
        raise SeriesError(f"unknown substitution mode {mode!r}")
    e = 1 if mode == "t/(1-t)" else -1
    head, *tail = s.coefficients
    out = [head]
    row = [1]  # P_n[1..n], from n = 1
    for _ in range(s.degree):
        out.append(sum(p * c for p, c in zip(row, tail)))
        row = [e * p + q for p, q in zip(row + [0], [0] + row)]
    return UnivariateSeries(s.degree, tuple(out))


def projected_series(
    g: CommutationGraph, kind: str, degree: int, base: int | None = None
) -> UnivariateSeries:
    """project() of a counting series (see `PROJECTED_KINDS`), built from stable sets.

    No heap is enumerated: gamma counts the stable sets by size; theta =
    1/gamma-bar (the inversion lemma); theta-strict = theta o t/(1+t) =
    1/(gamma-bar o t/(1+t)), because theta = theta-strict o t/(1-t) (a
    heap is a strict heap with each cell repeated into a run, see
    `strict_skeleton`); pi counts pyramids by the layer transfer
    `count_pyramids`, on `base` alone when given.  Each -bar kind is its
    plain kind at -t.
    """
    if kind not in PROJECTED_KINDS:
        raise SeriesError(f"unknown series kind {kind!r}")
    if base is not None and kind not in ("pi", "pi-bar"):
        raise SeriesError(f"base applies to pi and pi-bar, not {kind!r}")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind.startswith("pi"):
        plain = UnivariateSeries(degree, tuple(count_pyramids(g, degree, base)))
    else:
        gamma = [0] * (degree + 1)
        for size, _ in g._stable_sets(degree):
            gamma[size] += 1
        plain = UnivariateSeries(degree, tuple(gamma))
        if kind.startswith("theta"):
            gamma_bar = _at_minus_t(plain)
            if kind == "theta-strict":  # substituted before inverting: fewer big products
                gamma_bar = univariate_substitute(gamma_bar, "t/(1+t)")
            plain = gamma_bar.invert()
    return _at_minus_t(plain) if kind.endswith("-bar") else plain


def _at_minus_t(s: UnivariateSeries) -> UnivariateSeries:
    """s(-t): odd coefficients change sign."""
    coeffs = tuple(-c if n % 2 else c for n, c in enumerate(s.coefficients))
    return UnivariateSeries(s.degree, coeffs)


def dump_trace_series(s: TraceSeries) -> str:
    """One `coefficient<TAB>word` line per term, sorted by (size, word).

    Single-character labels concatenate; longer labels are space-separated
    so words stay unambiguous.
    """
    sep = "" if all(len(lab) == 1 for lab in s.graph.labels) else " "
    rows = []
    for h, c in s.terms.items():
        word = sep.join(s.graph.labels[v] for v in h.canonical_word())
        rows.append((h.size, word, c))
    rows.sort(key=lambda r: (r[0], r[1]))
    return "\n".join(f"{c}\t{word if word else '1'}" for _, word, c in rows)
