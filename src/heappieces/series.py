"""Degree-truncated formal series over the trace monoid, exact coefficients.

A TraceSeries maps canonical heaps of size <= N to coefficients.  It keeps
its terms as heap keys (a heap's layer bitmasks, `heaps.Heap.key`), one
key -> coefficient dict per size up to the largest size it holds, so a
series of stable sets costs its terms and not its degree.  A series made
from Heaps reads their keys; the builders here hand in keys from the
stable sets (`configurations_series`), from the one layer transfer that
lists heaps (`heaps_series`, `strict_heaps_series`, `pyramids_series`) or
from the products, and the algebra, the projection and the dump read the
keys and sizes directly.  `terms`, the Heap -> coefficient view, wraps each key.
The product is the truncated convolution over monoid factorizations, sizes
adding to <= N, summed by key.  Each prefix of a canonical word spells a
heap too, so the right factor's words make one prefix trie (`_word_trie`)
and each left key walks it depth first: a node lands its one letter on
copies of its parent's layer bitmasks and fibre tops by `heaps._drop`, so
a shared prefix lands once per left key, not once per word.  The classic
identities live at this level: the alternating configuration series
inverts the heap series, and the pyramid series is the right logarithmic
derivative of the heap series.

Projection (every letter -> t) is a monoid morphism, so the projected
counting series need no heap: with Gamma-bar(t) = sum over stable sets C
of (-t)^|C|, theta = 1/Gamma-bar, theta-strict = theta o t/(1+t), and
pi = t theta'/theta = -t Gamma-bar'/Gamma-bar (with one base v,
-Gamma-bar_v/Gamma-bar over the stable sets holding v).
`projected_series` counts stable sets by size, inverts Gamma-bar for theta
and theta-strict, and counts pi by `heaps.count_pyramids`, the same layer
transfer that lists the trace series, counting instead: no heap is built,
but every stable set is visited.  The trace series themselves stay
listed: their size is the number of heaps.

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
from functools import cache, cached_property
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .graphs import CommutationGraph, _members
from .heaps import (
    Heap, Key, _drop, _fibre_tops, _layer_transfer, _pyramid_roots, count_pyramids,
    empty_heap,
)

Coefficient = int | Fraction
Bucket = dict[Key, Coefficient]  # one size's terms: heap key -> coefficient
Node = list  # a word trie's node: [coefficient, children] (`_word_trie`)
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


def _normalized(sizes: Iterable[Bucket]) -> list[Bucket]:
    """Each size's terms without the zero ones, coefficients as `_exact`."""
    return [
        {k: c if type(c) is int else _exact(c) for k, c in bucket.items() if c}
        for bucket in sizes
    ]


@dataclass(frozen=True, init=False, repr=False)
class TraceSeries:
    """Truncated trace series: its terms as heap keys, one bucket per size.

    `TraceSeries(g, degree, {heap: coefficient})` checks the degree, each
    term's graph and its size against the degree, and stores its key; it
    drops zero terms and stores integral coefficients as ints.  The
    builders of this module hand in keys by size instead (`_of_keys`).
    `terms`, the Heap -> coefficient view, is built on first read and kept
    (and left out of a pickle); the algebra, the projection and the dump
    read the keys.
    Series are immutable.
    """

    graph: CommutationGraph
    degree: int
    # entry s: the terms of size s, up to the largest size held: no empty last entry
    _sizes: list[Bucket]

    def __init__(
        self, graph: CommutationGraph, degree: int, terms: Mapping[Heap, Coefficient]
    ) -> None:
        _check_degree(degree)
        by_size: dict[int, Bucket] = {}
        for h, c in terms.items():
            if not c:
                continue
            if h.graph is not graph and h.graph != graph:
                raise SeriesError("term over a different graph")
            size = h.size
            if size > degree:
                raise SeriesError("term beyond truncation degree")
            by_size.setdefault(size, {})[h.key] = c
        sizes = [by_size.get(m, {}) for m in range(max(by_size, default=-1) + 1)]
        self.__dict__.update(graph=graph, degree=degree, _sizes=_normalized(sizes))

    @classmethod
    def _of_keys(
        cls, graph: CommutationGraph, degree: int, sizes: list[Bucket]
    ) -> TraceSeries:
        """From canonical keys by size, no zero and every coefficient `_exact`;
        the empty last sizes are dropped."""
        while sizes and not sizes[-1]:
            sizes.pop()
        s = cls.__new__(cls)
        s.__dict__.update(graph=graph, degree=degree, _sizes=sizes)
        return s

    def __repr__(self) -> str:
        return f"TraceSeries({self.graph!r}, {self.degree!r}, {dict(self.terms)!r})"

    def __getstate__(self) -> dict[str, object]:
        """The fields alone: an unpickled series builds its view again."""
        return {k: v for k, v in self.__dict__.items() if k != "terms"}

    @cached_property
    def terms(self) -> Mapping[Heap, Coefficient]:
        g = self.graph
        return MappingProxyType(
            {Heap._of_key(g, k): c for b in self._sizes for k, c in b.items()}
        )

    def coefficient(self, h: Heap) -> Coefficient:
        size = h.size
        if h.graph != self.graph or size > self.degree:
            return 0
        return self._sizes[size].get(h.key, 0) if size < len(self._sizes) else 0

    def __add__(self, other: TraceSeries) -> TraceSeries:
        _check_compat(self, other)
        sizes = [dict(b) for b in self._sizes]
        sizes += ({} for _ in range(len(other._sizes) - len(sizes)))
        for acc, bucket in zip(sizes, other._sizes):
            for k, c in bucket.items():
                acc[k] = acc.get(k, 0) + c
        return TraceSeries._of_keys(self.graph, self.degree, _normalized(sizes))

    def __sub__(self, other: TraceSeries) -> TraceSeries:
        return self + other.scale(-1)

    def scale(self, c: Coefficient) -> TraceSeries:
        c = _exact(c)
        sizes = [{k: c * x for k, x in b.items()} for b in self._sizes]
        return TraceSeries._of_keys(self.graph, self.degree, _normalized(sizes))

    def __mul__(self, other: TraceSeries) -> TraceSeries:
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


def _word_trie(s: TraceSeries) -> Node:
    """The prefix trie of s's canonical words; its root is the empty word.

    A node is [coefficient, children]: the word's coefficient in s, 0 when
    the word only prefixes terms, and a letter -> node dict, None at a leaf.
    """
    vertices = cache(_members)  # each layer's vertices, listed once
    root: Node = [0, None]
    for bucket in s._sizes:
        for key, c in bucket.items():
            node = root
            for v in chain.from_iterable(map(vertices, key)):
                children = node[1]
                if children is None:
                    children = node[1] = {}
                child = children.get(v)
                if child is None:
                    child = children[v] = [0, None]
                node = child
            node[0] = c
    return root


def _walk(
    g: CommutationGraph, accs: list[Bucket], c1: Coefficient, masks: list[int],
    tops: list[int], children: dict[int, Node], size: int,
) -> None:
    """accs[size][key of h1 * w] += c1 * c2 for each word w under `children`
    and its c2 != 0, sizes up to the last of accs, depth first: h1 * w's
    masks and tops are copies of its parent's with w's last letter landed
    by `_drop`, so each trie node costs one letter."""
    acc = accs[size]
    deeper = size + 1 < len(accs)
    for v, (c2, grandchildren) in children.items():
        child_masks = masks.copy()
        child_tops = tops.copy()
        _drop(g, child_masks, child_tops, (v,))
        if c2:
            key = tuple(child_masks)
            acc[key] = acc.get(key, 0) + c1 * c2
        if deeper and grandchildren is not None:
            _walk(g, accs, c1, child_masks, child_tops, grandchildren, size + 1)


def _add_products(
    accs: list[Bucket], g: CommutationGraph, key1: Key, m: int, c1: Coefficient,
    children: dict[int, Node] | None,
) -> None:
    """accs[m + j][key of h1 * h2] += c1 * c2 for each word of h2, of size
    j >= 1, and its c2 in the trie under `children`, h1 of size m and key
    `key1`, while m + j stays inside accs: the trie walks on h1's layer
    bitmasks and fibre tops, read only when some product fits."""
    if children is not None and m + 1 < len(accs):
        _walk(g, accs, c1, list(key1), _fibre_tops(g, key1), children, m + 1)


def series_mul(s1: TraceSeries, s2: TraceSeries) -> TraceSeries:
    """Truncated product over key pairs, summed by layer key; no Heap is built."""
    _check_compat(s1, s2)
    g, n = s1.graph, s1.degree
    c0, children = _word_trie(s2)
    top = min(n, len(s1._sizes) + len(s2._sizes) - 2)  # the largest size of a product
    accs: list[Bucket] = [{} for _ in range(top + 1)]
    for m, bucket in enumerate(s1._sizes):
        for key1, c1 in bucket.items():
            if c0:  # h1 times s2's constant term: h1 itself
                accs[m][key1] = accs[m].get(key1, 0) + c1 * c0
            _add_products(accs, g, key1, m, c1, children)
    return TraceSeries._of_keys(g, n, _normalized(accs))


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("degree must be >= 0")


def _counting_series(
    g: CommutationGraph, degree: int, levels: Iterable[Iterable[Key]], signed: bool
) -> TraceSeries:
    """Each heap, given as its key in the level of its size, with coefficient
    (-1)^size when signed, else 1."""
    sizes = [
        dict.fromkeys(keys, -1 if signed and s % 2 else 1)
        for s, keys in enumerate(levels)
    ]
    return TraceSeries._of_keys(g, degree, sizes)


def _listed_series(
    g: CommutationGraph, degree: int, signed: bool, strict: bool = False,
    roots: Iterable[int] | None = None,
) -> TraceSeries:
    """The heaps the layer transfer lists, as `_counting_series` terms."""
    levels = _layer_transfer(g, degree, True, strict, roots)
    return _counting_series(g, degree, map(chain.from_iterable, levels), signed)


def configurations_series(
    g: CommutationGraph, degree: int, signed: bool
) -> TraceSeries:
    """Stable sets as one-layer heaps; signed gives coefficient (-1)^{|C|}."""
    _check_degree(degree)
    levels = [[(conf,) for conf in sets] for sets in g._stable_sets(degree)]
    levels[0] = [()]  # the empty set, the empty heap
    return _counting_series(g, degree, levels, signed)


def heaps_series(g: CommutationGraph, degree: int, signed: bool) -> TraceSeries:
    _check_degree(degree)
    return _listed_series(g, degree, signed)


def strict_heaps_series(
    g: CommutationGraph, degree: int, signed: bool
) -> TraceSeries:
    _check_degree(degree)
    return _listed_series(g, degree, signed, strict=True)


def pyramids_series(
    g: CommutationGraph,
    degree: int,
    signed: bool = False,
    base: int | None = None,
) -> TraceSeries:
    """Pyramid series (no constant term); `base` pins the base vertex."""
    _check_degree(degree)
    return _listed_series(g, degree, signed, roots=_pyramid_roots(g, base))


def _check_kind(kind: str, base: int | None) -> None:
    """The checks of `trace_series` and `projected_series` on the kind and
    the base, before any work; the builders check the degree."""
    if kind not in PROJECTED_KINDS:
        raise SeriesError(f"unknown series kind {kind!r}")
    if base is not None and kind not in ("pi", "pi-bar"):
        raise SeriesError(f"base applies to pi and pi-bar, not {kind!r}")


def trace_series(
    g: CommutationGraph, kind: str, degree: int, base: int | None = None
) -> TraceSeries:
    """The counting series of a kind in `PROJECTED_KINDS`, by its builder.

    gamma: the stable sets; theta: the heaps; theta-strict: the strict
    heaps; pi: the pyramids, on `base` alone when given.  Each -bar kind
    signs each term (-1)^size.  `project` of it is `projected_series`.
    """
    _check_kind(kind, base)
    signed = kind.endswith("-bar")
    if kind.startswith("gamma"):
        return configurations_series(g, degree, signed)
    if kind.startswith("pi"):
        return pyramids_series(g, degree, signed, base)
    build = strict_heaps_series if kind == "theta-strict" else heaps_series
    return build(g, degree, signed)


def derive(s: TraceSeries) -> TraceSeries:
    """Size derivative: coefficient of each heap multiplied by its size."""
    sizes = [{k: c * m for k, c in b.items()} for m, b in enumerate(s._sizes)]
    return TraceSeries._of_keys(s.graph, s.degree, _normalized(sizes))


def invert(s: TraceSeries) -> TraceSeries:
    """Truncated two-sided inverse; requires constant coefficient c0 = +-1.

    One pass by size from T s = 1: T_0 = c0 and, for k >= 1,
    T_k = -c0 * sum_{j >= 1} T_{k-j} s_j, with s_j, T_j the size-j parts
    (c0 is its own inverse).  Each key of a complete T_m walks the trie of
    s's words once, below its root c0, and its products with s_1..s_{n-m}
    are summed by key into T_{m+1}..T_n.
    In the graded cancellative heap monoid the left inverse so built is
    also the right inverse.
    """
    g, n = s.graph, s.degree
    c0 = s._sizes[0].get((), 0) if s._sizes else 0
    if c0 not in (1, -1):
        raise SeriesError(f"constant term {c0} is not invertible")
    children = _word_trie(s)[1]  # the root, s's constant term, is not walked
    top = n if children is not None else 0  # the inverse of a constant is a constant
    accs: list[Bucket] = [{(): c0}] + [{} for _ in range(top)]
    for m, acc in enumerate(accs):  # T_m: complete once every T_k, k < m, is walked
        for key, c1 in acc.items():
            if c1:
                _add_products(accs, g, key, m, -c0 * c1, children)
    return TraceSeries._of_keys(g, n, _normalized(accs))


@dataclass(frozen=True)
class UnivariateSeries:
    """Truncated power series in one variable with exact coefficients."""

    degree: int
    coefficients: tuple[Coefficient, ...]

    def __post_init__(self) -> None:
        _check_degree(self.degree)
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
    coefficients = [sum(b.values()) for b in s._sizes]
    coefficients += [0] * (s.degree + 1 - len(coefficients))
    return UnivariateSeries(s.degree, tuple(coefficients))


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
    _check_kind(kind, base)
    _check_degree(degree)
    if kind.startswith("pi"):
        plain = UnivariateSeries(degree, tuple(count_pyramids(g, degree, base)))
    else:
        gamma = [0] * (degree + 1)
        for size, sets in enumerate(g._stable_sets(degree)):
            gamma[size] = len(sets)
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
    labels = s.graph.labels
    sep = "" if all(len(lab) == 1 for lab in labels) else " "
    # a key has no empty layer, so its word joins its layers' spelled words
    spelled = cache(lambda mask: sep.join([labels[v] for v in _members(mask)]))
    rows = []
    for bucket in s._sizes:
        words = [(sep.join(map(spelled, k)), c) for k, c in bucket.items()]
        rows += sorted(words, key=lambda r: r[0])
    return "\n".join(f"{c}\t{word if word else '1'}" for word, c in rows)
