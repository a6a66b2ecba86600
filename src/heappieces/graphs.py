"""Finite commutation graphs.

A commutation graph records which letters of an alphabet do NOT commute:
two vertices are *neighbours* when they are identical or joined by an
edge.  Vertex sets without adjacent pairs ("configurations", i.e. stable
sets) are the legal hard-particle placements and the one-layer heaps.

Vertices are dense indices 0..n-1; labels live in a separate table and
only appear at the I/O boundary.  Graphs are immutable and hashable;
heaps compare their graph but hash by their layer key alone, because the
heaps of one series share one graph.  A vertex set is also a bitmask
(bit v for vertex v): the graph builds its closed-neighbourhood masks
once, for the one stable-set lister.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ._args import count_arg


class GraphError(ValueError):
    """Malformed graph description (duplicate label, loop, bad endpoint)."""


@dataclass(frozen=True)
class CommutationGraph:
    """Simple finite graph whose edges mark non-commuting pairs."""

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    # index -> {index} U adjacent(index); derived, excluded from eq/hash
    _neighborhoods: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )
    # index -> bitmask of its closed neighbourhood; derived like the above
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise GraphError("duplicate label")
        for label in self.labels:  # the literal format splits on whitespace
            if type(label) is not str or label.split() != [label]:
                raise GraphError(f"label {label!r} is not a word: empty or spaced")
        adj: list[set[int]] = [{v} for v in range(n)]
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(
            self, "_neighborhoods", tuple(frozenset(s) for s in adj)
        )
        object.__setattr__(self, "_masks", tuple(sum(1 << u for u in s) for s in adj))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown label {label!r}") from None

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise GraphError(f"vertex {v} out of range")

    def configurations(self, max_size: int) -> list[tuple[int, ...]]:
        """All stable sets of size <= max_size, including the empty one,
        sorted by (size, members); the cost tracks the output, not 2^n."""
        most = count_arg(max_size, 0, "max_size")
        return [_members(s) for sets in self._stable_sets(most) for s in sets]

    def _closed_reach(self, layer: int) -> int:
        """Bitmask of N[layer]: the union of the closed neighbourhoods of its bits."""
        out = 0
        for v in _members(layer):
            out |= self._masks[v]
        return out

    def _stable_sets(self, most: int, within: int | None = None) -> Iterator[list[int]]:
        """The stable subsets of `within` (default: every vertex) of at most
        `most` members, as bitmasks, one list per size from 0 up to the
        largest, each in members order: each set of size k grows one of
        size k - 1, in order, by a vertex above its largest member that no
        member neighbours; two sizes are held at once."""
        masks = self._masks
        if within is None:
            within = (1 << len(masks)) - 1
        yield [0]
        layer = [(0, within)]  # (set, vertices that may still join it)
        for _ in range(most):
            grown = []
            for chosen, free in layer:
                while free:
                    low = free & -free
                    free ^= low  # leaves the vertices above low
                    grown.append((chosen | low, free & ~masks[low.bit_length() - 1]))
            if not grown:
                break
            yield [s for s, _ in grown]
            layer = grown


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring with colors 1..r."""

    colors: tuple[int, ...]
    r: int

    def validate(self, graph: CommutationGraph) -> None:
        if len(self.colors) != graph.vertex_count:
            raise GraphError("coloring length does not match vertex count")
        if any(not (1 <= c <= self.r) for c in self.colors):
            raise GraphError("color out of range")
        for u, v in graph.edges:
            if self.colors[u] == self.colors[v]:
                raise GraphError(f"improper coloring on edge ({u},{v})")


def build_graph(
    labels: Sequence[str], edges: Iterable[tuple[str, str]]
) -> CommutationGraph:
    """Build a graph from labels and label pairs; index = label position.
    The graph rejects duplicate labels."""
    labels = tuple(str(x) for x in labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    norm = set()
    for a, b in edges:
        a, b = str(a), str(b)
        if a not in pos or b not in pos:
            raise GraphError(f"unknown endpoint in edge ({a},{b})")
        if a == b:
            raise GraphError(f"loop edge at {a!r}")
        i, j = pos[a], pos[b]
        norm.add((min(i, j), max(i, j)))
    return CommutationGraph(labels, frozenset(norm))


def linear_window(radius: int) -> tuple[CommutationGraph, Coloring]:
    """Finite window -radius..+radius of the integer chain, 2-colored by parity.

    The chain is the one-dimensional lattice; callers pick the radius large
    enough for their truncation (radius >= n covers any heap of n cells
    grown from fibre 0).
    """
    radius = count_arg(radius, 0, "radius")
    labels = [str(i) for i in range(-radius, radius + 1)]
    edges = [(str(i), str(i + 1)) for i in range(-radius, radius)]
    g = build_graph(labels, edges)
    colors = tuple(1 if i % 2 == 0 else 2 for i in range(-radius, radius + 1))
    return g, Coloring(colors, 2)


def format_graph_literal(g: CommutationGraph) -> str:
    """Serialize in the CLI literal format (one `vertices:` line, `edge:` lines)."""
    lines = ["vertices: " + " ".join(g.labels)]
    for u, v in sorted(g.edges):
        lines.append(f"edge: {g.labels[u]} {g.labels[v]}")
    return "\n".join(lines) + "\n"


def parse_graph_literal(text: str) -> CommutationGraph:
    """Parse the CLI literal format produced by :func:`format_graph_literal`."""
    labels: list[str] | None = None
    edges: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        parts = rest.split()
        if key == "vertices":
            if labels is not None:
                raise GraphError("multiple vertices: lines")
            labels = parts
        elif key == "edge":
            if len(parts) != 2:
                raise GraphError(f"bad edge line: {line!r}")
            edges.append((parts[0], parts[1]))
        else:
            raise GraphError(f"unknown line: {line!r}")
    if labels is None:
        raise GraphError("missing vertices: line")
    return build_graph(labels, edges)
