"""Shared fixtures: the standing graphs of `verify.graph_suite()` and two more."""

import pytest

from heappieces import build_graph, linear_window
from heappieces.verify import graph_suite


STANDING = dict(graph_suite())


@pytest.fixture(scope="session")
def path3():
    return STANDING["path3"]


@pytest.fixture(scope="session")
def path5():
    return STANDING["path5"]


@pytest.fixture(scope="session")
def k3():
    return STANDING["K3"]


@pytest.fixture(scope="session")
def edgeless3():
    return STANDING["edgeless3"]


@pytest.fixture(scope="session")
def cycle4():
    return STANDING["cycle4"]


@pytest.fixture(scope="session")
def cube():
    """Outer square abcd, inner square efgh, one spoke per corner."""
    return build_graph(
        "abcdefgh",
        [
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
            ("e", "f"), ("f", "g"), ("g", "h"), ("h", "e"),
            ("a", "e"), ("b", "f"), ("c", "g"), ("d", "h"),
        ],
    )


@pytest.fixture(scope="session")
def window4():
    return linear_window(4)


def to_word(g, text):
    """Label string -> vertex index tuple (single-character labels)."""
    return tuple(g.index(ch) for ch in text)


def counts_by_recurrence(length, r):
    """(W, P): r-colored Motzkin words and prefixes of the given length.

    Built from the P-recurrences alone, sharing no code with the closed
    forms or the path DP:
    (n+2) W_n = r (2n+1) W_{n-1} + (4 - r^2) (n-1) W_{n-2}, W_0 = 1, W_1 = r;
    P_n = (r+2) P_{n-1} - W_{n-1}, P_0 = 1 (a prefix gains r+2 letters,
    except a descent from height 0).
    """
    w_prev, w, p = 0, 1, 1  # W_{n-2}, W_{n-1}, P_{n-1} at n = 1
    for n in range(1, length + 1):
        p = (r + 2) * p - w
        w_prev, w = w, (r * (2 * n + 1) * w + (4 - r * r) * (n - 1) * w_prev) // (n + 2)
    return w, p


@pytest.fixture(scope="session")
def counts_19999():
    """{r: (W, P)} at length 19999, i.e. animals and equerres of size 20000."""
    return {r: counts_by_recurrence(19_999, r) for r in (0, 1, 2)}
