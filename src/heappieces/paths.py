"""Step words: Dyck and Motzkin paths, prefixes, and celibate marking.

Words are strings over `a` (ascend), `b` (descend) and up to two horizontal
colors `c`, `d`; uppercase `A`/`B` mark celibate steps.  An ascending step
is celibate when the path never comes back down to its start level; a
descending step is celibate when it is the first to reach its level.
Splitting a word at its marked steps is the Catalan factorization: every
factor between separators is a complete Motzkin word, and for a Motzkin
prefix the number of marked ascents equals its final height.

The two marking scans (right-to-left for ascents tracking a running
minimum, left-to-right for descents) follow the classic linear-time
routines; descents are marked first, and the ascent scan skips letters
already marked `B`, which is harmless because a descending celibate can
never close an ascent.

A step word is its letters everywhere: the samplers' int step codes
exist only inside `randgen`'s numpy draw, which turns them into a
StepWord once.

`count_paths` counts words by a dynamic program over (position, height)
that keeps only the live band of heights: those from which the steps
still to go can get back to 0.  Its height-0 entry after i steps is W(i),
the number of words of length i, and prefixes follow from P(0) = 1 and
P(i+1) = (r + 2) P(i) - W(i): a prefix grows by any letter but a descent
from height 0.  The band is about half of each full row, so the program
does about n^2/4 big-int additions where the full rows did n^2/2; it uses
no closed form, so it stays an independent count against
`animals.animal_count`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import add

from ._args import count_arg


class WordError(ValueError):
    """Letters illegal for the declared number of horizontal colors."""


class PathKind(Enum):
    MOTZKIN_WORD = "motzkin_word"
    MOTZKIN_PREFIX = "motzkin_prefix"
    GENERAL = "general"


@dataclass(frozen=True)
class StepWord:
    """Word over {a, b, c, d, A, B}; r = number of horizontal colors (0..2)."""

    r: int
    letters: str

    def __post_init__(self) -> None:
        if self.r not in (0, 1, 2):
            raise WordError(f"r must be 0, 1 or 2, got {self.r}")
        allowed = "abAB" + "cd"[: self.r]
        if not set(self.letters) <= set(allowed):
            bad = next(ch for ch in self.letters if ch not in allowed)
            raise WordError(f"letter {bad!r} illegal for r={self.r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def unmarked(self) -> "StepWord":
        return StepWord(self.r, self.letters.lower())


def classify(w: StepWord) -> tuple[PathKind, int]:
    """Kind of the word plus its final height (#ascends - #descends).

    One walk: `a`/`A` count up, `b`/`B` down, and the walk keeps its minimum.
    """
    height = low = 0
    for ch in w.letters:
        if ch in "aA":
            height += 1
        elif ch in "bB":
            height -= 1
            if height < low:
                low = height
    if low < 0:
        return PathKind.GENERAL, height
    if height == 0:
        return PathKind.MOTZKIN_WORD, height
    return PathKind.MOTZKIN_PREFIX, height


def is_motzkin_word(w: StepWord) -> bool:
    return classify(w)[0] is PathKind.MOTZKIN_WORD


def is_motzkin_prefix(w: StepWord) -> bool:
    return classify(w)[0] in (PathKind.MOTZKIN_WORD, PathKind.MOTZKIN_PREFIX)


def mark_celibates(w: StepWord, descents: bool = True) -> StepWord:
    """Celibate-marked copy of w; existing marks are recomputed.

    Descending scan first (left to right, running minimum), then ascending
    (right to left); the ascending scan ignores letters already marked B.
    `descents=False` skips the descending scan, which marks nothing on a
    Motzkin prefix.
    """
    return StepWord(w.r, _marked_letters(w, descents))


def _marked_letters(w: StepWord, descents: bool = True) -> str:
    """The letters of `mark_celibates(w, descents)`, with no StepWord built:
    the scans write only letters of w, so they need no second check."""
    out = list(w.letters.lower())
    n = len(out)
    if descents:
        h = 0
        hmin = 0
        for i in range(n):
            ch = out[i]
            if ch == "a":
                h += 1
            elif ch == "b":
                h -= 1
                if h < hmin:
                    hmin = h
                    out[i] = "B"
    h = 0
    hmin = 0
    for i in range(n - 1, -1, -1):
        ch = out[i]
        if ch == "b":
            h += 1
        elif ch == "a":
            h -= 1
            if h < hmin:
                hmin = h
                out[i] = "A"
    return "".join(out)


def catalan_factorize(
    w: StepWord,
) -> tuple[tuple[StepWord, ...], tuple[StepWord, ...]]:
    """Split at celibate steps: (U_0..U_k around descents, U_{k+1}.. after ascents).

    No celibate descent follows a celibate ascent: the path never comes
    back down to the level that ascent left, so it never reaches a new
    minimum after it.  The marked word is therefore U_0 B .. B U_k, then
    A U_{k+1} A ..; splitting it at its first `A`, the head at `B` and the
    tail at `A` gives the factors.  Every factor is a complete Motzkin
    word and interleaving the factors with the marked separators
    reconcatenates to the input.
    """
    head, sep, tail = _marked_letters(w).partition("A")
    pre = tuple(StepWord(w.r, u) for u in head.split("B"))
    post = tuple(StepWord(w.r, u) for u in tail.split("A")) if sep else ()
    return pre, post


def count_paths(n: int, r: int, kind: str) -> int:
    """Number of r-colored Motzkin words or prefixes of length n.

    Dynamic program over (position, height); `kind` is "word" or "prefix".
    A row holds the words' live heights after i steps: those from which
    the steps left to `length` can get back to 0, so `row[0]` is W(i), the
    number of words of length i.  A prefix of length n needs W(i) for
    i < n alone, so its band is that of the words of length n - 1, and
    P(i+1) = (r + 2) P(i) - W(i) counts it: a prefix of length i takes any
    of the r + 2 letters, but the W(i) that end at height 0 take no descent.
    """
    n = count_arg(n, 0, "n")
    r = count_arg(r, 0, "r")
    if r not in (0, 1, 2):
        raise WordError(f"r must be 0, 1 or 2, got {r}")
    if kind not in ("word", "prefix"):
        raise ValueError(f"kind must be 'word' or 'prefix', got {kind!r}")
    word = kind == "word"
    length = n if word else n - 1
    row = [1]  # row[h] = words of the current length ending at live height h
    prefixes = 1
    for i in range(n):
        prefixes = prefixes * (r + 2) - row[0]
        # new height h comes from h-1 (ascend), h (r flat colors) and h+1 (descend)
        new = map(add, chain((0,), row), chain(row[1:], (0, 0)))
        if r:
            flat = row if r == 1 else map(add, row, row)
            new = map(add, new, chain(flat, (0,)))
        row = list(new)[: length - i]  # heights from which 0 is in reach
    return row[0] if word else prefixes


def bicolored_to_dyck(w: StepWord) -> StepWord:
    """Bijection: bicolored Motzkin words of length n-1 -> Dyck words of length 2n.

    Rules: eps -> ab, cU -> ab U', dU -> a U' b, aUbV -> a U' b V'.
    Read left to right, a factor U runs to the end of the word or to the
    `b` matching the `a` that opened it, and its image ends with the `ab`
    of eps followed by one `b` per `d` read in U.  So one pass with a
    stack of per-factor `d` counts emits the image, and word length is
    bounded by memory, not the call stack.
    """
    if w.r != 2 or not is_motzkin_word(w):
        raise WordError("input must be a bicolored Motzkin word")
    out: list[str] = []
    open_d = [0]  # per open factor: d's whose closing b is still owed
    for ch in w.unmarked().letters:
        if ch == "c":
            out.append("ab")
        elif ch == "d":
            out.append("a")
            open_d[-1] += 1
        elif ch == "a":
            out.append("a")
            open_d.append(0)
        else:  # "b" closes the factor opened by its matching "a"
            out.append("ab" + "b" * open_d.pop() + "b")
    out.append("ab" + "b" * open_d.pop())
    return StepWord(0, "".join(out))


def bicolored_prefix_to_dyck_prefix(w: StepWord) -> StepWord:
    """Bicolored Motzkin prefixes of length n-1 -> Dyck prefixes of length 2n-1.

    Split the prefix at its celibate ascents, map each Motzkin factor to a
    Dyck word, drop that word's final descent, rejoin with the ascents.
    """
    if w.r != 2 or not is_motzkin_prefix(w):
        raise WordError("input must be a bicolored Motzkin prefix")
    factors = _marked_letters(w).split("A")  # a prefix has no `B`
    pieces = [bicolored_to_dyck(StepWord(2, u)).letters[:-1] for u in factors]
    return StepWord(0, "a".join(pieces))
