"""Seeded uniform random generation of words, Motzkin prefixes, and animals.

The prefix sampler is rejection with full restart: letters are drawn one
at a time and the whole attempt is discarded the moment the running
height dips below zero.  Restarting preserves uniformity over prefixes of
the target length, and the expected number of letter draws is about 2n;
`nb_tirages` counts every draw, discarded ones included.

Randomness comes from one named, versioned generator (numpy PCG64).  A
RandomSource derives an independent PCG64 stream per sampling call from
(seed, call-index), so results are reproducible across platforms and
independent of internal draw batching (numpy's bounded-integer rejection
consumes its bit stream per element, so block draws equal repeated scalar
draws).  Parallel batches split deterministically via (seed, task-index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .animals import SOURCES, Animal, animal_of_codes, lattice_colors
from .paths import StepWord, word_from_codes

# step height contribution per letter code (a, b, c, d)
_DELTA = np.array([1, -1, 0, 0], dtype=np.int64)


@dataclass(frozen=True)
class GenerationReport:
    """Sampled word plus the number of letters drawn to obtain it."""

    word: StepWord
    nb_tirages: int


class RandomSource:
    """Deterministic, splittable source of letter draws.

    Every sampling operation consumes one child stream derived from
    (seed, operation-index); two sources with equal seeds replay the same
    sequence of operations identically.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._op_index = 0

    def _operation_rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(0, self._op_index))
        self._op_index += 1
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, task_index: int) -> "RandomSource":
        """Independent child source for parallel batch task `task_index`."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(1, int(task_index)))
        child_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
        return RandomSource(child_seed)


def random_word(n: int, r: int, source: RandomSource) -> StepWord:
    """Uniform word of length n over the (r+2)-letter alphabet; n draws."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    rng = source._operation_rng()
    codes = rng.integers(0, r + 2, size=n, dtype=np.int64)
    return word_from_codes(r, codes.tolist())


def _sample_prefix_codes(
    n: int, r: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Restart sampler returning (codes of a uniform prefix, total draws).

    Letters are drawn in chunks into `buf` and read from position `pos`;
    a chunk is only ever replaced, never written, so accepted blocks may
    stay views of it.

    Each step scans a window of at most `window` letters: 256 on a fresh
    attempt, doubled after every window the attempt survives.  Most
    attempts die within a few letters, so scanning the rest of a
    65,536-letter chunk for each of them would cost up to a hundred times
    the letters actually drawn; with the window the scan stays within a
    small multiple of them.  The window decides only how far ahead the
    running height is computed, not which letters are drawn or where an
    attempt dies, so codes and draw count equal those of the one-letter
    loop, and for n <= 256 every scan is the whole remaining prefix.
    """
    chunk = min(max(256, 2 * n), 1 << 16)
    buf = np.empty(0, dtype=np.int64)
    pos = 0
    nb = 0
    blocks: list[np.ndarray] = []
    got = 0
    h = 0
    window = 256
    while got < n:
        if pos == len(buf):
            buf = rng.integers(0, r + 2, size=chunk, dtype=np.int64)
            pos = 0
        sub = buf[pos : pos + min(window, n - got)]
        cum = np.cumsum(_DELTA[sub]) + h
        neg = np.nonzero(cum < 0)[0]
        if neg.size:
            k = int(neg[0]) + 1
            nb += k
            pos += k
            blocks.clear()
            got = 0
            h = 0
            window = 256
        else:
            m = len(sub)
            nb += m
            pos += m
            blocks.append(sub)
            got += m
            h = int(cum[-1])
            window *= 2
    codes = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return codes, nb


def random_motzkin_prefix(n: int, r: int, source: RandomSource) -> GenerationReport:
    """Uniform Motzkin prefix of length n by rejection with full restart."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    codes, nb = _sample_prefix_codes(n, r, source._operation_rng())
    return GenerationReport(word_from_codes(r, codes.tolist()), nb)


def random_animal(
    n: int, lattice: str, source_kind: str, source: RandomSource
) -> tuple[Animal, GenerationReport]:
    """Uniform animal of size n: sample a word, mark celibates, stack equerres.

    Point sources draw a Motzkin prefix (linear expected time); compact
    sources keep an arbitrary word (exactly n-1 draws).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = lattice_colors(lattice)
    # checked before the draw, so a rejected call consumes no operation
    if source_kind not in SOURCES:
        raise ValueError(f"unknown source {source_kind!r}")
    rng = source._operation_rng()
    if source_kind == "compact":
        codes = rng.integers(0, r + 2, size=n - 1, dtype=np.int64)
        nb = n - 1
    else:
        codes, nb = _sample_prefix_codes(n - 1, r, rng)
    letters = codes.tolist()
    animal = animal_of_codes(letters, lattice, source_kind)
    return animal, GenerationReport(word_from_codes(r, letters), nb)
