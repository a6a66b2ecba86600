"""Seeded uniform random generation of words, Motzkin prefixes, and animals.

The prefix sampler is rejection with full restart: letters are drawn one
at a time and the whole attempt is discarded the moment the running
height dips below zero.  Restarting preserves uniformity over prefixes of
the target length, and the expected number of letter draws is about 2n;
`nb_tirages` counts every draw, discarded ones included, `restarts` the
discarded attempts; how the draws are scanned never changes a seed's output.

Randomness comes from one named, versioned generator (numpy PCG64).  A
RandomSource derives an independent PCG64 stream per sampling call from
(seed, call-index), so results are reproducible across platforms and
independent of internal draw batching (numpy's bounded-integer rejection
consumes its bit stream per element, so block draws equal repeated scalar
draws).  Parallel batches split deterministically via (seed, task-index).

The draw works on int step codes 0..3 (a, b, c, d) and only there: `_draw`
turns the kept codes into a StepWord once, and everything after it,
celibate marking and equerre stacking included, reads letters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .animals import Animal, _check_kind, animal_of_word, lattice_colors
from .paths import StepWord

# step depth (minus height) contribution per letter code (a, b, c, d)
_DEPTH = np.array([-1, 1, 0, 0], dtype=np.int64)
# code byte -> letter byte
_LETTERS = bytes.maketrans(b"\0\1\2\3", b"abcd")


@dataclass(frozen=True)
class GenerationReport:
    """Sampled word, letters drawn to obtain it, attempts rejected on the way."""

    word: StepWord
    nb_tirages: int
    restarts: int = 0


class RandomSource:
    """Deterministic, splittable source of letter draws.

    Every sampling operation consumes one child stream derived from
    (seed, operation-index); two sources with equal seeds replay the same
    sequence of operations identically.
    """

    def __init__(self, seed: int):
        if type(seed) is bool:  # operator.index(True) is 1: a flag is no seed
            raise TypeError("seed must be an integer, not bool")
        self.seed = operator.index(seed)  # int() would take 1.9 or "7" as a seed
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")
        self._op_index = 0

    def _operation_rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(0, self._op_index))
        self._op_index += 1
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, task_index: int) -> "RandomSource":
        """Independent child source for parallel batch task `task_index` (>= 0)."""
        if type(task_index) is bool:
            raise TypeError("task_index must be an integer, not bool")
        task_index = operator.index(task_index)  # as for the seed: no 1.9 or "1"
        if task_index < 0:
            raise ValueError(f"task_index must be >= 0, got {task_index}")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(1, task_index))
        child_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
        return RandomSource(child_seed)


def _draw(
    n: int, r: int, prefix: bool, source: RandomSource
) -> tuple[StepWord, int, int]:
    """One operation: word, draws and restarts of a uniform word or prefix."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    rng = source._operation_rng()
    if prefix:
        codes, nb, restarts = _sample_prefix_codes(n, r, rng)
    else:
        codes, nb, restarts = rng.integers(0, r + 2, size=n, dtype=np.int64), n, 0
    letters = codes.astype(np.uint8).tobytes().translate(_LETTERS)
    return StepWord(r, letters.decode("ascii")), nb, restarts


def random_word(n: int, r: int, source: RandomSource) -> StepWord:
    """Uniform word of length n over the (r+2)-letter alphabet; n draws."""
    return _draw(n, r, False, source)[0]


def _sample_prefix_codes(
    n: int, r: int, rng: np.random.Generator
) -> tuple[np.ndarray, int, int]:
    """Restart sampler: (codes of a uniform prefix, total draws, restarts).

    Letters are drawn `chunk` at a time.  Measure depth = -height from the
    live attempt's start and never reset it: an attempt that starts right
    after a death at depth k dies at the first later step to depth k + 1,
    so a chunk's deaths are the first hits of depths 1, 2, 3, ... of the
    running depth (one cumsum, running maximum and searchsorted, as ndarray
    methods: numpy's function wrappers cost microseconds each at 256
    letters).  A loop over the deaths finds the first attempt that lasts n
    letters; the live attempt's letters (views of chunks, which are never
    written) and height carry into the next chunk.  The chunk size changes
    only how the stream is read: codes, draw count and restarts equal those
    of the one-letter loop.
    """
    chunk = min(max(256, 2 * n), 1 << 16)
    blocks: list[np.ndarray] = []  # the live attempt's letters so far
    got = 0  # their number
    h = 0  # its height
    drawn = restarts = 0  # letters and deaths of the chunks before this one
    while n:
        buf = rng.integers(0, r + 2, size=chunk, dtype=np.int64)
        depth = _DEPTH[buf]
        depth[0] -= h
        depth.cumsum(out=depth)
        peak = np.maximum.accumulate(depth)
        deaths = peak.searchsorted(np.arange(1, peak[-1] + 1)).tolist()
        start = -got  # first letter of the live attempt, as an index into buf
        for k, end in enumerate(deaths + [chunk]):
            if end - start >= n:
                tail = buf[max(start, 0) : start + n]
                codes = np.concatenate(blocks + [tail]) if start < 0 else tail
                return codes, drawn + start + n, restarts + k
            if end < chunk:
                start = end + 1
        blocks = [buf[start:]] if deaths else blocks + [buf]
        got = chunk - start
        h = len(deaths) - int(depth[-1])
        restarts += len(deaths)
        drawn += chunk
    return np.empty(0, dtype=np.int64), 0, 0


def random_motzkin_prefix(n: int, r: int, source: RandomSource) -> GenerationReport:
    """Uniform Motzkin prefix of length n by rejection with full restart."""
    return GenerationReport(*_draw(n, r, True, source))


def random_animal(
    n: int, lattice: str, source_kind: str, source: RandomSource
) -> tuple[Animal, GenerationReport]:
    """Uniform animal of size n: sample a word, mark celibates, stack equerres.

    Point sources draw a Motzkin prefix (linear expected time); compact
    sources keep an arbitrary word (exactly n-1 draws).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_kind(lattice, source_kind)  # before the draw: a rejected call draws nothing
    r = lattice_colors(lattice)
    report = GenerationReport(*_draw(n - 1, r, source_kind == "point", source))
    return animal_of_word(report.word, lattice, source_kind), report
