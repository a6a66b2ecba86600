"""Seeded uniform random generation of words, Motzkin prefixes, and animals.

The prefix sampler is rejection with full restart: letters are drawn one
at a time and the whole attempt is discarded the moment the running
height dips below zero.  Restarting preserves uniformity over prefixes of
the target length, and the expected number of letter draws is about 2n;
`nb_tirages` counts every draw, discarded ones included, `restarts` the
discarded attempts; how the draws are scanned never changes a seed's output.

Randomness comes from one named, versioned generator (numpy PCG64).  A
RandomSource gives sampling call i of seed s the stream
PCG64(SeedSequence(entropy=s, spawn_key=(0, i))), so results are
reproducible across platforms and independent of internal draw batching
(numpy's bounded-integer rejection consumes its bit stream per element, so
block draws equal repeated scalar draws).  Parallel batches split
deterministically: split(t) seeds its child with the first 64-bit state
word of SeedSequence(entropy=s, spawn_key=(1, t)).

The source does not build that SeedSequence: it reproduces it bit for bit.
Every constant of SeedSequence's hash (NEP 19) depends only on a word's
position, and a seed fills the same four padded words whatever its value,
so the pool after the seed's words is computed once per seed and kept,
and so is its copy with stream word 0 mixed in; a call mixes its index's
32-bit words into a copy of the latter, hashes out eight words and seeds
PCG64 from them by its two LCG steps (O'Neill 2014), setting the state of
the one PCG64 the source keeps, and `split` mixes stream word 1 and its
task index into a copy of the former.  numpy is the oracle in
tests/test_randgen.py.  A call's stream setup went from about 12 us to
about 7 us.  That PCG64 is seeded from zeros, not through a SeedSequence,
as every call sets its state; creating a source, which builds the pools
and the PCG64, takes about 13 us and `split` about 19 us, against 28 us
when it hashed the seed again (in process, medians of five alternating
rounds, each the best of 7 x 20,000 calls, 2-core VM).

The draw works on int step codes 0..3 (a, b, c, d) and only there: `_draw`
turns the kept codes into a StepWord once, and everything after it,
celibate marking and equerre stacking included, reads letters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._args import count_arg
from .animals import Animal, _check_kind, animal_of_word, lattice_colors
from .paths import StepWord

# step depth (minus height) contribution per letter code (a, b, c, d)
_DEPTH = np.array([-1, 1, 0, 0], dtype=np.int64)
# code byte -> letter byte
_LETTERS = bytes.maketrans(b"\0\1\2\3", b"abcd")

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_M32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875  # mixing entropy into the pool
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED  # hashing state words out
# (xor, multiplier) of generate_state's output word k
_OUT = tuple(
    (_INIT_B * _MULT_B**k & _M32, _INIT_B * _MULT_B ** (k + 1) & _M32) for k in range(8)
)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_M128 = (1 << 128) - 1


class _ZeroSeed(ISeedSequence):
    """Seeds a PCG64 with zeros and no hash: the source sets its state
    before every draw, so building it need not run a SeedSequence."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype)


_ZERO_SEED = _ZeroSeed()


@dataclass(frozen=True)
class GenerationReport:
    """Sampled word, letters drawn to obtain it, attempts rejected on the way."""

    word: StepWord
    nb_tirages: int
    restarts: int = 0


def _hashmix(value: int, hc: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed value and the next hash constant."""
    value ^= hc
    hc = hc * _MULT_A & _M32
    value = value * hc & _M32
    return value ^ value >> 16, hc


def _mix_in(pool: list[int], value: int, hc: int) -> int:
    """Mix the 32-bit words of `value` >= 0, least significant first, into
    every word of `pool`, as SeedSequence mixes the entropy past its pool;
    returns the next hash constant."""
    while True:
        word = value & _M32
        for dst, x in enumerate(pool):
            h, hc = _hashmix(word, hc)
            r = (_MIX_L * x - _MIX_R * h) & _M32
            pool[dst] = r ^ r >> 16
        value >>= 32
        if not value:
            return hc


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """Pool and hash constant of SeedSequence(entropy=seed, spawn_key=...)
    before the spawn key's words are mixed in.

    A spawn key pads the seed's one or two words with zeros to the pool's
    four, so every seed in 0..2**64-1 hashes through the same constants.
    """
    pool = []
    hc = _INIT_A
    for word in (seed & _M32, seed >> 32, 0, 0):
        h, hc = _hashmix(word, hc)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, hc = _hashmix(pool[src], hc)
                r = (_MIX_L * pool[dst] - _MIX_R * h) & _M32
                pool[dst] = r ^ r >> 16
    return pool, hc


def _stream_pool(seed_pool: tuple[list[int], int], stream: int) -> tuple[list[int], int]:
    """Pool and hash constant of SeedSequence(entropy=seed, spawn_key=(stream,
    i)) before the words of i are mixed in, from that seed's `_seed_pool`."""
    pool = seed_pool[0].copy()
    return pool, _mix_in(pool, stream, seed_pool[1])


def _child_words(stream_pool: tuple[list[int], int], index: int, n: int) -> list[int]:
    """generate_state(n) of SeedSequence(entropy=seed, spawn_key=(stream,
    index)), from that seed and stream's `_stream_pool`."""
    pool = stream_pool[0].copy()
    _mix_in(pool, index, stream_pool[1])
    out = []
    for k in range(n):
        x, y = _OUT[k]
        h = (pool[k & 3] ^ x) * y & _M32
        out.append(h ^ h >> 16)
    return out


class RandomSource:
    """Deterministic, splittable source of letter draws.

    Every sampling operation consumes one child stream derived from
    (seed, operation-index); two sources with equal seeds replay the same
    sequence of operations identically.  Assigning `seed` keeps the
    operation index: the next operation is that index's under the new seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._op_index = 0
        self._bits = np.random.PCG64(_ZERO_SEED)  # its state is set before every draw
        self._rng = np.random.Generator(self._bits)
        # the state set on it: refilled, not rebuilt, by every call
        self._state = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 1},
            "has_uint32": 0,
            "uinteger": 0,
        }

    @property
    def seed(self) -> int:
        return self._seed

    @seed.setter
    def seed(self, seed: int) -> None:
        if type(seed) is bool:  # operator.index(True) is 1: a flag is no seed
            raise TypeError("seed must be an integer, not bool")
        seed = operator.index(seed)  # int() would take 1.9 or "7" as a seed
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in 0..2**64-1, got {seed}")
        self._seed = seed
        self._seed_hash = _seed_pool(seed)  # kept for `split`'s stream
        self._pool = _stream_pool(self._seed_hash, 0)

    # a copy or an unpickled source keeps its own generator
    def __getstate__(self) -> tuple[int, int]:
        return self._seed, self._op_index

    def __setstate__(self, state: tuple[int, int]) -> None:
        self.__init__(state[0])
        self._op_index = state[1]

    def _operation_rng(self) -> np.random.Generator:
        w = _child_words(self._pool, self._op_index, 8)
        self._op_index += 1
        # PCG64 reads initstate, then initseq, each high 64 bits first, and
        # seeds by two LCG steps with initstate added between them
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        initseq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
        inc = (initseq << 1 | 1) & _M128
        pcg = self._state["state"]
        pcg["state"] = ((inc + initstate) * _PCG_MULT + inc) & _M128
        pcg["inc"] = inc
        self._bits.state = self._state
        return self._rng

    def split(self, task_index: int) -> "RandomSource":
        """Independent child source for parallel batch task `task_index` (>= 0)."""
        task_index = count_arg(task_index, 0, "task_index")
        lo, hi = _child_words(_stream_pool(self._seed_hash, 1), task_index, 2)
        return RandomSource(lo | hi << 32)


def _draw(
    n: int, r: int, prefix: bool, source: RandomSource
) -> tuple[StepWord, int, int]:
    """One operation: word, draws and restarts of a uniform word or prefix of
    length n over r colours, which the public entries have checked."""
    rng = source._operation_rng()
    if prefix:
        codes, nb, restarts = _sample_prefix_codes(n, r, rng)
    else:
        codes, nb, restarts = rng.integers(0, r + 2, size=n, dtype=np.int64), n, 0
    letters = codes.astype(np.uint8).tobytes().translate(_LETTERS)
    return StepWord(r, letters.decode("ascii")), nb, restarts


def _colors(r: int) -> int:
    """r as a sampled word's colour count: 1 or 2, checked before any draw."""
    r = count_arg(r, 0, "r")
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    return r


def random_word(n: int, r: int, source: RandomSource) -> StepWord:
    """Uniform word of length n over the (r+2)-letter alphabet; n draws."""
    return _draw(count_arg(n, 0, "n"), _colors(r), False, source)[0]


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
    return GenerationReport(*_draw(count_arg(n, 0, "n"), _colors(r), True, source))


def random_animal(
    n: int, lattice: str, source_kind: str, source: RandomSource
) -> tuple[Animal, GenerationReport]:
    """Uniform animal of size n: sample a word, mark celibates, stack equerres.

    Point sources draw a Motzkin prefix (linear expected time); compact
    sources keep an arbitrary word (exactly n-1 draws).
    """
    n = count_arg(n, 1, "n")
    _check_kind(lattice, source_kind)  # before the draw: a rejected call draws nothing
    r = lattice_colors(lattice)
    report = GenerationReport(*_draw(n - 1, r, source_kind == "point", source))
    return animal_of_word(report.word, lattice, source_kind), report
