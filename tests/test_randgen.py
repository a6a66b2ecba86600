"""Random generation: determinism, stream semantics, uniformity at desk scale."""

import copy
import functools
import hashlib
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from heappieces import (
    RandomSource,
    animal_to_json,
    beta,
    beta_inverse,
    colored_layers,
    compact_animal,
    linear_window,
    random_animal,
    random_motzkin_prefix,
    random_word,
)
from heappieces.animals import all_prefixes, all_words
from heappieces.paths import StepWord, classify


# the three samplers, each with its size left open
SAMPLERS = {
    "word": lambda n, src: random_word(n, 1, src),
    "prefix": lambda n, src: random_motzkin_prefix(n, 2, src),
    "animal": lambda n, src: random_animal(n, "square", "point", src),
}


def naive_prefix_reference(n, r, codes):
    """Scalar transcription of the restart loop, one letter per iteration.

    `codes` yields the stream's draws 0..3, read here as the letters a, b,
    c, d by this oracle's own table.  Returns the prefix, the number of
    letters read and the stream positions of the letters that killed an
    attempt (one per restart).
    """
    word = []
    deaths = []
    nb = 0
    h = 0
    while len(word) < n:
        letter = "abcd"[next(codes)]
        nb += 1
        word.append(letter)
        if letter == "a":
            h += 1
        elif letter == "b":
            h -= 1
            if h < 0:
                deaths.append(nb - 1)
                word.clear()
                h = 0
    return StepWord(r, "".join(word)), nb, deaths


def operation_letters(seed, r, block=1):
    """The letters of the first operation of RandomSource(seed), drawn
    `block` at a time (see test_block_draws_equal_scalar_draws)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, 0))
    rng = np.random.Generator(np.random.PCG64(ss))
    while True:
        yield from rng.integers(0, r + 2, size=block).tolist()


@functools.cache
def naive_case(n, r, seed):
    """The oracle on the stream of RandomSource(seed)'s first operation;
    long streams are drawn in blocks."""
    letters = operation_letters(seed, r, block=1 if n < 1000 else 4096)
    return naive_prefix_reference(n, r, letters)


def chunk_of(n):
    """Letters per draw of `randgen._sample_prefix_codes` for length n."""
    return min(max(256, 2 * n), 1 << 16)


# (n, r, seed) checked against the oracle: every n <= 12 (n = 0 included)
# with 20 seeds, the lengths around the first chunk sizes and two 2^15-ish
# lengths whose attempts cross chunk boundaries, (110, 1, 12), whose
# accepted attempt ends on the last letter of its chunk, and two lengths
# past the 65,536-letter cap whose accepted attempts span three chunks
NAIVE_CASES = (
    [(n, r, s) for n in range(13) for r in (1, 2) for s in range(20)]
    + [
        (n, r, s)
        for n in (255, 256, 257, 511, 512, 32768, 32769, 40000)
        for r in (1, 2)
        for s in range(3)
    ]
    + [(40, 2, 5), (110, 1, 12), (183, 1, 9), (600, 2, 3)]
    + [(70_000, 2, 4), (100_000, 2, 0)]
)


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = RandomSource(12345)
        b = RandomSource(12345)
        for _ in range(20):
            an_a, rep_a = random_animal(30, "square", "point", a)
            an_b, rep_b = random_animal(30, "square", "point", b)
            assert an_a == an_b
            assert rep_a == rep_b

    def test_golden_word(self):
        assert random_word(5, 1, RandomSource(0)).letters == "abccc"
        assert random_word(8, 2, RandomSource(123)).letters == "ccacadda"

    def test_golden_prefix(self):
        rep = random_motzkin_prefix(10, 1, RandomSource(0))
        assert rep.word.letters == "acccbcacaa"
        assert rep.nb_tirages == 16

    def test_rejects_negative_seed(self):
        assert RandomSource(0).seed == 0
        with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\*\*64-1, got -1"):
            RandomSource(-1)

    def test_rejects_seed_past_64_bits(self):
        assert RandomSource(2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\*\*64-1"):
            RandomSource(2**64)

    # operator.index takes True as 1, so a bool is rejected by type
    @pytest.mark.parametrize("seed", [1.9, 1.0, "7", True, False])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            RandomSource(seed)

    def test_numpy_integer_seed_replays_int_seed(self):
        a, b = RandomSource(np.uint64(5)), RandomSource(5)
        assert type(a.seed) is int and a.seed == 5
        for _ in range(3):
            assert random_word(40, 2, a) == random_word(40, 2, b)
            assert random_animal(30, "square", "point", a) == random_animal(
                30, "square", "point", b
            )

    @pytest.mark.parametrize(
        "call, error, match",
        [
            pytest.param(
                lambda src: random_word(-1, 1, src), ValueError, "n must be >= 0",
                id="word-n",
            ),
            pytest.param(
                lambda src: random_word(3, 3, src), ValueError, "r must be 1 or 2",
                id="word-r",
            ),
            pytest.param(
                lambda src: random_motzkin_prefix(-1, 2, src), ValueError,
                "n must be >= 0", id="prefix-n",
            ),
            pytest.param(
                lambda src: random_motzkin_prefix(3, 0, src), ValueError,
                "r must be 1 or 2", id="prefix-r",
            ),
            pytest.param(
                lambda src: random_animal(0, "square", "point", src), ValueError,
                "n must be >= 1", id="animal-n",
            ),
            # a bool or a float size: once 3.0 failed after its stream was taken
            *(
                pytest.param(
                    functools.partial(sample, n), TypeError, "n must be an integer",
                    id=f"{kind}-{n}",
                )
                for n in (True, 2.0, 2.5)
                for kind, sample in SAMPLERS.items()
            ),
            # a colour count that is no int: once r=True drew a word with r
            # True, and r=1.0 failed after its stream was taken
            *(
                pytest.param(
                    functools.partial(sample, 4, r), TypeError, "r must be an integer",
                    id=f"{sample.__name__}-r-{r!r}",
                )
                for r in (True, 1.0, "1")
                for sample in (random_word, random_motzkin_prefix)
            ),
        ],
    )
    def test_rejected_arguments_consume_no_operation(self, call, error, match):
        src = RandomSource(8)
        with pytest.raises(error, match=match):
            call(src)
        assert random_word(9, 1, src) == random_word(9, 1, RandomSource(8))

    def test_split_is_deterministic_and_independent(self):
        root = RandomSource(9)
        children = [root.split(i) for i in range(3)]
        again = [RandomSource(9).split(i) for i in range(3)]
        words = [random_word(6, 1, c).letters for c in children]
        assert words == [random_word(6, 1, c).letters for c in again]
        assert len(set(c.seed for c in children)) == 3

    def test_split_pins_child_seed(self):
        assert RandomSource(5).split(1).seed == 7914777250463872585
        assert RandomSource(5).split(np.int64(3)).seed == RandomSource(5).split(3).seed

    @pytest.mark.parametrize("task_index", [1.9, "1", 1.0, True, False])
    def test_split_rejects_non_integer_index(self, task_index):
        # int() took these as tasks; operator.index took a bool as task 0 or 1
        with pytest.raises(TypeError):
            RandomSource(5).split(task_index)

    def test_split_rejects_negative_index(self):
        with pytest.raises(ValueError, match="task_index must be >= 0, got -1"):
            RandomSource(5).split(-1)


# (seed, index) pairs checked against numpy's SeedSequence: the 32-bit and
# 64-bit edges of both, then a seeded sweep of seeds and indices of every width
EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
_sweep = random.Random(2026)
ORACLE_PAIRS = [(s, i) for s in EDGES for i in EDGES] + [
    (_sweep.getrandbits(_sweep.choice((8, 32, 33, 64))),
     _sweep.getrandbits(_sweep.choice((4, 16, 32, 33, 64))))
    for _ in range(2000)
]


class TestStreamDerivation:
    """RandomSource derives each call's PCG64 without building numpy's
    SeedSequence; numpy is the oracle for every stream it derives."""

    def test_operation_stream_is_seed_sequence_pcg64(self):
        for seed, index in ORACLE_PAIRS:
            src = RandomSource(seed)
            src._op_index = index
            rng = src._operation_rng()
            expected = np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(0, index))
            )
            assert rng.bit_generator.state == expected.state, (seed, index)
            draws = rng.integers(0, 3, size=300, dtype=np.int64)
            oracle = np.random.Generator(expected).integers(0, 3, size=300, dtype=np.int64)
            assert np.array_equal(draws, oracle), (seed, index)
            assert src._op_index == index + 1

    def test_split_seed_is_seed_sequence_state(self):
        # 2**100 spans four words: split takes task indices of any width
        for seed, task in ORACLE_PAIRS + [(5, 2**100), (2**64 - 1, 2**100 + 7)]:
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(1, task))
            assert RandomSource(seed).split(task).seed == int(
                ss.generate_state(1, np.uint64)[0]
            ), (seed, task)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda src: pickle.loads(pickle.dumps(src))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_replays_the_next_operations(self, clone):
        src = RandomSource(77)
        for _ in range(3):
            random_animal(6, "square", "point", src)
        twin = clone(src)
        assert twin.seed == 77
        # interleaved: neither source's draw moves the other's stream
        for n in (6, 30, 1, 200, 6):
            theirs = random_animal(n, "triangular", "point", twin)
            assert random_animal(n, "triangular", "point", src) == theirs

    def test_reassigned_seed_draws_its_operation(self):
        src = RandomSource(3)
        for _ in range(3):
            random_word(20, 2, src)
        src.seed = 2**40 + 9
        fresh = RandomSource(2**40 + 9)
        for _ in range(3):
            random_word(20, 2, fresh)
        assert src.seed == 2**40 + 9
        assert random_motzkin_prefix(50, 1, src) == random_motzkin_prefix(50, 1, fresh)

    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (2**64, ValueError), (1.5, TypeError), (True, TypeError)]
    )
    def test_rejected_seed_assignment_keeps_the_source(self, seed, error):
        src = RandomSource(4)
        random_word(5, 1, src)
        with pytest.raises(error):
            src.seed = seed
        fresh = RandomSource(4)
        random_word(5, 1, fresh)
        assert src.seed == 4
        assert random_word(9, 1, src) == random_word(9, 1, fresh)


class TestPrefixSampler:
    def test_zero_length(self):
        rep = random_motzkin_prefix(0, 1, RandomSource(4))
        assert rep.word.letters == "" and rep.nb_tirages == 0

    def test_always_a_prefix_and_draws_cover_length(self):
        src = RandomSource(77)
        for _ in range(200):
            rep = random_motzkin_prefix(17, 2, src)
            assert classify(rep.word)[0].value in ("motzkin_word", "motzkin_prefix")
            assert rep.nb_tirages >= len(rep.word) == 17

    @pytest.mark.parametrize("n,r,seed", NAIVE_CASES)
    def test_matches_naive_reference(self, n, r, seed):
        got = random_motzkin_prefix(n, r, RandomSource(seed))
        ref_word, ref_nb, deaths = naive_case(n, r, seed)
        assert got.word == ref_word
        assert got.nb_tirages == ref_nb
        assert got.restarts == len(deaths)

    def test_cases_reach_every_chunk_branch(self):
        """Read off the oracle, so the sampler does not judge its own cases."""
        seen = set()
        for n, r, seed in NAIVE_CASES:
            _, nb, deaths = naive_case(n, r, seed)
            chunk = chunk_of(n)
            if n == 0:
                seen.add("n = 0")
            if nb - n == 0 and n:
                seen.add("accepted without a restart")
            if (nb - n) // chunk < (nb - 1) // chunk:
                seen.add("accepted attempt crosses a chunk boundary")
            if (nb - n) // chunk + 2 <= (nb - 1) // chunk:
                seen.add("accepted attempt spans three chunks")
            if nb % chunk == 0 and n:
                seen.add("accepted attempt ends at a chunk's end")
            for prev, d in zip([-1] + deaths, deaths):
                if d >= chunk and d % chunk == 0:
                    seen.add("death on the first letter of a later chunk")
                if d % chunk == chunk - 1:
                    seen.add("death on the last letter of a chunk")
                if (prev + 1) // chunk < d // chunk:
                    seen.add("dead attempt crosses a chunk boundary")
        assert len(seen) == 8, seen

    def test_block_draws_equal_scalar_draws(self):
        # numpy's bounded integers read the bit stream per element, so the
        # sampler's chunks and the oracle's blocks see the scalar stream
        for r in (1, 2):
            scalar = operation_letters(1, r)
            blocks = operation_letters(1, r, block=4096)
            assert [next(scalar) for _ in range(5000)] == [
                next(blocks) for _ in range(5000)
            ]

    def test_length_one_frequencies(self):
        src = RandomSource(5)
        counts = Counter(
            random_motzkin_prefix(1, 1, src).word.letters for _ in range(100_000)
        )
        assert set(counts) == {"a", "c"}
        for v in counts.values():
            assert abs(v / 100_000 - 0.5) < 0.02

    def test_mean_cost_near_2n(self):
        # loose check away from the acceptance point n=200
        for n, runs, seed in ((50, 3000, 11), (1000, 800, 11)):
            src = RandomSource(seed)
            total = sum(
                random_motzkin_prefix(n, 1, src).nb_tirages for _ in range(runs)
            )
            assert 1.6 <= total / (runs * n) <= 2.4


class TestSamplerStream:
    """Pins of the letter stream.  Prefix lengths 1, 255-257, 1000 and 70000
    were recorded before the windowed restart scan; 5, 6, 200 and the
    protocol digests before the record-depth scan."""

    # n -> digest of (letters, nb_tirages) over r in (1, 2), seeds 0, 1, 2;
    # 70000 spans two 65,536-letter chunks
    PREFIX_DIGESTS = {
        1: "5235af76b94a5915",
        5: "2ca2b7b3220f3cc3",
        6: "11677018fe8e4845",
        200: "d6a476588501120e",
        255: "0f82c208cfaef619",
        256: "6deec5dc8e996b8c",
        257: "55f69a4ec8c5bc60",
        1000: "3657e951d535de5c",
        70000: "5b8657bffae3e5eb",
    }

    @pytest.mark.parametrize("n", sorted(PREFIX_DIGESTS))
    def test_prefix_digest(self, n):
        h = hashlib.sha256()
        for r in (1, 2):
            for s in (0, 1, 2):
                rep = random_motzkin_prefix(n, r, RandomSource(s))
                h.update(f"{r}:{s}:{rep.word.letters}:{rep.nb_tirages};".encode())
        assert h.hexdigest()[:16] == self.PREFIX_DIGESTS[n]

    # criterion 9's protocols: digest of (cells, nb_tirages) of the first
    # 1,000 animals of seed 2024
    PROTOCOL_DIGESTS = {
        ("square", "point", 6): "d93a693101cf5c9c",
        ("triangular", "point", 5): "9c79c91f618bd4b3",
        ("square", "compact", 5): "1f1f6c8baee5a8f4",
    }

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_DIGESTS))
    def test_protocol_digest(self, protocol):
        lattice, source_kind, n = protocol
        src = RandomSource(2024)
        h = hashlib.sha256()
        for _ in range(1000):
            an, rep = random_animal(n, lattice, source_kind, src)
            h.update(f"{an.cells}:{rep.nb_tirages};".encode())
        assert h.hexdigest()[:16] == self.PROTOCOL_DIGESTS[protocol]

    def test_restart_heavy_animal_digest(self):
        # seed 1 restarts 1,052 times over 7 chunks before its 99,999 letters
        an, rep = random_animal(10**5, "square", "point", RandomSource(1))
        assert rep.nb_tirages == 454_572
        assert rep.restarts == 1_052
        text = f"{animal_to_json(an)}\n{rep.nb_tirages}"
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "3112809cc24a8d45"

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_scan_is_linear_in_draws(self, monkeypatch, n):
        """Letters scanned for the running depth record stay within 4x the
        letters kept or discarded; scanning the rest of the chunk on every
        restart read up to ~100x.  The lower bound fails a scan that no
        longer goes through the hook, rather than letting it count 0."""
        scanned = []
        maximum = np.maximum

        class CountingMaximum:
            def accumulate(self, a, *args, **kwargs):
                scanned.append(len(a))
                return maximum.accumulate(a, *args, **kwargs)

        monkeypatch.setattr(np, "maximum", CountingMaximum())
        for seed in range(5):
            scanned.clear()
            rep = random_motzkin_prefix(n, 1, RandomSource(seed))
            assert rep.nb_tirages <= sum(scanned) <= 4 * rep.nb_tirages, seed


class TestWordSampler:
    def test_zero_length(self):
        assert random_word(0, 1, RandomSource(3)).letters == ""

    def test_exact_draw_count_and_length(self):
        w = random_word(1000, 2, RandomSource(8))
        assert len(w) == 1000 and w.r == 2

    def test_letter_frequencies(self):
        w = random_word(100_000, 1, RandomSource(6))
        counts = Counter(w.letters)
        for letter in "abc":
            assert abs(counts[letter] / 100_000 - 1 / 3) <= 0.01 / 3


class TestRandomAnimal:
    def test_size_one(self):
        an, rep = random_animal(1, "square", "point", RandomSource(2))
        assert an.cell_set() == {(0, 0)}
        assert rep.nb_tirages == 0

    # (size, animals per lattice); the byte output of `generate` depends on
    # cell order, so the cells are compared as sequences, not as sets
    PIPELINE_SIZES = ((25, 60), (5000, 3))

    def test_matches_bijection_pipeline(self):
        for lattice in ("square", "triangular"):
            src = RandomSource(31)
            for n, runs in self.PIPELINE_SIZES:
                for _ in range(runs):
                    an, rep = random_animal(n, lattice, "point", src)
                    an.validate()
                    assert an.cells == beta(rep.word, lattice).cells
                    assert beta_inverse(an) == rep.word

    def test_compact_pipeline(self):
        for lattice in ("square", "triangular"):
            src = RandomSource(13)
            for n, runs in self.PIPELINE_SIZES:
                for _ in range(runs):
                    an, rep = random_animal(n, lattice, "compact", src)
                    an.validate()
                    assert rep.nb_tirages == n - 1
                    assert an.cells == compact_animal(rep.word, lattice).cells

    def test_stacking_matches_colored_heap_kernel(self):
        """Independent of animal_of_word: the cells, in drop order, are the
        colored layering of their fibres on the chain window of radius
        R = max |fibre| + 1 with its parity colouring, cell (x, y) in layer y + 1.
        One drop rule serves both lattices, so this runs on every square word
        of length <= 8 and every triangular word of length <= 6, each as a
        compact word and, when it is a Motzkin prefix, as a point prefix, and
        on random animals of up to 5000 cells."""
        animals = []
        for lattice, r, top in (("square", 1, 8), ("triangular", 2, 6)):
            for length in range(top + 1):
                animals += [compact_animal(w, lattice) for w in all_words(length, r)]
                animals += [beta(w, lattice) for w in all_prefixes(length, r)]
            for source_kind in ("point", "compact"):
                src = RandomSource(17)
                for n in (1, 2, 3, 7, 25, 300, 5000):
                    animals.append(random_animal(n, lattice, source_kind, src)[0])
        windows = {}
        for an in animals:
            radius = max(abs(x) for x, _ in an.cells) + 1
            if radius not in windows:
                windows[radius] = linear_window(radius)
            g, coloring = windows[radius]
            fibres = [x + radius for x, _ in an.cells]
            layers = colored_layers(g, coloring, fibres).layers
            got = {(v, i + 1) for i, layer in enumerate(layers) for v in layer}
            assert got == {(x + radius, y + 1) for x, y in an.cells}

    def test_rejected_source_consumes_no_operation(self):
        src = RandomSource(8)
        with pytest.raises(ValueError, match="unknown source"):
            random_animal(5, "square", "bogus", src)
        an, _ = random_animal(30, "square", "point", src)
        fresh, _ = random_animal(30, "square", "point", RandomSource(8))
        assert an.cells == fresh.cells

    def test_restarts_count_rejected_attempts(self):
        for lattice, r in (("square", 1), ("triangular", 2)):
            for seed in range(10):
                _, rep = random_animal(30, lattice, "point", RandomSource(seed))
                _, nb, deaths = naive_case(29, r, seed)
                assert (rep.nb_tirages, rep.restarts) == (nb, len(deaths))
                _, rep = random_animal(30, lattice, "compact", RandomSource(seed))
                assert rep.restarts == 0

    def test_point_source_invariants_hold(self):
        src = RandomSource(40)
        for n in (2, 3, 10, 64, 257):
            an, _ = random_animal(n, "square", "point", src)
            an.validate()
            assert an.size == n
