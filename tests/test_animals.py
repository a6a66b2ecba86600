"""Animals: stacking bijections, inverse, oracle agreement, counts, widths."""

import json
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import heappieces.animals as animals_module
from heappieces import (
    Animal,
    AnimalError,
    RandomSource,
    StepWord,
    animal_count,
    animal_from_json,
    animal_to_json,
    average_width,
    beta,
    beta_inverse,
    classify,
    compact_animal,
    count_paths,
    enumerate_animals,
    half_width,
    heap_of_word,
    linear_window,
    mark_celibates,
    product,
    random_animal,
)
from heappieces.animals import (
    _trinomial_endpoint,
    all_prefixes,
    all_words,
    catalan_number,
    motzkin_number,
    prefix_count_closed,
)

# a 30-cell square-lattice animal with right half-width 4, in lattice
# coordinates (East/North steps from the source at the origin)
WIDE_ANIMAL_LATTICE = [
    (0, 0),
    (0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
    (0, 2), (4, 2), (5, 2), (6, 2),
    (0, 3), (1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3),
    (0, 4), (2, 4), (6, 4), (7, 4),
    (0, 5), (1, 5), (2, 5),
    (2, 6), (3, 6), (4, 6), (5, 6), (6, 6), (7, 6),
]


def wide_animal():
    cells = tuple((x - y, x + y) for x, y in WIDE_ANIMAL_LATTICE)
    return Animal("square", "point", cells)


class TestBeta:
    def test_empty_word(self):
        an = beta(StepWord(1, ""), "square")
        assert an.cell_set() == {(0, 0)} and an.source == "point"

    def test_single_c(self):
        an = beta(StepWord(1, "c"), "square")
        assert an.cell_set() == {(0, 0), (-1, 1)}

    def test_length_one_prefixes(self):
        animals = {beta(w, "square").cell_set() for w in all_prefixes(1, 1)}
        assert animals == {frozenset({(0, 0), (-1, 1)}), frozenset({(0, 0), (1, 1)})}

    def test_triangular_d_stacks_two_up(self):
        an = beta(StepWord(2, "d"), "triangular")
        assert an.cell_set() == {(0, 0), (0, 2)}

    def test_rejects_non_prefix(self):
        with pytest.raises(AnimalError):
            beta(StepWord(1, "b"), "square")

    def test_rejects_wrong_colors(self):
        with pytest.raises(AnimalError):
            beta(StepWord(2, "d"), "square")

    def test_size_is_length_plus_one(self):
        for w in all_prefixes(5, 1):
            assert beta(w, "square").size == len(w) + 1


class TestRoundTrip:
    @pytest.mark.parametrize("lattice,r", [("square", 1), ("triangular", 2)])
    def test_exhaustive(self, lattice, r):
        for length in range(7):
            for w in all_prefixes(length, r):
                an = beta(w, lattice)
                an.validate()
                back = beta_inverse(an)
                assert back.letters == w.letters
                assert half_width(an) == classify(w)[1]

    @pytest.mark.parametrize("lattice", ["square", "triangular"])
    def test_at_scale(self, lattice):
        an, rep = random_animal(10**5, lattice, "point", RandomSource(2024))
        w = beta_inverse(an)
        assert w == rep.word
        assert beta(w, lattice) == an

    def test_single_cell(self):
        an = Animal("square", "point", ((0, 0),))
        assert beta_inverse(an).letters == ""

    def test_rejects_compact_source(self):
        an = compact_animal(StepWord(1, "b"), "square")
        with pytest.raises(AnimalError):
            beta_inverse(an)

    def test_rejects_unsupported_cell(self):
        with pytest.raises(AnimalError):
            beta_inverse(Animal("square", "point", ((0, 0), (5, 1))))

    def test_rejects_square_same_fiber_stack(self):
        with pytest.raises(AnimalError):
            beta_inverse(Animal("square", "point", ((0, 0), (0, 2))))

    def test_wide_animal(self):
        an = wide_animal()
        an.validate()
        assert an.size == 30
        assert half_width(an) == 4
        w = beta_inverse(an)
        assert len(w) == 29 and classify(w)[1] == 4
        assert beta(w, "square") == an


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "lattice,r,top", [("square", 1, 7), ("triangular", 2, 6)]
    )
    def test_point_images_match(self, lattice, r, top):
        for n in range(1, top + 1):
            image = {beta(w, lattice).cell_set() for w in all_prefixes(n - 1, r)}
            oracle = {a.cell_set() for a in enumerate_animals(n, lattice, "point")}
            assert image == oracle
            assert len(image) == count_paths(n - 1, r, "prefix")

    @pytest.mark.parametrize(
        "lattice,r,top", [("square", 1, 6), ("triangular", 2, 5)]
    )
    def test_compact_images_match(self, lattice, r, top):
        for n in range(1, top + 1):
            words = all_words(n - 1, r)
            image = {compact_animal(w, lattice).cell_set() for w in words}
            assert len(image) == (r + 2) ** (n - 1)  # injective
            oracle = {a.cell_set() for a in enumerate_animals(n, lattice, "compact")}
            assert image == oracle

    def test_counts(self):
        assert [len(enumerate_animals(n, "square", "point")) for n in range(1, 7)] == [
            1, 2, 5, 13, 35, 96,
        ]
        assert [
            len(enumerate_animals(n, "triangular", "point")) for n in range(1, 6)
        ] == [1, 3, 10, 35, 126]
        assert [
            len(enumerate_animals(n, "square", "compact")) for n in range(1, 6)
        ] == [1, 3, 9, 27, 81]

    def test_oracle_bound(self):
        with pytest.raises(AnimalError):
            enumerate_animals(13, "square", "point")

    def test_unknown_lattice(self):
        with pytest.raises(AnimalError, match="unknown lattice"):
            enumerate_animals(3, "hex")

    @pytest.mark.parametrize("count", [enumerate_animals, animal_count])
    def test_rejects_size_below_one_and_unknown_source(self, count):
        with pytest.raises(ValueError, match="n must be >= 1"):
            count(0, "square")
        with pytest.raises(AnimalError, match="unknown source 'line'"):
            count(3, "square", "line")


class TestDecompositionAlgebra:
    """Equerre factors multiply back to the whole heap in the heap monoid."""

    @pytest.mark.parametrize("lattice,r", [("square", 1), ("triangular", 2)])
    def test_equerre_product(self, lattice, r):
        for length in range(6):
            for w in all_prefixes(length, r):
                self._check(w, lattice, r)

    def _check(self, w, lattice, r):
        an = beta(w, lattice)
        n = an.size
        g, coloring = linear_window(n + 1)

        def heap_from_cells(cells):
            word = [
                g.index(str(x))
                for x, _ in sorted(cells, key=lambda c: (c[1], c[0]))
            ]
            return heap_of_word(g, word)

        whole = heap_from_cells(an.cells)
        marked = mark_celibates(w).letters
        factors = marked.split("A")
        acc = heap_of_word(g, ())
        for shift, factor in enumerate(factors):
            piece = beta(StepWord(r, factor), lattice)
            shifted = [(x + shift, y) for x, y in piece.cells]
            acc = product(acc, heap_from_cells(shifted))
        assert acc == whole


class TestCounts:
    def test_printed_values(self):
        assert animal_count(8, "triangular", "point") == 6435
        assert animal_count(9, "square", "point") == 2123
        assert animal_count(7, "square", "compact") == 729

    def test_triple_agreement(self):
        for lattice, r, top in (("square", 1, 7), ("triangular", 2, 6)):
            for n in range(1, top + 1):
                oracle = len(enumerate_animals(n, lattice, "point"))
                assert animal_count(n, lattice, "point") == oracle
                assert count_paths(n - 1, r, "prefix") == oracle

    def test_equerre_counts_match_flat_animals(self):
        for lattice in ("square", "triangular"):
            for n in range(1, 7):
                flat = sum(
                    1
                    for a in enumerate_animals(n, lattice, "point")
                    if half_width(a) == 0
                )
                assert animal_count(n, lattice, "equerre") == flat


def trinomial_endpoint_factorials(length, height, r):
    """Test oracle: the trinomial sum with three factorials per term."""
    height = abs(height)
    total = 0
    for down in range((length - height) // 2 + 1):
        up = down + height
        flat = length - up - down
        if flat < 0:
            continue
        ways = math.factorial(length) // (
            math.factorial(up) * math.factorial(down) * math.factorial(flat)
        )
        total += ways * r**flat if r else ways * (1 if flat == 0 else 0)
    return total


class TestCountsAtScale:
    """Closed forms against routes that share none of their code."""

    def test_kernel_matches_factorial_sum(self):
        for length in range(41):
            for height in range(-length - 2, length + 3):
                for r in (0, 1, 2):
                    assert _trinomial_endpoint(length, height, r) == (
                        trinomial_endpoint_factorials(length, height, r)
                    ), (length, height, r)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_prefix_counts_match_path_dp(self, r):
        for length in range(301):
            assert prefix_count_closed(length, r) == count_paths(length, r, "prefix")

    def test_motzkin_numbers_match_path_dp(self):
        for n in range(301):
            assert motzkin_number(n) == count_paths(n, 1, "word")

    def test_catalan_numbers_match_path_dp(self):
        for n in range(1, 301):
            assert catalan_number(n) == count_paths(n - 1, 2, "word")

    def test_motzkin_number_19999_matches_recurrence(self, counts_19999):
        assert motzkin_number(19_999) == counts_19999[1][0]
        assert animal_count(20_000, "square", "equerre") == counts_19999[1][0]

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_prefix_count_19999_matches_recurrence(self, r, counts_19999):
        assert prefix_count_closed(19_999, r) == counts_19999[r][1]

    @pytest.mark.parametrize("lattice, r", [("square", 1), ("triangular", 2)])
    def test_animal_count_20000_matches_recurrence(self, lattice, r, counts_19999):
        assert animal_count(20_000, lattice, "point") == counts_19999[r][1]


class TestWidth:
    def test_half_width_examples(self):
        assert half_width(Animal("square", "point", ((0, 0),))) == 0
        assert half_width(wide_animal()) == 4

    def test_compact_unsupported(self):
        an = compact_animal(StepWord(1, "b"), "square")
        with pytest.raises(AnimalError):
            half_width(an)

    def test_average_width_values(self):
        assert average_width(1, "square") == 0
        assert average_width(2, "square") == 1
        assert average_width(2, "triangular") == Fraction(2, 3)

    @pytest.mark.parametrize("lattice", ["square", "triangular"])
    def test_formula_matches_enumeration(self, lattice):
        for n in range(1, 7):
            animals = enumerate_animals(n, lattice, "point")
            mean_half = Fraction(sum(half_width(a) for a in animals), len(animals))
            assert average_width(n, lattice) == 2 * mean_half
            # empirical max-min width agrees exactly, by reflection symmetry
            mean_emp = Fraction(
                sum(max(a.fibres) - min(a.fibres) for a in animals), len(animals)
            )
            assert mean_emp == average_width(n, lattice)


def validate_by_cell_set(an):
    """Test oracle: the tuple-set validator, a frozenset and probe tuples per cell."""
    cells = an.cell_set()
    if len(cells) != len(an.cells):
        raise AnimalError("duplicate cell")
    if not cells:
        raise AnimalError("empty animal")
    triangular = an.lattice == "triangular"
    ground = sorted((x, y) for x, y in cells if y == 0)
    if an.source == "point":
        if ground != [(0, 0)]:
            raise AnimalError("point source requires exactly cell (0,0) on the ground")
    else:
        want = [(2 * i, 0) for i in range(len(ground))]
        if ground != want or not ground:
            raise AnimalError("compact source requires ground cells at fibers 0,2,...")
    for x, y in cells:
        if (x + y) % 2 != 0:
            raise AnimalError(f"cell ({x},{y}) off the even sublattice")
        if y == 0:
            continue
        supported = (x - 1, y - 1) in cells or (x + 1, y - 1) in cells
        if not supported and triangular:
            supported = (x, y - 2) in cells
        if not supported:
            raise AnimalError(f"unsupported cell ({x},{y})")


def validate_by_keys(an):
    """Test oracle: the int-key set validator, one Python loop over the cells.

    Each cell is keyed as the int x*m + y, m = 2n + 1, and one pass checks
    every cell against the key set; faults in the order duplicate, empty,
    ground, then the first bad cell.  `Animal.validate` must raise the same
    message on every input, far coordinates included.
    """
    cells = an.cells
    n = len(cells)
    m = 2 * n + 1
    keys = {x * m + y for x, y in cells}
    # fewer keys than cells: a duplicate, or an out-of-range cell's alias
    if len(keys) != n and len(an.cell_set()) != n:
        raise AnimalError("duplicate cell")
    if not n:
        raise AnimalError("empty animal")
    triangular = an.lattice == "triangular"
    # keys of the supports (x-1, y-1) and (x+1, y-1) are k - left and k + right
    left, right = m + 1, m - 1
    ground: list[int] = []
    fault = None
    for x, y in cells:
        if not y:
            ground.append(x)  # an odd ground fiber fails the ground rule
        elif (x + y) & 1:
            fault = fault or f"cell ({x},{y}) off the even sublattice"
        elif 0 < y < m and (
            (k := x * m + y) - left in keys
            or k + right in keys
            # y = 1 would alias k - 2 to the cell (x-1, m-1)
            or (triangular and y > 1 and k - 2 in keys)
        ):
            continue
        else:
            fault = fault or f"unsupported cell ({x},{y})"
    if an.source == "point":
        if ground != [0]:
            raise AnimalError("point source requires exactly cell (0,0) on the ground")
    elif (
        not ground
        or min(ground) < 0
        or max(ground) != 2 * (len(ground) - 1)
        or any(x & 1 for x in ground)
    ):
        raise AnimalError("compact source requires ground cells at fibers 0,2,...")
    if fault:
        raise AnimalError(fault)


def fault(validator, an):
    """The message `validator` raises on `an`, or None if it accepts it."""
    try:
        validator(an)
    except AnimalError as exc:
        return str(exc)
    return None


def accepts(validator, an):
    return fault(validator, an) is None


# past int64 on either side, at its edges, and past the int64 keys of a small animal
FAR_COORDINATES = [2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 2**70, -(2**70), 2**61 + 1]


# point-source inputs whose first bad cell in cell order is a far one
FAR_CELL_FIRST = [
    ("square", [(0, 0), (-(2**70), 2), (1, 2), (-(2**71) - 1, 1)],
     "unsupported cell (-1180591620717411303424,2)"),
    ("triangular", [(0, 0), (-(2**70), 4), (1, 2), (-(2**71), 2)],
     "unsupported cell (-1180591620717411303424,4)"),
]


def mutations(an, indices):
    """One-cell mutations of `an` at the given cell indices (index 0 is a root)."""
    cells = list(an.cells)
    n = len(cells)
    moves = ((1, 1), (1, -1), (-1, 1), (-1, -1), (0, 2), (0, -2), (2, 0), (-2, 0))
    for i in indices:
        x, y = cells[i]
        if i:
            yield cells[:i] + cells[i + 1:]
        yield cells + [cells[i]]
        for dx, dy in moves:
            yield cells[:i] + [(x + dx, y + dy)] + cells[i + 1:]
        for y2 in (-1, 2 * n + 3):
            yield cells[:i] + [(x, y2)] + cells[i + 1:]


class TestValidateAgainstCellSetOracle:
    """The array validator accepts exactly what the cell-set oracle accepts,
    and raises the message of the key-loop oracle."""

    PAIRS = [(lat, src) for lat in ("square", "triangular") for src in ("point", "compact")]

    def _agree(self, lattice, source, cells):
        def fresh():  # a new Animal per validator: no cached set or pass
            return Animal(lattice, source, tuple(cells))

        got = fault(Animal.validate, fresh())
        assert (got is None) == accepts(validate_by_cell_set, fresh()), (
            lattice, source, cells,
        )
        assert got == fault(validate_by_keys, fresh()), (lattice, source, cells)

    @pytest.mark.parametrize("lattice,source", PAIRS)
    def test_enumerated_animals_and_their_mutations(self, lattice, source):
        for n in range(1, 9):
            for an in enumerate_animals(n, lattice, source):
                assert accepts(Animal.validate, an) and accepts(validate_by_cell_set, an)
                if n <= 4:
                    for cells in mutations(an, range(n)):
                        self._agree(lattice, source, cells)

    @pytest.mark.parametrize("lattice,source", PAIRS)
    def test_random_animals_and_their_mutations(self, lattice, source):
        an, _ = random_animal(10**4, lattice, source, RandomSource(7))
        assert accepts(Animal.validate, an) and accepts(validate_by_cell_set, an)
        picks = random.Random(7).sample(range(1, an.size), 4)
        for cells in mutations(an, [0, an.size - 1, *picks]):
            self._agree(lattice, source, cells)

    @pytest.mark.parametrize("lattice,source", PAIRS)
    def test_ground_rows(self, lattice, source):
        for xs in ([0], [2], [1], [0, 2], [2, 0], [0, 1], [1, 2], [-2, 0], [-2, 2],
                   [0, 4], [0, 2, 4], [0, 2, 2]):
            self._agree(lattice, source, [(x, 0) for x in xs])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_small_coordinates(self, data):
        # every coordinate in -3..2n+3: ground rows, aliases of the top rows
        # (y >= m = 2n + 1), duplicates and the empty animal all occur
        lattice, source = data.draw(st.sampled_from(self.PAIRS))
        n = data.draw(st.integers(0, 7))
        coord = st.integers(-3, 2 * n + 3)
        cells = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        self._agree(lattice, source, cells)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_edited_animals(self, data):
        # valid animals with up to three cells replaced, added or repeated
        lattice, source = data.draw(st.sampled_from(self.PAIRS))
        n = data.draw(st.integers(1, 7))
        an = data.draw(st.sampled_from(enumerate_animals(n, lattice, source)))
        cells = list(an.cells)
        coord = st.integers(-3, 2 * n + 5)
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(cells) - 1))
            edit = data.draw(st.sampled_from(("replace", "add", "repeat")))
            new = data.draw(st.tuples(coord, coord))
            if edit == "replace":
                cells[i] = new
            elif edit == "add":
                cells.insert(i, new)
            else:
                cells.insert(i, cells[i])
        self._agree(lattice, source, cells)

    @pytest.mark.parametrize("far", FAR_COORDINATES)
    @pytest.mark.parametrize("lattice,source", PAIRS)
    def test_far_coordinates(self, lattice, source, far):
        # coordinates past int64, or past the int64 keys' range, in either
        # column and on every row kind: an AnimalError, the oracle's message
        for cells in (
            [(0, 0), (far, 2)], [(0, 0), (far, 3)], [(0, 0), (0, far)],
            [(0, 0), (far, 0)], [(far, far)], [(0, 0), (far, 2), (far, 2)],
            [(0, 0), (2, 0), (far, 1), (far + 2, 1)],
            # a far cell resting on another far cell: a support the keys find
            [(0, 0), (far, 2), (far + 1, 1)],
            [(0, 0), (far - 1, 3), (far, 2), (far + 1, 1)],
        ):
            self._agree(lattice, source, cells)
            text = json.dumps({"lattice": lattice, "source": source, "cells": cells})
            with pytest.raises(AnimalError):
                animal_from_json(text)

    @pytest.mark.parametrize("lattice,source", PAIRS)
    def test_wrapped_key_is_no_support(self, lattice, source):
        # n = 2, m = 5: the key of (x, 2) less m + 1 wraps to the key of
        # (0, 0) modulo 2^64 when 5x = 4; that x fits in int64
        x = (4 * pow(5, -1, 2**64)) % 2**64
        x -= 2**64 if x >= 2**63 else 0
        assert (x * 5 + 2 - 6) % 2**64 == 0
        self._agree(lattice, source, [(0, 0), (x, 2)])
        assert not accepts(Animal.validate, Animal(lattice, source, ((0, 0), (x, 2))))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_far_coordinates_never_overflow(self, data):
        # a far cell anywhere among small and far ones: rejected, with the
        # key-loop oracle's message
        lattice, source = data.draw(st.sampled_from(self.PAIRS))
        far = st.one_of(
            st.sampled_from(FAR_COORDINATES),
            st.integers(2**61, 2**80),
            st.integers(-(2**80), -(2**61)),
        )
        if data.draw(st.booleans()):
            # two far fibres of one sign on the ground's animal, the upper
            # cell first: one row apart with an odd gap, or two rows apart
            # with an even one.  Mapped onto neighbouring int64 values, the
            # lower cell would look like the upper's support and hide it.
            v = data.draw(far)
            rows = data.draw(st.sampled_from((1, 2)))
            gap = 2 ** data.draw(st.integers(1, 70)) + (rows == 1)
            y = data.draw(st.integers(rows + 1, 9))
            cells = [(0, 0), (v, y), (v + gap if v > 0 else v - gap, y - rows)]
        else:
            value = st.one_of(st.integers(-3, 9), far)
            cells = data.draw(st.lists(st.tuples(value, value), max_size=5))
            cell = data.draw(st.tuples(far, value) | st.tuples(value, far))
            cells.insert(data.draw(st.integers(0, len(cells))), cell)
        got = fault(Animal.validate, Animal(lattice, source, tuple(cells)))
        assert got is not None
        assert got == fault(validate_by_keys, Animal(lattice, source, tuple(cells)))

    def test_y1_probe_does_not_alias_the_top_row(self):
        # n = 3, m = 7: key(3, 1) - 2 == key(2, 6), and 6 == 2n; (3, 1) is
        # named first only if the probe (3, -1) is not read as (2, 6)
        cells = [(0, 0), (3, 1), (2, 6)]
        self._agree("triangular", "point", cells)
        with pytest.raises(AnimalError, match=r"unsupported cell \(3,1\)"):
            Animal("triangular", "point", tuple(cells)).validate()

    @pytest.mark.parametrize("lattice, cells, message", FAR_CELL_FIRST)
    def test_far_cell_is_named_first(self, lattice, cells, message):
        # mapped onto neighbouring int64 values, the two far cells would
        # rest on each other and leave (1, 2) as the first bad cell
        assert fault(Animal.validate, Animal(lattice, "point", cells)) == message
        assert fault(validate_by_keys, Animal(lattice, "point", cells)) == message
        text = json.dumps({"lattice": lattice, "source": "point", "cells": cells})
        with pytest.raises(AnimalError) as exc:
            animal_from_json(text)
        assert str(exc.value) == message


class TestJsonAndValidation:
    def test_round_trip(self):
        an = beta(StepWord(2, "acdb"), "triangular")
        assert animal_from_json(animal_to_json(an)) == an

    def test_json_shape(self):
        text = animal_to_json(beta(StepWord(1, "c"), "square"))
        assert text == '{"lattice":"square","source":"point","cells":[[0,0],[-1,1]]}'

    def test_rejects_unsupported_cell(self):
        with pytest.raises(AnimalError):
            animal_from_json(
                '{"lattice":"square","source":"point","cells":[[0,0],[5,1]]}'
            )

    def test_rejects_bad_ground(self):
        with pytest.raises(AnimalError):
            animal_from_json(
                '{"lattice":"square","source":"point","cells":[[1,1]]}'
            )
        with pytest.raises(AnimalError):
            animal_from_json(
                '{"lattice":"square","source":"compact","cells":[[0,0],[1,0]]}'
            )

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("[1,2]", "not a JSON object"),
            ('"cells"', "not a JSON object"),
            ("NaN", "not a JSON object"),
            ("nan", "Expecting value"),
            ('{"lattice":"square","source":"point"}', "'cells'"),
        ],
    )
    def test_rejects_payload_that_is_not_an_animal(self, text, fault):
        with pytest.raises(AnimalError, match="bad animal JSON: " + fault):
            animal_from_json(text)

    def test_rejects_unknown_lattice_and_source(self):
        with pytest.raises(AnimalError, match="unknown lattice 'hex'"):
            Animal("hex", "point", ((0, 0),))
        with pytest.raises(AnimalError, match="unknown source 'line'"):
            Animal("square", "line", ((0, 0),))

    def test_hash_follows_the_cell_set(self):
        a = Animal("square", "point", ((0, 0), (1, 1), (-1, 1)))
        b = Animal("square", "point", ((0, 0), (-1, 1), (1, 1)))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert Animal("triangular", "point", a.cells) not in {a, b}
        assert a.__eq__(a.cells) is NotImplemented and a != a.cells

    def test_square_rejects_triangular_stacking(self):
        with pytest.raises(AnimalError):
            Animal("square", "point", ((0, 0), (0, 2))).validate()

    @pytest.mark.parametrize(
        "cells",
        [
            "[[0,0],[1.7,1.2]]",  # floats: int() would truncate to (1, 1)
            "[[0,0],[1.0,1]]",
            '[[0,0],["1",1]]',
            "[[0,0],[1,true]]",
            "[[0,0],[null,1]]",
        ],
    )
    def test_rejects_non_integer_coordinates(self, cells):
        with pytest.raises(AnimalError, match="bad animal JSON"):
            animal_from_json('{"lattice":"square","source":"point","cells":%s}' % cells)

    @pytest.mark.parametrize(
        "cells",
        [
            "[[0,0],[1]]", "[[0,0],[1,1,0]]", '[[0,0],"11"]', '[[0,0],{"1":1}]',
            "[[0,0,0],[1,1,0]]", "[[],[]]", "[[0]]",
        ],
    )
    def test_rejects_cell_that_is_not_a_pair(self, cells):
        with pytest.raises(
            AnimalError,
            match="bad animal JSON: every cell must be a list of two coordinates",
        ):
            animal_from_json('{"lattice":"square","source":"point","cells":%s}' % cells)

    @pytest.mark.parametrize("cells", ['{"0":0}', '"00"', "null", "7"])
    def test_rejects_cells_that_are_not_a_list(self, cells):
        with pytest.raises(AnimalError, match="bad animal JSON"):
            animal_from_json('{"lattice":"square","source":"point","cells":%s}' % cells)

    @pytest.mark.parametrize("lattice", ["square", "triangular"])
    @pytest.mark.parametrize("source", ["point", "compact"])
    def test_writer_and_reader_match_json_module(self, lattice, source):
        src = RandomSource(99)
        for n in (1, 2, 200, 10**4):
            an, _ = random_animal(n, lattice, source, src)
            payload = {
                "lattice": lattice,
                "source": source,
                "cells": [[x, y] for x, y in an.cells],
            }
            text = animal_to_json(an)
            assert text == json.dumps(payload, separators=(",", ":"))
            back = animal_from_json(text)
            assert back.cells == an.cells
            assert animal_from_json(json.dumps(payload, indent=1)).cells == back.cells

    def test_validate_runs_once(self, monkeypatch):
        # validate reads the columns, not the cells: count column conversions
        convert = animals_module._columns
        calls = []

        def counting(fibres, heights, lim):
            calls.append(fibres)
            return convert(fibres, heights, lim)

        monkeypatch.setattr(animals_module, "_columns", counting)
        an, _ = random_animal(50, "triangular", "point", RandomSource(3))
        good = Animal("triangular", "point", an.cells)
        start = len(calls)
        good.validate()
        passes = len(calls) - start
        assert passes > 0
        good.validate()  # recorded: converts no column
        assert len(calls) - start == passes
        bad = Animal("triangular", "point", ((0, 0), (4, 4)))
        for _ in range(3):
            start = len(calls)
            with pytest.raises(AnimalError, match="unsupported cell"):
                bad.validate()
            assert len(calls) > start

    @pytest.mark.parametrize("lattice,source", TestValidateAgainstCellSetOracle.PAIRS)
    def test_columns_are_the_cells(self, lattice, source):
        an, _ = random_animal(300, lattice, source, RandomSource(5))
        assert an.cells == tuple(zip(an.fibres, an.heights)) and an.size == 300
        same = Animal(lattice, source, an.cells)
        assert (same.fibres, same.heights) == (an.fibres, an.heights)
        assert same == an and hash(same) == hash(an)
        assert repr(an) == (
            f"Animal(lattice={lattice!r}, source={source!r}, cells={an.cells!r})"
        )
        assert pickle.loads(pickle.dumps(an)) == an
        with pytest.raises(FrozenInstanceError):
            an.lattice = "square"
        with pytest.raises(FrozenInstanceError):
            del an.source

    def test_cells_given_as_lists_are_a_value(self):
        an = Animal("square", "point", [[0, 0], [1, 1]])
        twin = Animal("square", "point", ((0, 0), (1, 1)))
        assert an == twin and hash(an) == hash(twin)
        assert an.cells == twin.cells == ((0, 0), (1, 1))

    @pytest.mark.parametrize("cells", [((0, 0, 0),), ((0, 0), (1, 1, 0)), ((0,), (1,))])
    def test_cells_that_are_not_pairs(self, cells):
        with pytest.raises(ValueError):
            Animal("square", "point", cells).validate()

    def test_lattice_cells_rotation(self):
        an = beta(StepWord(1, "a"), "square")  # cells (0,0), (1,1)
        assert sorted(an.lattice_cells()) == [(0, 0), (1, 0)]
