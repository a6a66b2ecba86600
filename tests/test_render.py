"""Rendering: SVG disk output and the equerre decomposition dump."""

import pytest

from heappieces import (
    Animal,
    AnimalError,
    RenderOptions,
    StepWord,
    beta,
    compact_animal,
    mark_celibates,
    render_decomposition,
    render_svg,
)
from heappieces.animals import all_prefixes
from heappieces.render import decomposition_flatten

from test_animals import wide_animal


class TestSvg:
    def test_single_cell(self):
        svg = render_svg(Animal("square", "point", ((0, 0),)))
        assert svg.count("<circle") == 1
        assert svg.startswith("<?xml")

    def test_thirteen_cell_animal_bbox(self):
        # a 13-cell animal staying right of the source: fibers 0..4
        an = beta(StepWord(1, "AcAccAcccAcc".lower()), "square")
        assert an.size == 13
        fibers = {x for x, _ in an.cells}
        assert fibers == {0, 1, 2, 3, 4}
        svg = render_svg(an, RenderOptions(rotation="heap"))
        assert svg.count("<circle") == 13

    def test_wide_animal_disk_count(self):
        svg = render_svg(wide_animal())
        assert svg.count("<circle") == 30

    def test_rotation_same_disks_different_coords(self):
        an = beta(StepWord(1, "ac"), "square")
        heap = render_svg(an, RenderOptions(rotation="heap"))
        lattice = render_svg(an, RenderOptions(rotation="lattice"))
        assert heap.count("<circle") == lattice.count("<circle") == 3
        assert heap != lattice

    def test_deterministic_bytes(self):
        an = compact_animal(StepWord(2, "abdcb"), "triangular")
        assert render_svg(an) == render_svg(an)

    def test_radius_option(self):
        an = Animal("square", "point", ((0, 0),))
        assert 'r="0.250"' in render_svg(an, RenderOptions(cell_radius=0.25))
        for bad in (0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                RenderOptions(cell_radius=bad)

    def test_rejects_overflowing_picture(self):
        an = Animal("square", "point", ((0, 0),))
        with pytest.raises(ValueError, match="cell_radius 1e\\+308"):
            render_svg(an, RenderOptions(cell_radius=1e308))

    def test_rejects_unknown_rotation(self):
        with pytest.raises(ValueError, match="unknown rotation 'sideways'"):
            RenderOptions(rotation="sideways")


class TestDecomposition:
    def test_single_cell(self):
        dump = render_decomposition(Animal("square", "point", ((0, 0),)))
        assert decomposition_flatten(dump) == ""

    def test_two_subtree_root(self):
        an = beta(StepWord(1, "ab"), "square")
        dump = render_decomposition(an)
        assert decomposition_flatten(dump) == "ab"
        assert len(dump.splitlines()) == 1  # one equerre, no separator

    def test_flatten_round_trip_exhaustive(self):
        for length in range(7):
            for w in all_prefixes(length, 1):
                an = beta(w, "square")
                dump = render_decomposition(an)
                assert decomposition_flatten(dump) == mark_celibates(w).letters

    def test_one_line_per_equerre(self):
        w = StepWord(1, "acaccacccacc")
        an = beta(w, "square")
        dump = render_decomposition(an)
        lines = dump.splitlines()
        assert len(lines) == mark_celibates(w).letters.count("A") + 1
        # indentation follows the base fiber of each equerre
        assert [len(l) - len(l.lstrip()) for l in lines] == [0, 2, 4, 6, 8]

    def test_compact_rejected(self):
        an = compact_animal(StepWord(1, "b"), "square")
        with pytest.raises(AnimalError):
            render_decomposition(an)
