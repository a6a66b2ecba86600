"""The one count check: every size, degree, radius, index and colour
count goes through `count_arg`, so each entry rejects a bool or a float by
type and a value below its bound with one message, before any work.  The
samplers' rows, which must also draw nothing, are in tests/test_randgen.py."""

import argparse
import contextlib
import io
import pickle
from pathlib import Path

import numpy as np
import pytest

import heappieces
from heappieces import (
    RandomSource,
    TraceSeries,
    UnivariateSeries,
    animal_count,
    configurations_series,
    count_paths,
    count_pyramids,
    enumerate_animals,
    enumerate_heaps,
    heaps_series,
    linear_window,
    projected_series,
    pyramids_series,
    random_motzkin_prefix,
    random_word,
    strict_heaps_series,
)
from heappieces.animals import all_prefixes, all_words
from heappieces.cli import _cmd_generate
from heappieces.verify import chi_square_tail, graph_suite, run_suites, suite_bijection

PATH3 = dict(graph_suite())["path3"]


def generate(size):
    """stdout of `generate` with this size, one sample: the command's only
    checked count that argparse cannot vet, as --samples 0 skips the sampler."""
    args = argparse.Namespace(size=size, samples=1, seed=3, lattice="square", source="point")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _cmd_generate(args) == 0
    return out.getvalue()


# (entry, name, least, a valid count): the entry's result is comparable
ENTRIES = {
    "enumerate_animals": (lambda n: enumerate_animals(n, "square"), "n", 1, 4),
    "animal_count": (lambda n: animal_count(n, "triangular"), "n", 1, 6),
    "count_paths": (lambda n: count_paths(n, 1, "prefix"), "n", 0, 5),
    "enumerate_heaps": (lambda n: enumerate_heaps(PATH3, n), "n", 0, 3),
    "count_pyramids": (lambda n: count_pyramids(PATH3, n), "n", 0, 3),
    "configurations": (lambda m: PATH3.configurations(m), "max_size", 0, 2),
    "linear_window": (linear_window, "radius", 0, 2),
    "TraceSeries": (lambda d: TraceSeries(PATH3, d, {}), "degree", 0, 2),
    "UnivariateSeries": (lambda d: UnivariateSeries(d, (1, 2, 3)), "degree", 0, 2),
    "configurations_series": (
        lambda d: configurations_series(PATH3, d, True), "degree", 0, 3
    ),
    "heaps_series": (lambda d: heaps_series(PATH3, d, False), "degree", 0, 3),
    "strict_heaps_series": (lambda d: strict_heaps_series(PATH3, d, True), "degree", 0, 3),
    "pyramids_series": (lambda d: pyramids_series(PATH3, d), "degree", 0, 3),
    "projected_series": (lambda d: projected_series(PATH3, "theta", d), "degree", 0, 4),
    "split": (lambda t: RandomSource(5).split(t).seed, "task_index", 0, 3),
    "chi_square_tail": (lambda k: chi_square_tail(7.5, k), "degrees of freedom", 1, 3),
    "generate": (generate, "--size", 1, 4),
    "all_words": (lambda length: all_words(length, 2), "length", 0, 3),
    "suite_bijection": (suite_bijection, "max_length", 0, 2),
    "run_suites": (lambda d: run_suites(["bijection", "density"], d), "degree", 0, 2),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
def test_bool_or_float_count_raises_type_error(entry, value):
    call, name, _, _ = ENTRIES[entry]
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        call(value)


@pytest.mark.parametrize("entry", ENTRIES)
def test_count_below_bound_raises_value_error(entry):
    call, name, least, _ = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_integer_count_equals_int(entry):
    call, _, _, count = ENTRIES[entry]
    assert call(np.int64(count)) == call(count)


# each entry's result at colour count r; after count_arg, each keeps its
# own test of which r it takes
COLOR_ENTRIES = {
    "random_word": lambda r: random_word(4, r, RandomSource(3)),
    "random_motzkin_prefix": lambda r: random_motzkin_prefix(4, r, RandomSource(3)),
    "count_paths": lambda r: count_paths(5, r, "word"),
    "all_words": lambda r: all_words(2, r),
    "all_prefixes": lambda r: all_prefixes(2, r),
}


@pytest.mark.parametrize("entry", COLOR_ENTRIES)
@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "text"])
def test_bool_float_or_text_colour_count_raises_type_error(entry, value):
    # r=True once counted 21 words of length 5 and listed 9 of length 2
    with pytest.raises(TypeError, match="r must be an integer"):
        COLOR_ENTRIES[entry](value)


@pytest.mark.parametrize("entry", COLOR_ENTRIES)
def test_numpy_integer_colour_count_gives_the_int_result(entry):
    # pickled, so that a word's r must be the plain int too
    call = COLOR_ENTRIES[entry]
    assert pickle.dumps(call(np.int64(1))) == pickle.dumps(call(1))


def test_fractional_size_raises_at_once():
    # the growth loop once never reached size 2.5 and grew without end
    with pytest.raises(TypeError, match="n must be an integer"):
        enumerate_animals(2.5, "square")


def test_one_count_rule_in_the_package():
    """`must be >=` is written only in `count_arg` and in the CLI's
    argparse type `_non_negative_int`; the old degree check is gone."""
    allowed = {"_args.py": "def count_arg(", "cli.py": "def _non_negative_int("}
    for path in sorted(Path(heappieces.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "_check_degree" not in text, path.name
        lines = text.splitlines()
        hits = [i for i, line in enumerate(lines) if "must be >=" in line]
        if path.name not in allowed:
            assert hits == [], path.name
            continue
        start = next(i for i, line in enumerate(lines) if line.startswith(allowed[path.name]))
        end = next(
            (i for i in range(start + 1, len(lines)) if lines[i] and not lines[i][0].isspace()),
            len(lines),
        )
        assert hits and all(start < i < end for i in hits), path.name
