"""CLI property sweep: argv built from the parser's own options.

Every subcommand and every option that `build_parser()` declares gets a
value strategy below (a new option fails `test_every_option_has_values`
until it gets one).  Sizes and degrees stay small, so no exponential
command is reached; graph files and JSON lines include malformed ones.
Each run goes through `cli_main` in process and must exit 0, 1 or 2
without a traceback, leave stdout empty on exit 2, and print the same
bytes again on exit 0.
"""

import argparse
import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heappieces import RandomSource, animal_to_json, random_animal
from heappieces.cli import build_parser, cli_main

# verify suites cheap enough to sweep; DEGREE_BOUND ones only with --degree <= 3
FAST_SUITES = ("micro", "colored", "density", "substitution")
DEGREE_BOUND = ("inversion", "derivative", "gas", "bijection")

GRAPHS = {
    "path3": "vertices: a b c\nedge: a b\nedge: b c\n",
    "cycle4": "vertices: a b c d\nedge: a b\nedge: b c\nedge: c d\nedge: d a\n",
    "single": "# one vertex\nvertices: a\n",
    "no-vertices": "vertices:\n",
    "empty": "",
    "no-vertices-line": "edge: a b\n",
    "duplicate-label": "vertices: a a\n",
    "loop": "vertices: a b\nedge: a a\n",
    "unknown-endpoint": "vertices: a\nedge: a z\n",
    "short-edge": "vertices: a b\nedge: a\n",
    "unknown-key": "vertices: a\nbogus: line\n",
    "two-vertex-lines": "vertices: a\nvertices: b\n",
}


def animal_lines():
    return [
        animal_to_json(random_animal(4, lattice, source, RandomSource(1))[0])
        for lattice, source in (
            ("square", "point"),
            ("square", "compact"),
            ("triangular", "point"),
        )
    ]


JSON_LINES = [
    *animal_lines(),
    "nb_tirages_total=12",
    "",
    "[1,2]",
    "nan",
    '"cells"',
    '{"lattice":"square","source":"point"}',
    '{"lattice":"square","source":"point","cells":[[0,0],[5,5]]}',
    '{"lattice":"hex","source":"point","cells":[[0,0]]}',
    '{"lattice":"square","source":"point","cells":[[0,0],[1.5,1]]}',
    '{"lattice":"square","source":"point","cells":[]}',
    '{"lattice":"square","source":"point","cells":[[0,0],[0,0]]}',
    "\x00 not json",
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of every graph file and input stream the sweep may name."""
    root = tmp_path_factory.mktemp("sweep")
    paths = {}
    for name, text in GRAPHS.items():
        paths[f"graph:{name}"] = root / f"{name}.graph"
        paths[f"graph:{name}"].write_text(text)
    for name, lines in (("good", JSON_LINES[:4]), ("mixed", JSON_LINES)):
        paths[f"input:{name}"] = root / f"{name}.jsonl"
        paths[f"input:{name}"].write_text("\n".join(lines) + "\n")
    paths["binary"] = root / "binary"
    paths["binary"].write_bytes(b"\xff\xfe\x00vertices")
    paths["missing"] = root / "missing"
    paths["directory"] = root
    return {name: str(path) for name, path in paths.items()}


def parser_options():
    """{subcommand: {option string: action}} as build_parser() declares them."""
    (sub,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {a.option_strings[-1]: a for a in p._actions if a.dest != "help"}
        for name, p in sub.choices.items()
    }


def value_strategies(files):
    """{option string: strategy of its argument text} for every option."""
    graph_files = [path for name, path in files.items() if name.startswith("graph:")]
    good_graphs = [files["graph:path3"], files["graph:cycle4"]] * 4
    odd_files = [files["binary"], files["missing"], files["directory"]]
    return {
        "--size": st.integers(-2, 30).map(str),
        "--seed": st.sampled_from([0, 1, 42, 2**64 - 1, -1, 2**64]).map(str),
        "--samples": st.integers(-1, 3).map(str),
        "--degree": st.integers(-1, 4).map(str),
        "--graph": st.sampled_from(good_graphs + graph_files + odd_files),
        "--input": st.sampled_from(
            [files["input:good"], files["input:mixed"], *odd_files]
        ),
        "--base": st.sampled_from(["a", "c", "z", ""]),
        "--at": st.sampled_from(["0.5", "1", "0", "-1", "2", "1e308", "nan", "x"]),
        "--radius": st.sampled_from(["0.4", "3", "0", "-1", "1e308", "nan", "x"]),
    }


def option_values(option, action, values):
    """Strategy of the tokens that follow `option` (none for a flag)."""
    if action.nargs == 0:
        return st.just(())
    if option == "--suite":
        choices = [*FAST_SUITES, *DEGREE_BOUND]
    elif action.choices is not None:
        choices = list(action.choices)
    else:
        return values[option].map(lambda text: (text,))
    # an invalid choice in about one draw of ten per option
    return st.sampled_from([*choices * 3, "bogus"]).map(lambda c: (c,))


@st.composite
def argvs(draw, files):
    options = parser_options()
    values = value_strategies(files)
    command = draw(st.sampled_from(sorted(options)))
    chosen = {}
    for option, action in options[command].items():
        # verify always names a suite: "all" runs the slow statistical ones
        if command == "verify" and option == "--suite":
            given = True
        elif action.required:  # left out in about one draw of eight
            given = draw(st.sampled_from((True,) * 7 + (False,)))
        else:
            given = draw(st.booleans())
        if given:
            chosen[option] = draw(option_values(option, action, values))
    if command == "verify" and chosen["--suite"][0] in DEGREE_BOUND:
        chosen["--degree"] = (str(draw(st.integers(-1, 3))),)
    if command == "enumerate" and "--size" in chosen:
        # heaps and animals of a size are exponential in it
        chosen["--size"] = (str(draw(st.integers(-2, 5))),)
    order = draw(st.permutations(sorted(chosen)))
    argv = [command]
    for option in order:
        argv += [option, *chosen[option]]
    # about half the streams hold only well-formed lines
    lines = st.sampled_from(draw(st.sampled_from([JSON_LINES[:5], JSON_LINES])))
    stdin = "\n".join(draw(st.lists(lines, max_size=4)))
    return argv, stdin


def run_in_process(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_every_option_has_values(files):
    values = value_strategies(files)
    for command, options in parser_options().items():
        for option, action in options.items():
            assert action.nargs == 0 or action.choices is not None or option in values, (
                f"{command} {option} has no value strategy"
            )


# a fixed, derandomized budget; the timing-based health check alone could flake
@settings(
    max_examples=250,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_sweep(files, data):
    argv, stdin = data.draw(argvs(files))
    code, out, err = run_in_process(argv, stdin)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err and "Traceback" not in out, (argv, err)
    if code == 2:
        assert out == "", argv
    if code == 0:
        assert run_in_process(argv, stdin)[1] == out, argv
