"""CLI: thin adapters, stable bytes, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heappieces import (
    AnimalError,
    RandomSource,
    animal_to_json,
    build_graph,
    format_graph_literal,
    mark_celibates,
    random_animal,
)
from heappieces import verify
from heappieces.cli import cli_main
from heappieces.render import decomposition_flatten
from test_animals import FAR_CELL_FIRST


@pytest.fixture
def path3_file(tmp_path, path3):
    path = tmp_path / "path3.graph"
    path.write_text(format_graph_literal(path3))
    return str(path)


@pytest.fixture
def path5_file(tmp_path, path5):
    path = tmp_path / "path5.graph"
    path.write_text(format_graph_literal(path5))
    return str(path)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def int_from_text(text):
    """int() of a printed count, past the interpreter's 4300-digit cap."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


class TestCount:
    def test_triangular_point_8(self, capsys):
        code, out, _ = run(capsys, "count", "--lattice", "triangular", "--size", "8")
        assert code == 0 and out.strip() == "6435"

    def test_compact(self, capsys):
        code, out, _ = run(
            capsys, "count", "--lattice", "square", "--size", "7", "--source", "compact"
        )
        assert code == 0 and out.strip() == "729"

    @pytest.mark.parametrize("source, index", [("point", 1), ("equerre", 0)])
    def test_size_20000_matches_recurrence(self, capsys, source, index, counts_19999):
        # square/point prints P(19999), square/equerre the Motzkin number M(19999)
        code, out, _ = run(capsys, "count", "--size", "20000", "--source", source)
        assert code == 0
        assert int_from_text(out) == counts_19999[1][index]


@pytest.mark.parametrize("module", ["heappieces", "heappieces.cli"])
def test_python_dash_m(module):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", module, "count", "--size", "5"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "35\n")


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter with this checkout's src on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only: no command may pay its import; numpy
    # loads only with the sampler or the animal validator
    proc = run_fresh(
        "import sys, heappieces.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)"
    )
    assert (proc.returncode, proc.stdout) == (0, "False False\n")


# each command's stdout digest, then whether numpy and randgen are loaded
# after it, all in one interpreter that imported the package first
IMPORT_POLICY_CHILD = """
import contextlib, hashlib, io, json, sys
import heappieces
from heappieces.cli import cli_main
rows = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]
    loaded = [m in sys.modules for m in ("numpy", "heappieces.randgen")]
    rows.append([code, digest, *loaded])
print(json.dumps(rows))
"""


def test_only_sampling_and_validating_commands_load_numpy(capsys, tmp_path, path5):
    graph = tmp_path / "path5.graph"
    graph.write_text(format_graph_literal(path5))
    _, animals, _ = run(capsys, "generate", "--size", "3000", "--seed", "7")
    stream = tmp_path / "animals.jsonl"
    stream.write_text(animals)
    pins = dict(CLI_DIGESTS)
    # (command, numpy loaded after it, randgen loaded after it)
    commands = [
        ("count --size 3000 --lattice triangular --source equerre", False, False),
        ("series --graph {path5} --kind theta --degree 5", False, False),
        ("series --graph {path5} --kind pi-bar --base c --degree 5 --project", False, False),
        ("gas --graph {path5} --degree 6", False, False),
        ("enumerate --graph {path5} --size 4", False, False),
        ("render --input {animals}", True, False),  # the validator
        ("generate --size 5000 --seed 42", True, True),
    ]
    argvs = [
        [arg.format(path5=graph, animals=stream) for arg in command.split()]
        for command, *_ in commands
    ]
    proc = run_fresh(IMPORT_POLICY_CHILD, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [0, pins[command], numpy, randgen] for command, numpy, randgen in commands
    ]


def test_star_import_binds_the_sampler_names():
    proc = run_fresh(
        "import sys, heappieces; print('numpy' in sys.modules)\n"
        "from heappieces import *\n"
        "print(RandomSource.__module__, random_animal.__module__, random_word.__name__,\n"
        "      random_motzkin_prefix.__name__, GenerationReport.__name__,\n"
        "      randgen.__name__, series.__name__, 'numpy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "False",
        "heappieces.randgen",
        "heappieces.randgen",
        "random_word",
        "random_motzkin_prefix",
        "GenerationReport",
        "heappieces.randgen",
        "heappieces.series",
        "True",
    ]


class TestGenerate:
    def test_matches_library_bytes(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--size", "40", "--seed", "42", "--samples", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        src = RandomSource(42)
        expect = []
        total = 0
        for _ in range(2):
            an, rep = random_animal(40, "square", "point", src)
            expect.append(animal_to_json(an))
            total += rep.nb_tirages
        assert lines == expect + [f"nb_tirages_total={total}"]

    def test_pipe_into_render(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "generate", "--size", "12", "--seed", "1", "--lattice", "triangular"
        )
        assert code == 0
        stream = tmp_path / "animals.jsonl"
        stream.write_text(out)
        code, svg, _ = run(capsys, "render", "--input", str(stream))
        assert code == 0
        assert svg.count("<circle") == 12

    def test_decomposition_at_scale(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--size", "20000", "--seed", "3")
        assert code == 0
        stream = tmp_path / "animals.jsonl"
        stream.write_text(out)
        code, dump, _ = run(capsys, "render", "--input", str(stream), "--decomposition")
        assert code == 0
        _, rep = random_animal(20000, "square", "point", RandomSource(3))
        assert decomposition_flatten(dump) == mark_celibates(rep.word).letters

    def test_rejects_negative_samples(self, capsys):
        code, out, err = run(capsys, "generate", "--size", "5", "--samples", "-2")
        assert code == 2 and out == ""
        assert "--samples: must be >= 0" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_rejects_seed_out_of_range(self, capsys, seed):
        # a 64-bit mask once made these equal to seeds 2**64-1 and 0
        code, out, err = run(capsys, "generate", "--size", "3", "--seed", seed)
        assert code == 2 and out == ""
        assert "seed must be in 0..2**64-1" in err

    def test_rejects_non_numeric_samples(self, capsys):
        code, out, err = run(capsys, "generate", "--size", "5", "--samples", "two")
        assert code == 2 and out == ""
        assert "--samples: invalid int value: 'two'" in err

    def test_rejects_size_below_one(self, capsys):
        # with no samples the sampler's own check is never reached
        code, out, err = run(capsys, "generate", "--size", "-5", "--samples", "0")
        assert code == 2 and out == ""
        assert "--size must be >= 1" in err


class TestEnumerate:
    def test_animals(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--size", "3", "--lattice", "square")
        assert code == 0
        payloads = [json.loads(line) for line in out.strip().splitlines()]
        assert len(payloads) == 5
        assert all(len(p["cells"]) == 3 for p in payloads)

    def test_heaps(self, capsys, path3_file):
        code, out, _ = run(
            capsys, "enumerate", "--size", "2", "--graph", path3_file
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 12

    def test_graph_rejects_animal_options(self, capsys, path3_file):
        for flag, value in (("--lattice", "triangular"), ("--source", "compact")):
            code, out, err = run(
                capsys, "enumerate", "--size", "1", "--graph", path3_file, flag, value
            )
            assert code == 2 and out == ""
            assert "apply to animals, not --graph" in err


class TestSeries:
    def test_gamma_bar_dump(self, capsys, path3_file):
        code, out, _ = run(
            capsys, "series", "--graph", path3_file, "--kind", "gamma-bar",
            "--degree", "2",
        )
        assert code == 0
        assert out.splitlines() == ["1\t1", "-1\ta", "-1\tb", "-1\tc", "1\tac"]

    def test_projection(self, capsys, path3_file):
        code, out, _ = run(
            capsys, "series", "--graph", path3_file, "--kind", "theta",
            "--degree", "3", "--project",
        )
        assert code == 0 and out.strip() == "1 3 8 21"

    def test_based_pyramids(self, capsys, path3_file):
        code, out, _ = run(
            capsys, "series", "--graph", path3_file, "--kind", "pi",
            "--degree", "2", "--base", "a",
        )
        assert code == 0
        assert out.splitlines() == ["1\ta", "1\taa", "1\tab"]

    # stdout of the enumerating implementation, recorded before `--project`
    # moved to stable sets and the pyramid transfer
    EDGE_PROJECTIONS = [
        ("vertices:", 3, {"gamma": "1 0 0 0", "gamma-bar": "1 0 0 0",
                          "theta": "1 0 0 0", "theta-bar": "1 0 0 0",
                          "theta-strict": "1 0 0 0", "pi": "0 0 0 0",
                          "pi-bar": "0 0 0 0"}),
        ("vertices: a b c\nedge: a b\nedge: b c", 0,
         {"gamma": "1", "gamma-bar": "1", "theta": "1", "theta-bar": "1",
          "theta-strict": "1", "pi": "0", "pi-bar": "0"}),
    ]

    @pytest.mark.parametrize("literal, degree, outputs", EDGE_PROJECTIONS)
    def test_edge_projections(self, capsys, tmp_path, literal, degree, outputs):
        graph = tmp_path / "edge.graph"
        graph.write_text(literal + "\n")
        labels = literal.splitlines()[0].split()[1:]
        for kind, want in outputs.items():
            bases = [[]] + [["--base", b] for b in labels if kind.startswith("pi")]
            for base in bases:
                code, out, err = run(
                    capsys, "series", "--graph", str(graph), "--kind", kind,
                    "--degree", str(degree), "--project", *base,
                )
                assert (code, out, err) == (0, want + "\n", ""), (kind, base)

    def test_project_unknown_base_is_usage_error(self, capsys, path3_file):
        code, out, err = run(
            capsys, "series", "--graph", path3_file, "--kind", "pi",
            "--degree", "3", "--project", "--base", "z",
        )
        assert (code, out, err) == (2, "", "error: unknown label 'z'\n")

    def test_project_at_degree_1000(self, capsys, path5_file):
        code, out, _ = run(
            capsys, "series", "--graph", path5_file, "--kind", "theta",
            "--degree", "1000", "--project",
        )
        coefficients = out.split()
        assert code == 0 and len(coefficients) == 1001
        assert coefficients[:6] == ["1", "5", "19", "66", "221", "728"]

    def test_project_prints_past_the_digit_cap(self, capsys, tmp_path):
        """theta = 1/(1 - 10t) on K10.  The cap is lowered to its 640-digit
        floor so that 10^700 crosses it; the CLI must print it in full and
        leave the cap as it found it."""
        labels = "abcdefghij"
        edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
        graph = tmp_path / "k10.graph"
        graph.write_text(format_graph_literal(build_graph(labels, edges)))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(
                capsys, "series", "--graph", str(graph), "--kind", "theta",
                "--degree", "700", "--project",
            )
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        assert [int_from_text(c) for c in out.split()] == [10**n for n in range(701)]

    @pytest.mark.parametrize("kind", ["gamma", "gamma-bar"])
    def test_stable_set_dump_at_a_huge_degree(self, capsys, path5_file, kind):
        # path5's largest stable set has 3 vertices: past it the dump does not
        # change, and neither does its cost
        dumps = [
            run(capsys, "series", "--graph", path5_file, "--kind", kind, "--degree", d)
            for d in ("3", "100000000")
        ]
        assert dumps[0][0] == 0 and dumps[1] == dumps[0]

    def test_base_on_kind_without_base_is_usage_error(self, capsys, path3_file):
        code, out, err = run(
            capsys, "series", "--graph", path3_file, "--kind", "theta",
            "--degree", "2", "--base", "a",
        )
        assert code == 2 and out == ""
        assert "--base applies to pi and pi-bar" in err


class TestVerify:
    def test_micro_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "micro")
        assert code == 0
        assert out.count("PASS micro:") == 3

    def test_exact_suites_pass(self, capsys):
        for suite in ("inversion", "derivative", "substitution", "density", "colored"):
            code, out, _ = run(capsys, "verify", "--suite", suite)
            assert code == 0, out
            assert "FAIL" not in out

    def test_inversion_with_degree_prints_per_graph_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "inversion", "--degree", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(l.startswith("PASS inversion:") for l in lines)

    def test_gas_suite_at_degree_200(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "gas", "--degree", "200")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 5
        assert all(line.startswith("PASS gas:") for line in lines)

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        failing = lambda: [verify.Check("micro", "forced", False)]
        monkeypatch.setitem(verify.SUITES, "micro", failing)
        code, out, err = run(capsys, "verify", "--suite", "micro")
        assert (code, out, err) == (1, "FAIL micro: forced\n", "1 check(s) failed\n")

    def test_degree_on_suite_without_degree_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "colored", "--degree", "4")
        assert code == 2 and out == ""
        assert "takes no --degree" in err

    def test_bijection_past_oracle_bound_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "bijection", "--degree", "10")
        assert code == 2 and out == ""
        assert "oracle bound is 10 for triangular" in err

    def test_bijection_checks_bound_before_building_words(self, monkeypatch):
        def no_words(*args):
            raise AssertionError("a word was built before the bound check")

        monkeypatch.setattr(verify, "all_prefixes", no_words)
        with pytest.raises(AnimalError, match="oracle bound is 10 for triangular"):
            verify.suite_bijection(10)


class TestGas:
    def test_graph_mode(self, capsys, path3_file):
        code, out, _ = run(capsys, "gas", "--graph", path3_file, "--degree", "4")
        assert code == 0
        assert out.startswith("Z: 1 3 1 0 0")
        assert "PASS mean-count identity" in out

    def test_graph_mode_edges(self, capsys, tmp_path, path3_file):
        """stdout of the enumerating implementation, recorded before the pyramid transfer."""
        empty = tmp_path / "empty.graph"
        empty.write_text("vertices:\n")
        code, out, _ = run(capsys, "gas", "--graph", str(empty), "--degree", "3")
        assert (code, out) == (0, (
            "Z: 1 0 0 0\nmean_direct: 0 0 0 0\nmean_pyramids: 0 0 0 0\n"
            "PASS mean-count identity\n"
        ))
        code, out, _ = run(capsys, "gas", "--graph", path3_file, "--degree", "0")
        assert (code, out) == (0, (
            "Z: 1\nmean_direct: 0\nmean_pyramids: 0\nPASS mean-count identity\n"
        ))

    def test_graph_mode_at_degree_200(self, capsys, path5_file):
        code, out, _ = run(capsys, "gas", "--graph", path5_file, "--degree", "200")
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "PASS mean-count identity"
        assert lines[0] == "Z: 1 5 6 1" + " 0" * 197
        assert len(lines[2].split()) == 202  # "mean_pyramids:" and 201 coefficients

    def test_linear_mode(self, capsys):
        code, out, _ = run(capsys, "gas", "--linear", "--degree", "4", "--at", "1")
        assert code == 0
        assert "0 1 -3 10 -35" in out
        assert "0.2763932" in out

    def test_linear_mode_past_the_digit_cap(self, capsys):
        """The coefficient at degree 7200 has 4333 digits, over the
        interpreter's default 4300-digit cap."""
        code, out, err = run(capsys, "gas", "--linear", "--degree", "7200")
        last = out.split()[-1]
        assert (code, err) == (0, "") and len(last) == 4334  # with its sign
        assert int_from_text(last) == -(math.comb(14400, 7200) // 2)

    def test_rejects_non_finite_at(self, capsys):
        for value in ("nan", "inf"):
            code, out, err = run(
                capsys, "gas", "--linear", "--degree", "4", "--at", value
            )
            assert code == 2 and out == ""
            assert "--at: must be finite" in err

    def test_rejects_negative_degree(self, capsys):
        code, out, err = run(capsys, "gas", "--linear", "--degree", "-1")
        assert code == 2 and out == ""
        assert "--degree: must be >= 0" in err
        assert "coefficient count" not in err

    def test_at_without_linear_is_usage_error(self, capsys, path3_file):
        code, out, err = run(
            capsys, "gas", "--graph", path3_file, "--degree", "4", "--at", "0.5"
        )
        assert code == 2 and out == ""
        assert "--at applies to --linear only" in err

    def test_graph_with_linear_is_usage_error(self, capsys, path3_file):
        code, out, err = run(
            capsys, "gas", "--graph", path3_file, "--linear", "--degree", "4"
        )
        assert code == 2 and out == ""
        assert "--graph and --linear exclude each other" in err

    def test_neither_graph_nor_linear_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gas", "--degree", "4")
        assert (code, out, err) == (2, "", "error: gas: need --graph FILE or --linear\n")

    def test_bad_at_leaves_no_partial_output(self, capsys):
        code, out, err = run(capsys, "gas", "--linear", "--degree", "4", "--at", "-1")
        assert code == 2 and out == ""
        assert "density undefined" in err


class TestErrors:
    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "count", "--nonsense")
        assert code == 2

    def test_unknown_command_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_graph_file(self, capsys):
        code, _, err = run(
            capsys, "series", "--graph", "/does/not/exist", "--kind", "theta",
            "--degree", "2",
        )
        assert code == 2 and "error" in err

    def test_missing_input_file(self, capsys):
        code, out, err = run(capsys, "render", "--input", "/does/not/exist")
        assert (code, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            # each output is larger than a pipe's buffer plus one line
            ["series", "--graph", "{path5}", "--kind", "theta", "--degree", "7"],
            ["generate", "--size", "20000", "--samples", "20"],
        ],
    )
    def test_reader_closing_the_pipe_is_quiet(self, path5_file, argv):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [arg.format(path5=path5_file) for arg in argv]
        proc = subprocess.Popen(
            [sys.executable, "-m", "heappieces", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()  # as `| head -1` does
        try:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (code, err) == (1, b"")

    def test_render_reads_stdin(self, capsys, monkeypatch, tmp_path):
        code, animals, _ = run(capsys, "generate", "--size", "30", "--samples", "2")
        stream = tmp_path / "animals.jsonl"
        stream.write_text(animals)
        code, from_file, _ = run(capsys, "render", "--input", str(stream))
        monkeypatch.setattr(sys, "stdin", io.StringIO(animals))
        code, from_stdin, _ = run(capsys, "render")
        assert code == 0 and from_stdin == from_file
        assert from_stdin.count("<circle") == 60

    @pytest.mark.parametrize(
        "line, fault",
        [
            ("[1,2]", "not a JSON object"),
            ('"cells"', "not a JSON object"),
            ("nan", "Expecting value"),
            ('{"lattice":"square","source":"point"}', "'cells'"),
        ],
    )
    def test_render_names_a_bad_json_line(self, capsys, monkeypatch, line, fault):
        good = animal_to_json(random_animal(4, "square", "point", RandomSource(1))[0])
        monkeypatch.setattr(sys, "stdin", io.StringIO(good + "\n" + line + "\n"))
        code, out, err = run(capsys, "render")
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad animal JSON: {fault}")

    def test_render_rejects_non_numeric_radius(self, capsys):
        code, out, err = run(capsys, "render", "--radius", "wide")
        assert code == 2 and out == ""
        assert "--radius: invalid float value: 'wide'" in err

    def test_render_rejects_non_finite_radius(self, capsys, tmp_path):
        an, _ = random_animal(5, "square", "point", RandomSource(1))
        stream = tmp_path / "animals.jsonl"
        stream.write_text(animal_to_json(an))
        for value in ("nan", "inf"):
            code, out, err = run(
                capsys, "render", "--input", str(stream), "--radius", value
            )
            assert code == 2 and out == ""
            assert "--radius: must be finite" in err

    def test_render_rejects_overflowing_radius(self, capsys, tmp_path):
        # a finite radius whose picture size overflows to inf
        an, _ = random_animal(5, "square", "point", RandomSource(1))
        stream = tmp_path / "animals.jsonl"
        stream.write_text(animal_to_json(an))
        code, out, err = run(capsys, "render", "--input", str(stream), "--radius", "1e308")
        assert code == 2 and out == ""
        assert err.startswith("error: cell_radius 1e+308")

    def test_render_decomposition_rejects_svg_options(self, capsys, tmp_path):
        an, _ = random_animal(4, "square", "point", RandomSource(1))
        stream = tmp_path / "animals.jsonl"
        stream.write_text(animal_to_json(an))
        for flag, value in (("--radius", "3"), ("--rotation", "heap")):
            code, out, err = run(
                capsys, "render", "--input", str(stream), "--decomposition", flag, value
            )
            assert code == 2 and out == ""
            assert "apply to SVG, not --decomposition" in err

    def test_render_error_leaves_stdout_empty(self, capsys, tmp_path):
        # the first animal renders; the second (compact source) has no dump
        stream = tmp_path / "animals.jsonl"
        stream.write_text("\n".join(
            animal_to_json(random_animal(4, "square", source, RandomSource(1))[0])
            for source in ("point", "compact")
        ))
        code, out, err = run(capsys, "render", "--input", str(stream), "--decomposition")
        assert code == 2 and out == ""
        assert "point sources only" in err

    def test_render_rejects_non_integer_coordinates(self, capsys, tmp_path):
        good = animal_to_json(random_animal(4, "square", "point", RandomSource(1))[0])
        stream = tmp_path / "animals.jsonl"
        for bad in ("[1.7,1.2]", '["1",true]', "[1,null]"):
            # int() would truncate 1.7 to the supported cell (1, 1)
            line = '{"lattice":"square","source":"point","cells":[[0,0],%s]}' % bad
            stream.write_text(good + "\n" + line + "\n")
            code, out, err = run(capsys, "render", "--input", str(stream))
            assert code == 2 and out == ""
            assert "bad animal JSON" in err

    @pytest.mark.parametrize("lattice, cells, message", FAR_CELL_FIRST)
    def test_render_names_the_first_far_cell(
        self, capsys, tmp_path, lattice, cells, message
    ):
        payload = {"lattice": lattice, "source": "point", "cells": cells}
        stream = tmp_path / "animals.jsonl"
        stream.write_text(json.dumps(payload))
        code, out, err = run(capsys, "render", "--input", str(stream))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_render_empty_input_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.write_text("")
        code, out, err = run(capsys, "render", "--input", str(empty))
        assert (code, out, err) == (2, "", "error: render: no animal JSON on input\n")


# First 16 hex digits of the sha256 of stdout, recorded before the
# one-pass factorization rewrites (the two 10^5-cell pins before the
# windowed restart scan and the direct JSON writer); a changed digest is a
# changed output.  Seed 1 at 10^5 cells restarts 1,052 times.
# {path5} is the path5 graph literal, {animals} the stdout of
# `generate --size 3000 --seed 7`.
CLI_DIGESTS = [
    ("generate --size 5000 --seed 42", "448ce7a291cd72cd"),
    ("generate --size 5000 --seed 42 --source compact", "792c60d77e859d3a"),
    ("generate --size 5000 --seed 42 --lattice triangular", "1409f61f36e7aeac"),
    (
        "generate --size 5000 --seed 42 --lattice triangular --source compact",
        "ef209edd2e26ac8a",
    ),
    ("generate --size 100000 --seed 1", "6eb138f6e30600d2"),
    (
        "generate --size 100000 --seed 1 --lattice triangular --source compact",
        "8bbf0f7939282264",
    ),
    ("generate --samples 200 --size 7", "2a413b6f6248483e"),
    ("series --graph {path5} --kind theta --degree 5", "68594ee2ab2aa075"),
    ("series --graph {path5} --kind theta-bar --degree 5", "997e5e9ba49a0d03"),
    ("series --graph {path5} --kind theta-strict --degree 5", "a742d5a20e78c620"),
    ("series --graph {path5} --kind gamma --degree 5", "d805dc708e8e0235"),
    ("series --graph {path5} --kind gamma-bar --degree 5", "5282cd8df5e7ee09"),
    ("series --graph {path5} --kind pi --degree 5", "b4db1b6cc054d7bd"),
    ("series --graph {path5} --kind pi-bar --degree 5", "8724385db15b3b2a"),
    ("series --graph {path5} --kind pi --base c --degree 5", "1c8549a09b3b8b24"),
    (
        "series --graph {path5} --kind pi-bar --base c --degree 5 --project",
        "259c251ed7d7bb50",
    ),
    (
        "series --graph {path5} --kind theta-strict --degree 6 --project",
        "e53889145fb18ec1",
    ),
    ("gas --graph {path5} --degree 6", "2b7169dfce81c5d1"),
    ("gas --linear --degree 30 --at 0.5", "b68a720f3864dcac"),
    ("count --size 3000 --lattice triangular --source equerre", "76bbadfdb986fc4e"),
    ("enumerate --size 6 --lattice triangular", "f38f4cfa9b93aec0"),
    ("enumerate --graph {path5} --size 4", "e9a1374c7262974d"),
    ("render --input {animals}", "d6fef46a5acb6f4b"),
    ("render --input {animals} --decomposition", "b83332b224469c39"),
    ("render --input {animals} --rotation heap --radius 0.25", "1c14a626d765add8"),
]


@pytest.mark.parametrize("command, digest", CLI_DIGESTS)
def test_stdout_digest(capsys, tmp_path, path5, command, digest):
    graph = tmp_path / "path5.graph"
    graph.write_text(format_graph_literal(path5))
    code, animals, _ = run(capsys, "generate", "--size", "3000", "--seed", "7")
    stream = tmp_path / "animals.jsonl"
    stream.write_text(animals)
    argv = [arg.format(path5=graph, animals=stream) for arg in command.split()]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
