"""Tests of the scripts in scripts/.

`series_tables.py`, `gallery.py` and `pipeline_times.py` are run as
scripts: each runs and prints or writes what it says.  `bench_record.py`
is loaded in process and fed canned run output: its aggregation, its
summary, its order of runs and the clones it runs them in.  The
benchmark in heapbench/ is not run: its imports are only checked to
resolve in the library.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_series_tables():
    proc = run_script("series_tables.py", "--max-size", "6")
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0]
    assert "sq/point" in header
    # n = 6 row: 96 Motzkin prefixes of length 5 on the square lattice,
    # C(12,6)/2 = 462 on the triangular one
    assert proc.stdout.splitlines()[6].split()[:3] == ["6", "96", "462"]


def test_gallery(tmp_path):
    proc = run_script("gallery.py", "--out", str(tmp_path), "--large", "200")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
        "square_compact_200.svg",
        "square_compact_30.svg",
        "square_point_200.svg",
        "square_point_30.svg",
        "triangular_point_30.svg",
    ]
    assert sorted(p.name for p in tmp_path.glob("*.txt")) == [
        "square_point_200.txt",
        "square_point_30.txt",
        "triangular_point_30.txt",
    ]
    assert all(p.read_text().startswith("<?xml") for p in tmp_path.glob("*.svg"))


def test_pipeline_times():
    proc = run_script("pipeline_times.py", "--size", "50", "--seed", "3", "--runs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == [
        "seed 3, square/point, size 50, min of 1",
        "| step | time |",
        "|---|---|",
    ]
    steps = [line.split(" | ")[0] for line in lines[3:]]
    assert steps == [
        "| `generate --size 50 --seed 3`",
        "| `render --decomposition`",
        "| `render`",
        "| `animal_from_json` (in process)",
        "| `render_decomposition` (in process)",
        "| `render_svg` (in process)",
    ]
    assert all(line.endswith((" s wall |", " s |")) for line in lines[3:])


def test_heapbench_imports_resolve():
    missing = []
    for path in sorted((ROOT / "heapbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = [(alias.name, []) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [(node.module, [alias.name for alias in node.names])]
            else:
                continue
            for module_name, names in targets:
                if module_name.split(".")[0] != "heappieces":
                    continue
                module = importlib.import_module(module_name)
                missing += [
                    f"{path.name}: {module_name}.{name}"
                    for name in names
                    if not hasattr(module, name)
                ]
    assert missing == []


def canned_run(seed, ops_per_s, p50_ms, slowdown, failed=0):
    """stdout of one `heapbench/run.py --trace 0` run, trimmed to what it prints."""
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "peak_rss_mb": (100.0, "MB"),
        "setup_s": (0.5, "s"),
    }
    context = {"workload": "exact", "seed": seed, "machine": {"nproc": 2}}
    result = {
        "correct": failed == 0,
        "attempted": 64,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return "\n".join(
        [f"context {json.dumps(context)}"]
        + [f"{k} {v!r} {u}" for k, (v, u) in metrics.items()]
        + [f"slowdown {slowdown!r} (median over cycles)", "raw ops_per_s 9.0 1/s"]
        + [f"fail_ratio {failed / 64!r} ratio ({failed}/64 ops)", json.dumps(result)]
    )


def canned_traced_run(seed, layers, failed=0):
    """stdout of one `heapbench/run.py --trace 1` run, trimmed to what it
    prints: per-layer metrics, all in ms here, and no end-to-end ones."""
    context = {"workload": "exact", "seed": seed, "machine": {"nproc": 2}}
    result = {
        "correct": failed == 0,
        "attempted": 96,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "ms"} for k, v in layers.items()},
    }
    return "\n".join(
        [f"context {json.dumps(context)}"]
        + [f"{k} {v!r} ms" for k, v in layers.items()]
        + ["slowdown 1.0 (median over cycles)"]
        + [f"fail_ratio {failed / 96!r} ratio ({failed}/96 ops)", json.dumps(result)]
    )


def load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


def test_bench_record_aggregates_canned_runs():
    bench_record = load_bench_record()

    parent = [
        bench_record.parse_run(canned_run(s, v, 80.0, slow))
        for s, v, slow in ((1, 10.0, 1.2), (2, 14.0, 1.9), (3, 12.0, 1.2),
                           (4, 11.0, 1.1), (5, 13.0, 1.2))
    ]
    change = [
        bench_record.parse_run(canned_run(s, v, m, 1.0, failed=s == 5))
        for s, v, m in ((1, 15.0, 60.0), (2, 13.0, 80.0), (3, 16.0, 61.0),
                        (4, 17.0, 62.0), (5, 18.0, 63.0))
    ]
    assert parent[0]["slowdown"] == 1.2 and parent[0]["context"]["seed"] == 1
    a, b = bench_record.aggregate(parent), bench_record.aggregate(change)
    assert a["seeds"] == [1, 2, 3, 4, 5]
    ops = a["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s" and ops["values"] == [10.0, 14.0, 12.0, 11.0, 13.0]
    assert (ops["q1"], ops["median"], ops["q3"]) == (11.0, 12.0, 13.0)
    assert a["slowdown"]["median"] == 1.2
    assert (b["correct_runs"], b["failed_ops"], b["attempted_ops"]) == (4, 1, 320)
    # seed 2 is the parent's, and the tied p50 of seed 2 counts for neither side
    assert bench_record.pair_wins(a, b, "ops_per_s") == (4, 5)
    assert bench_record.pair_wins(a, b, "op_p50_ms") == (4, 4)
    # the change's ops_per_s and op_p50_ms medians lie outside the parent's
    # quartiles (11-13 and 80-80); the constant metrics tie inside them
    lines = bench_record.summary(
        {"workloads": {"exact": a}}, {"workloads": {"exact": b}}
    )
    assert lines == [
        "exact slowdown: parent 1.1-1.9, change 1-1",
        "exact ops_per_s: parent 12 (quartiles 11-13) change 16 outside them,"
        " change won 4/5 pairs",
        "exact op_p50_ms: parent 80 (quartiles 80-80) change 62 outside them,"
        " change won 4/4 pairs",
        "exact peak_rss_mb: parent 100 (quartiles 100-100) change 100 inside them,"
        " change won 0/0 pairs",
        "exact setup_s: parent 0.5 (quartiles 0.5-0.5) change 0.5 inside them,"
        " change won 0/0 pairs",
    ]
    one = bench_record.spread([3.0])
    assert one == {"median": 3.0, "q1": 3.0, "q3": 3.0, "values": [3.0]}


def test_bench_record_spreads_canned_traced_runs():
    bench_record = load_bench_record()
    parent = [
        bench_record.parse_run(canned_traced_run(
            s, {"paths.count_paths.ms": v, "series.invert.ms": w}))
        for s, v, w in ((1, 110.0, 38.0), (2, 95.0, 30.0), (3, 120.0, 45.0))
    ]
    change = [
        bench_record.parse_run(canned_traced_run(
            s, {"paths.count_paths.ms": v, "series.invert.ms": w}, failed=s == 3))
        for s, v, w in ((1, 40.0, 36.0), (2, 44.0, 29.0), (3, 38.0, 50.0))
    ]
    a = bench_record.aggregate_traced(parent)
    b = bench_record.aggregate_traced(change)
    assert a["seeds"] == [1, 2, 3]
    assert a["metrics"]["paths.count_paths.ms"] == {
        "unit": "ms", "min": 95.0, "median": 110.0, "max": 120.0,
        "values": [110.0, 95.0, 120.0],
    }
    assert (b["correct_runs"], b["failed_ops"], b["attempted_ops"]) == (2, 1, 288)
    end_to_end = bench_record.aggregate(
        [bench_record.parse_run(canned_run(s, 10.0, 80.0, 1.0)) for s in (1, 2, 3)]
    )
    lines = bench_record.summary(
        {"workloads": {"exact": {**end_to_end, "traced": a}}},
        {"workloads": {"exact": {**end_to_end, "traced": b}}},
    )
    assert lines[5:] == [
        "exact traced runs correct: parent 3/3, change 2/3",
        "exact paths.count_paths.ms traced: parent 110 (95-120)"
        " change 40 (38-44) apart",
        "exact series.invert.ms traced: parent 38 (30-45)"
        " change 36 (29-50) overlapping",
    ]
    # without traced runs the summary stops at the end-to-end lines
    plain = bench_record.summary(
        {"workloads": {"exact": end_to_end}}, {"workloads": {"exact": end_to_end}}
    )
    assert plain == lines[:5]


def test_bench_record_tier1_records_a_failing_suite(tmp_path):
    # one passing and one failing test that import from the checkout's src
    bench_record = load_bench_record()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text("VALUE = 1\n")
    (tmp_path / "test_probe.py").write_text(
        "from probe import VALUE\n\n"
        "def test_pass():\n    assert VALUE == 1\n\n"
        "def test_fail():\n    assert VALUE == 2\n"
    )
    tier1 = bench_record.run_tier1(tmp_path)
    assert (tier1["passed"], tier1["failed"], tier1["exit_code"]) == (1, 1, 1)
    assert tier1["seconds"] > 0


def git_checkout(path):
    """A git repository at `path` holding one commit of src/ and heapbench/."""
    for part in ("src", "heapbench"):
        (path / part).mkdir(parents=True)
        (path / part / "run.py").write_text("")
    for args in (["init", "--quiet"], ["add", "."],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "--quiet",
                  "-m", "canned"]):
        subprocess.run(["git", "-C", str(path), *args], check=True, capture_output=True)
    return path


def test_bench_record_runs_traced_runs_only_when_asked(tmp_path, monkeypatch):
    bench_record = load_bench_record()
    parent, change = tmp_path / "parent", git_checkout(tmp_path / "change")
    (parent / "heapbench").mkdir(parents=True)
    (parent / "heapbench" / "run.py").write_text("")
    monkeypatch.setattr(bench_record, "ROOT", change)
    calls = []
    checkouts = set()

    def run_one(checkout, workload, seed, trace=0):
        side = "parent" if checkout == parent.resolve() else "change"
        calls.append((workload, seed, side, trace))
        checkouts.add((side, checkout))
        if side == "change":  # a clone of the change's HEAD, not the repository
            assert (checkout / "heapbench" / "run.py").is_file()
            assert bench_record.git(checkout, "rev-parse", "HEAD") == (
                bench_record.git(change, "rev-parse", "HEAD"))
        if trace:
            ms = 100.0 if side == "parent" else 40.0
            return bench_record.parse_run(
                canned_traced_run(seed, {"paths.count_paths.ms": ms + seed}))
        return bench_record.parse_run(canned_run(seed, 10.0, 80.0, 1.0))

    def run_tier1(checkout):
        side = "parent" if checkout == parent.resolve() else "change"
        tier1_runs.append((side, checkout))
        return {"seconds": 9.5, "passed": 7 if side == "parent" else 8,
                "failed": 0, "exit_code": 0}

    tier1_runs = []
    monkeypatch.setattr(bench_record, "run_one", run_one)
    monkeypatch.setattr(bench_record, "run_tier1", run_tier1)
    argv = ["--label", "t", "--parent", str(parent), "--seeds", "1", "2", "3"]
    assert bench_record.main(argv + ["--traced", "2"]) == 0
    # the Tier-1 suite ran once per side, in the clones the workloads ran in
    assert sorted(side for side, _ in tier1_runs) == ["change", "parent"]
    assert set(tier1_runs) <= checkouts
    assert all(checkout.resolve() != change.resolve() for _, checkout in tier1_runs)
    for side, passed in (("parent", 7), ("change", 8)):
        record = json.loads((change / f"BENCH_t_{side}.json").read_text())
        assert record["tier1"] == {
            "seconds": 9.5, "passed": passed, "failed": 0, "exit_code": 0}
    # the first K seeds, sides alternating from seed to seed
    assert [c for c in calls if c[3]] == [
        (w, s, side, 1)
        for w in bench_record.WORKLOADS
        for s, sides in ((1, ("parent", "change")), (2, ("change", "parent")))
        for side in sides
    ]
    record = json.loads((change / "BENCH_t_change.json").read_text())
    assert record["traced_command"] == "python3 heapbench/run.py --trace 1"
    for workload in bench_record.WORKLOADS:
        entry = record["workloads"][workload]
        assert entry["seeds"] == [1, 2, 3] and entry["traced"]["seeds"] == [1, 2]
        layer = entry["traced"]["metrics"]["paths.count_paths.ms"]
        assert (layer["min"], layer["median"], layer["max"]) == (41.0, 41.5, 42.0)

    calls.clear()
    assert bench_record.main(argv) == 0
    assert len(calls) == 2 * 3 * len(bench_record.WORKLOADS)
    assert not any(c[3] for c in calls)
    record = json.loads((change / "BENCH_t_parent.json").read_text())
    assert "traced_command" not in record
    assert all("traced" not in entry for entry in record["workloads"].values())

    with pytest.raises(SystemExit):
        bench_record.main(argv + ["--traced", "4"])

    # neither side ran in the repository
    assert {side for side, _ in checkouts} == {"change", "parent"}
    assert all(checkout.resolve() != change.resolve() for _, checkout in checkouts)
    record = json.loads((change / "BENCH_t_change.json").read_text())
    assert record["checkout"] == {
        "commit": bench_record.git(change, "rev-parse", "HEAD"), "dirty": False}

    # an uncommitted edit in src/ would be missing from the clone: exit 2
    (change / "src" / "run.py").write_text("edited")
    calls.clear()
    with pytest.raises(SystemExit) as refused:
        bench_record.main(argv)
    assert refused.value.code == 2 and calls == []
