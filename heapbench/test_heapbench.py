"""Self-test of the benchmark harness at tiny sizes.

    python -m pytest -q heapbench
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from heappieces import Animal, RandomSource, random_animal  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = (
    "randgen.draws_per_letter",
    "animals.animal_to_json.bytes",
    "heaps.enumerate_heaps.count",
    "series.series_mul.pairs",
)


def tiny_run(name, trace, tmp_path, seed=5, cls=None):
    table = {**workloads.WORKLOADS, **({name: cls} if cls else {})}
    result, lines = run.run_workload(
        name, seed, 0.2, trace, tiny=True, out_dir=tmp_path, import_repeats=1,
        workloads_by_name=table,
    )
    json.dumps(result)  # the result line must serialize
    return result, lines


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_emits_every_metric(name, trace, tmp_path):
    result, lines = tiny_run(name, trace, tmp_path)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in declared:
        assert any(line.startswith(f"{m['name']} ") for line in lines)
    assert any(line.startswith("fail_ratio 0.0 ") for line in lines)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


class CorruptBigAnimal(workloads.BigAnimal):
    """Drops one cell of the parsed square-lattice animal."""

    def op(self, inp, src, call):
        an, report, text, back = super().op(inp, src, call)
        if an.lattice == "square":
            back = Animal(back.lattice, back.source, back.cells[:-1])
        return an, report, text, back


class RaisingSampleSmall(workloads.SampleSmall):
    def op(self, inp, src, call):
        if inp[0] == "prefix":
            raise RuntimeError("injected")
        return super().op(inp, src, call)


@pytest.mark.parametrize(
    "name, cls, share",
    [("big_animal", CorruptBigAnimal, 1 / 2), ("sample_small", RaisingSampleSmall, 1 / 4)],
)
def test_wrong_or_raising_ops_count_as_failed(name, cls, share, tmp_path):
    result, lines = tiny_run(name, False, tmp_path, cls=cls)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] * share
    assert any(line.startswith(f"fail_ratio {share!r} ") for line in lines)


def test_seeded_replay_repeats_counts_exactly(tmp_path):
    first, _ = tiny_run("big_animal", True, tmp_path, seed=9)
    second, _ = tiny_run("big_animal", True, tmp_path, seed=9)
    other, _ = tiny_run("big_animal", True, tmp_path, seed=10)
    for key in COUNT_METRICS:
        assert first["metrics"][key] == second["metrics"][key]
    assert first["metrics"]["randgen.draws_per_letter"] != other["metrics"]["randgen.draws_per_letter"]


class DriftingExact(workloads.Exact):
    """Counts that differ between two passes from the same seed."""

    drift = 0

    def counts(self, job, out):
        DriftingExact.drift += 1
        return {**super().counts(job, out), "drift": DriftingExact.drift}


def test_replay_mismatch_fails_the_run(tmp_path):
    result, lines = tiny_run("exact", True, tmp_path, cls=DriftingExact)
    assert result["failed"] == 0 and not result["correct"]
    assert any("seeded replay differs" in line for line in lines)


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer()
    t.spans = [["op", 0, 100, -1, 0], ["a", 10, 30, 0, 0], ["b", 40, 90, 0, 0], ["c", 50, 60, 2, 0]]
    assert t.self_ns() == [30, 20, 40, 10]
    t = tracing.Tracer()
    assert t.op("op", lambda: t.call("inner", lambda x: x + 1, 1)) == 2
    (name, _, _, parent, op_id), (inner, _, _, inner_parent, inner_op) = t.spans
    assert (name, parent, op_id, inner, inner_parent, inner_op) == ("op", -1, 0, "inner", 0, 0)


def test_chi_square_fails_only_a_biased_sampler(monkeypatch):
    wl = workloads.SampleSmall(3, tiny=True)
    uniform = Counter({(0, c): 10 for c in range(96)})
    assert wl.finish(uniform) == []
    biased = Counter({(0, c): 20 for c in range(48)})
    assert wl.finish(biased) == []  # the real sampler passes the confirmation

    fixed, _ = random_animal(6, "square", "point", RandomSource(0))
    monkeypatch.setattr(workloads, "random_animal", lambda *args: (fixed, None))
    assert len(wl.finish(biased)) == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
