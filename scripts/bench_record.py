#!/usr/bin/env python3
"""Record heapbench runs of a parent checkout and this one to BENCH files.

For every workload and seed the recorder runs `python3 heapbench/run.py
--trace 0` at BENCHMARK.json's `run_seconds` once in the parent checkout
and once in the change's, each in its own directory, so each side measures
its own `src`.  Both sides run from fresh clones: the parent from the one
given by `--parent`, the change from a clone of this repository's HEAD
made in a temporary directory, so neither runs in the repository itself.
It refuses to run (exit 2) when `src/` or `heapbench/` has uncommitted
edits, which that clone would not hold.  The side that runs first
alternates from seed to seed, so the runs of the same seed form
alternating pairs.  Standard library only.

It writes BENCH_<label>_parent.json and BENCH_<label>_change.json to the
repository root.  Each holds, per workload, every run's end-to-end metrics
in seed order and their median and quartiles, the slowdown the harness
measured (see heapbench/README.md), the failed and attempted op counts,
and the machine facts the harness printed.  It then prints, per workload,
each side's slowdown range (a wide one means the reference scaling moved
within the batch, which is worth running again), and per metric both
medians, the parent's quartiles, whether the change's median falls inside
them, and how many pairs the change won.

`--traced K` also runs K traced runs (`--trace 1`) per side and workload, on
the first K seeds, alternating as above.  Each record then holds, next to a
workload's end-to-end record, every per-layer metric's min, median and max
over those runs, and the printout gives both sides' spreads and whether they
overlap: traced per-layer numbers move by about a third between runs of
the same code, so a per-layer change inside the spread shows nothing.

After the heapbench runs it also runs the Tier-1 suite once in each side's
clone, `python -m pytest -q --continue-on-collection-errors -p
no:cacheprovider` with the clone's `src` on PYTHONPATH, stores its wall
seconds, passed and failed counts and exit code under `tier1` in each
record, and prints both on one line.  A failing suite is recorded, not
raised.

Usage:
    git clone --quiet . ../parent && git -C ../parent checkout --quiet PARENT
    python scripts/bench_record.py --label pr12 --parent ../parent \\
        --seeds 301 302 303 [--traced 3]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
HIGHER_IS_BETTER = {m["name"]: m["better"] == "higher" for m in BENCHMARK["end_to_end"]}


def parse_run(stdout: str) -> dict:
    """One run's result object, slowdown and context from run.py's stdout."""
    lines = stdout.strip().splitlines()
    run = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key == "slowdown":
            run["slowdown"] = float(rest.split()[0])
        elif key == "context":
            run["context"] = json.loads(rest)
    return run


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the values, in run order."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_counts(runs: list[dict]) -> dict:
    """Seeds, correct runs, and failed and attempted ops of some runs."""
    return {
        "seeds": [run["context"]["seed"] for run in runs],
        "correct_runs": sum(run["result"]["correct"] for run in runs),
        "failed_ops": sum(run["result"]["failed"] for run in runs),
        "attempted_ops": sum(run["result"]["attempted"] for run in runs),
    }


def aggregate(runs: list[dict]) -> dict:
    """Summary of one side's runs of one workload, in seed order."""
    metrics = runs[0]["result"]["metrics"]
    return {
        **run_counts(runs),
        "slowdown": spread([run["slowdown"] for run in runs]),
        "metrics": {
            name: {
                "unit": metric["unit"],
                **spread([run["result"]["metrics"][name]["value"] for run in runs]),
            }
            for name, metric in metrics.items()
        },
    }


def aggregate_traced(runs: list[dict]) -> dict:
    """Spread of each per-layer metric over one side's traced runs of one
    workload, in seed order."""
    out = {**run_counts(runs), "metrics": {}}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        out["metrics"][name] = {
            "unit": metric["unit"],
            "min": min(values),
            "median": statistics.median(values),
            "max": max(values),
            "values": values,
        }
    return out


def pair_wins(base: dict, other: dict, metric: str) -> tuple[int, int]:
    """(pairs `other` won, pairs with a winner) over runs of equal seed."""
    higher = HIGHER_IS_BETTER[metric]
    a = base["metrics"][metric]["values"]
    b = other["metrics"][metric]["values"]
    won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    return won, sum(x != y for x, y in zip(a, b))


def summary(parent: dict, change: dict) -> list[str]:
    """The printed verdict lines of two sides' records, workload by workload."""
    lines = []
    for workload, a in parent["workloads"].items():
        b = change["workloads"][workload]
        ranges = [
            f"{side} {min(slow):.3g}-{max(slow):.3g}"
            for side, slow in (("parent", a["slowdown"]["values"]),
                               ("change", b["slowdown"]["values"]))
        ]
        lines.append(f"{workload} slowdown: {', '.join(ranges)}")
        for metric in HIGHER_IS_BETTER:
            base, other = a["metrics"][metric], b["metrics"][metric]
            inside = base["q1"] <= other["median"] <= base["q3"]
            won, decided = pair_wins(a, b, metric)
            lines.append(
                f"{workload} {metric}: parent {base['median']:.4g}"
                f" (quartiles {base['q1']:.4g}-{base['q3']:.4g})"
                f" change {other['median']:.4g}"
                f" {'inside' if inside else 'outside'} them,"
                f" change won {won}/{decided} pairs"
            )
        if "traced" not in a:
            continue
        correct = [
            f"{side} {t['correct_runs']}/{len(t['seeds'])}"
            for side, t in (("parent", a["traced"]), ("change", b["traced"]))
        ]
        lines.append(f"{workload} traced runs correct: {', '.join(correct)}")
        for metric, base in a["traced"]["metrics"].items():
            other = b["traced"]["metrics"][metric]
            apart = base["max"] < other["min"] or other["max"] < base["min"]
            lines.append(
                f"{workload} {metric} traced: parent {base['median']:.4g}"
                f" ({base['min']:.4g}-{base['max']:.4g})"
                f" change {other['median']:.4g}"
                f" ({other['min']:.4g}-{other['max']:.4g})"
                f" {'apart' if apart else 'overlapping'}"
            )
    return lines


def git(checkout: Path, *args: str) -> str | None:
    """Stdout of a git command in `checkout`, or None when it fails."""
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def git_state(checkout: Path) -> dict:
    """The checkout's HEAD commit and whether it has uncommitted changes."""
    dirty = bool(git(checkout, "status", "--porcelain"))
    return {"commit": git(checkout, "rev-parse", "HEAD"), "dirty": dirty}


def clone_head(checkout: Path, dest: Path) -> Path:
    """A fresh clone of the checkout's HEAD commit at `dest`, made as the
    parent's clone is."""
    head = git(checkout, "rev-parse", "HEAD")
    for args in (["clone", "--quiet", str(checkout), str(dest)],
                 ["-C", str(dest), "checkout", "--quiet", str(head)]):
        subprocess.run(["git", *args], check=True, capture_output=True)
    return dest


def alternating(sides: list[tuple[str, Path]], seeds: list[int]):
    """(seed, side, checkout) in run order; the side that runs first
    alternates from seed to seed, so the runs of a seed form a pair."""
    for i, seed in enumerate(seeds):
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            yield seed, side, checkout


def run_one(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, "heapbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        where = f"{workload} seed {seed} in {checkout}"
        raise RuntimeError(f"{where}:\n{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def run_tier1(checkout: Path) -> dict:
    """Wall seconds, passed and failed tests and exit code of one Tier-1 run
    in `checkout`, its `src` first on PYTHONPATH."""
    path = str(checkout / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=checkout,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - start
    last = (done.stdout.strip().splitlines() or [""])[-1]  # "3 failed, 9 passed in 5s"
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed)", last)}
    return {"seconds": round(seconds, 1), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "exit_code": done.returncode}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="BENCH file prefix, e.g. pr12")
    parser.add_argument("--parent", type=Path, required=True, metavar="DIR")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--traced", type=int, default=0, metavar="K",
                        help="also K traced runs per side and workload")
    args = parser.parse_args(argv)
    if not (args.parent / "heapbench" / "run.py").is_file():
        parser.error(f"--parent {args.parent}: not a heapbench checkout")
    if not 0 <= args.traced <= len(args.seeds):
        parser.error(f"--traced must lie in 0..{len(args.seeds)}, the number of seeds")
    if git(ROOT, "status", "--porcelain", "--", "src", "heapbench"):
        parser.error("src/ or heapbench/ has uncommitted edits; commit them first")

    runs: dict[str, dict[str, list[dict]]] = {"parent": {}, "change": {}}
    traced: dict[str, dict[str, list[dict]]] = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory() as scratch:
        change = clone_head(ROOT, Path(scratch) / "change")
        sides = [("parent", args.parent.resolve()), ("change", change)]
        states = {side: git_state(checkout) for side, checkout in sides}
        for workload in WORKLOADS:
            for seed, side, checkout in alternating(sides, args.seeds):
                run = run_one(checkout, workload, seed)
                runs[side].setdefault(workload, []).append(run)
                value = run["result"]["metrics"]["ops_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: ops_per_s {value:.4g}",
                      flush=True)
            for seed, side, checkout in alternating(sides, args.seeds[: args.traced]):
                run = run_one(checkout, workload, seed, trace=1)
                traced[side].setdefault(workload, []).append(run)
                print(f"{workload} seed {seed} {side}: traced", flush=True)
        tier1 = {side: run_tier1(checkout) for side, checkout in sides}

    records = {}
    for side in runs:
        first = runs[side][WORKLOADS[0]][0]
        records[side] = {
            "label": f"{args.label}_{side}",
            "checkout": states[side],
            "command": "python3 heapbench/run.py --trace 0",
            "seconds": BENCHMARK["run_seconds"],
            "machine": first["context"]["machine"],
            "workloads": {w: aggregate(r) for w, r in runs[side].items()},
            "tier1": tier1[side],
        }
        if args.traced:
            records[side]["traced_command"] = "python3 heapbench/run.py --trace 1"
            for w, r in traced[side].items():
                records[side]["workloads"][w]["traced"] = aggregate_traced(r)
        path = ROOT / f"BENCH_{args.label}_{side}.json"
        path.write_text(json.dumps(records[side], indent=1) + "\n")
        print(f"wrote {path}")
    print("\n".join(summary(records["parent"], records["change"])))
    print("tier1: " + ", ".join(
        f"{side} {t['passed']} passed, {t['failed']} failed in {t['seconds']} s"
        f" (exit {t['exit_code']})" for side, t in tier1.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
