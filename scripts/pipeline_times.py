#!/usr/bin/env python3
"""Time the CLI's big-animal pipeline: generate an animal, then render it.

For one size and seed (square lattice, point source) it times, as wall
time of a fresh interpreter with start-up included, the minimum of k runs of

    heappieces generate --size N --seed S > FILE
    heappieces render --decomposition --input FILE
    heappieces render --input FILE

and then, in one more interpreter, the minimum of k in-process calls of
`animal_from_json` on FILE's animal line and of `render_decomposition` and
`render_svg` on the animal it returns.  It prints the Markdown table of
these six times.  The package it runs is the one in this checkout's src/.
Standard library only.

Usage: python scripts/pipeline_times.py [--size N] [--seed S] [--runs K]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IN_PROCESS = """
import json, sys, time
from heappieces import animal_from_json, render_decomposition, render_svg

path, runs = sys.argv[1], int(sys.argv[2])
with open(path) as f:
    line = f.readline()
times = {}
for name, fn in (
    ("animal_from_json", lambda: animal_from_json(line)),
    ("render_decomposition", lambda: render_decomposition(animal)),
    ("render_svg", lambda: render_svg(animal)),
):
    best = None
    for _ in range(runs):
        out = None  # the last call's result is freed before the next one
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    if name == "animal_from_json":
        animal = out
    times[name] = best
print(json.dumps(times))
"""


def wall_s(argv: list[str], env: dict[str, str], runs: int, stdout=None) -> float:
    """Minimum wall time of `runs` runs of argv; each must exit 0."""
    best = None
    for _ in range(runs):
        if stdout is not None:
            stdout.seek(0)
            stdout.truncate()
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=stdout or subprocess.DEVNULL, check=True)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3, help="k: runs per step")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "heappieces"]
    gen = f"generate --size {args.size} --seed {args.seed}"
    rows = []  # (step, seconds, unit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "animal.jsonl"
        with path.open("w+b") as out:
            seconds = wall_s(cli + gen.split(), env, args.runs, out)
        rows.append((f"`{gen}`", seconds, "s wall"))
        for render in ("render --decomposition", "render"):
            argv_render = cli + render.split() + ["--input", str(path)]
            seconds = wall_s(argv_render, env, args.runs)
            rows.append((f"`{render}`", seconds, "s wall"))
        proc = subprocess.run(
            [sys.executable, "-c", IN_PROCESS, str(path), str(args.runs)],
            env=env, capture_output=True, text=True, check=True,
        )
    for name, seconds in json.loads(proc.stdout).items():
        rows.append((f"`{name}` (in process)", seconds, "s"))

    print(f"seed {args.seed}, square/point, size {args.size}, min of {args.runs}")
    print("| step | time |")
    print("|---|---|")
    for step, seconds, unit in rows:
        print(f"| {step} | {seconds:.2f} {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
