#!/usr/bin/env python3
"""Time the exact algebra: heapbench's `exact` jobs in process, and a dump.

On the path a-b-c-d-e it prints, in process, the minimum of k runs of each
call that heapbench's `exact` workload times, at that workload's sizes
(heaps and series at degree 7, the product and the inverse at degree 6,
the gas at degree 7, the counts at n = 1500 and the paths at n = 1000),
one row per call, named as heapbench's per-layer metrics, and their sum.
Then it prints the minimum wall time of k runs of

    heappieces series --graph PATH5 --kind theta --degree 8 > FILE

in a fresh interpreter, start-up included.  `--tiny` takes heapbench's
tiny sizes instead, and degree 4 for the dump.  The package it runs is
the one in this checkout's src/.  Standard library only.

`--parent DIR` adds A/B rows for `enumerate_heaps`, the one call whose
output is a list of Heaps: k fresh interpreters on DIR's src/ and k on
this checkout's, alternating which side starts each pair, each printing
the minimum of 30 calls.  The rows give each side's median and range over
its k interpreters, and the pairs this checkout won.

Usage: python scripts/algebra_times.py [--runs K] [--tiny] [--parent DIR]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heappieces import (  # noqa: E402  (after the path to this checkout's src/)
    animal_count,
    average_width,
    build_graph,
    configurations_series,
    count_paths,
    enumerate_heaps,
    format_graph_literal,
    heaps_series,
    invert,
    mean_particles_direct,
    mean_particles_pyramids,
    pyramids_series,
    series_mul,
)

# heapbench's exact sizes: heaps, series, product, gas, count n, paths n
SIZES = {False: (7, 7, 6, 7, 1500, 1000), True: (4, 5, 4, 5, 60, 40)}
DUMP_DEGREE = {False: 8, True: 4}

# one side of the enumerate_heaps A/B: the minimum of `calls` calls, in ms
ENUMERATE_CALLS = 30
ENUMERATE_MIN_MS = """
import sys, time
from heappieces import build_graph, enumerate_heaps
degree, calls = int(sys.argv[1]), int(sys.argv[2])
g = build_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
best = None
for _ in range(calls):
    t0 = time.perf_counter()
    enumerate_heaps(g, degree)
    elapsed = time.perf_counter() - t0
    best = elapsed if best is None else min(best, elapsed)
print(best * 1e3)
"""


def best_of(runs: int, fn) -> float:
    """Minimum seconds of `runs` calls of fn."""
    best = None
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def enumerate_ab(parent: Path, degree: int, runs: int) -> list[tuple[str, str]]:
    """Rows of the enumerate_heaps A/B: `runs` pairs of fresh interpreters,
    the parent's src/ first in the even pairs and this checkout's in the odd."""
    src = {"parent": parent / "src", "this checkout": ROOT / "src"}
    times: dict[str, list[float]] = {side: [] for side in src}
    argv = [sys.executable, "-c", ENUMERATE_MIN_MS, str(degree), str(ENUMERATE_CALLS)]
    for pair in range(runs):
        for side in sorted(src, reverse=pair % 2 == 1):  # "parent" < "this ..."
            env = dict(os.environ, PYTHONPATH=str(src[side]))
            out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            times[side].append(float(out.stdout))
    name = f"`heaps.enumerate_heaps`, {runs} interpreters"
    rows = [
        (f"{name}, {side}", f"{statistics.median(ms):.2f} ms ({min(ms):.2f}-{max(ms):.2f})")
        for side, ms in times.items()
    ]
    wins = sum(c < p for c, p in zip(times["this checkout"], times["parent"]))
    return rows + [(f"{name}, pairs this checkout won", f"{wins} of {runs}")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="k: runs per call")
    parser.add_argument("--tiny", action="store_true", help="heapbench's tiny sizes")
    parser.add_argument("--parent", type=Path, help="parent checkout for the A/B rows")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.parent is not None and not (args.parent / "src" / "heappieces").is_dir():
        parser.error(f"--parent {args.parent} has no src/heappieces")

    g = build_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    heaps_d, series_d, mul_d, gas_d, count_n, paths_n = SIZES[args.tiny]
    gamma_bar = configurations_series(g, mul_d, signed=True)
    theta = heaps_series(g, mul_d, signed=False)
    calls = [
        ("heaps.enumerate_heaps", lambda: enumerate_heaps(g, heaps_d)),
        ("series.heaps_series", lambda: heaps_series(g, series_d, False)),
        ("series.series_mul", lambda: series_mul(gamma_bar, theta)),
        ("series.invert", lambda: invert(gamma_bar)),
        ("gas.mean_particles_direct", lambda: mean_particles_direct(g, gas_d)),
        ("gas.mean_particles_pyramids", lambda: mean_particles_pyramids(g, gas_d)),
        ("series.pyramids_series", lambda: pyramids_series(g, gas_d, True)),
        ("animals.animal_count", lambda: animal_count(count_n, "square", "point")),
        ("animals.average_width", lambda: average_width(count_n, "square")),
        ("paths.count_paths", lambda: count_paths(paths_n, 1, "prefix")),
    ]
    times = [(f"`{name}`", best_of(args.runs, fn) * 1e3) for name, fn in calls]
    times.append(("sum of the above", sum(ms for _, ms in times)))
    rows = [(name, f"{ms:.2f} ms") for name, ms in times]

    degree = DUMP_DEGREE[args.tiny]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "path5.graph"
        graph.write_text(format_graph_literal(g))
        argv_dump = [
            sys.executable, "-m", "heappieces", "series", "--graph", str(graph),
            "--kind", "theta", "--degree", str(degree),
        ]
        with (Path(tmp) / "theta.txt").open("wb") as out:
            def dump() -> None:
                out.seek(0)
                out.truncate()
                subprocess.run(argv_dump, env=env, stdout=out, check=True)

            seconds = best_of(args.runs, dump)
    rows.append((f"`series --kind theta --degree {degree}`", f"{seconds:.2f} s wall"))
    if args.parent is not None:
        rows += enumerate_ab(args.parent, heaps_d, args.runs)

    print(f"path5, min of {args.runs}{', tiny sizes' if args.tiny else ''}")
    print("| call | time |")
    print("|---|---|")
    for name, value in rows:
        print(f"| {name} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
