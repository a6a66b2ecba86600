"""Benchmark of the heappieces library: one process, a closed loop, one caller.

Run from the repository root:

    python3 heapbench/run.py --workload sample_small --seed 1 --seconds 20 --trace 0

Each op starts when the previous one returned; there are no threads or
pools.  Set-up (cold imports in fresh interpreters, input building, one
untimed warm-up op) is measured as `setup_s`.  Every op's output is checked
outside its timed region and then released; a full garbage collection
follows every op, or every 0.1 s when ops are shorter than that.

The speed of a shared virtual machine drifts by up to 1.7x over tens of
seconds, and most code slows by about as much.  So the harness times a fixed pure-Python
reference job (`reference_s`) every half second of a pass, and reports the
pass's times scaled to the nominal speed at which that job takes
NOMINAL_REFERENCE_S: a time t measured while the job took r reads
t * NOMINAL_REFERENCE_S / r.  The raw figures and the slowdown
r / NOMINAL_REFERENCE_S are printed too.  Set-up and import times are not
scaled: the cold imports run in child processes and do not follow the
reference job.

`--trace 0` runs one untraced pass for `--seconds` and reports the
end-to-end metrics.  `--trace 1` runs an untraced pass for half the time,
then a traced pass over the same ops from the same seed; the exact counts of
the two passes must agree (seeded replay), and the traced pass gives the
per-layer metrics.  Layers that the workload bypasses are measured by one
traced cycle of each other workload at tiny sizes, and the context line
lists them under "probed".

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The lines before it print every metric by name with
its unit, plus `op_p99_ms` (only with at least 1000 ops) and `fail_ratio`.
Results, machine facts and the spans go to `.bench_out/` in the repository.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# metric name -> unit, as BENCHMARK.json declares them
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
IMPORT_REPEATS = 3
# the reference job's time on the 2-core Intel Xeon virtual machine on which
# the benchmark was defined; any constant works, as long as it stays fixed
NOMINAL_REFERENCE_S = 0.006
REFERENCE_EVERY_S = 0.5
# A full collection costs ~0.4 ms and evicts the caches, so ops shorter than
# this share one; every longer op is followed by its own.
COLLECT_EVERY_S = 0.1


def cold_import_s(module: str) -> float:
    """Seconds to import `module` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        f"t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _reference_job() -> None:
    # hashing, small-object allocation, Fraction arithmetic and sorting: its
    # slowdown follows the workloads' more closely than plain arithmetic does
    table = {(i, i ^ 5): frozenset((i, i + 1, i * 3)) for i in range(4000)}
    sum(len(v) + k[0] for k, v in table.items())
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i * 7919 % 1000003, i)
    groups: dict[int, list] = {}
    for i in sorted(range(5000), key=lambda i: i * 7919 % 10007):
        groups.setdefault(i % 97, []).append((i, -i))


def reference_s() -> float:
    """Median of three timings of a fixed job that never touches the library."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_job()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slowdown(samples: list[float]) -> float:
    """How much slower than nominal the machine ran while `samples` were taken."""
    return statistics.median(samples) / NOMINAL_REFERENCE_S


@dataclass
class PassResult:
    cycles: list[array] = field(default_factory=list)  # op latencies, s
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)  # first cycle only
    notes: Counter = field(default_factory=Counter)  # check notes by frequency
    note_digest: int = 0  # fingerprint of the notes in order, for replay
    speed_samples: list[list[float]] = field(default_factory=list)  # per cycle

    @property
    def ops(self) -> int:
        return sum(len(c) for c in self.cycles)

    def slowdowns(self) -> list[float]:
        """Per cycle, from the samples taken while it ran and the next one."""
        return [slowdown(s) for s in self.speed_samples]

    def scaled_cycles(self) -> list[list[float]]:
        return [[t / f for t in c] for c, f in zip(self.cycles, self.slowdowns())]

    def scaled_busy_s(self) -> float:
        return sum(map(sum, self.scaled_cycles()))


def run_pass(wl, tracer, seconds: float | None = None, cycles: int | None = None) -> PassResult:
    """Whole cycles of the job list: exactly `cycles`, or at least one and as
    many as fit in `seconds` of wall time, judged by the last cycle's length."""
    res = PassResult()
    state = wl.pass_state(wl.seed)
    op_name = f"op.{wl.name}"
    start = last_collect = last_sample = time.perf_counter()
    unsampled: list[list[float]] = []  # sample lists of cycles awaiting one
    while True:
        cycle_start = time.perf_counter()
        latencies = array("d")
        samples: list[float] = []
        res.speed_samples.append(samples)
        unsampled.append(samples)
        for job in wl.jobs:
            inp = wl.prepare(job)
            out = None
            t0 = time.perf_counter()
            try:
                out = tracer.op(op_name, wl.op, inp, state, tracer.call)
            except Exception:
                res.failed += 1
                print(f"op {job!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            finally:
                latencies.append(time.perf_counter() - t0)
            if out is not None:
                try:
                    note = wl.check(job, out)
                    if note is not None:
                        res.notes[note] += 1
                        res.note_digest = hash((res.note_digest, note))
                    if not res.cycles:
                        for key, value in wl.counts(job, out).items():
                            res.counts[key] = res.counts.get(key, 0) + value
                except Exception as exc:
                    res.failed += 1
                    print(f"op {job!r} failed its check: {exc!r}", file=sys.stderr)
            del inp, out
            now = time.perf_counter()
            if now - last_collect > COLLECT_EVERY_S:
                gc.collect()
                last_collect = now = time.perf_counter()
            if now - last_sample > REFERENCE_EVERY_S:
                sample = reference_s()
                for waiting in unsampled:
                    waiting.append(sample)
                unsampled = [samples]
                last_sample = time.perf_counter()
        res.cycles.append(latencies)
        now = time.perf_counter()
        if cycles is not None:
            if len(res.cycles) >= cycles:
                break
        elif now - start + (now - cycle_start) > seconds:
            break
    sample = reference_s()
    for waiting in unsampled:
        waiting.append(sample)
    return res


def layer_counts(counts: dict[str, int]) -> dict[str, float]:
    out: dict[str, float] = {}
    if counts.get("letters"):
        out["randgen.draws_per_letter"] = counts["draws"] / counts["letters"]
    if "json_bytes" in counts:
        out["animals.animal_to_json.bytes"] = counts["json_bytes"]
    if "heaps" in counts:
        out["heaps.enumerate_heaps.count"] = counts["heaps"]
    if "pairs" in counts:
        out["series.series_mul.pairs"] = counts["pairs"]
    return out


def traced_layers(tracer, slow: float) -> dict[str, float]:
    ms = tracer.median_self_ms()
    return {f"{name}.ms": t / slow for name, t in ms.items() if f"{name}.ms" in PER_LAYER_UNITS}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def set_up(cls, seed: int, tiny: bool, import_repeats: int):
    """What every CLI call pays, the inputs, one warm-up op.

    Returns the workload, `setup_s`, the cold import times and any failure.
    """
    cli_imports = [cold_import_s("heappieces.cli") for _ in range(import_repeats)]
    builds = []
    for _ in range(import_repeats):
        t0 = time.perf_counter()
        wl = cls(seed, tiny)
        builds.append(time.perf_counter() - t0)
    warm_state = wl.pass_state(seed + 2**32)  # a stream the passes never use
    warm_input = wl.prepare(wl.jobs[0])
    t0 = time.perf_counter()
    warm_out = wl.op(warm_input, warm_state, tracing.NullTracer().call)
    warm_s = time.perf_counter() - t0
    failures = []
    try:
        wl.check(wl.jobs[0], warm_out)
    except Exception as exc:
        failures.append(f"warm-up op failed its check: {exc!r}")
    setup_s = statistics.median(cli_imports) + statistics.median(builds) + warm_s
    return wl, setup_s, cli_imports, failures


def end_to_end(wl, first: PassResult, setup_s: float, peak_rss_mb: float):
    """End-to-end metrics of an untraced pass, and the report lines."""

    # each job's median over the cycles resists short slow spells
    def job_medians(cycles):
        return [statistics.median(times) for times in zip(*cycles)]

    def throughput(cycles):
        return len(wl.jobs) / sum(job_medians(cycles))

    def p50_ms(cycles):
        return statistics.median(job_medians(cycles)) * 1e3

    scaled = first.scaled_cycles()
    metrics = {
        "ops_per_s": throughput(scaled),
        "op_p50_ms": p50_ms(scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    lines = [
        f"raw ops_per_s {throughput(first.cycles)!r} 1/s",
        f"raw op_p50_ms {p50_ms(first.cycles)!r} ms",
    ]
    if first.ops >= 1000:
        p99 = statistics.quantiles(itertools.chain(*scaled), n=100)[98] * 1e3
        lines.append(f"op_p99_ms {p99!r} ms (n={first.ops} ops)")
    return metrics, lines


def per_layer(name, table, seed, first, second, tracer, cli_imports, import_repeats):
    """Per-layer metrics of a traced pass, plus probes of the bypassed layers.

    Returns the metrics, the tracers by label, the probed names and failures.
    """
    failures = []
    if (second.counts, second.note_digest) != (first.counts, first.note_digest):
        failures.append(f"seeded replay differs: {first.counts} vs {second.counts}")
    traced_slow = statistics.median(second.slowdowns())
    metrics = {**traced_layers(tracer, traced_slow), **layer_counts(second.counts)}
    metrics["trace.overhead_ratio"] = second.scaled_busy_s() / first.scaled_busy_s()
    metrics["cli.import_s"] = statistics.median(cli_imports)
    metrics["heappieces.import_s"] = statistics.median(
        cold_import_s("heappieces") for _ in range(import_repeats)
    )
    tracers = {"traced": tracer}
    probed = []
    for other_name, other_cls in table.items():
        if other_name == name:
            continue
        probe = tracing.Tracer()
        got = run_pass(other_cls(seed, True), probe, cycles=1)
        if got.failed:
            failures.append(f"probe {other_name} had {got.failed} failed ops")
        tracers[f"probe:{other_name}"] = probe
        found = traced_layers(probe, statistics.median(got.slowdowns()))
        for key, value in {**found, **layer_counts(got.counts)}.items():
            if key not in metrics:
                metrics[key] = value
                probed.append(key)
    return metrics, tracers, probed, failures


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    out_dir: Path = OUT_DIR,
    import_repeats: int = IMPORT_REPEATS,
    workloads_by_name: dict | None = None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines.

    The library must be importable: `main` puts the checkout's `src` first.
    """
    import workloads

    table = workloads_by_name or workloads.WORKLOADS
    wl, setup_s, cli_imports, failures = set_up(table[name], seed, tiny, import_repeats)
    gc.collect()
    gc.freeze()  # set-up objects stay out of the per-op collections
    try:
        first = run_pass(wl, tracing.NullTracer(), seconds=seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = [first]
        failures += wl.finish(first.notes)
        lines = [f"slowdown {statistics.median(first.slowdowns())!r} (median over cycles)"]
        if trace:
            tracer = tracing.Tracer()
            second = run_pass(wl, tracer, cycles=len(first.cycles))
            passes.append(second)
            metrics, tracers, probed, more = per_layer(
                name, table, seed, first, second, tracer, cli_imports, import_repeats
            )
            failures += more
            units = PER_LAYER_UNITS
        else:
            metrics, more = end_to_end(wl, first, setup_s, peak_rss_mb)
            lines += more
            tracers, probed = {}, []
            units = END_TO_END_UNITS
    finally:
        gc.unfreeze()

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    context = {
        "workload": name,
        "why": next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == name),
        "stresses": wl.stresses,
        "bypasses": wl.bypasses,
        "loop": "closed, 1 caller",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops_per_cycle": len(wl.jobs),
        "cycles": [len(p.cycles) for p in passes],
        "probed": probed,
        "machine": machine_facts(),
    }
    lines = (
        [f"context {json.dumps(context)}"]
        + [f"{k} {metrics[k]!r} {units[k]}" for k in units]
        + lines
        + [f"fail_ratio {failed / attempted!r} ratio ({failed}/{attempted} ops)"]
        + [f"failure: {f}" for f in failures]
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "context": context, "report": lines}, fh, indent=1)
    if tracers:
        spans = out_dir / f"{stem}_spans.jsonl"
        spans.unlink(missing_ok=True)
        for label, t in tracers.items():
            t.write(spans, label)
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "heappieces" / "__init__.py").is_file():
        print(f"heapbench: no heappieces package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
