"""The four workloads of the heappieces benchmark.

Every workload is a fixed job list (one *cycle*) that the harness runs as a
closed loop with one caller: each op starts when the previous one returned.
A workload builds its inputs from the seed, runs one op per job through
`call(span_name, fn, *args)` so that the traced run can put a span around
each call into a library module, and checks every output outside the timed
region.  Each class names the layers it stresses and bypasses.

Layer -> metric -> workload map (per-layer metric: the end-to-end metrics
it should move; the workloads on which it should not move):

    randgen.*                      ops_per_s, op_p50_ms on sample_small and
                                   big_animal; no change on exact
    animals.animal_to/from_json.*  ops_per_s, peak_rss_mb on big_animal;
                                   no change on sample_small, exact
    animals.beta(_inverse), render ops_per_s, op_p50_ms on roundtrip;
                                   no change on big_animal
    heaps.*, series.*, gas.*       ops_per_s, peak_rss_mb on exact;
                                   no change on sample_small, big_animal
    animals.animal_count,
    animals.average_width,
    paths.count_paths              ops_per_s on exact
    cli.import_s, heappieces.import_s
                                   setup_s on every workload

`tiny=True` shrinks every size so that the harness self-test and the traced
run's probes of bypassed layers finish in well under a second.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from scipy.stats import chi2

from heappieces import (
    Animal,
    animal_count,
    animal_from_json,
    animal_to_json,
    average_width,
    beta,
    beta_inverse,
    configurations_series,
    count_paths,
    enumerate_animals,
    enumerate_heaps,
    heaps_series,
    invert,
    mark_celibates,
    mean_particles_direct,
    mean_particles_pyramids,
    project,
    pyramids_series,
    random_animal,
    random_motzkin_prefix,
    render_decomposition,
    series_mul,
)
from heappieces.paths import is_motzkin_prefix
from heappieces.randgen import RandomSource
from heappieces.render import decomposition_flatten
from heappieces.series import unit_series
from heappieces.verify import CHI_SQUARE_PROTOCOLS, graph_suite

CHI_SQUARE_ALPHA = 0.01


class CheckFailed(Exception):
    """An op returned a wrong output."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    """One cycle of jobs plus the op, check and exact counts for each job."""

    name = ""
    stresses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.jobs: list = []

    def pass_state(self, seed: int):
        """Fresh per-pass state; two passes from one seed replay identically."""
        return RandomSource(seed)

    def prepare(self, job):
        """Untimed per-op input construction (default: the job itself)."""
        return job

    def op(self, inp, state, call):
        raise NotImplementedError

    def check(self, job, out):
        """Raise CheckFailed on a wrong output; may return a hashable note."""
        return None

    def counts(self, job, out) -> dict[str, int]:
        """Exact counts of one op; they must replay bit-for-bit per seed."""
        return {}

    def finish(self, notes: Counter) -> list[str]:
        """End-of-pass checks over how often each note occurred; returns failures."""
        return []


class SampleSmall(Workload):
    name = "sample_small"
    stresses = ("randgen",)
    bypasses = ("JSON", "beta_inverse", "heaps", "series", "gas")

    PREFIX_N = 200

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        # class index of every animal per protocol, from the brute-force oracle
        self.classes = []
        for lattice, source, n, count in CHI_SQUARE_PROTOCOLS:
            animals = enumerate_animals(n, lattice, source)
            if len(animals) != count:
                raise RuntimeError(f"{lattice}/{source} n={n}: {len(animals)} classes")
            self.classes.append({an.cell_set(): i for i, an in enumerate(animals)})
        cycle = [("animal", p) for p in range(len(CHI_SQUARE_PROTOCOLS))]
        cycle.append(("prefix", self.PREFIX_N))
        self.jobs = cycle * (5 if tiny else 250)

    def op(self, inp, src, call):
        kind, arg = inp
        if kind == "animal":
            lattice, source, n, _ = CHI_SQUARE_PROTOCOLS[arg]
            return call("randgen.random_animal", random_animal, n, lattice, source, src)
        return call("randgen.random_motzkin_prefix", random_motzkin_prefix, arg, 1, src)

    def check(self, job, out):
        kind, arg = job
        if kind == "prefix":
            expect(len(out.word) == arg, "prefix length")
            expect(is_motzkin_prefix(out.word), "not a Motzkin prefix")
            expect(out.nb_tirages >= arg, "fewer draws than letters")
            return None
        an, report = out
        n = CHI_SQUARE_PROTOCOLS[arg][2]
        an.validate()
        expect(an.size == n, f"size {an.size} != {n}")
        expect(report.nb_tirages >= n - 1, "fewer draws than letters")
        cls = self.classes[arg].get(an.cell_set())
        expect(cls is not None, "animal outside the enumerated class set")
        return arg, cls

    def counts(self, job, out):
        if job[0] == "prefix":
            return {"draws": out.nb_tirages, "letters": job[1]}
        return {"draws": out[1].nb_tirages, "letters": out[0].size - 1}

    def finish(self, notes):
        """Chi-square uniformity per protocol at significance CHI_SQUARE_ALPHA.

        A rejection is confirmed on an independent sample of the same size
        before it fails the run: a uniform sampler is rejected by luck in 1 %
        of tests, and the benchmark is run dozens of times per workload.
        """
        hist = [[0] * len(c) for c in self.classes]
        for (protocol, cls), times in notes.items():
            hist[protocol][cls] += times
        failures = []
        for p, counts in enumerate(hist):
            if sum(counts) < 5 * len(counts):
                continue  # too few samples for the chi-square approximation
            if chi_square_p(counts) >= CHI_SQUARE_ALPHA:
                continue
            lattice, source, n, _ = CHI_SQUARE_PROTOCOLS[p]
            src = RandomSource(self.seed).split(p)
            fresh = [0] * len(counts)
            for _ in range(sum(counts)):
                an, _ = random_animal(n, lattice, source, src)
                cls = self.classes[p].get(an.cell_set())
                if cls is None:
                    break
                fresh[cls] += 1
            p_value = chi_square_p(fresh) if sum(fresh) == sum(counts) else 0.0
            if p_value < CHI_SQUARE_ALPHA:
                failures.append(f"chi-square {lattice}/{source} n={n}: p={p_value:.2e}")
        return failures


def chi_square_p(counts: list[int]) -> float:
    """p-value of Pearson's chi-square test of `counts` against uniform."""
    expected = sum(counts) / len(counts)
    stat = sum((c - expected) ** 2 / expected for c in counts)
    return float(chi2.sf(stat, len(counts) - 1))


class BigAnimal(Workload):
    name = "big_animal"
    stresses = ("randgen", "animals.animal_to_json", "animals.animal_from_json")
    bypasses = ("beta_inverse", "heaps", "series", "gas")

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        # 1e5 cells, not 1e6: a run must hold a dozen cycles of the job list
        self.size = 2_000 if tiny else 100_000
        self.jobs = [("square", "point"), ("triangular", "compact")]

    def op(self, inp, src, call):
        lattice, source = inp
        an, report = call("randgen.random_animal", random_animal, self.size, lattice, source, src)
        text = call("animals.animal_to_json", animal_to_json, an)
        back = call("animals.animal_from_json", animal_from_json, text)
        return an, report, text, back

    def check(self, job, out):
        an, report, _, back = out
        expect(an.size == self.size, f"size {an.size} != {self.size}")
        expect(report.nb_tirages >= self.size - 1, "fewer draws than letters")
        expect(back == an, "parsed animal differs from the original")

    def counts(self, job, out):
        an, report, text, _ = out
        return {"draws": report.nb_tirages, "letters": an.size - 1, "json_bytes": len(text)}


class Roundtrip(Workload):
    name = "roundtrip"
    stresses = ("animals.beta_inverse", "animals.beta", "render")
    bypasses = ("randgen (inputs built in set-up)", "JSON", "heaps", "series", "gas")

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        # many small animals rather than a few large ones: decoding time
        # varies by a factor of four between animals of one size, and a run
        # needs several cycles of the job list
        self.size = 60 if tiny else 200
        src = RandomSource(seed)
        self.jobs = []
        for i in range(4 if tiny else 200):
            lattice = ("square", "triangular")[i % 2]
            an, _ = random_animal(self.size, lattice, "point", src)
            self.jobs.append((lattice, an.cells))

    def prepare(self, job):
        # a fresh Animal per op, so no op finds the cell set cached by another
        lattice, cells = job
        return Animal(lattice, "point", cells)

    def op(self, an, _state, call):
        word = call("animals.beta_inverse", beta_inverse, an)
        back = call("animals.beta", beta, word, an.lattice)
        dump = call("render.render_decomposition", render_decomposition, an)
        return an, word, back, dump

    def check(self, job, out):
        an, word, back, dump = out
        expect(len(word) == self.size - 1, "decoded word length")
        expect(back == an, "beta(beta_inverse(a)) != a")
        expect(
            decomposition_flatten(dump) == mark_celibates(word).letters,
            "decomposition does not flatten to the marked word",
        )


class Exact(Workload):
    name = "exact"
    stresses = ("heaps", "series", "gas", "animals counting", "paths")
    bypasses = ("randgen", "JSON", "beta_inverse")

    def __init__(self, seed: int, tiny: bool):
        # exact jobs have no randomness: the seed is recorded and ignored
        super().__init__(seed, tiny)
        self.graph = dict(graph_suite())["path5"]
        # sized so that a 20 s run holds about eight cycles of the job list
        d = (4, 5, 4, 5, 60, 40) if tiny else (7, 7, 6, 7, 1500, 1000)
        self.heaps_degree, self.series_degree, self.mul_degree = d[:3]
        self.gas_degree, self.count_n, self.paths_n = d[3:]
        g, m = self.graph, self.mul_degree
        self.gamma_bar = configurations_series(g, m, signed=True)
        self.theta = heaps_series(g, m, signed=False)
        self.jobs = [
            "enumerate_heaps",
            "heaps_series",
            "series_mul",
            "invert",
            "gas",
            "animal_count",
            "average_width",
            "count_paths",
        ]
        self._refs: dict[str, object] = {}

    def pass_state(self, seed):
        return None

    def op(self, job, _state, call):
        g = self.graph
        if job == "enumerate_heaps":
            return call("heaps.enumerate_heaps", enumerate_heaps, g, self.heaps_degree)
        if job == "heaps_series":
            return call("series.heaps_series", heaps_series, g, self.series_degree, False)
        if job == "series_mul":
            return call("series.series_mul", series_mul, self.gamma_bar, self.theta)
        if job == "invert":
            return call("series.invert", invert, self.gamma_bar)
        if job == "gas":
            d = self.gas_degree
            return (
                call("gas.mean_particles_direct", mean_particles_direct, g, d),
                call("gas.mean_particles_pyramids", mean_particles_pyramids, g, d),
                call("series.pyramids_series", pyramids_series, g, d, True),
            )
        if job == "animal_count":
            return call("animals.animal_count", animal_count, self.count_n, "square", "point")
        if job == "average_width":
            return call("animals.average_width", average_width, self.count_n, "square")
        if job == "count_paths":
            return call("paths.count_paths", count_paths, self.paths_n, 1, "prefix")
        raise ValueError(job)

    def _ref(self, key: str, compute):
        """Reference values are computed once per run, by independent routes."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _heap_counts(self, degree: int):
        # projection is a monoid morphism: heaps counted by size = 1 / Gamma-bar(t)
        return self._ref(
            f"heaps{degree}",
            lambda: project(configurations_series(self.graph, degree, signed=True)).invert(),
        )

    def check(self, job, out):
        if job == "enumerate_heaps":
            want = sum(self._heap_counts(self.heaps_degree).coefficients)
            expect(len(out) == want, f"{len(out)} heaps, want {want}")
        elif job == "heaps_series":
            expect(project(out) == self._heap_counts(self.series_degree), "heap series counts")
        elif job == "series_mul":
            expect(out == unit_series(self.graph, self.mul_degree), "Gamma-bar * Theta != 1")
        elif job == "invert":
            expect(out == self.theta, "invert(Gamma-bar) != Theta")
        elif job == "gas":
            direct, pyramids, pi_bar = out
            expect(direct == pyramids, "t Z'/Z != alternating pyramid counts")
            expect(project(pi_bar).scale(-1) == pyramids, "pyramid series counts")
        else:
            prefixes = self._ref(
                "prefixes", lambda: count_paths(self.count_n - 1, 1, "prefix")
            )
            if job == "animal_count":
                expect(out == prefixes, "animal_count != count_paths")
            elif job == "average_width":
                want = Fraction(2 * 3 ** (self.count_n - 1), prefixes) - 2
                expect(out == want, "average_width != 2 * 3^(n-1) / a_n - 2")
            else:
                want = self._ref(
                    "paths", lambda: animal_count(self.paths_n + 1, "square", "point")
                )
                expect(out == want, "count_paths != animal_count")

    def counts(self, job, out):
        if job == "enumerate_heaps":
            return {"heaps": len(out)}
        if job == "series_mul":
            return {"pairs": mul_pairs(self.gamma_bar, self.theta)}
        return {}


def mul_pairs(s1, s2) -> int:
    """Key pairs a truncated product visits: sizes summing to <= the degree."""
    by_size: dict[int, int] = {}
    for h in s2.terms:
        by_size[h.size] = by_size.get(h.size, 0) + 1
    return sum(
        k
        for h in s1.terms
        for size, k in by_size.items()
        if h.size + size <= s1.degree
    )


WORKLOADS = {w.name: w for w in (SampleSmall, BigAnimal, Roundtrip, Exact)}
