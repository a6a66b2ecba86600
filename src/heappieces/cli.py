"""Command-line surface: generate, enumerate, count, series, verify, gas, render.

Every subcommand is a thin adapter over the library with byte-stable
output.  This module imports only the standard library and `_args`, whose
name vocabularies build the parser; each `_cmd_*` imports the modules it
runs once the arguments are parsed, so `--help` and a usage error load no
library module and a command loads only its own.  Exit codes: 0 success,
1 verification failure or a reader that closed stdout early (reported by
no message), 2 usage error.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from ._args import (
    DEGREE_SUITES,
    LATTICES,
    PROJECTED_KINDS,
    SOURCES,
    SUITE_NAMES,
    count_arg,
)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _read_graph(path: str):
    from .graphs import parse_graph_literal

    return parse_graph_literal(Path(path).read_text())


def _cmd_generate(args: argparse.Namespace) -> int:
    # checked here too: with --samples 0 the sampler's own check never runs
    size = count_arg(args.size, 1, "--size")
    from .animals import animal_to_json
    from .randgen import RandomSource, random_animal  # numpy: sampling commands only

    src = RandomSource(args.seed)
    total = 0
    for _ in range(args.samples):
        animal, report = random_animal(size, args.lattice, args.source, src)
        print(animal_to_json(animal))
        total += report.nb_tirages
    print(f"nb_tirages_total={total}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.graph:
        if args.lattice is not None or args.source is not None:
            raise ValueError("--lattice and --source apply to animals, not --graph")
        from .heaps import enumerate_heaps

        g = _read_graph(args.graph)
        for h in enumerate_heaps(g, args.size):
            word = " ".join(g.labels[v] for v in h.canonical_word())
            print(word if word else "1")
        return 0
    from .animals import animal_to_json, enumerate_animals

    lattice, source = args.lattice or "square", args.source or "point"
    for an in enumerate_animals(args.size, lattice, source):
        print(animal_to_json(an))
    return 0


def _text(value: object) -> str:
    """str(value) with ints of any length: a count, or a series of ints.

    CPython caps int/str conversion at 4300 digits by default (3.10.7 and
    later); the cap guards against parsing untrusted text.  A count at
    --size 10000 already has ~4800 digits, and a chain density coefficient
    at --degree 7500 ~4500.  The cap is restored before returning.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return str(value)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_count(args: argparse.Namespace) -> int:
    from .animals import animal_count

    print(_text(animal_count(args.size, args.lattice, args.source)))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.base is not None and args.kind not in ("pi", "pi-bar"):
        raise ValueError(f"--base applies to pi and pi-bar, not {args.kind!r}")
    from .series import dump_trace_series, projected_series, trace_series

    g = _read_graph(args.graph)
    base = g.index(args.base) if args.base is not None else None
    if args.project:  # from stable sets, not from the heaps
        print(_text(projected_series(g, args.kind, args.degree, base)))
    else:
        print(dump_trace_series(trace_series(g, args.kind, args.degree, base)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.degree is not None and args.suite not in ("all", *DEGREE_SUITES):
        raise ValueError(f"suite {args.suite!r} takes no --degree")
    from .verify import run_suites

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, degree=args.degree)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  [{check.detail}]" if check.detail else ""
        print(f"{status} {check.suite}: {check.label}{detail}")
    failed = sum(not c.passed for c in checks)
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_gas(args: argparse.Namespace) -> int:
    if args.at is not None and not args.linear:
        raise ValueError("--at applies to --linear only")
    if args.linear and args.graph:
        raise ValueError("--graph and --linear exclude each other")
    if not args.linear and not args.graph:
        raise ValueError("gas: need --graph FILE or --linear")
    from . import gas as gasmod

    if args.linear:
        # evaluate first so a bad --at leaves no partial output
        density = None if args.at is None else gasmod.evaluate_density(args.at)
        print(f"density_series: {_text(gasmod.linear_density(args.degree))}")
        if density is not None:
            print(f"density({args.at}) = {density:.15f}")
        return 0
    g = _read_graph(args.graph)
    z = gasmod.partition_function(g, args.degree)
    direct = gasmod.mean_particles_direct(g, args.degree)
    pyramids = gasmod.mean_particles_pyramids(g, args.degree)
    print(f"Z: {_text(z)}")
    print(f"mean_direct: {_text(direct)}")
    print(f"mean_pyramids: {_text(pyramids)}")
    ok = direct == pyramids
    print("PASS mean-count identity" if ok else "FAIL mean-count identity")
    return 0 if ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    if args.decomposition and (args.radius is not None or args.rotation is not None):
        raise ValueError("--radius and --rotation apply to SVG, not --decomposition")
    from .animals import animal_from_json
    from .render import RenderOptions, render_decomposition, render_svg

    if args.input:
        text = Path(args.input).read_text()
    else:
        text = sys.stdin.read()
    animals = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("nb_tirages_total="):
            continue
        animals.append(animal_from_json(line))
    if not animals:
        raise ValueError("render: no animal JSON on input")
    given = (("cell_radius", args.radius), ("rotation", args.rotation))
    opts = RenderOptions(**{k: v for k, v in given if v is not None})
    # every page is built before any is written, so an error leaves stdout empty
    if args.decomposition:
        pages = [render_decomposition(animal) for animal in animals]
    else:
        pages = [render_svg(animal, opts) for animal in animals]
    sys.stdout.write("".join(pages))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heappieces",
        description="Heaps of pieces, directed animals, exact trace series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample uniform random animals")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lattice", choices=LATTICES, default="square")
    p.add_argument("--source", choices=SOURCES, default="point")
    p.add_argument("--samples", type=_non_negative_int, default=1)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("enumerate", help="list all animals (or heaps) of a size")
    p.add_argument("--size", type=int, required=True)
    # no argparse defaults: _cmd_enumerate must see whether these were given
    p.add_argument("--lattice", choices=LATTICES)  # default square
    p.add_argument("--source", choices=SOURCES)  # default point
    p.add_argument("--graph", help="graph literal file: enumerate heaps instead")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count", help="closed-form animal counts")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--lattice", choices=LATTICES, default="square")
    p.add_argument("--source", choices=(*SOURCES, "equerre"), default="point")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("series", help="dump a trace series over a graph")
    p.add_argument("--graph", required=True, help="graph literal file")
    p.add_argument("--kind", choices=sorted(PROJECTED_KINDS), required=True)
    p.add_argument("--degree", type=_non_negative_int, required=True)
    p.add_argument("--base", help="base vertex label for pyramid series")
    p.add_argument("--project", action="store_true", help="print the t-projection")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=["all", *sorted(SUITE_NAMES)], default="all")
    p.add_argument("--degree", type=_non_negative_int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gas", help="partition function and mean particle count")
    p.add_argument("--graph", help="graph literal file")
    p.add_argument("--linear", action="store_true", help="infinite chain closed form")
    p.add_argument("--degree", type=_non_negative_int, required=True)
    p.add_argument(
        "--at", type=_finite_float, default=None, help="evaluate density at t"
    )
    p.set_defaults(fn=_cmd_gas)

    p = sub.add_parser("render", help="render animal JSON to SVG or text")
    p.add_argument("--input", help="file of animal JSON lines (default stdin)")
    # no argparse defaults: _cmd_render must see whether these were given
    p.add_argument("--radius", type=_finite_float)
    p.add_argument("--rotation", choices=("heap", "lattice"))
    p.add_argument(
        "--decomposition", action="store_true", help="dump the equerre decomposition"
    )
    p.set_defaults(fn=_cmd_render)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: stop quietly, and point stdout at the null
        # device so that the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
