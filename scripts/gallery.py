#!/usr/bin/env python3
"""Generate a small gallery of random animals as SVG files.

Writes one SVG per (lattice, source, size) combination plus the equerre
decomposition dump for every point-source one.  Sampling, drawing and the
decomposition all run in linear time, so large sizes stay fast; the
drawings get satisfyingly stringy.

Usage: python scripts/gallery.py [--out DIR] [--seed N] [--large N]
"""

import argparse
from pathlib import Path

from heappieces import (
    RandomSource,
    RenderOptions,
    random_animal,
    render_decomposition,
    render_svg,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="gallery", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--large", type=int, default=5000, help="large animal size")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    src = RandomSource(args.seed)

    jobs = [
        ("square", "point", 30),
        ("triangular", "point", 30),
        ("square", "compact", 30),
        ("square", "point", args.large),
        ("square", "compact", args.large),
    ]
    for lattice, source, size in jobs:
        animal, report = random_animal(size, lattice, source, src)
        stem = f"{lattice}_{source}_{size}"
        (out / f"{stem}.svg").write_text(render_svg(animal, RenderOptions()))
        if source == "point":
            (out / f"{stem}.txt").write_text(render_decomposition(animal))
        print(f"{stem}: {animal.size} cells, {report.nb_tirages} draws")


if __name__ == "__main__":
    main()
