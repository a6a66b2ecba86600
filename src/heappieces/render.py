"""Non-interactive rendering: SVG disks and the equerre decomposition dump.

The SVG emitter draws one filled disk per cell.  In `heap` rotation the
picture uses raw (fiber, height) coordinates; in `lattice` rotation the
cells are mapped to ((x+y)/2, (y-x)/2), which turns the directed supports
into East/North steps (plus North-East on the triangular lattice) - the
usual axis-aligned picture of a directed animal.  Height grows upward in
both modes.  Output bytes are deterministic: fixed-precision coordinates,
no timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .animals import Animal, AnimalError, _decode


@dataclass(frozen=True)
class RenderOptions:
    cell_radius: float = 0.4
    rotation: str = "lattice"  # "heap" | "lattice"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cell_radius) and self.cell_radius > 0):
            raise ValueError("cell_radius must be finite and > 0")
        if self.rotation not in ("heap", "lattice"):
            raise ValueError(f"unknown rotation {self.rotation!r}")


def render_svg(an: Animal, opts: RenderOptions = RenderOptions()) -> str:
    """SVG 1.1 document with one disk per cell; y flipped so height points up."""
    pts = an.lattice_cells() if opts.rotation == "lattice" else an.cells
    rad = opts.cell_radius
    pad = rad + 0.6
    xs = [p for p, _ in pts]
    ys = [q for _, q in pts]
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width = x1 - x0
    height = y1 - y0
    scale = 20.0
    if not (math.isfinite(width * scale) and math.isfinite(height * scale)):
        raise ValueError(f"cell_radius {rad} makes the picture size overflow")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width * scale:.3f}" height="{height * scale:.3f}" '
        f'viewBox="0 0 {width:.3f} {height:.3f}">',
    ]
    # y flipped: larger height = higher on the page
    circle = '<circle cx="%%.3f" cy="%%.3f" r="%.3f" fill="black"/>' % rad
    lines += [circle % (x - x0, y1 - y) for x, y in pts]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_decomposition(an: Animal) -> str:
    """Equerre decomposition as indented text, one equerre per line.

    Line k holds the k-th equerre of the main stacking loop: its letters
    (Motzkin factor plus the separator that closed it), indented by the
    equerre's base fiber.  Stripping indentation and concatenating the
    lines gives back the celibate-marked word of beta_inverse; the k-th
    equerre's base is fiber k, as each celibate ascent `A` moves it one
    fiber right (a Motzkin prefix has no celibate descent).
    """
    if an.source != "point":
        raise AnimalError("decomposition dump is defined for point sources only")
    chains = _decode(an).replace("A", "A\n").split("\n")
    return "".join("  " * k + chain + "\n" for k, chain in enumerate(chains))


def decomposition_flatten(dump: str) -> str:
    """Concatenated letters of a decomposition dump (inverse of the layout)."""
    return "".join(line.strip() for line in dump.splitlines())
