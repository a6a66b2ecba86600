"""What the arguments of the library and the CLI may be: the one check of
a count argument (an animal's size, a series' degree, a window's radius, a
sampling task's index) and the names a lattice, a source, a series kind
or a suite may take.

Every public entry that takes a count calls `count_arg` first and works
with what it returns, so a bad count raises before any work or draw.  The
name vocabularies live here, defined once, so that the CLI can build its
parser without loading the modules that use them; `animals`, `series` and
`verify` re-export them.  This module imports nothing from the package.
"""

from __future__ import annotations

import operator

LATTICES = ("square", "triangular")
SOURCES = ("point", "compact")
PROJECTED_KINDS = (
    "gamma", "gamma-bar", "theta", "theta-bar", "theta-strict", "pi", "pi-bar"
)
# the verification suites, in the order `verify --suite all` runs them
SUITE_NAMES = (
    "inversion", "derivative", "micro", "counting", "bijection", "substitution",
    "gas", "density", "colored", "sampling", "cost", "scale",
)
# suites called with the degree (the bijection's maximal word length) as
# their first positional argument when one is given
DEGREE_SUITES = frozenset(
    {"inversion", "derivative", "gas", "substitution", "density", "bijection"}
)


def count_arg(value: int, least: int, name: str) -> int:
    """`value` as a plain int >= `least`.

    A bool, or anything `operator.index` refuses (2.0, 2.5, "3"), raises
    TypeError; numpy integers pass.  A value below `least` raises
    ValueError.
    """
    if type(value) is bool or not hasattr(value, "__index__"):  # index(True) is 1
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value
