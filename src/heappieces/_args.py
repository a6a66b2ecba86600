"""The one check of a count argument: an animal's size, a series' degree,
a window's radius, a sampling task's index.

Every public entry that takes a count calls `count_arg` first and works
with what it returns, so a bad count raises before any work or draw.
"""

from __future__ import annotations

import operator


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
