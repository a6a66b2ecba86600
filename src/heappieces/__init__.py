"""Heaps of pieces over commutation graphs, and what they count.

Exact trace series (inversion, logarithmic derivatives, strict/general
substitution), directed lattice animals with their Motzkin-path
bijections, uniform linear-time random generation, and hard-particle gas
observables.

Importing the package loads none of its modules.  Each public name, a
submodule's included, is served from `_MODULES` on first access (PEP 562):
its module is imported then, and the name is kept in this module's
globals.  So a caller pays only for the modules it uses; numpy, which only
the samplers (`randgen`) and the animal validator compute with, loads
only with them.  `from heappieces import *` imports every module.
"""

__version__ = "0.1.0"

# each submodule and the public names it gives the package
_MODULES = {
    "animals": (
        "Animal", "AnimalError", "animal_count", "animal_from_json",
        "animal_to_json", "average_width", "beta", "beta_inverse",
        "compact_animal", "enumerate_animals", "half_width",
    ),
    "gas": (
        "evaluate_density", "linear_density", "mean_particles_direct",
        "mean_particles_pyramids", "partition_function",
    ),
    "graphs": (
        "Coloring", "CommutationGraph", "GraphError", "build_graph",
        "format_graph_literal", "linear_window", "parse_graph_literal",
    ),
    "heaps": (
        "ColoredHeap", "Heap", "HeapError", "colored_layers", "count_pyramids",
        "dual", "empty_heap", "enumerate_heaps", "equivalent", "heap_from_json",
        "heap_of_word", "heap_to_json", "is_strict", "product", "push",
        "pyramid_split", "strict_skeleton",
    ),
    "paths": (
        "PathKind", "StepWord", "WordError", "bicolored_prefix_to_dyck_prefix",
        "bicolored_to_dyck", "catalan_factorize", "classify", "count_paths",
        "mark_celibates",
    ),
    "randgen": (
        "GenerationReport", "RandomSource", "random_animal",
        "random_motzkin_prefix", "random_word",
    ),
    "render": ("RenderOptions", "render_decomposition", "render_svg"),
    "series": (
        "SeriesError", "TraceSeries", "UnivariateSeries", "configurations_series",
        "derive", "heaps_series", "invert", "project", "projected_series",
        "pyramids_series", "series_mul", "strict_heaps_series", "trace_series",
        "univariate_substitute",
    ),
}
# public name -> the submodule that defines it (a submodule names itself)
_SOURCE = {
    name: module for module, names in _MODULES.items() for name in (module, *names)
}
__all__ = sorted(_SOURCE)


def __getattr__(name: str) -> object:
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # not `from . import x`: its hasattr test would call back in here
    mod = import_module(f".{module}", __name__)
    value = globals()[name] = mod if name == module else getattr(mod, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
