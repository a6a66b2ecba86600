"""Heaps of pieces over commutation graphs, and what they count.

Exact trace series (inversion, logarithmic derivatives, strict/general
substitution), directed lattice animals with their Motzkin-path
bijections, uniform linear-time random generation, and hard-particle gas
observables.

Only the samplers and the animal validator compute with numpy, and only
they load it: the sampler names (`GenerationReport`, `RandomSource`,
`random_animal`, `random_motzkin_prefix`, `random_word`) and the `randgen`
module load on first use, so importing the package, or running the exact
algebra and counts, never imports numpy.
"""

from .animals import (
    Animal,
    AnimalError,
    animal_count,
    animal_from_json,
    animal_to_json,
    average_width,
    beta,
    beta_inverse,
    compact_animal,
    enumerate_animals,
    half_width,
)
from .gas import (
    evaluate_density,
    linear_density,
    mean_particles_direct,
    mean_particles_pyramids,
    partition_function,
)
from .graphs import (
    Coloring,
    CommutationGraph,
    GraphError,
    build_graph,
    format_graph_literal,
    linear_window,
    parse_graph_literal,
)
from .heaps import (
    ColoredHeap,
    Heap,
    HeapError,
    colored_layers,
    count_pyramids,
    dual,
    empty_heap,
    enumerate_heaps,
    equivalent,
    heap_from_json,
    heap_of_word,
    heap_to_json,
    is_strict,
    product,
    push,
    pyramid_split,
    strict_skeleton,
)
from .paths import (
    PathKind,
    StepWord,
    WordError,
    bicolored_prefix_to_dyck_prefix,
    bicolored_to_dyck,
    catalan_factorize,
    classify,
    count_paths,
    mark_celibates,
)
from .render import RenderOptions, render_decomposition, render_svg
from .series import (
    SeriesError,
    TraceSeries,
    UnivariateSeries,
    configurations_series,
    derive,
    heaps_series,
    invert,
    project,
    projected_series,
    pyramids_series,
    series_mul,
    strict_heaps_series,
    trace_series,
    univariate_substitute,
)

__version__ = "0.1.0"

# served by __getattr__, which imports randgen (and numpy) on first use
_SAMPLER = frozenset(
    {
        "randgen",
        "GenerationReport",
        "RandomSource",
        "random_animal",
        "random_motzkin_prefix",
        "random_word",
    }
)
# what `import *` bound when randgen was imported here: every public name,
# the submodules included
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _SAMPLER)


def __getattr__(name: str) -> object:
    if name not in _SAMPLER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # not `from . import randgen`: its hasattr test would call back in here
    randgen = import_module(".randgen", __name__)
    value = globals()[name] = randgen if name == "randgen" else getattr(randgen, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SAMPLER)
