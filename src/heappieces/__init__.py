"""Heaps of pieces over commutation graphs, and what they count.

Exact trace series (inversion, logarithmic derivatives, strict/general
substitution), directed lattice animals with their Motzkin-path
bijections, uniform linear-time random generation, and hard-particle gas
observables.
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
    empirical_width,
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
from .randgen import (
    GenerationReport,
    RandomSource,
    random_animal,
    random_motzkin_prefix,
    random_word,
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
