"""String regularities from raw and distance-sampled representations.

Periods, border chains, and shortest covers of byte strings, computed both
with classical border arrays and from a pivot-distance-sampled view, with
brute-force oracles for differential testing and a timing harness.
"""

from .cds import (
    CdsBorderResult,
    border_cds,
    borders_cds,
    occurrences_via_cds,
    period_cds,
    shortest_cover_cds,
)
from .classical import (
    BorderArray,
    BorderChain,
    border_array,
    border_chain,
    is_covering,
    naive_period,
    naive_shortest_cover,
    occurrences,
    period_classical,
    shortest_cover_classical,
)
from .sampling import CdsView, SamplingStats, build_cds, sampling_stats
from .text import EmptyInputError, GenSpec, Text, gen_text, load_text

__version__ = "0.1.0"

__all__ = [
    "BorderArray",
    "BorderChain",
    "CdsBorderResult",
    "CdsView",
    "EmptyInputError",
    "GenSpec",
    "SamplingStats",
    "Text",
    "border_array",
    "border_cds",
    "border_chain",
    "borders_cds",
    "build_cds",
    "gen_text",
    "is_covering",
    "load_text",
    "naive_period",
    "naive_shortest_cover",
    "occurrences",
    "occurrences_via_cds",
    "period_classical",
    "period_cds",
    "sampling_stats",
    "shortest_cover_classical",
    "shortest_cover_cds",
]
