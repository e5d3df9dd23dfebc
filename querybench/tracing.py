"""Spans around the calls into strreg's modules, recorded from outside.

The program is not changed: while a :class:`Tracer` is installed, the public
functions that one module calls in another are replaced, in the calling
module's namespace, by wrappers that record one span per call. A span holds
its name, start, end, parent span and query id. Spans stay in memory until
the run writes them out.

Layer self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from types import ModuleType

from strreg import cds, classical, cli

# (namespace the call is looked up in, attribute, span name). The distance
# border array is classical.border_array applied by cds to the distances.
PATCHES = (
    (cli, "load_text", "text.load_text"),
    (cli, "build_cds", "sampling.build_cds"),
    (cli, "period_classical", "classical.period_classical"),
    (cli, "border_chain", "classical.border_chain"),
    (cli, "shortest_cover_classical", "classical.shortest_cover_classical"),
    (cli, "period_cds", "cds.period_cds"),
    (cli, "borders_cds", "cds.borders_cds"),
    (cli, "shortest_cover_cds", "cds.shortest_cover_cds"),
    (classical, "border_array", "classical.border_array"),
    (classical, "border_chain", "classical.border_chain"),
    (classical, "occurrences", "classical.occurrences"),
    (classical, "is_covering", "classical.is_covering"),
    (cds, "border_array", "cds.dist_border_array"),
    (cds, "border_cds", "cds.border_cds"),
    (cds, "borders_cds", "cds.borders_cds"),
    (cds, "occurrences_via_cds", "cds.occurrences_via_cds"),
    (cds, "is_covering", "cds.is_covering"),
)

# Span name -> layer metric it feeds. ``cds.walk`` is the border walk of the
# period route (border_cds less the distance border array); ``*.entry`` is
# the self time of the route's top-level query function.
LAYER_OF_SPAN = {
    "text.load_text": "text.load_text",
    "sampling.build_cds": "sampling.build_cds",
    "cds.dist_border_array": "cds.dist_border_array",
    "cds.border_cds": "cds.walk",
    "cds.borders_cds": "cds.borders_cds",
    "cds.occurrences_via_cds": "cds.occurrences",
    "cds.is_covering": "cds.cover_test",
    "cds.period_cds": "cds.entry",
    "cds.shortest_cover_cds": "cds.entry",
    "classical.border_array": "classical.border_array",
    "classical.border_chain": "classical.chain",
    "classical.occurrences": "classical.occurrences",
    "classical.is_covering": "classical.cover_test",
    "classical.period_classical": "classical.entry",
    "classical.shortest_cover_classical": "classical.entry",
}
CLI_SELF = "cli.self"


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, query id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.query_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query_id)

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_self_ns(spans, query_ns: dict[int, int]) -> dict[int, dict[str, int]]:
    """Per query id, the self time of each layer, ``cli.self`` included.

    ``query_ns`` maps each query id to its wall time around ``cli.main``;
    ``cli.self`` is that time less the query's top-level spans.
    """
    child_ns = defaultdict(int)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    per_query: dict[int, dict[str, int]] = {q: defaultdict(int) for q in query_ns}
    for i, (name, start, end, parent, qid) in enumerate(spans):
        layers = per_query[qid]
        layers[LAYER_OF_SPAN[name]] += end - start - child_ns[i]
        if parent < 0:
            layers[CLI_SELF] -= end - start
    for qid, wall in query_ns.items():
        per_query[qid][CLI_SELF] += wall
    return per_query
