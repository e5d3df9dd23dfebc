"""Regularity queries answered from the distance-sampled view.

The central routine walks the border chain of the distance sequence from
longest to shortest. Each surviving index yields one candidate border of the
text; a candidate whose distance entry does not clear the pivot-free tail is
skipped outright (a pivot would intrude where the suffix has none), and the
rest are confirmed with a direct prefix/suffix comparison. On a binary
alphabet the comparison is redundant -- two symbols leave no freedom outside
the pivot layout -- so it is skipped.

A failed comparison moves on to the next shorter candidate rather than giving
up; candidates shrink strictly along the walk, so the first confirmed one is
the longest border.

Comparisons cost up to the candidate's length each, and on periodic text
with a defect the walk confirms a long run of failing candidates. Each query
therefore has a budget of ``_BUDGET_PER_BYTE * m`` bytes compared, shared
along the border chain; a query that would overspend it is answered by the
classical border array instead, which bounds every query by a constant
factor of the classical route.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

# is_covering is not called here; it stays a name of this module because the
# traced benchmark (querybench/tracing.py) looks it up here.
from .classical import BorderChain, border_array, border_chain, covers, period_classical
from .classical import is_covering  # noqa: F401
from .sampling import CdsView
from .text import Text

# Bytes a query may compare in character checks, per byte of text.
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


def _longest_border(
    x: Text,
    positions: list[int],
    distances: list[int],
    dist_border: list[int],
    n: int,
    t: int,
    k: int,
    check_chars: bool,
    budget: int,
) -> tuple[CdsBorderResult, int] | None:
    """Longest border of x[:n], whose view holds t pivots and tail gap k.

    ``positions``, ``distances`` and ``dist_border`` belong to the full
    text; entries up to index t-1 are exactly those of the prefix, so the
    arrays are shared across prefix subjects. A character check of a
    length-b candidate spends b bytes of ``budget``. Returns the border and
    the budget left, or None when the next check would overspend it.
    """
    m_bar = t - 1
    if m_bar < 1:
        # A border would repeat the pivot somewhere past position 0.
        return CdsBorderResult(0, -1), budget
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
                return None
            budget -= b
            if not _borders_match(x, n, b):
                i = dist_border[i]
                continue
        return CdsBorderResult(b, i), budget
    return CdsBorderResult(0, -1), budget


def _require_match(v: CdsView, x: Text) -> None:
    # The caller normally passes the very object the view was built from.
    if x is not v.text and x != v.text:
        raise ValueError(
            f"view was built for another text (length {v.m}, given length {len(x)})"
        )


def border_cds(v: CdsView, x: Text, check_chars: bool | None = None) -> CdsBorderResult:
    """Longest border of ``x`` plus the distance-border length that produced it.

    With ``check_chars=None`` candidates are verified character-wise unless
    the text is binary; pass True or False to force either mode (forcing
    False is only sound on binary texts). A walk that runs out of budget is
    answered from the classical border array, with the same result.
    """
    _require_match(v, x)
    if v.m_bar < 1:
        return CdsBorderResult(0, -1)
    if check_chars is None:
        check_chars = not _is_binary(x)
    dist_border = border_array(v.distances)
    found = _longest_border(
        x, v.positions, v.distances, dist_border, v.m, len(v.positions), v.k,
        check_chars, _BUDGET_PER_BYTE * v.m,
    )
    # Released before the fallback builds the text's own border array.
    del dist_border
    if found is None:
        b = v.m - period_classical(x)
        # The suffix copy of a border starts at pivot index m_bar - i_bar. With
        # no border the search runs past the last pivot, which gives -1.
        return CdsBorderResult(b, v.m_bar - bisect_left(v.positions, v.m - b))
    return found[0]


def period_cds(v: CdsView, x: Text) -> int:
    """Smallest period of ``x``, from the sampled view."""
    _require_match(v, x)
    return v.m - border_cds(v, x).b


def borders_cds(v: CdsView, x: Text) -> BorderChain:
    """Non-periodic border chain of ``x`` from the sampled view.

    Matches the classical chain element for element: each step takes the
    longest border of the current prefix subject, applies the periodicity
    reduction when it exceeds half the subject, and recurses into that
    prefix. The view of each shorter prefix is obtained by locating the cut
    in the pivot positions, not by resampling. One budget covers the whole
    chain; when it runs out the chain comes from the classical route.
    """
    _require_match(v, x)
    positions, distances = v.positions, v.distances
    if not distances:
        return []
    dist_border = border_array(distances)
    check_chars = not _is_binary(x)
    budget = _BUDGET_PER_BYTE * v.m
    chain: BorderChain = []
    n = v.m
    t = len(positions)
    while t > 1:
        k = n - 1 - positions[t - 1]
        found = _longest_border(x, positions, distances, dist_border, n, t, k, check_chars, budget)
        if found is None:
            del dist_border  # as in border_cds
            return border_chain(x)
        (b, _), budget = found
        if b == 0:
            break
        if 2 * b > n:
            p = n - b
            b = p + n % p
        chain.append(b)
        n = b
        t = bisect_right(positions, n - 1)
    return chain


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

    Candidates are the chain borders ascending, then the text itself; each is
    tested against the full text with :func:`strreg.classical.covers`.
    """
    _require_match(v, x)
    for b in reversed(borders_cds(v, x)):
        if covers(x, b):
            return b
    return v.m
