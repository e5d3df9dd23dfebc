"""Regularity queries answered from the distance-sampled view.

One routine, :func:`_walker`, answers every border query: the longest border
of a prefix ``x[:n]``. A border of length b starting with the pivot and
ending with the prefix's pivot-free tail of length k corresponds to a border
of length i of the prefix's distance sequence, with ``b = k + 1 + P_i`` and
``P_i`` the i-th pivot position. The walk takes the distance borders from
longest to shortest. A candidate whose distance entry does not clear the
pivot-free tail is skipped outright (a pivot would intrude where the suffix
has none), and the rest are confirmed with a direct prefix/suffix
comparison of the text, whatever the alphabet. A failed comparison moves on
to the next shorter candidate; the first confirmed one is the longest
border.

The distance borders come from a C-speed search of the view's packed gaps,
and the walk falls back to the text's border array when either of two
budgets runs out. Both budgets are shared by all calls of a walker.

1. The packed search. A distance border of at least ``_NEEDLE`` entries
   starts with the first ``_NEEDLE`` entries, so a ``bytes.find`` of those
   proposes it; only hits aligned to an entry count, and a hit blocked by
   the tail is passed over unconfirmed. Each other hit is confirmed by
   comparing the packed encodings in doubling windows, so a mismatch costs
   about its offset. A window that fails becomes the needle for the longer
   borders, which skips the hits that would fail the same way. A confirmed
   border is passed on and the search resumes past its hit. The needle
   sizes set aside end in a one-entry needle, so borders shorter than the
   first needle are proposed, filtered and confirmed the same way. Every
   call is charged ``_CALL_COST`` plus the bytes it scanned or compared, hit
   or not, against an allowance of ``_SEARCH_PER_BYTE`` bytes per byte of
   packed gaps.
2. The character checks. Each costs up to the candidate's length, and on
   periodic text with a defect the walk confirms a long run of failing
   candidates, so they have their own budget of ``_BUDGET_PER_BYTE * m``
   bytes.

The call that would overspend either budget switches the walker, for good,
to the classical border array of the text, which bounds every query by a
constant factor of the classical route.

The border chain is the classical periodicity reduction over the walker's
answers, so a chain that runs out of budget continues from its current
subject.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from . import classical
# border_array and is_covering are not called here; they stay names of this
# module because the traced benchmark (querybench/tracing.py) looks them up
# here.
from .classical import BorderChain, chain_of, shortest_cover_of
from .classical import border_array, is_covering  # noqa: F401
from .sampling import CdsView
from .text import Text

# Bytes a walker may compare in character checks, per byte of text.
_BUDGET_PER_BYTE = 4
# Bytes the packed search may scan or compare, per byte of packed gaps.
_SEARCH_PER_BYTE = 8
# Bytes charged to that allowance per call of the packed search, for the
# interpreter's work around it: on a 2-core x86-64 box under CPython 3.11, a
# call costs about 1 us and a byte scanned by ``find`` about 1.3 ns.
_CALL_COST = 1024
# Entries of the packed search's first needle; shorter borders are found
# with a one-entry needle.
_NEEDLE = 16


class CdsBorderResult(NamedTuple):
    """Longest-border answer: length in the text and the distance-border index."""

    b: int      # border length in the text; 0 if borderless
    i_bar: int  # distance-sequence border length that produced it; -1 if borderless


def _borders_match(x: Text, n: int, b: int) -> bool:
    """Character-level check that x[:n] has a border of length b, copying nothing."""
    return x.startswith(memoryview(x)[n - b : n])


def _find_needle(packed: bytes, needle: bytes, start: int, end: int) -> int:
    """Lowest offset in ``[start, end)`` where all of ``needle`` occurs, or -1."""
    return packed.find(needle, start, end)


def _runs_match(packed: bytes, window: memoryview, lo: int) -> bool:
    """Whether ``packed`` holds ``window`` at offset ``lo``, copying nothing."""
    return packed.startswith(window, lo)


def _require_match(v: CdsView, x: Text) -> None:
    # The caller normally passes the very object the view was built from.
    if x is not v.text and x != v.text:
        raise ValueError(
            f"view was built for another text (length {v.m}, given length {len(x)})"
        )


def _walker(v: CdsView, x: Text) -> Callable[[int], CdsBorderResult]:
    """``longest(n)``: the longest border of ``x[:n]``, from the view of ``x``.

    The distance sequence of a prefix is the first ``m_bar`` entries of the
    view's, with ``m_bar + 1`` pivots below ``n``, so the view's packed gaps
    serve every prefix. See the module docstring for the two sources of
    candidates and their budgets.
    """
    _require_match(v, x)
    packed, runs, pivot = v._runs, v._entries, x[:1]
    view, w = memoryview(packed), runs.itemsize
    allowance = _SEARCH_PER_BYTE * len(packed)
    text_border = None
    budget = _BUDGET_PER_BYTE * v.m

    def candidates(m_bar: int, k: int) -> Iterator[int]:
        # The distance borders of the prefix that clear the tail, longest
        # first, then -1 if the allowance ran out before they were all
        # found. Offsets are in bytes of ``packed``; a hit at h proposes the
        # border of i = m_bar - h/w entries, which starts with the needle.
        # Borders whose suffix copy starts below ``start`` are settled.
        nonlocal allowance
        end = m_bar * w
        start, size = w, _NEEDLE * w
        # Needle sizes set aside, for borders shorter than ``size``; the
        # one-entry needle at the bottom proposes the shortest ones.
        shorter = [w]
        while True:
            h, limit = -1, end
            if start + size <= end:
                # Search only as far as the allowance pays for.
                limit = min(end, start + allowance - _CALL_COST)
                if limit - start >= size:
                    h = _find_needle(packed, view[:size], start, limit)
                    allowance -= _CALL_COST + (h + size if h >= 0 else limit) - start
            if h < 0:
                if limit < end:
                    yield -1
                    return
                if not shorter:
                    break
                # Borders shorter than this needle start where it no longer fits.
                start, size = max(start, end - size + w), shorter.pop()
                continue
            start = h - h % w + w
            i = m_bar - h // w
            if h % w or runs[i] < k:
                # Unaligned, or blocked by the tail whether a border or not.
                continue
            # The needle matched the border's first entries; compare the
            # rest in doubling windows, so a mismatch costs about its offset.
            lo = size
            while lo < i * w:
                hi = min(2 * lo, i * w)
                if _CALL_COST + hi - lo > allowance:
                    yield -1
                    return
                allowance -= _CALL_COST + hi - lo
                if not _runs_match(packed, view[h + lo : h + hi], lo):
                    break
                lo = hi
            else:
                yield i
                continue
            if hi < i * w:
                # Longer borders start with the window that failed here: as
                # the needle, it skips the hits that would fail the same way.
                shorter.append(size)
                size = hi
        if runs[0] >= k:
            yield 0

    def longest(n: int) -> CdsBorderResult:
        nonlocal text_border, budget
        m_bar = x.count(pivot, 0, n) - 1 if n < v.m else len(runs)
        if m_bar < 1:
            # A border would repeat the pivot somewhere past position 0.
            return CdsBorderResult(0, -1)
        k = n - 1 - x.rfind(pivot, 0, n)
        if text_border is None:
            for i in candidates(m_bar, k):
                if i < 0:
                    break
                # b = k + 1 + P_i, or n - P_j at the suffix copy's start
                # j = m_bar - i; the shorter sum is taken.
                j = m_bar - i
                if i <= j:
                    b = k + 1 + i + sum(runs[:i])
                else:
                    b = n - j - sum(runs[:j])
                assert 0 < b < n
                if b > budget:
                    break
                budget -= b
                if not _borders_match(x, n, b):
                    continue
                return CdsBorderResult(b, i)
            else:
                return CdsBorderResult(0, -1)
            # The fallback. It is looked up in classical, not here, so the
            # traced benchmark does not count it as the distance array.
            text_border = classical.border_array(x)
        b = text_border[n]
        # The suffix copy of a border starts at pivot index m_bar - i_bar. With
        # no border the count takes in every pivot, which gives -1.
        return CdsBorderResult(b, m_bar - x.count(pivot, 0, n - b))

    return longest


def border_cds(v: CdsView, x: Text, check_chars: bool = True) -> CdsBorderResult:
    """Longest border of ``x`` plus the distance-border length that produced it.

    Every candidate is verified in the text, on every alphabet;
    ``check_chars`` has no effect and is kept only so existing callers still
    run. A walk that runs out of budget is answered from the classical border
    array, with the same result.
    """
    return _walker(v, x)(v.m)


def period_cds(v: CdsView, x: Text) -> int:
    """Smallest period of ``x``, from the sampled view."""
    return v.m - border_cds(v, x).b


def borders_cds(v: CdsView, x: Text) -> BorderChain:
    """Non-periodic border chain of ``x`` from the sampled view.

    Matches the classical chain element for element: it is
    :func:`strreg.classical.chain_of` over the walker's longest borders, one
    walker and one budget for the whole chain.
    """
    longest = _walker(v, x)
    return chain_of(lambda n: longest(n).b, v.m)


def occurrences_via_cds(v: CdsView, x: Text, b: int) -> list[int]:
    """Ascending start positions of the length-``b`` prefix of ``x`` inside ``x``.

    The prefix begins with the pivot, so only pivot positions can start an
    occurrence; each candidate is confirmed with one slice comparison.
    No query path calls this: the cover test is :func:`strreg.classical.covers`.
    Only the tests and the traced benchmark do.
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
