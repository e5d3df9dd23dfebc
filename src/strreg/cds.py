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

The distance borders come from a C-speed search of the view's packed gaps.
A distance border of at least ``_NEEDLE`` entries starts with the first
``_NEEDLE`` entries, so a ``bytes.find`` of those proposes it; where that
needle no longer fits, a one-entry needle proposes the shorter borders, and
the empty distance border comes last. The entries are one byte wide while
every run fits, and then every hit is aligned; on a wider view only hits
aligned to an entry count. A hit blocked by the tail is passed over
unchecked. Every ``find`` and every character check is charged
``_CALL_COST`` plus the bytes it may read against one budget per walker,
:func:`_budget`: ``_BUDGET_PER_BYTE`` bytes per byte of text plus a floor
of 32 calls, so short texts are searched too.
A query the budget cannot pay for is answered by :func:`_longest_border`,
which finds the longest border of ``x[:n]`` with ``bytes.find`` and
``startswith`` alone: O(n) bytes read in O(log² n) calls, and no list of
ints. It rests on the progression lemma for the occurrences of a string in
a window shorter than twice its length, and on the periodicity lemma of Fine
and Wilf (Crochemore and Rytter, *Text Algorithms*, 1994). So a walker
spends at most its budget plus one fallback per query.

The border chain is the classical periodicity reduction over the walker's
answers. After a fallback the next subject of the chain walks on with what
is left of the budget.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

# border_array and is_covering are not called here; they stay names of this
# module because the traced benchmark (querybench/tracing.py) looks them up
# here.
from .classical import BorderChain, chain_of, shortest_cover_of
from .classical import border_array, is_covering  # noqa: F401
from .sampling import CdsView
from .text import Text

# Bytes a walker may scan or compare, per byte of text.
_BUDGET_PER_BYTE = 4
# Bytes charged per call of the walk, for the interpreter's work around it:
# on a 2-core x86-64 box under CPython 3.11, a call costs about 1 us and a
# byte scanned by ``find`` about 1.3 ns.
_CALL_COST = 1024
# Entries of the packed search's first needle; shorter borders are found
# with a one-entry needle.
_NEEDLE = 16
# Bytes of the fallback's first search, which bounds every border at least
# that long.
_PREFIX = 64


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


def _budget(m: int) -> int:
    """Bytes a walker over a text of ``m`` bytes may charge to its calls."""
    return _BUDGET_PER_BYTE * m + 32 * _CALL_COST


def _agree(x: Text, a: int, c: int, lo: int, hi: int) -> int:
    """The largest e in ``[lo, hi]`` with ``x[a:a + e] == x[c:c + e]``,
    given that the first ``lo`` bytes agree.

    One ``startswith`` of the whole window, then halving windows if it
    fails: at most ``2 * (hi - lo)`` bytes read in O(log(hi - lo)) calls.
    """
    view = memoryview(x)
    if x.startswith(view[a + lo : a + hi], c + lo):
        return hi
    hi -= 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if x.startswith(view[a + lo : a + mid], c + lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _longest_border(x: Text, n: int) -> int:
    """Longest proper border of ``x[:n]``, from prefix searches of the text.

    One ``find`` of the first ``_PREFIX`` bytes bounds every border at least
    that long. The borders b in a band ``[L, U)`` with ``U <= 2L`` start
    their suffix copy at some s in ``[n - U + 1, n - L]``, where ``x[:L]``
    occurs. In a window that short the occurrences form one progression
    with step q, the gap between the first two, and last as long as the
    run of period q from the first, which ends at t. With r the extent of
    period q in the prefix, ``x[s:]`` and ``x`` agree on their first
    ``min(t - s, r)`` bytes and, unless ``t - s == r``, differ at the next.
    So if t = n the longest border in the band starts at the first s with
    ``n - s <= r``, and otherwise only ``s = t - r`` can start one. Each
    band halves U, so a call reads O(n) bytes in O(log² n) calls.
    """
    view = memoryview(x)
    f = x.find(view[:_PREFIX], 1, n)
    U = n - f + 1 if f > 0 else min(_PREFIX, n)
    while U > 1:
        L = (U + 1) // 2
        needle = view[:L]
        s1 = x.find(needle, n - U + 1, n)
        U = L
        if s1 < 0:
            continue
        s2 = x.find(needle, s1 + 1, n)
        if s2 < 0:
            if x.startswith(view[s1:n]):
                return n - s1
            continue
        q = s2 - s1
        # x[s1:s2 + L] has period q, and so has the needle. Past t - s1, an
        # extent r would put t - r before s1, so r is capped one beyond.
        t = s1 + q + _agree(x, s1 + q, s1, L, n - s1 - q)
        r = q + _agree(x, q, 0, L - q, t - s1 + 1 - q)
        if t == n:
            s = max(s1, n - r)
            s += (s1 - s) % q
            if s <= n - L:
                return n - s
        else:
            s = t - r
            if s >= s1 and (s - s1) % q == 0 and x.startswith(view[s:n]):
                return n - s
    return 0


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
    serve every prefix. See the module docstring for the candidates and the
    one budget that every call of the walker is charged against.
    """
    _require_match(v, x)
    packed, runs, pivot = v._runs, v._entries, x[:1]
    view, w = memoryview(packed), runs.itemsize
    budget = _budget(v.m)

    def longest(n: int) -> CdsBorderResult:
        nonlocal budget
        m_bar = x.count(pivot, 0, n) - 1 if n < v.m else len(runs)
        if m_bar < 1:
            # A border would repeat the pivot somewhere past position 0.
            return CdsBorderResult(0, -1)
        k = n - 1 - x.rfind(pivot, 0, n)
        # Offsets are in bytes of ``packed``; a hit at h proposes the border
        # of i = m_bar - h/w entries, which starts with the needle. Borders
        # whose suffix copy starts below ``start`` are settled.
        end = m_bar * w
        start, size = w, _NEEDLE * w
        while start <= end:
            if start + size <= end:
                if _CALL_COST + end - start > budget:
                    break
                h = _find_needle(packed, view[:size], start, end)
                budget -= _CALL_COST + (h + size if h >= 0 else end) - start
            else:
                # The needle no longer fits. Past the one-entry needle only
                # the empty distance border, i = 0, is left.
                h = -1 if size > w else end
            if h < 0:
                # Borders shorter than this needle start where it no longer fits.
                start, size = max(start, end - size + w), w
                continue
            start = h - h % w + w
            i = m_bar - h // w
            if h % w or runs[i] < k:
                # Unaligned, or blocked by the tail whether a border or not.
                continue
            # b = k + 1 + P_i, or n - P_j at the suffix copy's start
            # j = m_bar - i; the shorter sum is taken.
            j = m_bar - i
            b = k + 1 + i + sum(runs[:i]) if i <= j else n - j - sum(runs[:j])
            assert 0 < b < n
            if _CALL_COST + b > budget:
                break
            budget -= _CALL_COST + b
            if _borders_match(x, n, b):
                return CdsBorderResult(b, i)
        else:
            return CdsBorderResult(0, -1)
        b = _longest_border(x, n)
        # The suffix copy of a border starts at pivot index m_bar - i_bar. With
        # no border the count takes in every pivot, which gives -1.
        return CdsBorderResult(b, m_bar - x.count(pivot, 0, n - b))

    return longest


def border_cds(v: CdsView, x: Text, check_chars: bool = True) -> CdsBorderResult:
    """Longest border of ``x`` plus the distance-border length that produced it.

    Every candidate is verified in the text, on every alphabet;
    ``check_chars`` has no effect and is kept only so existing callers still
    run. A walk that runs out of budget is answered from prefix searches of
    the text, with the same result.
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
