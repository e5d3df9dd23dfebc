"""Border-array algorithms for periods and covers, plus brute-force oracles.

``border_array`` is generic over the symbol domain: it accepts bytes as well
as integer sequences. No query path applies it to the distance sequences of
the sampling module (the sampled route searches their packed form); the
tests and the acceptance gates do, as the reference for distance borders.

The ``naive_*`` functions check the definitions directly and serve as ground
truth in the test suites; quadratic behavior is acceptable there.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .text import EmptyInputError, Text

# values[i] = longest proper border of the length-i prefix; values[0] = -1.
BorderArray = list[int]
# Strictly decreasing border lengths surviving the periodicity reduction.
BorderChain = list[int]


def border_array(s: Sequence[int]) -> BorderArray:
    """Longest-proper-border length of every prefix of ``s``.

    Runs in O(len(s)) symbol comparisons.
    """
    n = len(s)
    if n == 0:
        raise EmptyInputError("border_array: empty sequence")
    values = [0] * (n + 1)
    values[0] = -1
    k = -1
    for j in range(n):
        c = s[j]
        while k >= 0 and s[k] != c:
            k = values[k]
        k += 1
        values[j + 1] = k
    return values


def period_classical(x: Text) -> int:
    """Smallest period of ``x``, via the period/border length duality."""
    if not x:
        raise EmptyInputError("period_classical: empty text")
    return len(x) - border_array(x)[len(x)]


def naive_period(x: Text) -> int:
    """Smallest p such that x[i] == x[i+p] for every valid i (oracle).

    Each candidate p is checked directly against the definition with one
    shifted-slice comparison.
    """
    if not x:
        raise EmptyInputError("naive_period: empty text")
    m = len(x)
    for p in range(1, m):
        if x[: m - p] == x[p:]:
            return p
    return m


def occurrences(pattern: Text, x: Text) -> list[int]:
    """Ascending start positions of ``pattern`` in ``x``, overlaps included."""
    if len(pattern) == 0:
        raise ValueError("occurrences: empty pattern")
    out = []
    i = x.find(pattern)
    while i != -1:
        out.append(i)
        i = x.find(pattern, i + 1)
    return out


def is_covering(occ: Sequence[int], b: int, m: int) -> bool:
    """Whether occurrences ``occ`` of a length-``b`` string cover a length-``m`` string.

    Equivalent to the positional definition: first occurrence at 0, last at
    ``m - b``, and no gap between consecutive starts exceeding ``b``.
    """
    if not 1 <= b <= m:
        raise ValueError(f"is_covering: b must lie in [1, {m}], got {b}")
    for j in range(len(occ) - 1):
        if occ[j] > occ[j + 1]:
            raise ValueError("is_covering: positions not ascending")
    if not occ or occ[0] != 0 or occ[-1] != m - b:
        return False
    return all(occ[j + 1] - occ[j] <= b for j in range(len(occ) - 1))


def covers(x: Text, b: int) -> bool:
    """Whether the length-``b`` prefix of ``x`` covers ``x``.

    Same answer as ``is_covering(occurrences(x[:b], x), b, len(x))``, in one
    forward pass: each step is one ``bytes.find`` for the next occurrence no
    more than ``b`` past the last one, and the first step that finds none
    settles it. The search runs forward on purpose: CPython's reverse search
    has no Two-Way fallback and is far slower on periodic text.
    """
    m = len(x)
    if not 1 <= b <= m:
        raise ValueError(f"covers: b must lie in [1, {m}], got {b}")
    prefix = x[:b]
    find = x.find
    last, end = 0, m - b
    while last < end:
        last = find(prefix, last + 1, last + 2 * b)
        if last < 0:
            return False
    return True


def chain_of(longest: Callable[[int], int], n: int) -> BorderChain:
    """Decreasing non-periodic border lengths of a length-``n`` text.

    ``longest(j)`` is the longest proper border of the text's length-j
    prefix. Iterates it starting from the whole text; whenever the current
    subject of length n has a border of length l > n/2, l is replaced by
    (n - l) + n % (n - l) before recursing. That collapses a border of the
    shape u^r u' down to uu', which is still a border of the subject.
    """
    chain: BorderChain = []
    l = longest(n)
    while l > 0:
        if 2 * l > n:
            p = n - l
            l = p + n % p
        chain.append(l)
        n = l
        l = longest(n)
    return chain


def border_chain(x: Text) -> BorderChain:
    """Decreasing non-periodic border lengths of ``x``, from its border array."""
    if not x:
        raise EmptyInputError("border_chain: empty text")
    return chain_of(border_array(x).__getitem__, len(x))


def _covers_by_period(x: Text, c: int, w: int) -> bool:
    """Whether the period test of :func:`shortest_cover_of` shows that
    ``x[:c]`` covers ``x[:w]``; ``c < w``."""
    h = x.find(x[:c], 1, min(w, 2 * c))
    return 0 < h <= c and (w - c) % h == 0 and x.startswith(memoryview(x)[h:w])


def shortest_cover_of(x: Text, chain: BorderChain) -> int:
    """Length of the shortest cover of ``x``, given its border chain.

    The shortest cover is the shortest chain border that covers ``x``, or
    ``len(x)`` when none does. The search rests on this lemma (Apostolico,
    Farach and Iliopoulos, 1991; Breslauer, 1992): if a border w of ``x``
    covers ``x``, a border u of ``x`` no longer than w covers ``x`` exactly
    when it covers w. Covering is transitive, and a cover of ``x`` covers
    every border of ``x`` at least as long as itself.

    The walk goes down the chain from its longest border and keeps ``w``, a
    prefix length known to cover ``x``, first ``len(x)``. A border c becomes
    the new ``w`` when it passes the period test: the first occurrence h of
    ``x[:c]`` after 0 lies within ``2c`` bytes, h <= c, h divides ``w - c``,
    and ``x[:w]`` has period h (one ``startswith``). That is sound: with
    period h, ``x[:c]`` occurs at every multiple of h up to ``w - c``, and
    consecutive occurrences are h <= c apart. Every step where ``chain_of``
    reduced a border of ``x[:w]`` to ``c = p + w % p``, p the smallest
    period, passes it, as Fine and Wilf force h = p.

    At the first border that fails the period test, it and the shorter
    borders are tested in ascending order with :func:`covers` on ``x[:w]``,
    and ``w`` is the answer when none covers. Each ``w`` is below two thirds
    of the one before, so the walk reads O(len(x)) bytes, and on periodic
    text the candidates are tested on one or two periods instead of the
    whole text.
    """
    w = len(x)
    for i, c in enumerate(chain):
        if not _covers_by_period(x, c, w):
            y = x[:w]
            return next((b for b in reversed(chain[i:]) if covers(y, b)), w)
        w = c
    return w


def shortest_cover_classical(x: Text) -> int:
    """Length of the shortest cover of ``x``; equals len(x) iff superprimitive."""
    if not x:
        raise EmptyInputError("shortest_cover_classical: empty text")
    return shortest_cover_of(x, border_chain(x))


def naive_shortest_cover(x: Text) -> int:
    """Smallest prefix length whose occurrences cover ``x`` (oracle).

    Tries every prefix length in turn; O(m^2) is fine in the oracle role.
    """
    if not x:
        raise EmptyInputError("naive_shortest_cover: empty text")
    m = len(x)
    for b in range(1, m):
        if is_covering(occurrences(x[:b], x), b, m):
            return b
    return m
