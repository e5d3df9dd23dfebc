"""Pivot-distance sampling of a text.

The first byte of the text is the pivot. A view records the gaps between
consecutive occurrences of the pivot and the length of the pivot-free tail.
It stores the gaps packed in one ``bytes``, one machine integer per gap: the
run of non-pivot bytes between two pivots, which is the gap less one. The
sampled queries search those bytes directly and read single entries through
a cast ``memoryview``. The positions of the pivot are the cumulative gap
sums, since the first occurrence sits at 0; they are not stored.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .text import EmptyInputError, Text

# Bytes of text split at a time by build_cds.
_SPLIT_CHUNK = 1 << 16


def _typecode(m: int) -> str:
    # A run is shorter than the text; 32-bit entries hold it below 2 GiB.
    return "i" if m <= 1 << 31 else "q"


@dataclass(frozen=True)
class CdsView:
    """Distance-sampled view of a text of length ``m``.

    ``distances`` lists the gaps between consecutive pivot occurrences,
    ``positions`` the occurrences themselves (ascending, first is always 0)
    and ``k`` the length of the longest pivot-free suffix.
    ``positions[i+1]`` is the sum of ``distances[:i+1]``. ``text`` is the
    text the view was built from; the queries refuse a text that differs
    from it.

    The gaps are held privately in ``_runs``, the bytes of the run lengths
    (gap - 1) as machine integers, about 4 bytes per pivot; the sampled
    queries search that encoding directly, and ``_entries`` reads it as
    integers without a copy. ``positions`` and ``distances`` are plain lists
    built from it on each access, in O(m_bar): read them once into a local.

    Contents are never mutated after construction; views are safe to share.
    """

    pivot: int
    k: int
    m: int
    text: Text = field(repr=False)
    _runs: bytes = field(repr=False)

    @property
    def _entries(self) -> memoryview:
        """The run lengths as integers, read in place from ``_runs``."""
        return memoryview(self._runs).cast(_typecode(self.m))

    @property
    def m_bar(self) -> int:
        """Number of sampled distances (one less than pivot occurrences)."""
        return len(self._entries)

    @property
    def distances(self) -> list[int]:
        """Gaps between consecutive pivot occurrences, built on each access."""
        return [r + 1 for r in self._entries]

    @property
    def positions(self) -> list[int]:
        """Pivot occurrence positions, ascending, built on each access."""
        return list(accumulate(self.distances, initial=0))


def build_cds(x: Text) -> CdsView:
    """Sample ``x`` with its first byte as the pivot.

    Splitting ``x[1:]`` on the pivot, a chunk at a time, gives the
    pivot-free runs: each run but the last is one gap less one, the last is
    the tail. A text whose pivot never reoccurs yields a legal view with
    empty ``distances``.
    """
    if not x:
        raise EmptyInputError("build_cds: empty text")
    pivot = x[:1]
    runs = array(_typecode(len(x)))
    # Chunks keep the split pieces few and in cache. A run that crosses a
    # chunk boundary is carried over in ``run``, which ends as the tail.
    run = 0
    for start in range(1, len(x), _SPLIT_CHUNK):
        lengths = list(map(len, x[start : start + _SPLIT_CHUNK].split(pivot)))
        lengths[0] += run
        run = lengths.pop()
        runs.fromlist(lengths)
    return CdsView(pivot=x[0], k=run, m=len(x), text=x, _runs=runs.tobytes())


@dataclass(frozen=True)
class SamplingStats:
    ratio: Fraction
    entries: int
    text_len: int


def sampling_stats(v: CdsView) -> SamplingStats:
    """Exact entry-count ratio of a view against its text length.

    The ratio also equals the byte-level overhead under a one-byte-per-entry
    encoding of the distances.
    """
    return SamplingStats(ratio=Fraction(v.m_bar, v.m), entries=v.m_bar, text_len=v.m)

