"""Pivot-distance sampling of a text.

The first byte of the text is the pivot. A view records where the pivot
occurs, the gaps between consecutive occurrences and the length of the
pivot-free tail. Positions double as the cumulative gap sums, since the
first occurrence sits at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .text import EmptyInputError, Text

# Bytes of text split at a time by build_cds.
_SPLIT_CHUNK = 1 << 16


@dataclass(frozen=True)
class CdsView:
    """Distance-sampled view of a text of length ``m``.

    ``positions`` lists the pivot occurrence positions (ascending, first is
    always 0), ``distances`` the gaps between consecutive occurrences, and
    ``k`` the length of the longest pivot-free suffix. ``positions[i+1]`` is
    the sum of ``distances[:i+1]``. ``text`` is the text the view was built
    from; the queries refuse a text that differs from it.

    Contents are never mutated after construction; views are safe to share.
    """

    pivot: int
    positions: list[int]
    distances: list[int]
    k: int
    m: int
    text: Text = field(repr=False)

    @property
    def m_bar(self) -> int:
        """Number of sampled distances (one less than pivot occurrences)."""
        return len(self.distances)


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
    distances: list[int] = []
    # Chunks keep the split pieces few and in cache. A run that crosses a
    # chunk boundary is carried over in ``run``, which ends as the tail.
    run = 0
    for start in range(1, len(x), _SPLIT_CHUNK):
        runs = list(map(len, x[start : start + _SPLIT_CHUNK].split(pivot)))
        runs[0] += run
        run = runs.pop()
        distances += [r + 1 for r in runs]
    return CdsView(
        pivot=x[0],
        positions=list(accumulate(distances, initial=0)),
        distances=distances,
        k=run,
        m=len(x),
        text=x,
    )


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


def reconstruct_binary(v: CdsView, filler: int | None = None) -> Text:
    """Rebuild a two-letter text from its view.

    Over a binary alphabet the pivot layout pins every byte: pivot positions
    carry the pivot, everything else carries the single other letter. The
    filler byte defaults to 'b' (or 'a' when the pivot itself is 'b').
    """
    if filler is None:
        filler = 98 if v.pivot != 98 else 97
    if filler == v.pivot:
        raise ValueError("filler byte must differ from the pivot")
    out = bytearray(bytes([filler]) * v.m)
    for p in v.positions:
        out[p] = v.pivot
    return bytes(out)
