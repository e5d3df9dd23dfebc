from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strreg import sampling
from strreg.classical import border_array
from strreg.sampling import build_cds, sampling_stats
from strreg.text import EmptyInputError, GenSpec, gen_text

texts = st.binary(min_size=1, max_size=96)


class TestBuildCds:
    def test_dna_example(self):
        v = build_cds(b"agaacgcagtata")
        assert v.pivot == ord("a")
        assert v.positions == [0, 2, 3, 7, 10, 12]
        assert v.distances == [2, 1, 4, 3, 2]
        assert v.k == 0

    def test_trailing_gap(self):
        v = build_cds(b"abbababbabb")
        assert v.distances == [3, 2, 3]
        assert v.k == 2

    def test_lone_pivot(self):
        v = build_cds(b"a")
        assert v.positions == [0]
        assert v.distances == []
        assert v.k == 0

    def test_pivot_never_reoccurs(self):
        v = build_cds(b"abc")
        assert v.positions == [0]
        assert v.m_bar == 0
        assert v.k == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            build_cds(b"")

    @given(texts)
    def test_view_invariants(self, x):
        v = build_cds(x)
        assert v.pivot == x[0]
        assert v.positions[0] == 0
        assert all(a < b for a, b in zip(v.positions, v.positions[1:]))
        pivot_set = set(v.positions)
        for p in range(len(x)):
            assert (x[p] == v.pivot) == (p in pivot_set)
        assert v.distances == [b - a for a, b in zip(v.positions, v.positions[1:])]
        assert all(d >= 1 for d in v.distances)
        assert v.k == len(x) - 1 - v.positions[-1]
        assert x[v.positions[-1] + 1 :].count(v.pivot) == 0
        assert v.positions == list(accumulate(v.distances, initial=0))
        assert v.m == len(x)


class TestPackedGaps:
    # Gaps are packed one machine integer each: zero runs (adjacent pivots)
    # and gaps of 256 and more must come out as they went in.
    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    @given(runs=st.lists(st.sampled_from((0, 1, 255, 256, 257, 70000)), max_size=12),
           tail=st.integers(0, 300))
    def test_gaps_of_any_size(self, chunk, runs, tail):
        x = b"a" + b"".join(b"b" * r + b"a" for r in runs) + b"b" * tail
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_SPLIT_CHUNK", chunk)
            v = build_cds(x)
        assert v.m_bar == len(runs)
        assert v.distances == [r + 1 for r in runs]
        assert v.positions == [i for i, c in enumerate(x) if c == x[0]]
        assert v.k == tail

    def test_fields_are_fresh_lists(self):
        v = build_cds(b"abaab")
        v.positions.append(9)
        v.distances.append(9)
        assert (v.positions, v.distances, v.m_bar) == ([0, 2, 3], [2, 1], 2)


class TestChunkedSplit:
    # build_cds splits the text a chunk at a time; runs that cross a chunk
    # boundary must come out whole.
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @given(st.text(alphabet="abc", min_size=1, max_size=64).map(str.encode))
    def test_any_chunk_size_matches_definition(self, chunk, x):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_SPLIT_CHUNK", chunk)
            v = build_cds(x)
        assert v.positions == [i for i, c in enumerate(x) if c == x[0]]
        assert v.distances == [b - a for a, b in zip(v.positions, v.positions[1:])]
        assert v.k == len(x) - 1 - v.positions[-1]

    def test_text_longer_than_several_chunks(self):
        # The run of b's spans a whole chunk.
        x = b"a" + b"b" * (sampling._SPLIT_CHUNK + 2) + gen_text(
            GenSpec(3, 3 * sampling._SPLIT_CHUNK + 5, seed=11)
        )
        v = build_cds(x)
        assert v.positions == [i for i, c in enumerate(x) if c == x[0]]
        assert v.k == len(x) - 1 - v.positions[-1]


class TestSamplingStats:
    def test_exact_fraction(self):
        stats = sampling_stats(build_cds(b"agaacgcagtata"))
        assert stats.ratio == Fraction(5, 13)
        assert stats.entries == 5
        assert stats.text_len == 13

    def test_lone_pivot_ratio_zero(self):
        assert sampling_stats(build_cds(b"a")).ratio == 0


class TestDistanceSumIdentities:
    # Partial sums of distances land on pivot occurrences, from either side.
    @given(texts)
    def test_right_sums_hit_pivot(self, x):
        v = build_cds(x)
        for i in range(v.m_bar):
            total = 0
            for k in range(i, v.m_bar):
                total += v.distances[k]
                assert x[v.positions[i] + total] == v.pivot

    @given(texts)
    def test_left_sums_hit_pivot(self, x):
        v = build_cds(x)
        for i in range(1, v.m_bar + 1):
            total = 0
            for k in range(i - 1, -1, -1):
                total += v.distances[k]
                assert x[v.positions[i] - total] == v.pivot

    @given(texts)
    def test_distance_windows_of_period_width_share_sum(self, x):
        v = build_cds(x)
        if v.m_bar == 0:
            return
        p = v.m_bar - border_array(v.distances)[v.m_bar]
        first = sum(v.distances[:p])
        for j in range(v.m_bar - p + 1):
            assert sum(v.distances[j : j + p]) == first

