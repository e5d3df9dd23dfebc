import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import strreg.cds
from strreg.cds import (
    CdsBorderResult,
    border_cds,
    borders_cds,
    occurrences_via_cds,
    period_cds,
    shortest_cover_cds,
)
from strreg.classical import (
    border_array,
    border_chain,
    naive_period,
    naive_shortest_cover,
    occurrences,
)
from strreg.sampling import build_cds

texts = st.binary(min_size=1, max_size=128)
binary_texts = st.text(alphabet="ab", min_size=1, max_size=128).map(str.encode)
ternary_texts = st.text(alphabet="abc", min_size=1, max_size=128).map(str.encode)


def naive_longest_border(x):
    m = len(x)
    for b in range(m - 1, 0, -1):
        if x[:b] == x[m - b :]:
            return b
    return 0


class TestBorderCds:
    def test_fig3_string(self):
        x = b"abaababaaba"
        assert border_cds(build_cds(x), x) == (6, 3)

    def test_fig4_string_skips_blocked_candidate(self):
        x = b"abbababbabb"
        v = build_cds(x)
        # The length-1 distance border is blocked by the tail gap (2 <= k=2);
        # the empty distance border survives and yields the length-3 border.
        assert border_array(v.distances) == [-1, 0, 0, 1]
        assert v.distances[1] <= v.k
        assert border_cds(v, x) == (3, 0)

    def test_borderless(self):
        x = b"abc"
        assert border_cds(build_cds(x), x) == (0, -1)

    def test_failed_verification_continues_down_the_chain(self):
        # Distances of "abacaba" are [2,2,2]: the longest distance border
        # proposes b=5, which fails character checks; the next one is right.
        x = b"abacaba"
        assert border_cds(build_cds(x), x) == (3, 1)

    def test_single_pivot_occurrence_is_borderless(self):
        for x in (b"a", b"ab", b"abcdef"):
            assert border_cds(build_cds(x), x) == (0, -1)

    @given(texts)
    def test_matches_naive_longest_border(self, x):
        b, i_bar = border_cds(build_cds(x), x)
        assert b == naive_longest_border(x)
        assert (b == 0) == (i_bar == -1)

    @given(texts)
    def test_result_consistency(self, x):
        v = build_cds(x)
        b, i_bar = border_cds(v, x)
        if b > 0:
            assert b == v.m - v.positions[v.m_bar - i_bar]
            assert x[:b] == x[v.m - b :]

    # 15, 16 and 17 distances: around the packed search's 16-entry needle,
    # with periodic runs that give borders on both sides of it; 1, 2 and 8:
    # borders that only the one-entry needle proposes.
    @pytest.mark.parametrize("m_bar", [1, 2, 8, 15, 16, 17])
    @given(data=st.data())
    def test_needle_edges(self, m_bar, data, answers_by_tier, text_from_runs):
        run = st.tuples(st.sampled_from((0, 1, 2, 256)), st.sampled_from(b"bc"))
        runs = (data.draw(st.lists(run, min_size=1, max_size=m_bar)) * m_bar)[:m_bar]
        defect = data.draw(st.integers(-1, m_bar - 1))
        if defect >= 0:
            runs[defect] = data.draw(run)
        x = text_from_runs(runs, data.draw(st.integers(0, 3)))
        assert build_cds(x).m_bar == m_bar
        answers = answers_by_tier(x)
        assert answers == dict.fromkeys(answers, answers["default"])
        assert answers["default"][0].b == naive_longest_border(x)

    # Texts whose longest unblocked distance border is no border of the
    # text: 400 where the border is 200, and 4995 where there is none. On
    # three or more symbols the pivot layout leaves the other bytes free.
    @given(texts)
    @example(b"ab" * 100 + b"ac" + b"ab" * 100)
    @example((b"abcab" * 1000)[:4999] + b"z")
    def test_check_chars_has_no_effect(self, x):
        v = build_cds(x)
        assert border_cds(v, x, check_chars=False) == border_cds(v, x)

    def test_binary_text_is_checked(self, monkeypatch):
        # Every alphabet is checked in the text. On a binary text the first
        # candidate that clears the tail is a border, so the longest border
        # and the chain each cost one comparison.
        real = strreg.cds._borders_match
        calls = []
        monkeypatch.setattr(strreg.cds, "_borders_match",
                            lambda x, n, b: calls.append(b) or real(x, n, b))
        x = b"aab" * 2000
        v = build_cds(x)
        assert border_cds(v, x) == (5997, 3997)
        assert calls == [5997]
        calls.clear()
        assert borders_cds(v, x) == [3]
        assert calls == [5997]

    def test_verification_count_bounded(self):
        import random

        from strreg.text import GenSpec, gen_text

        real = strreg.cds._borders_match
        calls = []
        strreg.cds._borders_match = lambda *a: calls.append(a) or real(*a)
        try:
            rng = random.Random(5150)
            for idx in range(2000):
                x = gen_text(GenSpec(3, rng.randint(1, 128), seed=idx))
                v = build_cds(x)
                calls.clear()
                border_cds(v, x)
                assert len(calls) <= v.m_bar + 1
        finally:
            strreg.cds._borders_match = real

    def test_length_mismatch_rejected(self):
        v = build_cds(b"abaa")
        with pytest.raises(ValueError):
            border_cds(v, b"abaab")

    def test_pivot_mismatch_rejected(self):
        v = build_cds(b"abaa")
        with pytest.raises(ValueError):
            border_cds(v, b"baaa")

    def test_view_of_another_text_rejected(self):
        # Same length and pivot: only the text itself tells them apart.
        v = build_cds(b"abab")
        with pytest.raises(ValueError):
            period_cds(v, b"aaaa")
        assert period_cds(v, b"".join([b"ab", b"ab"])) == 2


class TestPeriodCds:
    @pytest.mark.parametrize(
        "x,expected",
        [(b"abaababaaba", 5), (b"abbababbabb", 8), (b"aaaa", 1), (b"ab", 2), (b"a", 1)],
    )
    def test_known_values(self, x, expected):
        assert period_cds(build_cds(x), x) == expected

    @given(texts)
    def test_matches_naive(self, x):
        assert period_cds(build_cds(x), x) == naive_period(x)


class TestBordersCds:
    @pytest.mark.parametrize(
        "x,expected",
        [(b"abaababaaba", [6, 3, 1]), (b"abc", []), (b"aaaa", [1])],
    )
    def test_known_chains(self, x, expected):
        assert borders_cds(build_cds(x), x) == expected

    @given(texts)
    def test_matches_classical_chain(self, x):
        assert borders_cds(build_cds(x), x) == border_chain(x)


class TestOccurrencesViaCds:
    def test_border_prefix(self):
        x = b"abaababaaba"
        assert occurrences_via_cds(build_cds(x), x, 3) == [0, 3, 5, 8]

    def test_whole_text(self):
        x = b"abaababaaba"
        assert occurrences_via_cds(build_cds(x), x, len(x)) == [0]

    def test_pivot_prefix(self):
        x = b"agaacgcagtata"
        v = build_cds(x)
        assert occurrences_via_cds(v, x, 1) == v.positions

    def test_out_of_range_rejected(self):
        x = b"abba"
        v = build_cds(x)
        for b in (0, 5):
            with pytest.raises(ValueError):
                occurrences_via_cds(v, x, b)

    @given(texts, st.integers(1, 128))
    def test_matches_naive(self, x, b):
        if b > len(x):
            b = len(x)
        assert occurrences_via_cds(build_cds(x), x, b) == occurrences(x[:b], x)


class TestShortestCoverCds:
    @pytest.mark.parametrize(
        "x,expected", [(b"abaababaaba", 3), (b"abcd", 4), (b"aaaa", 1)]
    )
    def test_known_values(self, x, expected):
        assert shortest_cover_cds(build_cds(x), x) == expected

    @given(binary_texts)
    def test_matches_naive_binary(self, x):
        assert shortest_cover_cds(build_cds(x), x) == naive_shortest_cover(x)

    @given(texts)
    def test_matches_naive(self, x):
        assert shortest_cover_cds(build_cds(x), x) == naive_shortest_cover(x)


class TestPivotTailForms:
    # Texts shaped pivot + u + pivot + b^k: the longest border extends the
    # longest border of the pivot-bracketed head by the pivot-free tail
    # whenever that top candidate is admissible.
    @given(st.text(alphabet="ab", min_size=0, max_size=24).map(str.encode),
           st.integers(1, 6))
    def test_head_border_plus_tail(self, u, tail):
        x = b"a" + u + b"a" + b"b" * tail
        v = build_cds(x)
        got = border_cds(v, x).b
        assert got == naive_longest_border(x)
        head = b"a" + u + b"a"
        candidate = border_array(head)[len(head)] + tail
        if 0 < candidate < len(x) and x[:candidate] == x[len(x) - candidate :]:
            assert got == candidate
