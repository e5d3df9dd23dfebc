"""Adversarial string families against the sampled route.

Periodic and near-periodic texts give the distance sequence long border
chains. On them the sampled route must agree with the classical route and
with the oracles. The walk's searches of the packed distances and its
character checks must stay within the walker's one budget, whatever the walk
would otherwise have checked, and each source of answers must give the same
ones. The walk's fallback, prefix searches of the text, must read O(n) bytes
in O(log² n) calls.
"""

import math
from contextlib import contextmanager

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import strreg.cds
import strreg.classical
from conftest import TIERS, widened
from strreg.cds import border_cds, borders_cds, period_cds, shortest_cover_cds
from strreg.classical import (
    border_array,
    border_chain,
    covers,
    is_covering,
    naive_period,
    naive_shortest_cover,
    occurrences,
    period_classical,
    shortest_cover_classical,
)
from strreg.sampling import build_cds
from strreg.text import GenSpec, gen_text


def unary(n):
    return b"a" * n


def fibonacci(n):
    s, t = b"a", b"ab"
    while len(t) < n:
        s, t = t, t + s
    return t[:n]


def thue_morse(n):
    return bytes(97 + bin(i).count("1") % 2 for i in range(n))


def aab(n):
    return (b"aab" * (n // 3 + 1))[:n]


def abcab_defect(where):
    # (abcab)^n cut to n bytes, one byte replaced by a letter found nowhere else.
    def make(n):
        x = bytearray((b"abcab" * (n // 5 + 1))[:n])
        x[{"start": min(1, n - 1), "middle": n // 2, "end": n - 1}[where]] = ord("z")
        return bytes(x)

    return make


def abcab_defect_end_twice(n):
    # u + c..c + u, with u a whole number of periods ending in the defect: the
    # chain's second subject is u, where the walk alone would compare ~|u|²/10.
    h = (n - 1) // 10 * 5
    u = abcab_defect("end")(h) if h else b""
    return u + b"c" * (n - 2 * h) + u


def islands(n):
    # Zero runs after a run of 1: the needle of zero runs first matches the
    # packed bytes at an offset that is not a multiple of the entry size.
    return (b"a" * 17 + (b"b" + b"a" * 20) * (n // 21 + 1))[:n]


def unary_defect_tail(n):
    # a^h b a^h' c: the tail blocks every distance border, and the packed
    # search would pass over one hit per entry.
    h = n // 2
    return (b"a" * h + b"b" + b"a" * (n - h - 2) + b"c")[:n]


def large_gaps(n):
    # Runs of 256, 0, 300 and 255 bytes: entries whose packed bytes repeat
    # at unaligned offsets, and gaps wider than one byte can hold.
    unit = b"a" + b"b" * 256 + b"a" + b"a" + b"c" * 300 + b"a" + b"b" * 255
    return (unit * (n // len(unit) + 1))[:n]


def period_1000_pivot_defect(n):
    # 26 letters of period 1000, with the last pivot before n - 50 replaced:
    # two distance entries merge near the end, a defect of the distances.
    x = bytearray(gen_text(GenSpec(26, n, seed=7, forced_period=min(n, 1000))))
    q = x.rfind(x[:1], 1, max(1, n - 50))
    if q > 0:
        x[q] = ord("z") if x[0] != ord("z") else ord("y")
    return bytes(x)


FAMILIES = {
    "unary": unary,
    "fibonacci": fibonacci,
    "thue-morse": thue_morse,
    "aab": aab,
    "abcab-defect-start": abcab_defect("start"),
    "abcab-defect-middle": abcab_defect("middle"),
    "abcab-defect-end": abcab_defect("end"),
    "abcab-defect-end-twice": abcab_defect_end_twice,
    "islands": islands,
    "unary-defect-tail": unary_defect_tail,
    "large-gaps": large_gaps,
    "period-1000-pivot-defect": period_1000_pivot_defect,
}
LARGE = 20_000
SMALL = (1, 2, 7, 60, 255, 512)


@contextmanager
def fallbacks():
    """The prefix lengths n that the walk's fallback answers, in call order.

    A context manager rather than a fixture, so that Hypothesis tests can
    open one per example.
    """
    built = []
    real = strreg.cds._longest_border
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strreg.cds, "_longest_border", lambda x, n: built.append(n) or real(x, n))
        yield built


@pytest.fixture
def bytes_compared(monkeypatch):
    """Per-query byte count of the walk's character checks."""
    real = strreg.cds._borders_match
    spent = []

    def counted(x, n, b):
        spent.append(b)
        return real(x, n, b)

    monkeypatch.setattr(strreg.cds, "_borders_match", counted)
    return spent


@pytest.fixture
def packed_charged(monkeypatch):
    """Per-query work of the packed search: per ``find``, its bytes and the call cost."""
    call = strreg.cds._CALL_COST
    real_find = strreg.cds._find_needle
    spent = []

    def find(packed, needle, start, end):
        h = real_find(packed, needle, start, end)
        spent.append(call + (h + len(needle) if h >= 0 else end) - start)
        return h

    monkeypatch.setattr(strreg.cds, "_find_needle", find)
    return spent


@pytest.fixture
def covers_calls(monkeypatch):
    """``(b, len(y))`` of every ``classical.covers(y, b)`` call."""
    real = strreg.classical.covers
    calls = []

    def recorded(y, b):
        calls.append((b, len(y)))
        return real(y, b)

    monkeypatch.setattr(strreg.classical, "covers", recorded)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_classical_routes(family):
    x = FAMILIES[family](LARGE)
    v = build_cds(x)
    assert period_cds(v, x) == period_classical(x)
    assert borders_cds(v, x) == border_chain(x)
    assert shortest_cover_cds(v, x) == shortest_cover_classical(x)


@pytest.mark.parametrize("family", FAMILIES)
def test_runs_that_fit_take_one_byte(family):
    v = build_cds(FAMILIES[family](LARGE))
    width = 1 if max(v.distances, default=1) <= 256 else 4
    assert len(v._runs) == width * v.m_bar


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_oracles(family):
    for n in SMALL:
        x = FAMILIES[family](n)
        v = build_cds(x)
        assert period_cds(v, x) == naive_period(x), n
        assert shortest_cover_cds(v, x) == naive_shortest_cover(x), n


@pytest.mark.parametrize("family", FAMILIES)
def test_bytes_compared_within_budget(family, bytes_compared, packed_charged):
    # Each character check is charged the call cost and its length.
    x = FAMILIES[family](LARGE)
    v = build_cds(x)
    budget, call = strreg.cds._budget(len(x)), strreg.cds._CALL_COST
    queries = (
        lambda: border_cds(v, x),
        lambda: borders_cds(v, x),
        lambda: shortest_cover_cds(v, x),
    )
    for query in queries:
        bytes_compared.clear()
        packed_charged.clear()
        query()
        assert sum(packed_charged) + sum(call + b for b in bytes_compared) <= budget


@pytest.mark.parametrize("family", FAMILIES)
def test_sources_of_candidates_agree(family, answers_by_tier):
    for n in SMALL + (3000,):
        x = FAMILIES[family](n)
        answers = answers_by_tier(x)
        (b, _), chain = answers["default"]
        assert answers == dict.fromkeys(answers, answers["default"]), n
        assert b == len(x) - period_classical(x), n
        assert chain == border_chain(x), n
        if n <= 512:
            assert b == len(x) - naive_period(x), n


@pytest.mark.parametrize("family", FAMILIES)
def test_each_candidate_checked_once(family, bytes_compared, monkeypatch):
    # Each proposed border is checked at most once: a border proposed twice
    # would spend the budget on repeated checks. With no budget to stop it,
    # the walk checks every candidate it is given.
    monkeypatch.setattr(strreg.cds, "_budget", TIERS["walk"]["_budget"])
    x = FAMILIES[family](LARGE)
    border_cds(build_cds(x), x)
    assert len(set(bytes_compared)) == len(bytes_compared)


@pytest.mark.parametrize("family", ("unary", "fibonacci", "thue-morse", "aab", "islands"))
def test_binary_checks_within_budget(family, bytes_compared, packed_charged, monkeypatch):
    # Binary texts are checked like any other, within the budget. On them
    # the distances and the tail fix the text, so a candidate passes its
    # character check exactly when its distance border holds.
    x = FAMILIES[family](LARGE)
    assert len(set(x)) <= 2
    v, pivot = build_cds(x), x[:1]
    d = v.distances
    real = strreg.cds._borders_match

    def check(x, n, b):
        passed = real(x, n, b)
        m_bar, i = x.count(pivot, 0, n) - 1, x.count(pivot, 0, b) - 1
        assert passed == (d[:i] == d[m_bar - i : m_bar]), (n, b)
        return passed

    monkeypatch.setattr(strreg.cds, "_borders_match", check)
    budget, call = strreg.cds._budget(len(x)), strreg.cds._CALL_COST
    queries = (
        (lambda: border_cds(v, x).b, len(x) - period_classical(x)),
        (lambda: borders_cds(v, x), border_chain(x)),
    )
    for query, want in queries:
        packed_charged.clear()
        bytes_compared.clear()
        assert query() == want
        assert bytes_compared
        assert sum(packed_charged) + sum(call + b for b in bytes_compared) <= budget


def test_blocked_hits_not_compared(monkeypatch):
    # The tail blocks every distance border of a^h b a^h' c, so the walk
    # passes the packed search's hits over without a character check.
    searched, checked = [], []
    real_find, real_check = strreg.cds._find_needle, strreg.cds._borders_match
    monkeypatch.setattr(strreg.cds, "_find_needle",
                        lambda *a: searched.append(a[2]) or real_find(*a))
    monkeypatch.setattr(strreg.cds, "_borders_match",
                        lambda x, n, b: checked.append(b) or real_check(x, n, b))
    x = unary_defect_tail(LARGE)
    assert border_cds(build_cds(x), x) == (0, -1)
    assert searched and checked == []


@pytest.mark.parametrize("family", ("aab", "islands"))
def test_unaligned_hits_not_checked(family, monkeypatch):
    # A hit of the packed search that is not aligned to an entry proposes no
    # border, so no text check follows it. Each search records its hit (-1
    # for none); each check records None. One-byte entries have no unaligned
    # hits, so the view is widened to 4-byte entries.
    events = []
    real_find, real_check = strreg.cds._find_needle, strreg.cds._borders_match

    def find(packed, needle, start, end):
        h = real_find(packed, needle, start, end)
        events.append(h)
        return h

    monkeypatch.setattr(strreg.cds, "_find_needle", find)
    monkeypatch.setattr(strreg.cds, "_borders_match",
                        lambda x, n, b: events.append(None) or real_check(x, n, b))
    x = FAMILIES[family](LARGE)
    v = widened(build_cds(x))
    w = v._entries.itemsize
    reached = 0
    for query in (border_cds, borders_cds):
        events.clear()
        query(v, x)
        unaligned = [k for k, h in enumerate(events) if h is not None and h > 0 and h % w]
        assert all(events[k + 1 : k + 2] != [None] for k in unaligned), query.__name__
        reached += len(unaligned)
    assert reached


def test_defect_end_walk_falls_back():
    # Without the budget the walk would confirm about m/5 candidates here.
    x = FAMILIES["abcab-defect-end"](LARGE)
    with fallbacks() as built:
        assert border_cds(build_cds(x), x) == (0, -1)
    assert built == [len(x)]


class CountingText(bytes):
    """A text that counts the ``find`` and ``startswith`` calls made on it,
    and the bytes each may read: a find's whole window, a prefix's length."""

    calls = read = 0

    def find(self, sub, start, end):
        self.calls += 1
        self.read += end - start
        return super().find(sub, start, end)

    def startswith(self, prefix, start=0):
        self.calls += 1
        self.read += len(prefix)
        return super().startswith(prefix, start)


@pytest.mark.parametrize("n", (10**5, 10**6))
@pytest.mark.parametrize("family", ("abcab-defect-start", "abcab-defect-end",
                                    "unary-defect-tail", "period-1000-pivot-defect"))
def test_fallback_work_is_linear(family, n):
    # The families whose walk falls back. The fallback reads O(n) bytes in
    # O(log² n) calls, whatever the text.
    x = FAMILIES[family](n)
    counted = CountingText(x)
    assert strreg.cds._longest_border(counted, n) == n - period_classical(x)
    assert counted.calls <= 4 * math.log2(n) ** 2
    assert counted.read <= 16 * n


# The chain of this text is [3, 1]. With no budget its walk falls back on
# the whole text and on the next subject, 3; the last subject, 1, holds no
# second pivot.
@example(b"abaacaaba", 0)
@given(st.text(alphabet="abc", min_size=1, max_size=96).map(str.encode),
       st.integers(0, 8 * strreg.cds._CALL_COST))
def test_forced_fallback_keeps_result(x, budget):
    v, pivot = build_cds(x), x[:1]
    walked, walked_chain = border_cds(v, x), borders_cds(v, x)

    def searched(n):
        # Whether the walk of x[:n] makes a find or a character check: not
        # without a second pivot, nor when its only candidate, the empty
        # distance border, is blocked by the tail.
        m_bar = x.count(pivot, 0, n) - 1
        return m_bar > 1 or m_bar == 1 and v.distances[0] > n - 1 - x.rfind(pivot, 0, n)

    subjects = [n for n in (v.m, *walked_chain) if searched(n)]
    with pytest.MonkeyPatch.context() as mp, fallbacks() as built:
        mp.setattr(strreg.cds, "_budget", lambda m: budget)
        assert border_cds(v, x) == walked
        if budget == 0:
            assert built == subjects[:1]
        else:
            assert built in ([], subjects[:1])
        built.clear()
        assert borders_cds(v, x) == walked_chain
        # A walk that falls back on one subject walks the next with what is
        # left of the budget, so the fallbacks are some of the subjects, in
        # order; with no budget, all of them.
        if budget == 0:
            assert built == subjects
        else:
            rest = iter(subjects)
            assert all(n in rest for n in built)
    b, i_bar = walked
    if b:
        assert b == v.m - v.positions[v.m_bar - i_bar]
        assert x[:b] == x[v.m - b :]
    else:
        assert i_bar == -1


def test_walk_resumes_after_fallback():
    # The chain of aaabaa is [2, 1]. With entries of w bytes, a budget of
    # three calls and 3w + 4 bytes pays for one search (w bytes scanned) and
    # one failed check (5 bytes) on the whole text, whose walk then falls
    # back, as the next search would scan 2w bytes; what is left pays for the
    # one check of the next subject.
    x = b"aaabaa"
    for v in (build_cds(x), widened(build_cds(x))):
        w = v._entries.itemsize
        with pytest.MonkeyPatch.context() as mp, fallbacks() as built:
            mp.setattr(strreg.cds, "_budget", lambda m: 3 * strreg.cds._CALL_COST + 3 * w + 4)
            assert borders_cds(v, x) == [2, 1], w
        assert built == [6], w


@given(st.text(alphabet="ab", min_size=1, max_size=64).map(str.encode) | st.binary(min_size=1, max_size=64),
       st.integers(1, 64))
def test_covers_matches_definition(x, b):
    b = min(b, len(x))
    assert covers(x, b) == is_covering(occurrences(x[:b], x), b, len(x))


def test_covers_rejects_out_of_range_length():
    for b in (0, 4):
        with pytest.raises(ValueError):
            covers(b"abc", b)


@st.composite
def periodic_with_defects(draw):
    """A unit of 1-8 letters, or unary or ``aab``, repeated and cut to 1-300
    bytes, with 0-2 bytes replaced."""
    units = st.text(alphabet="abcd", min_size=1, max_size=8).map(str.encode)
    unit = draw(st.sampled_from((b"a", b"aab")) | units)
    m = draw(st.integers(1, 300))
    x = bytearray((unit * (m // len(unit) + 1))[:m])
    for _ in range(draw(st.integers(0, 2))):
        x[draw(st.integers(0, m - 1))] = draw(st.sampled_from(b"abcdz"))
    return bytes(x)


@st.composite
def long_periodic_with_defects(draw):
    """A unit of 1-60 letters over 1-4 symbols, repeated and cut to 1-3000
    bytes, with 0-2 bytes replaced."""
    letters = b"abcd"[: draw(st.integers(1, 4))]
    unit = bytes(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=60)))
    m = draw(st.integers(1, 3000))
    x = bytearray((unit * (m // len(unit) + 1))[:m])
    for _ in range(draw(st.integers(0, 2))):
        x[draw(st.integers(0, m - 1))] = draw(st.sampled_from(letters + b"z"))
    return bytes(x)


@given(long_periodic_with_defects(), st.data())
def test_fallback_on_long_periodic_texts(x, data):
    # Long bands, which the exhaustive small strings never reach.
    m = len(x)
    expected = border_array(x)
    for n in {m, max(1, m - 1), data.draw(st.integers(1, m))}:
        assert strreg.cds._longest_border(x, n) == expected[n], n


@given(periodic_with_defects())
def test_cover_search_on_periodic_texts(x):
    c = naive_shortest_cover(x)
    assert shortest_cover_classical(x) == c
    assert shortest_cover_cds(build_cds(x), x) == c


@pytest.mark.parametrize("make, cover", [
    (unary, 1),
    (aab, 4),
    (lambda n: (b"abb" * (n // 3 + 1))[:n], 4),
], ids=("unary", "aab", "abb"))
def test_cover_tests_stay_inside_first_chain_entry(make, cover, covers_calls):
    # The first chain entry p + m mod p covers a text of period p, so no
    # candidate needs to be tested on more of the text than that prefix.
    x = make(10**5)
    p = period_classical(x)
    first = p + len(x) % p
    assert border_chain(x)[0] == first
    for route in (shortest_cover_classical, lambda x: shortest_cover_cds(build_cds(x), x)):
        covers_calls.clear()
        assert route(x) == cover
        assert all(n <= first for _, n in covers_calls), covers_calls


def test_cover_search_work_on_fibonacci(covers_calls):
    # Fibonacci text's first chain entry fails the period test. A border
    # that covers still becomes the prefix the shorter ones are tested on,
    # so the short candidates are never tested on most of the text. A call
    # covers(y, b) makes at most len(y) // b finds.
    x = fibonacci(10**5)
    for route in (shortest_cover_classical, lambda x: shortest_cover_cds(build_cds(x), x)):
        covers_calls.clear()
        assert route(x) == 67
        assert sum(n // b for b, n in covers_calls) <= len(x) // 100, covers_calls


# Runs of the packed edge cases: zero runs (adjacent pivots), and gaps of
# 256 and more, whose entries use more than one byte.
EDGE_RUNS = st.tuples(st.sampled_from((0, 0, 1, 2, 255, 256, 257)), st.sampled_from(b"bc"))
ZEROS = st.integers(0, 24).map(lambda n: [(0, 98)] * n)


# Zero islands around a run of 2: the needle of zero runs also matches one
# byte past the 2, at an unaligned offset, where a comparison that runs into
# the end of the packed bytes cannot tell it from a border.
@example(lead=[(0, 98)] * 20, unit=[(2, 98)], reps=1, trail=[(0, 98)] * 19, tail=0)
@given(lead=ZEROS, unit=st.lists(EDGE_RUNS, min_size=1, max_size=4), reps=st.integers(1, 6),
       trail=ZEROS, tail=st.integers(0, 3))
def test_packed_edge_runs(lead, unit, reps, trail, tail, answers_by_tier, text_from_runs):
    x = text_from_runs(lead + unit * reps + trail, tail)
    answers = answers_by_tier(x)
    (b, _), chain = answers["default"]
    assert answers == dict.fromkeys(answers, answers["default"])
    assert b == len(x) - naive_period(x)
    assert chain == border_chain(x)
