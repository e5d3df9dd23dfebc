"""Adversarial string families against the sampled route.

Periodic and near-periodic texts give the distance sequence long border
chains. On them the sampled route must agree with the classical route and
with the oracles, and its character checks must stay within the per-query
budget of bytes compared, whatever the walk would otherwise have confirmed.
The packed search of the distance borders must stay within its own
allowance, and each source of candidates must give the same answers.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import strreg.cds
import strreg.classical
from strreg.cds import border_cds, borders_cds, period_cds, shortest_cover_cds
from strreg.classical import (
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
    # a^h b a^h' c: the tail blocks every distance border, and confirming
    # them all would cost the packed search ~m^2 bytes.
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
    """Per-query work of the packed search: per call, its bytes and the call cost."""
    call = strreg.cds._CALL_COST
    real_find, real_match = strreg.cds._find_needle, strreg.cds._runs_match
    spent = []

    def find(packed, needle, start, end):
        h = real_find(packed, needle, start, end)
        spent.append(call + (h + len(needle) if h >= 0 else end) - start)
        return h

    def match(packed, window, lo):
        spent.append(call + len(window))
        return real_match(packed, window, lo)

    monkeypatch.setattr(strreg.cds, "_find_needle", find)
    monkeypatch.setattr(strreg.cds, "_runs_match", match)
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
def test_matches_oracles(family):
    for n in SMALL:
        x = FAMILIES[family](n)
        v = build_cds(x)
        assert period_cds(v, x) == naive_period(x), n
        assert shortest_cover_cds(v, x) == naive_shortest_cover(x), n


@pytest.mark.parametrize("family", FAMILIES)
def test_bytes_compared_within_budget(family, bytes_compared, packed_charged):
    x = FAMILIES[family](LARGE)
    v = build_cds(x)
    allowance = strreg.cds._SEARCH_PER_BYTE * len(v._runs)
    queries = (
        lambda: border_cds(v, x),
        lambda: borders_cds(v, x),
        lambda: shortest_cover_cds(v, x),
    )
    for query in queries:
        bytes_compared.clear()
        packed_charged.clear()
        query()
        assert sum(bytes_compared) <= 4 * len(x)
        assert sum(packed_charged) <= allowance


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
    monkeypatch.setattr(strreg.cds, "_BUDGET_PER_BYTE", 10**9)
    x = FAMILIES[family](LARGE)
    border_cds(build_cds(x), x)
    assert len(set(bytes_compared)) == len(bytes_compared)


@pytest.mark.parametrize("family", ("unary", "fibonacci", "thue-morse", "aab", "islands"))
def test_binary_checks_within_budget(family, monkeypatch):
    # Binary texts are checked like any other. Their first candidate that
    # clears the tail is a border, so with the packed search given all the
    # allowance it needs, the checks never spend the budget.
    x = FAMILIES[family](LARGE)
    assert len(set(x)) <= 2
    v = build_cds(x)
    b, chain = len(x) - period_classical(x), border_chain(x)
    built = []
    real = strreg.classical.border_array
    monkeypatch.setattr(strreg.classical, "border_array", lambda s: built.append(s) or real(s))
    monkeypatch.setattr(strreg.cds, "_SEARCH_PER_BYTE", 10**9)
    assert border_cds(v, x).b == b
    assert borders_cds(v, x) == chain
    assert built == []


def test_blocked_hits_not_compared(monkeypatch):
    # The tail blocks every distance border of a^h b a^h' c, so the packed
    # search passes its hits over without comparing them.
    compared = []
    real = strreg.cds._runs_match
    monkeypatch.setattr(strreg.cds, "_runs_match",
                        lambda packed, window, lo: compared.append(lo) or real(packed, window, lo))
    x = unary_defect_tail(LARGE)
    assert border_cds(build_cds(x), x) == (0, -1)
    assert compared == []


def test_defect_end_walk_falls_back(monkeypatch):
    # Without the budget the walk would confirm about m/5 candidates here.
    built = []
    real = strreg.classical.border_array
    monkeypatch.setattr(strreg.classical, "border_array", lambda s: built.append(s) or real(s))
    x = FAMILIES["abcab-defect-end"](LARGE)
    assert border_cds(build_cds(x), x) == (0, -1)
    assert built == [x]


# At budget 1 this text rejects one candidate, confirms border 3 and falls
# back on the next subject of its chain, [3, 1].
@example(b"abaacaaba")
@given(st.text(alphabet="abc", min_size=1, max_size=96).map(str.encode))
def test_forced_fallback_keeps_result(x):
    v = build_cds(x)
    walked = border_cds(v, x)
    walked_chain = borders_cds(v, x)
    real = strreg.classical.border_array
    for budget in (0, 1):
        built = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strreg.cds, "_BUDGET_PER_BYTE", budget)
            mp.setattr(strreg.classical, "border_array", lambda s: built.append(s) or real(s))
            assert border_cds(v, x) == walked
            assert built in ([], [x])
            built.clear()
            assert borders_cds(v, x) == walked_chain
            assert built in ([], [x])
    b, i_bar = walked
    if b:
        assert b == v.m - v.positions[v.m_bar - i_bar]
        assert x[:b] == x[v.m - b :]
    else:
        assert i_bar == -1


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
