"""Adversarial string families against the sampled route.

Periodic and near-periodic texts give the distance sequence long border
chains. On them the sampled route must agree with the classical route and
with the oracles, and its character checks must stay within the per-query
budget of bytes compared, whatever the walk would otherwise have confirmed.
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


FAMILIES = {
    "unary": unary,
    "fibonacci": fibonacci,
    "thue-morse": thue_morse,
    "aab": aab,
    "abcab-defect-start": abcab_defect("start"),
    "abcab-defect-middle": abcab_defect("middle"),
    "abcab-defect-end": abcab_defect("end"),
    "abcab-defect-end-twice": abcab_defect_end_twice,
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
def test_bytes_compared_within_budget(family, bytes_compared):
    x = FAMILIES[family](LARGE)
    v = build_cds(x)
    queries = (
        lambda: border_cds(v, x),
        lambda: border_cds(v, x, check_chars=True),
        lambda: borders_cds(v, x),
        lambda: shortest_cover_cds(v, x),
    )
    for query in queries:
        bytes_compared.clear()
        query()
        assert sum(bytes_compared) <= 4 * len(x)


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
