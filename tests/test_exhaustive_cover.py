"""Longest borders, border chains and shortest covers of every small string,
up to relabelling.

The strings are those whose letters first appear in the order a, b, c, ...
For the cover: over two letters up to length 16 (65 535 strings) and over
three up to length 10 (14 767). Both routes must give the same shortest
cover, and it must equal the oracle up to length 12. Random fuzz rarely
reaches the short texts whose chains mix reduced and plain steps; here every
one of them is run. For the longest border and the chain: over two letters
up to length 14 and over three up to length 9: under the default settings,
with the sampled walk given a budget that never runs out and needles of 1,
2 and 16 entries, and again with every query that needs a search or a
check sent to the walk's fallback. The fallback is also run on its own on
every prefix of those strings, with its first search of 1, 2, 3 and 64
bytes.
"""

import pytest

import strreg.cds
from conftest import TIERS
from strreg.cds import border_cds, borders_cds, shortest_cover_cds
from strreg.classical import (
    border_array,
    border_chain,
    naive_shortest_cover,
    shortest_cover_classical,
)
from strreg.sampling import build_cds

ORACLE_MAX_LEN = 12


def canonical(sigma, max_len):
    """Every string of length 1 to ``max_len`` over ``sigma`` letters whose
    letters first appear as a, b, c, ..., shortest first."""
    level = [(b"a", 1)]  # (string, letters used)
    for _ in range(max_len - 1):
        yield from (s for s, _ in level)
        level = [(s + bytes([97 + c]), max(k, c + 1))
                 for s, k in level for c in range(min(k + 1, sigma))]
    yield from (s for s, _ in level)


@pytest.mark.parametrize("sigma, max_len, count", [(2, 16, 65_535), (3, 10, 14_767)])
def test_cover_routes_agree_on_every_small_string(sigma, max_len, count):
    seen = 0
    for x in canonical(sigma, max_len):
        seen += 1
        c = shortest_cover_classical(x)
        assert shortest_cover_cds(build_cds(x), x) == c, x
        if len(x) <= ORACLE_MAX_LEN:
            assert c == naive_shortest_cover(x), x
    assert seen == count


@pytest.mark.parametrize("tier, needle", [
    pytest.param("default", strreg.cds._NEEDLE, id="default"),
    pytest.param("walk", 1, id="1"),
    pytest.param("walk", 2, id="2"),
    pytest.param("walk", 16, id="16"),
    pytest.param("fallback", strreg.cds._NEEDLE, id="fallback"),
])
def test_border_routes_agree_on_every_small_string(tier, needle, monkeypatch):
    # The budget's floor lets the default walk search texts this short; the
    # walk tier keeps it on its own candidates whatever they cost, and the
    # fallback tier sends every query that needs a search or a check to the
    # fallback.
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(strreg.cds, name, value)
    monkeypatch.setattr(strreg.cds, "_NEEDLE", needle)
    for x in (*canonical(2, 14), *canonical(3, 9)):
        v = build_cds(x)
        assert border_cds(v, x).b == border_array(x)[len(x)], x
        assert borders_cds(v, x) == border_chain(x), x


@pytest.mark.parametrize("prefix", (1, 2, 3, strreg.cds._PREFIX))
def test_fallback_on_every_prefix(prefix, monkeypatch):
    # Each string of the longest length, at every n: its prefixes are every
    # shorter string, and no byte past n may change the answer.
    monkeypatch.setattr(strreg.cds, "_PREFIX", prefix)
    for sigma, max_len in ((2, 14), (3, 9)):
        for x in canonical(sigma, max_len):
            if len(x) == max_len:
                expected = border_array(x)
                for n in range(1, max_len + 1):
                    assert strreg.cds._longest_border(x, n) == expected[n], (x, n)
