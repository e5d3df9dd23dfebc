"""Shortest covers of every small string, up to relabelling.

The strings are those whose letters first appear in the order a, b, c, ...:
over two letters up to length 16 (65 535 strings) and over three up to length
10 (14 767). Both routes must give the same shortest cover, and it must equal
the oracle up to length 12. Random fuzz rarely reaches the short texts whose
chains mix reduced and plain steps; here every one of them is run.
"""

import pytest

from strreg.cds import shortest_cover_cds
from strreg.classical import naive_shortest_cover, shortest_cover_classical
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
