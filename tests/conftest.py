import dataclasses
from array import array

import pytest
from hypothesis import HealthCheck, settings

# Shared-box timing is jittery; property tests should never fail on deadlines.
settings.register_profile(
    "strreg",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("strreg")


@pytest.fixture(scope="session")
def english_like_1e6():
    """One million bytes over 26 letters, shared by benchmark-flavored tests."""
    from strreg.text import GenSpec, gen_text

    return gen_text(GenSpec(alphabet_size=26, length=10**6, seed=2026))


# Settings of strreg.cds that confine the sampled walk to one source of
# answers: the packed search and its text checks alone, with a budget that
# never runs out, or the fallback's prefix searches of the text, with no
# budget at all.
TIERS = {
    "default": {},
    "walk": {"_budget": lambda m: 10**18},
    "fallback": {"_budget": lambda m: 0},
}


def widened(v):
    """The view ``v`` with its runs re-packed as 4-byte entries, the layout
    that a view takes when one run is over 255."""
    return dataclasses.replace(v, _runs=array("i", v._entries).tobytes(), _code="i")


@pytest.fixture(scope="session")
def answers_by_tier():
    """``answers(x)``: per entry of TIERS, the longest border and the chain of
    ``x``, which the view of ``x`` and that view widened must both give."""
    import strreg.cds
    from strreg.cds import border_cds, borders_cds
    from strreg.sampling import build_cds

    def answers(x):
        v = build_cds(x)
        out = {}
        for tier, values in TIERS.items():
            with pytest.MonkeyPatch.context() as mp:
                for name, value in values.items():
                    mp.setattr(strreg.cds, name, value)
                out[tier] = (border_cds(v, x), borders_cds(v, x))
                wide = widened(v)
                assert (border_cds(wide, x), borders_cds(wide, x)) == out[tier], tier
        return out

    return answers


@pytest.fixture(scope="session")
def text_from_runs():
    """``text(runs, tail)``: pivot ``a``, then per (length, letter) run that
    many letters and a pivot, then ``tail`` copies of ``b``."""

    def text(runs, tail=0):
        return b"a" + b"".join(bytes([c]) * r + b"a" for r, c in runs) + b"b" * tail

    return text
