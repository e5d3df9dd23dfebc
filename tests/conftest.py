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
# candidates: the packed search alone, or the text's border array, reached
# either at the first search (no allowance) or at the first character check
# (no budget).
TIERS = {
    "default": {},
    "packed": {"_SEARCH_PER_BYTE": 10**9, "_BUDGET_PER_BYTE": 10**9},
    "no-allowance": {"_SEARCH_PER_BYTE": 0, "_BUDGET_PER_BYTE": 10**9},
    "text-array": {"_BUDGET_PER_BYTE": 0},
}


@pytest.fixture(scope="session")
def answers_by_tier():
    """``answers(x)``: per entry of TIERS, the longest border and the chain of ``x``."""
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
        return out

    return answers


@pytest.fixture(scope="session")
def text_from_runs():
    """``text(runs, tail)``: pivot ``a``, then per (length, letter) run that
    many letters and a pivot, then ``tail`` copies of ``b``."""

    def text(runs, tail=0):
        return b"a" + b"".join(bytes([c]) * r + b"a" for r, c in runs) + b"b" * tail

    return text
