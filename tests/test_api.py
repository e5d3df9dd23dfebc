import strreg

PUBLIC = [
    "BorderArray",
    "BorderChain",
    "CdsBorderResult",
    "CdsView",
    "EmptyInputError",
    "GenSpec",
    "SamplingStats",
    "Text",
    "border_array",
    "border_cds",
    "border_chain",
    "borders_cds",
    "build_cds",
    "gen_text",
    "is_covering",
    "load_text",
    "naive_period",
    "naive_shortest_cover",
    "occurrences",
    "occurrences_via_cds",
    "period_cds",
    "period_classical",
    "sampling_stats",
    "shortest_cover_cds",
    "shortest_cover_classical",
]


def test_all_is_the_public_surface():
    assert sorted(strreg.__all__) == PUBLIC


def test_star_import_binds_every_name():
    # A stale __all__ entry passes `import strreg` but fails here.
    namespace = {}
    exec("from strreg import *", namespace)
    assert [name for name in PUBLIC if name not in namespace] == []
