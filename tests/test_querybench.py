"""The query benchmark's tracer must keep finding the functions it wraps.

``querybench/tracing.py`` replaces named functions in strreg's module
namespaces; a rename in strreg, or a call that reaches a function without
looking it up there, would otherwise only surface when a traced run is
started by hand.
"""

import importlib.util
from pathlib import Path

import pytest

from strreg import cli

TRACING = Path(__file__).resolve().parent.parent / "querybench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("querybench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_patches_resolve(tracing):
    for module, attr, name in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        assert name in tracing.LAYER_OF_SPAN, name


@pytest.mark.parametrize("task, route, spans", [
    ("period", "cds", {"sampling.build_cds", "cds.period_cds", "cds.border_cds"}),
    ("cover", "classical", {"classical.shortest_cover_classical",
                            "classical.border_chain", "classical.border_array"}),
    ("borders", "cds", {"sampling.build_cds", "cds.borders_cds"}),
    ("cover", "cds", {"sampling.build_cds", "cds.shortest_cover_cds", "cds.borders_cds"}),
])
def test_traced_query_records_layers(tracing, tmp_path, capsys, task, route, spans):
    path = tmp_path / "fig1.txt"
    path.write_bytes(b"abaababaaba")
    with tracing.Tracer() as tracer:
        assert cli.main([task, str(path), "--method", route]) == 0
    capsys.readouterr()
    assert spans <= {span[0] for span in tracer.spans}
