"""The query benchmark's tracer must keep finding the functions it wraps,
and its inputs must keep their bytes.

``querybench/tracing.py`` replaces named functions in strreg's module
namespaces; a rename in strreg, or a call that reaches a function without
looking it up there, would otherwise only surface when a traced run is
started by hand. ``querybench/workloads.py`` builds every input from
``strreg.text.gen_text``, so a change there that alters an input would
otherwise only show as moved timings.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from strreg import cli

TRACING = Path(__file__).resolve().parent.parent / "querybench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")

# sha256 of every input of each workload at seed 1.
INPUT_SHA256 = {
    "random-text": {
        "uniform-s26-1000000-0":
            "5aa7156980cf4ec611ce9ee658d28bf62f4600960b435c6c7b66caba6450a625",
        "uniform-s26-1000000-1":
            "6274ee86904877c7f5034427123308eb3ec331574900992fad90bd933dbc44fa",
        "uniform-s26-1000000-2":
            "55c1fab7a3c0aac38ba7d3962fe36a6268c3aa5150e8ddb12e08e713f849b0d1",
    },
    "dense-pivot": {
        "uniform-s2-1000000":
            "68a2ed6602e181d3aa560f2318670df0a86dd3a9d21201108783bdd3633b9e93",
        "uniform-s3-1000000":
            "9af867393c9fb4a9396ed200e79565cf59901ac3d5cbfbc4af73113d83573b4e",
        "uniform-s4-1000000":
            "2320a39364f2d05dfb7a17c6375320f5f4084ce131d9f784af38340a7f39ee31",
    },
    "periodic-cover": {
        "forced-s26-P1000-1000000":
            "93edc288347c986da5864909eb6f410359638a6c5e82f55cbf918ce747b3be81",
        "forced-s2-P3-200000":
            "fd387fa959a5a5525cf7556f0dc03805fc130a2fe7f11c5a2469b64888604a8c",
        "aab-200000":
            "76e25ccbdb5bc8f0bf46f7e056119390d6489ce0c588433131ad0340c8d6c5d4",
        "fibonacci-200000":
            "9d67c5f119f760fc6bdd826c5c3e3ae5a0eb8358470ff84ec054d90849c9f139",
        "thue-morse-200000":
            "d5c25f95b64bd4e4fa0720f9135182c38c05ccdeda1aad9edc9b68e64da3bb6d",
        "unary-200000":
            "2287d207f24a941ff3b56c04c8a25ad56b63e3023207b3bb5b4ac0c9869d74be",
    },
    "defect-worst-case": {
        "defect-start-100000":
            "d41d3f033bdf9770d47f0635a1e2fa57fc96427e5d8492d6cf8a2c3cfcbaa1f0",
        "defect-middle-100000":
            "34b3a761911c9519d856d081230591f91a044bdbc5e0e4bca756598ace80c10b",
        "defect-end-100000":
            "30d6e26c31ccfd12fd84d1e1667cc8e5c8ae47071af7f6c8fad3b55743daea1f",
        "defect-start-200000":
            "c90268bb229f712245769294b3b25d40bb206b0a06251c23aea5a995da9d711e",
        "defect-middle-200000":
            "79fef4f6e38c9941e2ecde5e3bdd1c7ac51a704a7f212c58d20f50acb13a64cb",
        "defect-end-200000":
            "b4ae4f100aec044320e7edf46e0746f913035366c279059b28a97329350283e2",
    },
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("querybench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("querybench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclass looks its own module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


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


@pytest.mark.parametrize("workload", INPUT_SHA256)
def test_workload_inputs_pinned(workloads, workload):
    assert tuple(INPUT_SHA256) == workloads.WORKLOADS
    digests = {i.name: hashlib.sha256(i.data).hexdigest() for i in workloads.build_inputs(workload, 1)}
    assert digests == INPUT_SHA256[workload]
