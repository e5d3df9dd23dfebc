"""The query benchmark's tracer must keep finding the functions it wraps.

``querybench/tracing.py`` replaces named functions in strreg's module
namespaces; a rename in strreg would otherwise only surface when a traced
run is started by hand.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "querybench" / "tracing.py"


def test_trace_patches_resolve():
    spec = importlib.util.spec_from_file_location("querybench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, name in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        assert name in tracing.LAYER_OF_SPAN, name
