"""The benchmark's tracer (`benchmarks/tracing.py`) wraps names in `permopt`
by module and attribute. Each of them must resolve in this checkout's
`src`, or a rename would break only a traced benchmark run."""

import importlib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BOUNDARIES = runpy.run_path(str(ROOT / "benchmarks" / "tracing.py"))["BOUNDARIES"]
PAIRS = sorted({(module, attr) for module, attr, *_ in BOUNDARIES})


@pytest.mark.parametrize("module,attr", PAIRS, ids=[f"{m}.{a}" for m, a in PAIRS])
def test_boundary_resolves_in_src(module, attr):
    mod = importlib.import_module(module)
    assert Path(mod.__file__).resolve().is_relative_to(ROOT / "src")
    assert callable(getattr(mod, attr, None))
