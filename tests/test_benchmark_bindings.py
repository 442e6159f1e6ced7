"""The names the benchmark's tracer binds resolve in mpdec.

perfbench/tracer.py wraps functions by (module, name); a renamed or moved
function would drop out of the per-layer metrics without an error there.
"""

import importlib
import importlib.util
from pathlib import Path

import mpdec.decomposer
import mpdec.hom

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer_module()
    names = [entry[:2] for entry in tracer.TRACED] + [tracer.GENERATOR[:2]]
    for mod, attr in names:
        module = importlib.import_module(f"mpdec.{mod}")
        assert callable(getattr(module, attr, None)), f"mpdec.{mod}.{attr}"


def test_decomposer_binds_hom_pairs():
    # perfbench/test_perfbench.py checks that the tracer replaces this
    # binding and restores it
    assert mpdec.decomposer.hom_pairs is mpdec.hom.hom_pairs
