"""Every stage function the benchmark tracer patches must exist under its name.

perfbench/spans.py wraps each ``(module, name)`` of ``PATCH_SITES`` with
``getattr``; a refactor that drops or renames one breaks the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _patch_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_SITES


SITES = [(mod, name) for mod, names in _patch_sites().items() for name in names]


@pytest.mark.parametrize("modname,name", SITES)
def test_patch_site_resolves(modname, name):
    module = importlib.import_module(modname)
    assert callable(getattr(module, name))
