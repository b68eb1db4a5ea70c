"""The call sites perfbench traces must exist in the package.

perfbench/tracing.py times calls by replacing module attributes such as
lpvslc.design.equivalent_plant for the length of a run; a site that no
longer resolves is reported absent and its layer reads zero.  This test
reads the site lists from that file, without changing it, so a refactor
that drops or renames one of those names fails here and not only in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites():
    tracing = _tracing_module()
    sites = {(module, attr) for module, attr, _, _ in
             tracing.LIBRARY_SITES + tracing.CLI_SITES}
    # The tracer also replaces the simulator's kernel lookup.
    return sorted(sites | {("lpvslc._kernels", "get_backend")})


@pytest.mark.parametrize("module, attr", _sites())
def test_traced_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr}"

