"""The bench tracer patches layer functions by (module, name); every such
name must still exist in spectrekit, or its spans silently vanish.  It finds
the modules in ``sys.modules`` after importing the CLI alone."""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACE_JOB = Path(__file__).resolve().parents[1] / "bench" / "trace_job.py"


def _trace_job():
    spec = importlib.util.spec_from_file_location("trace_job", TRACE_JOB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_job = _trace_job()


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"spectrekit.{module}"), name)


@pytest.mark.parametrize("module,name", [t[:2] for t in trace_job.TRACED],
                         ids=lambda v: v)
def test_traced_function_exists(module, name):
    assert callable(_resolve(module, name))


@pytest.mark.parametrize("module,name", list(trace_job.RELABEL), ids=lambda v: v)
def test_relabelled_name_is_a_traced_function(module, name):
    # The tracer relabels only names bound to one of the traced functions.
    traced = {id(_resolve(m, n)) for m, n, *_ in trace_job.TRACED}
    assert id(_resolve(module, name)) in traced


def test_cli_import_loads_every_traced_layer_and_not_dataclasses():
    # The tracer looks each traced module up in sys.modules right after
    # ``import spectrekit.cli``, so the CLI must import every layer.  Importing
    # ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``, which every CLI
    # process would pay for at start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spectrekit.cli; "
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = set(out.split())
    assert {f"spectrekit.{m}" for m, *_ in trace_job.TRACED} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
