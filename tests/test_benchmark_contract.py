"""The benchmark's workloads run against the source tree at their tiny size.

``perfbench/workloads.py`` reads ``entries``, ``phases()``, the samplers
and the estimators; a change under ``src/`` that breaks that use fails
here.  Each workload goes through setup, inputs, op and check for two ops.
``perfbench/tracing.py`` wraps functions at the names their callers look
up, so every one of those names must still resolve.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_ops_pass_their_checks(name):
    w = workloads.WORKLOADS[name](seed=1, size="tiny")
    w.setup()
    for i in range(2):
        inp = w.inputs(i)
        out = w.op(inp)
        assert w.check(inp, out) is None
        assert isinstance(w.canon(out), str)
    assert w.finish() is None


@pytest.mark.parametrize("entry", tracing.TRACED, ids=lambda e: e[2])
def test_traced_names_resolve(entry):
    owner, attr = entry[:2]
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
