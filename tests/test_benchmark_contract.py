"""The benchmark's workloads run against the source tree at their tiny size.

``perfbench/workloads.py`` reads ``entries``, ``phases()``, the samplers
and the estimators; a change under ``src/`` that breaks that use fails
here.  Each workload goes through setup, inputs, op and check for two ops.
``perfbench/tracing.py`` wraps functions at the names their callers look
up, so every one of those names must still resolve, and an import that
``src/`` keeps only for the trace (a ``noqa`` one) must be one of them.
"""

import ast
import hashlib
import importlib
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


def noqa_imports(source: str) -> list:
    """(line, bound name) of each import on a line that carries a ``noqa``."""
    lines = source.splitlines()
    return [(alias.lineno, alias.asname or alias.name)
            for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if "noqa" in lines[alias.lineno - 1]]


def test_finds_noqa_imports():
    source = "from a import (\n    b,  # noqa: F401\n    c,\n)\nimport d as e  # noqa\n"
    assert noqa_imports(source) == [(2, "b"), (5, "e")]


def test_noqa_imports_are_traced_names():
    # an import that src/ does not use stays only for perfbench to wrap at
    # that name; once the trace stops naming it, it is dead code
    traced = {(owner, attr) for owner, attr, *_ in tracing.TRACED}
    for path in sorted((ROOT / "src" / "stabsparse").glob("*.py")):
        name = "stabsparse" + ("" if path.stem == "__init__" else f".{path.stem}")
        module = importlib.import_module(name)
        for line, bound in noqa_imports(path.read_text()):
            assert (module, bound) in traced, f"{path.name}:{line} imports {bound}, which is not traced"


#: sha256 of the ``"{i} {canon}"`` lines of the first PRELOAD_OPS ops at full
#: size and seed 1, the digest ``perfbench/run.py --workload all --seed 1``
#: prints: every op's output, bit for bit
FULL_SEED1_DIGESTS = {
    "outcome_chain": "7a1cbf16452c2d00b70e8b0ee4c865ae04e126862a13e418fdef8778ad37aede",
    "sparsify_norm": "144d577e880f0c9c62374491deaf4b044ed61efa9b2166a1a520fe5e74cb3c0d",
    "fastnorm_ch": "834ced1571863254ad138210b6f185548adc223cde5d0a08081b849a4fd8848d",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_workload_digest_is_pinned(name):
    w = workloads.WORKLOADS[name](seed=1)
    w.setup()
    lines = []
    for i in range(workloads.PRELOAD_OPS):
        inp = w.inputs(i)
        out = w.op(inp)
        assert w.check(inp, out) is None
        lines.append(f"{i} {w.canon(out)}")
    assert w.finish() is None
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FULL_SEED1_DIGESTS[name]
