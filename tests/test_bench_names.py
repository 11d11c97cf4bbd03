"""The names the benchmark harness in ``perfbench/`` reads from the package.

``perfbench/spans.py`` wraps each entry of ``TARGETS`` by name: a module
attribute of the layer's module, or ``Class.__dict__[method]`` for a
method, which must be defined in the class body itself.
``perfbench/worker.py`` imports ``THREADS_ENV`` and ``thread_count`` from
``sigma_eikonal.distance``.  A rename or a move of any of them breaks a
traced benchmark run or the worker, so it must fail here first.  The test
only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans",
    Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("layer,target", [(layer, target) for layer, target,
                                          _ in spans.TARGETS])
def test_span_target_resolves(layer, target):
    """Each target is found the way Tracer.install looks it up."""
    owner = importlib.import_module(f"sigma_eikonal.{layer}")
    if "." in target:
        cls_name, meth = target.split(".")
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, target))


def test_every_layer_is_a_module():
    for layer in spans.LAYERS:
        importlib.import_module(f"sigma_eikonal.{layer}")


def test_worker_imports_resolve():
    from sigma_eikonal.distance import THREADS_ENV, thread_count
    assert isinstance(THREADS_ENV, str) and THREADS_ENV
    assert thread_count() >= 1
