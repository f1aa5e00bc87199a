"""The traced benchmark (perfbench/spans.py) wraps birlab functions by name.

A renamed or deleted function would only show as an AttributeError in a
``perfbench/run.py --trace 1`` run; this test enters and leaves the tracer
so that it shows in the test suite, and checks that every original is put
back.
"""

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _birlab_names():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "birlab"
        for key, value in vars(module).items()
    }


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer._targets()]
    # getattr_static raises AttributeError on a missing name
    originals = {target: inspect.getattr_static(*target) for target in targets}
    names = _birlab_names()
    with tracer:
        for target in targets:
            assert inspect.getattr_static(*target) is not originals[target], target
    for target in targets:
        assert inspect.getattr_static(*target) is originals[target], target
    restored = _birlab_names()
    assert restored.keys() == names.keys()
    assert all(restored[key] is value for key, value in names.items())
