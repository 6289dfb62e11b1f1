"""The traced benchmark run wraps package functions by name; they must exist.

`perfbench/spans.py` replaces names such as `softlip.lipschitz.jacobian`
and `softlip.estimator.softmax` with timing wrappers. A refactor that
renames or stops importing one of them would break
`perfbench/run.py --trace 1` without failing any other test. The module is
loaded from its file without writing bytecode next to it, and nothing is
installed or wrapped.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.WRAPPED
    for module, attr, _, _ in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
