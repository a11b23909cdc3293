"""The benchmark's tracer rebinds public names of ivadapt by attribute.

A refactor that drops one of those names (for example an import that
looks unused) would only fail under ``ivbench/run.py --trace 1``; this
test makes it fail here.
"""

from pathlib import Path

import ivadapt
import ivadapt.cli  # noqa: F401  (the tracer rebinds names in the CLI module too)

IVBENCH = Path(__file__).resolve().parents[1] / "ivbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(IVBENCH))
    import layers

    bindings = layers.StudyTrace().bindings(ivadapt)
    assert bindings
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in bindings if not hasattr(owner, name)]
    assert missing == []
