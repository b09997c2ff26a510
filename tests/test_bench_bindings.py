"""The benchmark's tracer swaps zenosim bindings by name; each must exist."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_binding_exists(monkeypatch):
    """A refactor that drops or renames a traced name (e.g. cli.channel_inputs)
    fails here, not only under `python -m pytest perfbench`."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{owner.__name__}.{name}" for owner, name, _ in tracer.BINDINGS if name not in owner.__dict__
    ]
    assert tracer.BINDINGS and not missing
