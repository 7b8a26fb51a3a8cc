"""What the benchmark under ``perfbench/`` reaches into the package for.

The benchmark wraps the names ``tracing.BINDINGS`` lists, and re-runs seeded
trials of every ``run`` through ``checks.cross_engine``; a rename or an
engine change that breaks either would fail every benchmark invocation.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ghzqss import adversary, harness
from ghzqss.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _load(name):
    """``perfbench/<name>.py`` as a module (``perfbench`` is not a package),
    registered in ``sys.modules``, where its dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_in_its_module():
    for module, names in _load("tracing").BINDINGS.items():
        bound = importlib.import_module(module)
        assert [name for name in names if not callable(getattr(bound, name, None))] == [], module


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("attack", ["none", "intercept-resend", "cnot-ancilla"])
def test_cross_engine_check_passes_on_a_small_run(capsys, attack, fmt):
    checks = _load("checks")
    inv = checks.Invocation("run", attack=attack, n_bits=16, trials=64, fmt=fmt, seed=3)
    assert main(inv.cli_args()) == 0
    assert checks.cross_engine(inv, capsys.readouterr().out, harness, adversary, samples=3) == []
