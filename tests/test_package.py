"""The package layout: every name the benchmark's tracer wraps resolves,
and the command line runs without the test oracles."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ginet
import ginet.orbits

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for _span, modname, attr, _count in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    for _span, modname, clsname, meth, _count in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert meth in vars(cls), (modname, clsname, meth)
    # the package-level binding the tracer must also wrap
    assert ginet.layer_classes is ginet.orbits.layer_classes


def test_cli_runs_without_the_oracles():
    src = str(Path(ginet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ginet.cli; assert 'ginet.oracles' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
