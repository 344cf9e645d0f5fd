"""The benchmark's tracer wraps rdl names from outside the package.

perfbench/tracer.py looks each name up with getattr, so renaming or deleting
one (say busemann.k_functional_and_equality or heat_kernels.KernelEval)
breaks the traced benchmark run.  These tests install the tracer in a fresh
process, as the benchmark worker does, and fail if any of its names is gone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import rdl

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
tr = tracer.Tracer()
tracer.install(tr)
from rdl import estimators
from rdl.model_spaces import HalfPlane
tr.active = True
estimators.inequality_report(HalfPlane())
tr.active = False
print(json.dumps(sorted({span[0] for span in tr.spans})))
"""


def test_tracer_installs_on_every_patch_point():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rdl.__file__)))
    proc = subprocess.run([sys.executable, "-c", _INSTALL, str(ROOT / "perfbench")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.splitlines()[-1])
    # the half-plane report reaches the k functional through the wrapped module attribute
    assert {"estimators.report", "busemann.k_functional", "heat_kernels.log_q_h2"} <= set(spans)
