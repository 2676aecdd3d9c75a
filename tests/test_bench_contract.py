"""The benchmark reaches into the engine by name: its tracer
(``bench/tracing.py``) wraps entry points, and ``make_reference.reset_session``
clears the default evaluator's cache and Serre-partner record and the
``cotangent_tangent_pair`` cache.  Renaming any of them breaks the benchmark.
This checks both still work against the current sources."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_current_sources():
    # reset first: the tracer replaces cotangent_tangent_pair by a plain wrapper
    code = "import make_reference, tracing; make_reference.reset_session(); tracing.install(tracing.Tracer())"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")] + sys.path)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
