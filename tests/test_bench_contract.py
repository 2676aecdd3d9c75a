"""The benchmark's tracer (``bench/tracing.py``) wraps engine entry points
by name, so renaming one breaks traced benchmark runs.  This checks the
tracer still installs against the current sources."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_current_sources():
    code = "import tracing; tracing.install(tracing.Tracer())"
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
