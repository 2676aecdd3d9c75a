"""The benchmark reaches into the engine by name: its tracer
(``bench/tracing.py``) wraps entry points, and ``make_reference.reset_session``
clears the default evaluator's cache and Serre-partner record and the
``cotangent_tangent_pair`` cache.  Renaming any of them breaks the benchmark.
This checks both still work against the current sources, and that the
tracer's long-exact-sequence counters still see the solves they count: a
renamed method would leave its per-layer metric reading 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# reset first: the tracer replaces cotangent_tangent_pair by a plain wrapper
CODE = """
import make_reference, tracing
import logacm as L
from logacm.exactseq import BlowupCotE, Evaluator, LineE, SeqE

make_reference.reset_session()
tracer = tracing.Tracer()
tracing.install(tracer)
ev = Evaluator()
f0 = L.hirzebruch(0)
bounded = SeqE(f0, LineE(f0, (2, 0)), None, LineE(f0, (0, 2)), 2, name="bounded")
ev.cohom(bounded, (0, 0))
bl2 = L.blowup_p2(2)
unbounded = SeqE(bl2, LineE(bl2, (0, 0, 0)), None, BlowupCotE(bl2), 2, name="unbounded")
assert ev.cohom(unbounded, (3, 0, 0))[0].hi is None
calls, _ = tracer.summary()
assert tracer.counts["exactseq.solve.points"] > 0, tracer.counts
assert calls["exactseq.solve"] >= 2 and calls["exactseq.solve_coarse"] >= 1, calls
"""


def test_tracer_installs_on_current_sources():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")] + sys.path)
    proc = subprocess.run(
        [sys.executable, "-c", CODE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
