"""The benchmark reaches into the engine by name: its tracer
(``bench/tracing.py``) wraps entry points, and ``make_reference.reset_session``
clears the default evaluator's cache and Serre-partner record and the
``cotangent_tangent_pair`` cache.  Renaming any of them breaks the benchmark.
This checks both still work against the current sources, and that the
tracer's long-exact-sequence counters still see the solves they count: a
renamed method would leave its per-layer metric reading 0.  The tracer still
wraps ``_solve_coarse``, which nothing calls: a solve with an unbounded flank
takes the same pass as any other, so the coarse counter reads 0.  It also checks
that the default evaluator's ``log_pair`` memo, which ``reset_session``
leaves in place, keeps both."""

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
assert calls["exactseq.solve"] >= 2 and calls["exactseq.solve_coarse"] == 0, calls
"""

# the default evaluator keeps each log pair it built, and reset_session does
# not clear that memo: a hit must fill the cleared partner record as the
# first build in a fresh interpreter did, and the tracer must count it
MEMO_CODE = """
import make_reference, tracing
import logacm as L
from logacm import logbundles

x = L.hirzebruch(1)
arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
ev = L.default_evaluator()
pair = L.log_pair(x, arr)
fresh = ev.serre_dual_pairs()
assert len(fresh) == 2, fresh
make_reference.reset_session()
assert ev.serre_dual_pairs() == []
assert L.log_pair(x, arr) is pair
assert ev.serre_dual_pairs() == fresh

tracer = tracing.Tracer()
tracing.install(tracer)
for _ in range(3):
    assert logbundles.log_pair(x, arr) is pair
L.is_acm(x, (1, 2), arr)
calls, _ = tracer.summary()
assert calls["logbundles.log_pair"] == 4, calls
assert ev.serre_dual_pairs() == fresh
"""


def run_with_bench(code: str):
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


def test_tracer_installs_on_current_sources():
    run_with_bench(CODE)


def test_log_pair_memo_keeps_the_reset_and_the_tracer_counts():
    run_with_bench(MEMO_CODE)
