"""The benchmark reaches into the engine by name: its tracer
(``bench/tracing.py``) wraps entry points, and ``make_reference.reset_session``
clears the default evaluator's cache and Serre-partner record and the
``cotangent_tangent_pair`` cache.  Renaming any of them breaks the benchmark.
This checks both still work against the current sources, and that the
tracer's long-exact-sequence counters still see the solves they count: a
renamed method would leave its per-layer metric reading 0.  The tracer still
wraps ``_solve_coarse``, which nothing calls: a solve with an unbounded flank
takes the same pass as any other, so the coarse counter reads 0.  In the
engine an open end comes only from a rule pin with no upper bound, so the
check builds its unbounded flank from an open leaf of its own, evaluated by
an ``Evaluator`` subclass that inherits the traced ``_solve``.  It also checks
that ``reset_session`` makes the default evaluator's session cold: its log
pairs, like every other memo, live in the cache that the reset clears, and
the tracer still counts each ``log_pair`` call.  Last, it checks that the
tracer counts each window the classifier certifies: the classifier reads it
from ``exactseq.vanishing_window``, the name the tracer wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# reset first: the tracer replaces cotangent_tangent_pair by a plain wrapper
CODE = """
import make_reference, tracing
import logacm as L
from dataclasses import dataclass
from logacm.exactseq import Evaluator, Expr, LineE, SeqE
from logacm.intervals import Iv

@dataclass(eq=False)
class OpenE(Expr):
    variety: object
    cdim = 2

class OpenEvaluator(Evaluator):
    def _raw(self, expr, twist):
        return (Iv(0, None),) * 3 if isinstance(expr, OpenE) else super()._raw(expr, twist)

make_reference.reset_session()
tracer = tracing.Tracer()
tracing.install(tracer)
ev = OpenEvaluator()
f0 = L.hirzebruch(0)
bounded = SeqE(f0, LineE(f0, (2, 0)), None, LineE(f0, (0, 2)), 2, name="bounded")
ev.cohom(bounded, (0, 0))
unbounded = SeqE(f0, LineE(f0, (0, 0)), None, OpenE(f0), 2, name="unbounded")
assert ev.cohom(unbounded, (3, 0))[0].hi is None
calls, _ = tracer.summary()
assert tracer.counts["exactseq.solve.points"] > 0, tracer.counts
assert calls["exactseq.solve"] >= 2 and calls["exactseq.solve_coarse"] == 0, calls
"""

# the default evaluator keeps each log pair it built in its cache, so
# reset_session clears that memo with every other: the next call builds the
# pair again and fills the cleared partner record as the first build did,
# and the tracer counts every call, hit or build
MEMO_CODE = """
import make_reference, tracing
import logacm as L
from logacm import logbundles
from logacm.exactseq import DualE

x = L.hirzebruch(1)
arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
ev = L.default_evaluator()
pair = L.log_pair(x, arr)
fresh = ev.serre_dual_pairs()
assert len(fresh) == 1, fresh  # the Omega^1/T pair; the log pair is one node and its dual
assert isinstance(pair.tangent_log, DualE) and pair.tangent_log.inner is pair.cotangent_log
assert L.log_pair(x, arr) is pair
make_reference.reset_session()
assert ev.serre_dual_pairs() == [] and ev.cache == {}
rebuilt = L.log_pair(x, arr)
assert rebuilt is not pair
assert ev.serre_dual_pairs() == fresh

tracer = tracing.Tracer()
tracing.install(tracer)
for _ in range(3):
    assert logbundles.log_pair(x, arr) is rebuilt
L.is_acm(x, (1, 2), arr)
calls, _ = tracer.summary()
assert calls["logbundles.log_pair"] == 4, calls
assert ev.serre_dual_pairs() == fresh
"""

# a Yes certifies one window, and a No found by the witness probe none; a
# private copy of the window in the classifier would read 0 here
WINDOW_CODE = """
import tracing
import logacm as L
from logacm.exactseq import Evaluator

tracer = tracing.Tracer()
tracing.install(tracer)
x = L.hirzebruch(1)
yes = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
no = L.arrangement(x, [L.component_from_class(x, (1, 1))])
assert L.is_acm(x, (1, 2), yes, ev=Evaluator()).status == "Yes"
assert L.is_acm(x, (1, 2), no, ev=Evaluator()).status == "No"
calls, _ = tracer.summary()
assert calls["exactseq.vanishing_window"] == 1, calls
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


def test_tracer_counts_the_classifiers_window():
    run_with_bench(WINDOW_CODE)
