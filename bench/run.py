"""logacm benchmark: one seeded workload, measured for a fixed time.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,blowup,batch,all} --seed N --seconds S --trace {0,1}

Every measured run is a fresh interpreter (``child.py``), so the process
globals -- the default evaluator's cache, the Serre-partner registry and the
``cotangent_tangent_pair`` cache -- start empty, as for a CLI call or a new
library session.  Within a run the ops share the default evaluator.  Runs
repeat, one at a time, until the next one would end after ``--seconds``;
every run asks the same seeded inputs.  Load comes from one process and one
thread: a closed loop with one client.

``--trace 0`` reports the end-to-end metrics: medians over the runs, the
median and the p90 over the ops of each op's mean latency across the runs
(every run asks at least 100 ops, so at least ten lie above p90;
``attempted`` is the number of op calls).  Timings are scaled to a
reference host speed (``hostspeed.py``): the host's own speed swings by up
to 2x within seconds.  The raw timings are printed on the ``#`` lines.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (raw seconds), with ``trace_overhead_ratio`` =
traced over untraced raw wall time.  Spans of the last traced run are written
to ``.bench_out/``.

Every run checks its outputs (``checks.py``); a wrong output makes the
command exit 1.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
measures each workload in turn for ``--seconds`` and names its metrics
``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "blowup", "batch")
SETUP_PROBES = 2  # set-up-only runs before each measured run, so setup_s is a median
CHILD_TIMEOUT = 150


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, trace: int, setup_only: bool, n: int) -> dict:
    """One fresh-interpreter run.  Its ``setup_s`` is scaled to reference host
    speed by kernel times taken here just before and after it."""
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}-{n}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    kernel_s = [hostspeed.kernel_time() for _ in range(3)]
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(started)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"run exited {proc.returncode} without a result:\n{proc.stderr[-3000:]}")
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not result.get("n_failures")):
        raise ChildFailed(f"run exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result["trace"] = trace
    kernel_s += [hostspeed.kernel_time() for _ in range(3)]
    result["setup_s"] *= hostspeed.REFERENCE_S / statistics.median(kernel_s)
    result["elapsed"] = time.monotonic() - started
    return result


def end_to_end(runs, setups) -> dict:
    ops = sum(r["ops"] for r in runs)
    verdicts = sum(r["verdicts"] for r in runs)
    decided = sum(r["decided"] for r in runs)
    slots = sum(r["slots"] for r in runs)
    exact = sum(r["exact_slots"] for r in runs)
    # Every run asks the same ops in the same order.  The median and p90 are
    # taken over each op's latency averaged across the runs: both fall where
    # few ops lie close together, so the raw samples' noise moves them.
    per_op = [statistics.fmean(x) for x in zip(*(r["latencies_ms"] for r in runs))]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8], "ms"),
        "ok_ratio": (1 - sum(r["errors"] for r in runs) / ops, "ratio"),
        "decided_ratio": (decided / verdicts, "ratio"),
        "exact_ratio": ((exact + decided) / (slots + verdicts), "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MiB"),
    }


def per_layer(plain, traced) -> dict:
    names = traced[0]["layers"]
    m = {k: (statistics.median(r["layers"][k][0] for r in traced), names[k][1]) for k in names}
    ratio = statistics.median(r["raw_wall_s"] for r in traced) / statistics.median(r["raw_wall_s"] for r in plain)
    m["trace_overhead_ratio"] = (ratio, "ratio")
    return m


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Repeat fresh runs for ``seconds``; print a summary, return the result."""
    start = time.monotonic()
    deadline = start + seconds
    setups, runs = [], []
    while True:
        # set-up probes are spread over the run, as the host's speed drifts
        began = time.monotonic()
        n = len(setups) + len(runs)
        setups += [spawn(workload, seed, 0, True, n + i)["setup_s"] for i in range(SETUP_PROBES)]
        runs.append(spawn(workload, seed, int(trace and len(runs) % 2 == 1), False, n + SETUP_PROBES))
        enough = any(not x["trace"] for x in runs) and (not trace or any(x["trace"] for x in runs))
        if enough and 2 * time.monotonic() - began > deadline:  # another round this long would overrun
            break

    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    setups += [r["setup_s"] for r in runs]
    failures = [f for r in runs for f in r["failures"]]
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setups)

    print(f"# workload={workload} seed={seed} runs={len(plain)} traced={len(traced)} "
          f"ops/run={runs[0]['ops']} measured={time.monotonic() - start:.1f}s")
    for r in runs:
        print(f"#   run trace={r['trace']} setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f} "
              f"raw_wall_s={r['raw_wall_s']:.4f} "
              f"errors={r['errors']} rss={r['peak_rss_mb']:.1f}MiB")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if traced:
        print("# self-time share of traced op time (last traced run):")
        for name, share in traced[-1]["shares"]:
            print(f"#   {name:40s} {share:7.1%}")
    for f in failures:
        print(f"# CHECK FAILED: {f}")
    return {
        "correct": not failures,
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["raised"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="logacm benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "logacm" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            results[w] = measure(w, args.seed, args.seconds, args.trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
