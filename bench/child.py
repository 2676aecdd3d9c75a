"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.  The
parent passes its monotonic clock reading from just before it started this
process, so ``setup_s`` covers interpreter start, the package import and
input generation (for ``batch``, writing the corpus too).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_engine():
    """Import ``logacm`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "logacm" / "__init__.py").is_file():
        raise SystemExit(f"no engine sources at {src}")
    sys.path.insert(0, str(src))
    import logacm

    if Path(logacm.__file__).resolve().parent != (src / "logacm").resolve():
        raise SystemExit(f"imported logacm from {logacm.__file__}, not from {src}")
    return logacm


def build_ops(workload: str, seed: int, workdir: Path):
    import workloads as W

    if workload == "sweep":
        return W.sweep_ops(seed)
    if workload == "blowup":
        return W.blowup_ops(seed)
    problems = ROOT / "problems"
    if not problems.is_dir():
        raise SystemExit(f"no problem documents at {problems}")
    docs = W.batch_docs(seed)
    return W.batch_ops(docs, W.write_corpus(docs, workdir / "corpus"), problems)


def check(workload: str, ops, outs, reference):
    import checks as C

    tally = C.Tally()
    errors = 0
    for op, out in zip(ops, outs):
        if workload == "sweep":
            C.check_search(op, out, reference["sweep"][op.key], tally)
            ok = "error" not in out
        elif workload == "blowup":
            C.check_blowup(op, out, reference["blowup"][op.key], tally)
            ok = "error" not in out
        elif op.kind == "classify_dir":
            ok = C.check_dir(op, out, reference, tally)
        else:
            ok = C.check_cli_file(op, out, reference["batch"][op.key], tally)
        errors += not ok
    return tally, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    logacm = import_engine()
    sys.path.insert(0, str(HERE))
    try:
        ops = build_ops(args.workload, args.seed, args.workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, logacm, ops, setup_s)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def measure(args, logacm, ops, setup_s: float) -> int:
    import checks
    import hostspeed
    import tracing

    ev = logacm.default_evaluator()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    sampler = hostspeed.Sampler()
    if tracer is None:  # host speed is sampled in untraced runs only: its time would land in spans
        sampler.start()
    cache_before = len(ev.cache)
    spans, latencies, outs = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        run = op.run
        if tracer is not None:
            tracer.op_id = i
            run = tracer.span(tracing.ROOT_SPAN, run)
        busy = sampler.busy
        s = clock()
        outs.append(run())
        e = clock()
        spans.append((s, e))
        latencies.append(e - s - (sampler.busy - busy))
    raw_wall_s = sum(latencies)
    if tracer is None:
        sampler.stop()
        latencies = sampler.scale(spans, latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally, errors = check(args.workload, ops, outs, checks.load_reference())
    result = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "raw_wall_s": raw_wall_s,
        "latencies_ms": [x * 1000 for x in latencies],
        "ops": len(ops),
        "errors": errors,
        "raised": sum(1 for o in outs if "error" in o or o.get("code") == 2),
        "verdicts": tally.verdicts,
        "decided": tally.decided,
        "slots": tally.slots,
        "exact_slots": tally.exact,
        "peak_rss_mb": peak_rss_mb,
        "failures": tally.failures[:20],
        "n_failures": len(tally.failures),
    }
    if tracer is not None:
        result["layers"], shares = tracing.report(tracer, ev, cache_before)
        result["shares"] = shares[:12]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.bin")
    print(json.dumps(result))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
