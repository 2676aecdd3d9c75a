"""Regenerate ``reference.json``: the engine's answer for every input a seed
can draw, which the benchmark's containment checks compare against.

Usage, from the repository root:  python3 bench/make_reference.py

Each input is answered in three contexts: alone in a reset session (empty
evaluator cache, Serre-partner registry and ``cotangent_tangent_pair``
cache, as in a fresh interpreter), and in one shared session asking the
whole space in listed and in reversed order.  A seeded run asks a subset in
another order, so the reference is only written if all three contexts give
the same answers.
"""

from __future__ import annotations

import json
import shutil
import sys

import child

import checks as C
import workloads as W


def reset_session():
    from logacm import exactseq, logbundles

    ev = exactseq.default_evaluator()
    ev.cache.clear()
    ev.partners.clear()
    ev.partner_names.clear()
    logbundles.cotangent_tangent_pair.cache_clear()


def answers(keys, answer) -> dict:
    """Answer every key alone, then shared in order and reversed; all agree."""
    alone = {}
    for k in keys:
        reset_session()
        alone[k] = answer(k)
    for order in (keys, keys[::-1]):
        reset_session()
        for k in order:
            if answer(k) != alone[k]:
                raise SystemExit(f"{k}: the answer depends on what the session asked before")
    return alone


def _no_error(key, out):
    if "error" in out:
        raise SystemExit(f"{key}: {out['error']}")
    return out


def sweep_reference() -> dict:
    ops = {op.key: op for op in map(W.sweep_op, W.sweep_space())}

    def answer(key):
        out = _no_error(key, ops[key].run())
        return {"n": len(out["statuses"]), "combos": C.combos_digest(out["combos"]), "statuses": C.status_letters(out["statuses"])}

    return answers(list(ops), answer)


def blowup_reference() -> dict:
    ops = {op.key: op for op in map(W.blowup_op, W.blowup_space())}
    return answers(list(ops), lambda key: {"status": _no_error(key, ops[key].run())["status"]})


def batch_reference(workdir) -> dict:
    docs = W.batch_space()
    paths = W.write_corpus(docs, workdir / "space")
    by_key = {d.key: (d, p) for d, p in zip(docs, paths)}

    def answer(key):
        doc, path = by_key[key]
        res = W._cli([doc.command, str(path), "--no-header"])
        if res["code"] == 2:
            raise SystemExit(f"{key}: {res['err']}")
        entry = {"code": res["code"]}
        if doc.command == "classify":
            entry["verdict"] = C.verdict_of(res["out"])
        else:
            entry["rows"] = C.table_rows(res["out"])
        cl = W._cli(["classify", str(path), "--no-header"])
        entry["dir"] = "Error" if cl["code"] == 2 else C.verdict_of(cl["out"])
        return entry

    ref = answers(list(by_key), answer)
    # directory mode asks every document again, in one session
    reset_session()
    out = W._cli(["classify", str(paths[0].parent), "--no-header"])
    names = {p.name: d.key for d, p in zip(docs, paths)}
    for name, verdict, *_ in C.dir_rows(out["out"]):
        if ref[names[name]]["dir"] != verdict:
            raise SystemExit(f"{names[name]}: directory mode gives {verdict}")
    return ref


def problems_reference() -> list:
    reset_session()
    out = W._cli(["classify", str(child.ROOT / "problems"), "--no-header"])
    return [r[:3] for r in C.dir_rows(out["out"])]


def main() -> int:
    child.import_engine()
    workdir = child.ROOT / ".bench_out" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ref = {
            "sweep": sweep_reference(),
            "blowup": blowup_reference(),
            "batch": batch_reference(workdir),
            "problems": problems_reference(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    C.REFERENCE.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {C.REFERENCE}: " + ", ".join(f"{k} {len(v)}" for k, v in ref.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
