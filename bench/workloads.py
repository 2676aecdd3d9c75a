"""Seeded inputs and the operations of the three benchmark workloads.

Every workload draws from a fixed, finite input space, so that
``reference.json`` can hold this engine's answer for every input a seed can
produce.  The seed chooses which inputs of the space a run asks, and in
which order; the engine sees only the generated inputs.

* ``sweep``  -- ``search`` calls on the quadric and on F_e (e <= 3), twice.
* ``blowup`` -- ``deficiency_concentrated_at_zero`` on sub-arrangements of
  the negative curves of Bl_k P^2 (k = 1..4), polarized by -K.
* ``batch``  -- in-process ``logacm.cli.main`` on generated YAML documents,
  then two directory-mode ``classify`` runs.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Callable

BATCH_WINDOW = (-3, 3)


@dataclass
class Op:
    """One timed call.  ``run`` returns the raw output the checks read."""

    key: str  # identifies the input in reference.json
    kind: str
    run: Callable[[], dict]
    meta: dict = field(default_factory=dict)


def _engine_error():
    import logacm.errors

    return logacm.errors.EngineError


# -- sweep -------------------------------------------------------------------

SWEEP_VARIETIES = ("quadric", "F0", "F1", "F2", "F3")
# (class_bound, m_bound) per variety; a larger class bound only where it is cheap
SWEEP_BOUNDS = {"F2": ((1, 2), (2, 2)), "F3": ((1, 2), (2, 2))}


def sweep_polarizations(name: str) -> list[tuple[int, int]]:
    if name == "quadric":
        return [(1, 1), (1, 2), (2, 1), (2, 3)]
    e = int(name[1:])
    return [(1, e + 1), (1, e + 2), (2, 2 * e + 1), (2, 2 * e + 3)]


def sweep_space() -> list[tuple]:
    """Every (variety, h, class_bound, m_bound, side) the sweep asks."""
    return [
        (name, h, cb, mb, side)
        for name in SWEEP_VARIETIES
        for cb, mb in SWEEP_BOUNDS.get(name, ((1, 2),))
        for h in sweep_polarizations(name)
        for side in ("cot", "tan")
    ]


def sweep_key(spec) -> str:
    name, h, cb, mb, side = spec
    return f"{name}|h={h[0]},{h[1]}|cb={cb}|mb={mb}|{side}"


def sweep_op(spec) -> Op:
    import logacm

    name, h, cb, mb, side = spec
    x = logacm.quadric_surface() if name == "quadric" else logacm.hirzebruch(int(name[1:]))

    def run():
        try:
            res = logacm.search(x, h, cb, mb, side)
        except _engine_error() as exc:
            return {"error": repr(exc)}
        return {"combos": [list(map(list, combo)) for combo, _, _ in res], "statuses": [v.status for _, v, _ in res]}

    return Op(sweep_key(spec), "search", run, {"spec": spec})


def sweep_ops(seed: int) -> list[Op]:
    """The whole sweep space twice; the seed draws the order of each pass.

    The set is fixed so that the seed does not move the distribution of op
    costs, whose percentiles a few dozen distinct searches would make
    depend on the draw."""
    rng = random.Random(seed)
    specs = sweep_space()
    first = rng.sample(specs, len(specs))
    second = rng.sample(specs, len(specs))  # the repeat pass, permuted
    return [sweep_op(s) for s in first + second]


# -- blowup ------------------------------------------------------------------

# sub-arrangements drawn per (k, number of curves); k = 1, 2 are taken whole.
# At most three curves: some four-curve arrangements on Bl_4 (two singular
# fibres of one conic bundle) find no certified window within the default cap.
BLOWUP_DRAWS = {
    1: {0: 1, 1: 1},
    2: {0: 1, 1: 3, 2: 3, 3: 1},
    3: {0: 1, 1: 4, 2: 8, 3: 8},
    4: {0: 1, 1: 6, 2: 20, 3: 45},
}


def blowup_space() -> list[tuple[int, tuple[int, ...]]]:
    out = []
    for k, sizes in BLOWUP_DRAWS.items():
        n_curves = k + k * (k - 1) // 2
        for size in sizes:
            out += [(k, s) for s in combinations(range(n_curves), size)]
    return out


def blowup_key(spec) -> str:
    k, subset = spec
    return f"Bl{k}|" + ",".join(map(str, subset))


def blowup_op(spec) -> Op:
    import logacm
    from logacm.varieties import vneg

    k, subset = spec
    x = logacm.blowup_p2(k)
    h = vneg(x.canonical_class)
    arr = logacm.arrangement(x, [logacm.component_from_class(x, x.negative_curves[i]) for i in subset])
    exceptional = all(i < k for i in subset)  # the first k negative curves are E_1..E_k

    def run():
        try:
            v = logacm.deficiency_concentrated_at_zero(x, h, arr)
        except _engine_error() as exc:
            return {"error": repr(exc)}
        return {"status": v.status}

    return Op(blowup_key(spec), "deficiency_concentrated_at_zero", run, {"exceptional": exceptional})


def blowup_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    by_stratum: dict[tuple, list] = {}
    for spec in blowup_space():
        by_stratum.setdefault((spec[0], len(spec[1])), []).append(spec)
    specs = []
    for k, sizes in BLOWUP_DRAWS.items():
        for size, n in sizes.items():
            specs += rng.sample(by_stratum[(k, size)], n)
    # asked in a fixed order: on one set of arrangements the engine's cost
    # depends on the order by up to 3x, which would swamp every other
    # difference between seeds
    return [blowup_op(s) for s in sorted(specs)]


# -- batch -------------------------------------------------------------------


@dataclass(frozen=True)
class Doc:
    """A generated problem document and the command asked of it."""

    key: str
    command: str
    text: str
    data: tuple  # parameters the oracles and Riemann-Roch checks read
    stratum: str = ""  # documents of a stratum are drawn, the others always asked


def _yaml_comps(comps) -> str:
    return "".join(f"    - {{degree: {d}, genus: {g}}}\n" for d, g in comps)


def _surface_docs() -> list[Doc]:
    out = []
    for d in (3, 4, 5):
        plane = (d, (d - 1) * (d - 2) // 2)
        menu = [(1, 0), (2, 0), (3, 0), plane]
        for size in (1, 2, 3):
            for comps in combinations_with_replacement(menu, size):
                for span in sorted({None, 1, size}, key=str):
                    for sheaf in ("log_cotangent", "log_tangent"):
                        text = (
                            f"variety: {{kind: surface_p3, degree: {d}}}\npolarization: 1\nsheaf: {sheaf}\n"
                            f"window: [{BATCH_WINDOW[0]}, {BATCH_WINDOW[1]}]\narrangement:\n"
                            + (f"  span_rank: {span}\n" if span is not None else "")
                            + "  components:\n"
                            + _yaml_comps(comps)
                        )
                        key = f"surf|d={d}|" + ";".join(f"{a}-{b}" for a, b in comps) + f"|span={span}|{sheaf}"
                        out.append(Doc(key, "cohom", text, ("surface_p3", d, sheaf, comps), f"{d}|{sheaf}|{size}"))
    return out


def _hirzebruch_docs() -> list[Doc]:
    out = []
    for e in range(4):
        for h in sweep_polarizations(f"F{e}"):
            text = (
                f"variety: {{kind: hirzebruch, e: {e}}}\npolarization: [{h[0]}, {h[1]}]\nsheaf: tangent\n"
                f"window: [{BATCH_WINDOW[0]}, {BATCH_WINDOW[1]}]\n"
            )
            out.append(Doc(f"fe_tan|e={e}|h={h[0]},{h[1]}", "cohom", text, ("hirzebruch", e, h)))
    return out


def _hyperplane_text(n: int, m: int, extra: str = "") -> str:
    comps = ", ".join(["[1]"] * m)
    return f"variety: {{kind: projective_space, n: {n}}}\npolarization: 1\n{extra}arrangement:\n  components: [{comps}]\n"


def _pn_docs() -> list[Doc]:
    out = []
    for n in (2, 3, 4):
        # on P^4 the verdicts cost up to 0.2 s each: keep both sides of m = n+1
        for m in range(1, 2 * n + 3) if n < 4 else (2, 5, 6, 9):
            out.append(Doc(f"pn_classify|n={n}|m={m}", "classify", _hyperplane_text(n, m), ("pn", n, m)))
        for m in range(1, n + 2):
            extra = f"sheaf: log_cotangent\nwindow: [{BATCH_WINDOW[0]}, {BATCH_WINDOW[1]}]\n"
            out.append(Doc(f"pn_cohom|n={n}|m={m}", "cohom", _hyperplane_text(n, m, extra), ("pn", n, m)))
    return out


def _quadric_docs() -> list[Doc]:
    out = []
    for a in range(5):
        for b in range(5):
            if a + b == 0:
                continue
            comps = ", ".join(["[1, 0]"] * a + ["[0, 1]"] * b)
            text = f"variety: {{kind: quadric}}\npolarization: [1, 1]\narrangement:\n  components: [{comps}]\n"
            # (a, b) and (b, a) cost the same: the seed draws one of the two
            out.append(Doc(f"quadric|a={a}|b={b}", "classify", text, ("quadric", a, b), f"q{min(a, b)}{max(a, b)}"))
    return out


def _abelian_docs() -> list[Doc]:
    out = []
    for ps in (2, 4, 6, 8):
        for comps in ((), ((1, 1),), ((2, 2),), ((2, 2), (2, 2))):
            for side in ("cot", "tan"):
                text = f"variety: {{kind: abelian, polarization_square: {ps}}}\npolarization: 1\ndegree: 1\nside: {side}\n"
                if comps:
                    text += "arrangement:\n  components:\n" + _yaml_comps(comps)
                key = f"abelian|ps={ps}|" + ";".join(f"{a}-{b}" for a, b in comps) + f"|{side}"
                out.append(Doc(key, "deficiency", text, ("abelian", ps), key.rsplit("|", 1)[0]))
    return out


def batch_space() -> list[Doc]:
    return _surface_docs() + _hirzebruch_docs() + _pn_docs() + _quadric_docs() + _abelian_docs()


def batch_docs(seed: int) -> list[Doc]:
    """A fixed set of documents, grouped by variety; the seed draws the order
    of the groups.

    The set takes two surface documents per (degree, sheaf, number of
    components), one side per abelian document and one orientation per
    quadric ruling pair, all drawn once with a fixed generator, and every
    other document.  op_p90_ms of 114 ops is about the twelfth slowest op,
    and it moved by up to 30% between seeds when the seed drew the set, and
    by up to 20% when the seed shuffled the documents: in a shared evaluator
    the first document of a variety pays for cohomology the later ones
    reuse.  Within a group the order is fixed."""
    fixed = random.Random("batch")
    docs, strata = [], {}
    for doc in batch_space():
        if doc.stratum:
            strata.setdefault(doc.stratum, []).append(doc)
        else:
            docs.append(doc)
    for group in strata.values():
        docs += fixed.sample(group, 2 if group[0].data[0] == "surface_p3" else 1)
    by_variety: dict[str, list[Doc]] = {}
    for doc in docs:
        by_variety.setdefault(doc.text.split("\n", 1)[0], []).append(doc)
    order = list(by_variety)
    random.Random(seed).shuffle(order)
    return [doc for variety in order for doc in by_variety[variety]]


def _cli(argv) -> dict:
    import logacm.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = logacm.cli.main(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def write_corpus(docs: list[Doc], corpus: Path) -> list[Path]:
    corpus.mkdir(parents=True)
    paths = []
    for i, doc in enumerate(docs):
        p = corpus / f"{i:03d}.yaml"
        p.write_text(doc.text)
        paths.append(p)
    return paths


def batch_ops(docs: list[Doc], paths: list[Path], problems: Path) -> list[Op]:
    ops = [
        Op(doc.key, doc.command, (lambda c=doc.command, p=str(path): _cli([c, p, "--no-header"])), {"doc": doc})
        for doc, path in zip(docs, paths)
    ]
    corpus = str(paths[0].parent)
    ops.append(Op("corpus", "classify_dir", lambda: _cli(["classify", corpus, "--no-header"]), {"docs": docs}))
    ops.append(Op("problems", "classify_dir", lambda: _cli(["classify", str(problems), "--no-header"])))
    return ops
