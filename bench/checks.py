"""Output checks that gate the benchmark.

A wrong output fails the run; it is never counted as a slow op.  Three kinds
of check:

* independent oracles (binomial split tables, known verdicts);
* Riemann-Roch on every exact surface row, with chi computed here from
  lattice data;
* containment in ``reference.json``: every printed interval lies inside the
  one the reference engine printed for the same input, and every decided
  verdict equals the reference's decided verdict.  Narrowing an interval or
  deciding an Unknown passes; a flip or a wider interval fails.

The functions here also parse the CLI output into the answer counts the
end-to-end metrics use.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from math import comb
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DECIDED = ("Yes", "No")
EXIT_CODES = {"Yes": 0, "No": 1, "Unknown": 3}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# -- parsing ------------------------------------------------------------------


def parse_iv(s: str) -> tuple[int, int | None]:
    lo, sep, hi = s.partition("..")
    if not sep:
        return int(lo), int(lo)
    return int(lo), None if hi == "?" else int(hi)


def inside(inner, outer) -> bool:
    """Is the interval ``inner`` contained in ``outer``?"""
    (a, b), (lo, hi) = inner, outer
    return lo <= a and (hi is None or (b is not None and b <= hi))


def table_rows(text: str) -> list[list[str]]:
    """Data rows of a rendered ``md`` table, header and notes dropped."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and ":" not in ln]
    return lines[1:]


def verdict_of(text: str) -> str:
    for ln in text.splitlines():
        if ln.startswith("verdict: "):
            return ln.split(": ", 1)[1].strip()
    raise ValueError("no verdict line")


def dir_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def combos_digest(combos) -> str:
    return hashlib.sha1(json.dumps(combos).encode()).hexdigest()[:16]


def status_letters(statuses) -> str:
    return "".join(s[0] for s in statuses)


# -- oracles ------------------------------------------------------------------


def pn_line(n: int, t: int) -> list[int]:
    """h^i(O_{P^n}(t))."""
    v = [0] * (n + 1)
    v[0] = comb(n + t, n) if t >= 0 else 0
    v[n] = comb(-t - 1, n) if -t - 1 >= n else 0
    return v


def pn_split_row(n: int, m: int, t: int) -> list[int]:
    """Omega^1(log H) = O^(m-1) + O(-1)^(n-m+1) for m <= n+1 hyperplanes."""
    a, b = pn_line(n, t), pn_line(n, t - 1)
    return [(m - 1) * x + (n - m + 1) * y for x, y in zip(a, b)]


def surface_chi(data: tuple, t: int) -> int | None:
    """chi of the row sheaf at twist t*H, from lattice data; None off surfaces.

    chi(Omega^1(log D)(L)) = 2chi(O) - c2 + L^2 + sum(D_i.L + 1 - g_i)
    chi(T(-log D)(L))      = 2chi(O) - c2 + (L-K)^2 - sum(D_i.(D_i+L) + 1 - g_i)
    """
    kind = data[0]
    if kind == "surface_p3":
        _, d, sheaf, comps = data
        chi_o, c2 = 1 + comb(d - 1, 3), d**3 - 4 * d**2 + 6 * d
        # rank-one lattice: L = tH, K = (d-4)H, H^2 = d; D_i^2 by adjunction
        l2, lk2 = d * t * t, d * (t - (d - 4)) ** 2
        curves = [(deg * t, 2 * g - 2 - (d - 4) * deg, g) for deg, g in comps]
    elif kind == "hirzebruch":
        _, e, h = data
        chi_o, c2, sheaf = 1, 4, "tangent"

        def dot(x, y):
            return -e * x[0] * y[0] + x[0] * y[1] + x[1] * y[0]

        lv = (t * h[0], t * h[1])
        lmk = (lv[0] + 2, lv[1] + e + 2)  # L - K, K = -2h - (e+2)f
        l2, lk2, curves = dot(lv, lv), dot(lmk, lmk), []
    elif kind == "pn" and data[1] == 2:
        _, _, m = data
        chi_o, c2, sheaf = 1, 3, "log_cotangent"
        l2, lk2 = t * t, (t + 3) ** 2
        curves = [(t, 1, 0)] * m
    else:
        return None
    base = 2 * chi_o - c2
    if sheaf == "log_cotangent":
        return base + l2 + sum(dl + 1 - g for dl, _, g in curves)
    if sheaf == "log_tangent":
        return base + lk2 - sum(dd + dl + 1 - g for dl, dd, g in curves)
    if sheaf == "tangent":
        return base + lk2
    return None


# -- per-op checks --------------------------------------------------------------


class Tally:
    """Answer counts for the end-to-end ratios, plus the failures found."""

    def __init__(self):
        self.failures: list[str] = []
        self.verdicts = self.decided = self.slots = self.exact = 0

    def fail(self, msg: str):
        self.failures.append(msg)

    def verdict(self, status: str):
        self.verdicts += 1
        self.decided += status in DECIDED

    def slot(self, iv):
        self.slots += 1
        self.exact += iv[0] == iv[1]


def _same_decision(got: str, ref: str) -> bool:
    return not (got in DECIDED and ref in DECIDED and got != ref)


def check_search(op, out, ref, tally: Tally):
    if "error" in out:
        return
    name, h, cb, mb, side = op.meta["spec"]
    for s in out["statuses"]:
        tally.verdict(s)
    if len(out["statuses"]) != ref["n"] or combos_digest(out["combos"]) != ref["combos"]:
        tally.fail(f"{op.key}: candidate list differs from the reference")
        return
    for combo, got, want in zip(out["combos"], status_letters(out["statuses"]), ref["statuses"]):
        if got in "YN" and want in "YN" and got != want:
            tally.fail(f"{op.key}: {combo} is {got}, reference {want}")
        if name == "quadric" and h == (1, 1):
            a, b = combo.count([1, 0]), combo.count([0, 1])
            if got != ("Y" if 1 <= a <= 3 and 1 <= b <= 3 else "N"):
                tally.fail(f"{op.key}: ruling ({a},{b}) at (1,1) is {got}")


def check_blowup(op, out, ref, tally: Tally):
    if "error" in out:
        return
    tally.verdict(out["status"])
    if not _same_decision(out["status"], ref["status"]):
        tally.fail(f"{op.key}: {out['status']}, reference {ref['status']}")
    if op.meta["exceptional"] and out["status"] != "Yes":
        tally.fail(f"{op.key}: exceptional sub-arrangement not concentrated at zero")


def _check_cohom(doc, rows, ref_rows, tally: Tally):
    if [r[0] for r in rows] != [r[0] for r in ref_rows]:
        tally.fail(f"{doc.key}: twists differ from the reference")
        return
    for row, ref_row in zip(rows, ref_rows):
        t = int(row[0])
        ivs = [parse_iv(c) for c in row[1:]]
        for iv, ref_iv in zip(ivs, (parse_iv(c) for c in ref_row[1:])):
            tally.slot(iv)
            if not inside(iv, ref_iv):
                tally.fail(f"{doc.key}: t={t} {row[1:]} not inside reference {ref_row[1:]}")
                break
        if all(lo == hi for lo, hi in ivs):
            vals = [lo for lo, _ in ivs]
            chi = surface_chi(doc.data, t)
            if chi is not None and vals[0] - vals[1] + vals[2] != chi:
                tally.fail(f"{doc.key}: t={t} row {vals} breaks Riemann-Roch (chi = {chi})")
        if doc.data[0] == "pn" and doc.data[2] <= doc.data[1] + 1:
            want = pn_split_row(doc.data[1], doc.data[2], t)
            if [parse_iv(c) for c in row[1:]] != [(v, v) for v in want]:
                tally.fail(f"{doc.key}: t={t} row {row[1:]} is not the split table {want}")


def _check_deficiency(doc, rows, ref_rows, tally: Tally):
    # outside its certified window a table is exactly zero
    got = {int(r[0]): parse_iv(r[1]) for r in rows}
    want = {int(r[0]): parse_iv(r[1]) for r in ref_rows}
    for iv in got.values():
        tally.slot(iv)
    for t in sorted(set(got) | set(want)):
        if not inside(got.get(t, (0, 0)), want.get(t, (0, 0))):
            tally.fail(f"{doc.key}: t={t} {got.get(t)} not inside reference {want.get(t)}")


def _check_classify(doc, verdict, ref_verdict, tally: Tally):
    tally.verdict(verdict)
    if not _same_decision(verdict, ref_verdict):
        tally.fail(f"{doc.key}: {verdict}, reference {ref_verdict}")
    kind = doc.data[0]
    if kind == "pn":
        _, n, m = doc.data
        if verdict != ("Yes" if m <= n + 1 else "No"):
            tally.fail(f"{doc.key}: {m} hyperplanes on P^{n} classified {verdict}")
    elif kind == "quadric":
        _, a, b = doc.data
        if verdict != ("Yes" if 1 <= a <= 3 and 1 <= b <= 3 else "No"):
            tally.fail(f"{doc.key}: ruling ({a},{b}) at (1,1) classified {verdict}")


def check_cli_file(op, out, ref, tally: Tally) -> bool:
    """Check one per-document op; returns False if the op was an error."""
    doc = op.meta["doc"]
    if out["code"] == 2:
        return False
    if doc.command == "classify":
        verdict = verdict_of(out["out"])
        if out["code"] != EXIT_CODES[verdict]:
            tally.fail(f"{doc.key}: exit code {out['code']} for verdict {verdict}")
        _check_classify(doc, verdict, ref["verdict"], tally)
    elif out["code"] != 0:
        tally.fail(f"{doc.key}: exit code {out['code']}")
    elif doc.command == "cohom":
        _check_cohom(doc, table_rows(out["out"]), ref["rows"], tally)
    else:
        _check_deficiency(doc, table_rows(out["out"]), ref["rows"], tally)
    return True


QUARTIC = ("quartic_twenty_lines.yaml", "No", "h^1@t=-1:16")


def check_dir(op, out, reference: dict, tally: Tally) -> bool:
    """Check a directory-mode classify op; returns False if any row is Error."""
    if out["code"] != 0:
        tally.fail(f"{op.key}: directory classify exited {out['code']}")
        return False
    rows = dir_rows(out["out"])
    if op.key == "corpus":
        docs = op.meta["docs"]
        want = {f"{i:03d}.yaml": reference["batch"][d.key]["dir"] for i, d in enumerate(docs)}
    else:
        want = {f: v for f, v, _ in reference["problems"]}
        quartic = next((r for r in rows if r[0] == QUARTIC[0]), None)
        if quartic is None or tuple(quartic[:3]) != QUARTIC:
            tally.fail(f"twenty-line quartic row is {quartic}, expected {QUARTIC}")
    if sorted(r[0] for r in rows) != sorted(want):
        tally.fail(f"{op.key}: directory rows do not match the documents")
        return False
    ok = True
    for name, verdict, *_ in rows:
        if verdict == "Error":
            ok = False
            continue
        tally.verdict(verdict)
        if not _same_decision(verdict, want[name]):
            tally.fail(f"{op.key}: {name} is {verdict}, reference {want[name]}")
    return ok
