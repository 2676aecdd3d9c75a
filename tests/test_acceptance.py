"""Acceptance suite: every criterion is exact integer arithmetic with
tolerance zero, and prints one PASS/FAIL line."""

import random
import sys
from itertools import combinations

import logacm as L
from logacm.errors import NotVeryAmple
from logacm.exactseq import Evaluator, LineE, SeqE, cm_regularity_certify, default_evaluator
from logacm.intervals import iv, pad_vec
from logacm.linebundles import binom, line_cohom
from logacm.logbundles import ledger_checks, log_pair
from logacm.varieties import vneg, vsub

from conftest import F0_SPLIT_YES, F0_STATED_YES, catalog_surfaces, f0_split_grid, random_class, twist_zero_h1


def report(num: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return ok


def split_table_oracle(n: int, m: int, t: int) -> list[int]:
    """Dimension table of O^(m-1) + O(-1)^(n-m+1) from binomials alone."""
    def line(s):
        v = [0] * (n + 1)
        v[0] = binom(n + s, n)
        v[n] = binom(-s - 1, n)
        return v

    a, b = line(t), line(t - 1)
    return [(m - 1) * p + (n - m + 1) * q for p, q in zip(a, b)]


def test_criterion_01_split_tables():
    ok = True
    ev = default_evaluator()
    for n in (2, 3, 4):
        x = L.projective_space(n)
        for m in range(1, n + 2):
            arr = L.hyperplane_arrangement(x, m)
            if L.is_acm(x, (1,), arr).status != "Yes":
                ok = False
            pair = log_pair(x, arr)
            for t in range(-n - 2, n + 3):
                got = pad_vec(ev.cohom(pair.cotangent_log, (t,)), n + 1)
                want = split_table_oracle(n, m, t)
                if not all(g.exact and g.lo == w for g, w in zip(got, want)):
                    ok = False
    assert report(1, "split log tables, m <= n+1", ok)


def test_criterion_02_steiner_count():
    ok = True
    ev = default_evaluator()
    for n in (2, 3):
        x = L.projective_space(n)
        for m in range(n + 2, n + 5):
            arr = L.hyperplane_arrangement(x, m)
            pair = log_pair(x, arr)
            v = pad_vec(ev.cohom(pair.cotangent_log, (-n,)), n + 1)
            if not (v[n - 1].exact and v[n - 1].lo == m - n - 1):
                ok = False
            if L.is_acm(x, (1,), arr).status != "No":
                ok = False
    assert report(2, "generic count m-n-1 and rejection", ok)


def test_criterion_03_quadric_search():
    x = L.quadric_surface()
    res = L.search(x, (1, 1), class_bound=4, m_bound=8)
    yes = [c for c, v, _ in res if v.status == "Yes"]
    shape = sorted((c.count((1, 0)), c.count((0, 1))) for c in yes)
    want = sorted((a, b) for a in range(1, 4) for b in range(1, 4))
    ok = len(yes) == 9 and shape == want
    assert report(3, "quadric ruling search yes-set", ok)


def test_criterion_04_hirzebruch_tables():
    ev = default_evaluator()
    ok = True
    for e in range(0, 7):
        x = L.hirzebruch(e)
        _, tan = L.cotangent_tangent_pair(x)
        v = ev.cohom(tan, (0, 0))
        want = 0 if e <= 1 else e - 1
        if not (v[1].exact and v[1].lo == want):
            ok = False
    for e in range(1, 7):
        if L.cohom_line_hirzebruch(e, 2, e)[0] != e + 2:
            ok = False
        if L.cohom_line_hirzebruch(e, 0, 2)[0] != 3:
            ok = False
        if L.cohom_line_hirzebruch(e, 2, 2 * e)[0] != 3 * e + 3:
            ok = False
    ok = ok and L.cohom_line_hirzebruch(1, 2, 3)[0] == 9
    ok = ok and L.cohom_line_hirzebruch(1, 3, 3)[0] == 10
    assert report(4, "Hirzebruch tangent and section counts", ok)


def test_criterion_05_f1_trivial_criterion():
    x = L.hirzebruch(1)
    empty = L.arrangement(x, [])
    ok = True
    for a in range(1, 7):
        for b in range(a + 1, a + 5):
            v = L.is_tacm(x, (a, b), empty)
            want = "Yes" if (b >= a + 2 and a >= 3) else "No"
            if v.status != want:
                ok = False
    ok = ok and all(L.is_tacm(x, (a, b), empty).status == "No" for a in (1, 2) for b in range(a + 1, a + 5))
    assert report(5, "empty arrangement on F_1: b >= a+2 >= 5", ok)


def test_criterion_06_blowup_ledger():
    ev = default_evaluator()
    x = L.blowup_p2(2)
    cot, tan = L.cotangent_tangent_pair(x)
    ok = x.chi_tangent() == 4
    ok = ok and ev.cohom(cot, (0, 0, 0))[1].lo == 3
    ok = ok and x.h0_tangent == 4
    arr = L.arrangement(
        x, [L.component_from_class(x, c) for c in [(0, 1, 0), (0, 0, 1), (1, -1, -1)]]
    )
    ok = ok and L.is_acm(x, vneg(x.canonical_class), arr).status == "Yes"
    for k in (1, 2, 3, 4):
        xk = L.blowup_p2(k)
        mk = vneg(xk.canonical_class)
        classes = [tuple(1 if j == i + 1 else 0 for j in range(k + 1)) for i in range(k)]
        for size in range(1, k + 1):
            for sub in combinations(classes, size):
                sq = L.arrangement(xk, [L.component_from_class(xk, c) for c in sub])
                if L.deficiency_concentrated_at_zero(xk, mk, sq).status != "Yes":
                    ok = False
    assert report(6, "blow-up ledger and exceptional sub-arrangements", ok)


def test_criterion_07_contradiction_ledgers():
    cubic = ledger_checks("cubic_surface")
    dp4 = ledger_checks("dp4")
    ok = cubic.values == (36, 5, 9) and cubic.contradiction
    ok = ok and dp4.values == (60, 10, 12) and dp4.contradiction
    assert report(7, "del Pezzo contradiction chains", ok)


def test_criterion_08_pn_degree_reduction():
    ok = True
    for n in (2, 3):
        x = L.projective_space(n)
        for d in (2, 3):
            comps = [L.component_from_class(x, (1,)), L.component_from_class(x, (d,))]
            arr = L.arrangement(x, comps)
            if L.is_acm(x, (1,), arr).status != "No":
                ok = False
                continue
            viol, _ = L.necessary_conditions(x, (1,), arr)
            hits = [w for w in viol if w.rule == "pn-degree-reduction"]
            expected_value = binom(n + d - 2, n) - binom(n - 2, n)  # h^0(O_D(d-2))
            if len(hits) != 1:
                ok = False
                continue
            i, t, val = hits[0].witness
            if not (i == n - 1 and t == 1 - n and val.lo == expected_value > 0):
                ok = False
    assert report(8, "degree >= 2 components rejected with dual witness", ok)


def test_criterion_09_k3_quartic_lines():
    """Twenty lines on a smooth quartic X whose span in Pic X has rank 20.

    Twist-zero notion: Omega^1(log D) and TX(-log D) have no intermediate
    cohomology at twist zero exactly when the lines span rank 20.  The
    residue sequence 0 -> Omega^1 -> Omega^1(log D) -> (+) O_{L_i} -> 0 has
    H^1(O_{L_i}) = 0, and the connecting map C^20 -> H^1(Omega^1) is the
    first Chern class map, so h^1(Omega^1(log D)) = h^{1,1} - span_rank =
    20 - span_rank.  Reading the paper's twenty-line statement in this
    notion is an interpretation: the abstract does not say whether it
    means vanishing at twist zero or in every twist.

    All-twist notion: no set of lines on a smooth quartic is aCM.
    Riemann-Roch (rank 2, c1 = 0, c2 = 24, H^2 = 4) gives
    chi(Omega^1(t)) = 4t^2 - 20.  At t = -1, h^0 = 0 and, by Serre duality
    and Omega^1 = TX on a K3, h^2 = h^0(Omega^1(1)) = 0 from the conormal
    sequence, so h^1(Omega^1(-1)) = 16.  Every curve flank at t = -1 is
    O_{P^1}(-1), which has no cohomology, so h^1(Omega^1(log D)(-1)) = 16
    whatever the span.  As K_X = 0, Serre duality carries that slot to
    h^1(TX(-log D)(1)) = 16, which is part of 2-regularity of the tangent
    side, so no 2-regularity certificate may exist there.

    Both notions are checked on the default evaluator and on a fresh one,
    so nothing rests on what earlier criteria left in a cache."""
    x = L.surface_in_p3(4)
    comps = [L.component_from_degree(x, 1, 0) for _ in range(20)]
    arr20 = L.arrangement(x, comps, span_rank=20)
    h11, t = 20, -1
    blocked = -(4 * t ** 2 - 20)  # h^1(Omega^1(-1)) = -chi(Omega^1(-1))
    ok = True
    for ev in (default_evaluator(), Evaluator()):
        for side in ("cot", "tan"):
            ok = ok and twist_zero_h1(x, arr20, side, ev).is_zero
            for r in range(1, 20):
                ok = ok and twist_zero_h1(x, L.arrangement(x, comps, span_rank=r), side, ev) == iv(h11 - r)
        cot = L.is_acm(x, (1,), arr20, ev=ev)
        ok = ok and cot.status == "No" and cot.witness == (1, t, iv(blocked))
        tan = L.is_tacm(x, (1,), arr20, ev=ev)
        ok = ok and tan.status == "No" and tan.witness == (1, -t, iv(blocked))
        pair = log_pair(x, arr20, ev)
        ok = ok and not cm_regularity_certify(pair.tangent_log, 2, (1,), ev)
    assert report(9, "20-line quartic: twist-zero Yes iff rank 20; h^1(-1)=16 blocks all-twist", ok)


def test_criterion_10_abelian_buchsbaum():
    x = L.abelian_surface(2)
    arr = L.arrangement(x, [])
    table = L.deficiency_table(x, (1,), arr, 1)
    ok = table.nonzero_twists() == [0]
    ok = ok and table.entries[0].exact and table.entries[0].lo == 4
    ok = ok and L.one_degree_buchsbaum(table)
    assert report(10, "abelian trivial arrangement concentrated at 0", ok)


def test_criterion_11_property_suites():
    rng = random.Random(11)
    violations = 0
    for x in catalog_surfaces():
        for _ in range(500):
            l = random_class(rng, x, 6)
            v = line_cohom(x, l)
            w = line_cohom(x, vsub(x.canonical_class, l))
            if v != tuple(reversed(w)):
                violations += 1
            if v[0] - v[1] + v[2] != x.riemann_roch_chi(l):
                violations += 1
    # interval soundness against the split tangent bundle on F_0
    f0 = L.hirzebruch(0)
    ev = Evaluator()
    mid = SeqE(f0, LineE(f0, (2, 0)), None, LineE(f0, (0, 2)), 2, name="t")
    for t in range(-6, 7):
        got = ev.cohom(mid, (t, t))
        split = [
            p + q
            for p, q in zip(line_cohom(f0, (2 + t, t)), line_cohom(f0, (t, 2 + t)))
        ]
        for g, s in zip(got, split):
            if not (g.lo <= s and (g.hi is None or s <= g.hi)):
                violations += 1
    # regularity persistence on 50 certified instances
    certified = 0
    for x in catalog_surfaces():
        if x.kind == "quadric":
            h = (1, 1)
        elif x.kind == "hirzebruch":
            h = (1, x.param + 1)
        elif x.kind == "blowup_p2":
            h = vneg(x.canonical_class)
        else:
            h = (1,)
        try:
            x.very_ample_multiple(h)
        except NotVeryAmple:
            continue
        while certified < 50:
            l = random_class(rng, x, 3)
            e = LineE(x, l)
            found = None
            for r in range(-5, 6):
                if cm_regularity_certify(e, r, h):
                    found = r
                    break
            if found is None:
                continue
            if not cm_regularity_certify(e, found + 1, h):
                violations += 1
            certified += 1
            if certified % 5 == 0:
                break
    ok = violations == 0 and certified >= 50
    assert report(11, "randomized duality, chi, soundness, persistence", ok)


def test_criterion_12_f0_discrepancy_protocol():
    grid = f0_split_grid()
    ok = sorted(k for k, yes in grid.items() if yes) == F0_SPLIT_YES
    ok = ok and F0_SPLIT_YES != F0_STATED_YES
    ok = ok and set(grid) == {(i, j) for i in range(9) for j in range(9)}
    assert report(12, "ruling split oracle with recorded discrepancy", ok)
