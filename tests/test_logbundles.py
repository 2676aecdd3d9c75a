import dataclasses
import json
from itertools import combinations, product
from pathlib import Path

import pytest

import logacm as L
from logacm import classify, logbundles
from logacm.classify import deficiency_concentrated_at_zero, is_acm
from logacm.errors import InputError, NotRulingArrangement
from logacm.exactseq import BlowupCotE, Evaluator, TwistE, default_evaluator, serre_pair
from logacm.intervals import pad_vec
from logacm.linebundles import binom
from logacm.logbundles import (
    cotangent_tangent_pair,
    ledger_checks,
    log_pair,
    quadric_ruling_splitting,
    ruling_counts,
)
from logacm.varieties import KIND_BLOWUP, KIND_HIRZEBRUCH, Component, vneg, vscale

from conftest import catalog_surfaces


def ev():
    return default_evaluator()


def test_cotangent_p3():
    x = L.projective_space(3)
    cot, tan = L.cotangent_tangent_pair(x)
    for t in range(-3, 4):
        v = ev().cohom(cot, (t,))
        assert v[1].exact and v[1].lo == (1 if t == 0 else 0)
    v = ev().cohom(tan, (0,))
    assert v[0].lo == 15


def test_cotangent_blowup_pins():
    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        cot, tan = L.cotangent_tangent_pair(x)
        zero = (0,) * x.lattice_rank
        v = ev().cohom(cot, zero)
        assert [c.lo for c in v] == [0, k + 1, 0] and all(c.exact for c in v)
        w = ev().cohom(tan, zero)
        assert w[0].lo == x.h0_tangent and w[0].exact
        assert w[1].is_zero  # no three collinear points: rigid in h^1


def rules_alone_pair(x):
    """The Bl_k cotangent as its rule leaf alone, paired with its tangent."""
    cot = BlowupCotE(x)
    tan = TwistE(cot, vneg(x.canonical_class))
    serre_pair(cot, tan)
    return cot, tan


def test_blowup_sequence_meets_the_rules_soundly():
    """On a twist box of each Bl_k, meeting the rules with the blow-up
    sequence never conflicts, stays inside the rules-alone interval, and
    every fully exact row has the Riemann-Roch Euler characteristic."""
    exact = {}
    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        cot, _ = cotangent_tangent_pair(x)
        rules, _ = rules_alone_pair(x)
        ev, bound = Evaluator(), 3 if k <= 2 else 2
        exact[k] = 0
        for tw in product(range(-bound, bound + 1), repeat=x.lattice_rank):
            met, alone = ev.cohom(cot, tw), ev.cohom(rules, tw)
            for m, a in zip(met, alone):
                assert a.lo <= m.lo and (a.hi is None or (m.hi is not None and m.hi <= a.hi)), (k, tw, met, alone)
            if all(m.exact for m in met):
                exact[k] += 1
                assert met[0].lo - met[1].lo + met[2].lo == x.chi_cotangent_twist(tw), (k, tw, met)
    assert sum(exact.values()) >= 978, exact  # 822 rows with the rules alone


def test_blowup_deficiency_verdicts_take_no_coarse_solve(monkeypatch):
    """Over the negative-curve sub-arrangements of at most three curves,
    polarized by -K, every verdict is the one the rules alone give.  There
    is no coarse path left to take: every solve is the one rank-path pass,
    for the bounded blow-up sequence and the unbounded rules alike."""

    def verdicts():
        ev, out = Evaluator(), {}
        for k in (1, 2, 3, 4):
            x = L.blowup_p2(k)
            for size in range(4):
                for curves in combinations(x.negative_curves, size):
                    arr = L.arrangement(x, [L.component_from_class(x, c) for c in curves])
                    v = deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, ev=ev)
                    out[(k, curves)] = (v.status, v.witness)
        return out

    met = verdicts()
    assert len(met) == 228
    for module in (logbundles, classify):
        monkeypatch.setattr(module, "cotangent_tangent_pair", rules_alone_pair)
    assert verdicts() == met


def test_cotangent_f1_vanishing_off_zero():
    x = L.hirzebruch(1)
    cot, _ = L.cotangent_tangent_pair(x)
    for a, b in [(1, 2), (2, 3), (1, 3)]:
        for t in range(-3, 4):
            if t == 0:
                continue
            v = ev().cohom(cot, vscale(t, (a, b)))
            assert v[1].is_zero, (a, b, t)


def test_cotangent_abelian():
    x = L.abelian_surface(2)
    cot, tan = L.cotangent_tangent_pair(x)
    assert [c.lo for c in ev().cohom(cot, (0,))] == [2, 4, 2]
    assert tan is cot  # trivial canonical class


def test_log_pair_dk_tables():
    for n in (2, 3, 4):
        x = L.projective_space(n)
        for m in range(1, n + 2):
            arr = L.hyperplane_arrangement(x, m)
            pair = log_pair(x, arr)
            for t in range(-n - 2, n + 3):
                got = pad_vec(ev().cohom(pair.cotangent_log, (t,)), n + 1)
                split = [
                    (m - 1) * a + (n - m + 1) * b
                    for a, b in zip(L.cohom_ci(n, (), t), L.cohom_ci(n, (), t - 1))
                ]
                assert all(g.exact for g in got), (n, m, t)
                assert [g.lo for g in got] == split, (n, m, t)


def test_log_pair_steiner_value():
    for n in (2, 3):
        x = L.projective_space(n)
        for m in range(n + 2, n + 5):
            arr = L.hyperplane_arrangement(x, m)
            pair = log_pair(x, arr)
            v = pad_vec(ev().cohom(pair.cotangent_log, (-n,)), n + 1)
            assert v[n - 1].exact and v[n - 1].lo == m - n - 1, (n, m)


def test_trivial_log_pair_is_cotangent():
    x = L.quadric_surface()
    arr = L.arrangement(x, [])
    pair = log_pair(x, arr)
    cot, _ = L.cotangent_tangent_pair(x)
    assert pair.cotangent_log is cot
    v = ev().cohom(pair.cotangent_log, (0, 0))
    assert v[1].lo == x.h11 > 0  # the trivial arrangement is never aCM


def test_quadric_splitting_examples():
    s = quadric_ruling_splitting(1, 1)
    v = ev().cohom(s, (0, 0))
    assert [c.lo for c in v] == [0, 0, 0]
    with pytest.raises(NotRulingArrangement):
        quadric_ruling_splitting(0, 0)


def test_split_agrees_with_residue_model():
    x = L.quadric_surface()
    for a, b in [(1, 1), (2, 1), (3, 3), (4, 1)]:
        comps = [L.component_from_class(x, (1, 0))] * a + [L.component_from_class(x, (0, 1))] * b
        arr = L.arrangement(x, comps)
        assert ruling_counts(x, arr) == (a, b)
        pair = log_pair(x, arr)
        split = quadric_ruling_splitting(a, b)
        for t in range(-4, 5):
            tw = (t, t)
            got = ev().cohom(pair.cotangent_log, tw)
            want = ev().cohom(split, tw)
            for g, w in zip(got, want):
                if w.exact:
                    assert g.exact and g.lo == w.lo, (a, b, t)


def test_residue_chi_additivity_at_zero():
    cases = [
        (L.quadric_surface(), [(1, 0), (0, 1)], (0, 0)),
        (L.blowup_p2(2), [(0, 1, 0), (0, 0, 1), (1, -1, -1)], (0, 0, 0)),
        (L.hirzebruch(1), [(0, 1), (1, 0)], (0, 0)),
    ]
    for x, classes, zero in cases:
        comps = [L.component_from_class(x, c) for c in classes]
        arr = L.arrangement(x, comps)
        pair = log_pair(x, arr)
        v = pad_vec(ev().cohom(pair.cotangent_log, zero), 3)
        if all(c.exact for c in v):
            chi_log = v[0].lo - v[1].lo + v[2].lo
            chi_cot = x.chi_cotangent_twist(zero)
            chi_comp = sum(1 - c.genus for c in comps)
            assert chi_log == chi_cot + chi_comp, x.kind


def test_log_tangent_dual_consistency():
    x = L.quadric_surface()
    comps = [L.component_from_class(x, (1, 0))] * 2 + [L.component_from_class(x, (0, 1))] * 2
    arr = L.arrangement(x, comps)
    pair = log_pair(x, arr)
    for t in range(-3, 4):
        tw = (t, t)
        a = pad_vec(ev().cohom(pair.cotangent_log, tw), 3)
        from logacm.varieties import vsub

        b = pad_vec(ev().cohom(pair.tangent_log, vsub(x.canonical_class, tw)), 3)
        for i in range(3):
            if a[i].exact and b[2 - i].exact:
                assert a[i].lo == b[2 - i].lo, (t, i)


def test_effectivity_validation():
    x = L.hirzebruch(2)
    with pytest.raises(InputError):
        L.component_from_class(x, (2, 1))  # adjunction genus -2: not a curve class
    arr_bad = L.Arrangement((L.component_from_class(x, (1, 2)),), 1, snc=False)
    with pytest.raises(InputError):
        log_pair(x, arr_bad)


def test_surface_p3_cotangent_rows_are_frozen():
    """Omega^1(t) on the degree-d surface in P^3, d = 2..8 and t = -10..10:
    every row is exact, equals the recorded table (``surface_p3_cotangent.json``,
    written when the conormal sequence was still held by Hodge pins at t = 0
    and the effectivity rule h^0 = 0 for t < 0, h^2 = 0 for t > 0), and
    satisfies Riemann-Roch.  The Jacobian-ring rank alone reproduces it."""
    rows = json.loads(Path(__file__).with_name("surface_p3_cotangent.json").read_text())
    assert sum(map(len, rows.values())) == 147
    for d in range(2, 9):
        x = L.surface_in_p3(d)
        cot, _ = cotangent_tangent_pair(x)
        for t, want in zip(range(-10, 11), rows[str(d)]):
            v = Evaluator().cohom(cot, (t,))
            assert all(c.exact for c in v) and [c.lo for c in v] == want, (d, t, v)
            assert want[0] - want[1] + want[2] == x.chi_cotangent_twist((t,)), (d, t)


def test_surface_p3_catalog_constants_match_the_engine():
    """chi(O_X), h^{1,1} and q in the surface_in_p3 catalog entry are the
    values the engine derives at twist 0: chi from the line-bundle backend,
    h^{1,1} = h^1(Omega^1) and q = h^0(Omega^1) = h^1(O_X) from the
    sequences."""
    for d in range(2, 9):
        x = L.surface_in_p3(d)
        o = L.cohom_ci(3, (d,), 0)
        cot = [c.lo for c in Evaluator().cohom(cotangent_tangent_pair(x)[0], (0,))]
        assert x.chi_structure_sheaf == o[0] - o[1] + o[2], d
        assert (x.h11, x.q, x.q) == (cot[1], cot[0], o[1]), d


def test_ledger_cubic():
    rep = ledger_checks("cubic_surface")
    assert rep.values == (36, 5, 9)
    assert rep.contradiction


def test_ledger_dp4():
    rep = ledger_checks("dp4")
    assert rep.values == (60, 10, 12)
    assert rep.contradiction


def test_ledger_thm_reduction():
    rep = ledger_checks("thm_pn_reduction", n=3, d=1)
    assert not rep.contradiction  # hyperplanes survive
    for n in (2, 3):
        for d in (2, 3, 4):
            rep = ledger_checks("thm_pn_reduction", n=n, d=d)
            assert rep.contradiction
            assert rep.values[0] == rep.values[1] == binom(n + d - 2, n) - binom(n - 2, n)
    with pytest.raises(InputError):
        ledger_checks("nonsense")


def _catalog_tables(ev, twists):
    """h^*(Omega^1(tH)) and h^*(TX(tH)) on P^2..P^4, Q, F_0..F_3, Bl_1..Bl_4,
    S_2..S_5 and the abelian surfaces with polarization square 2 and 4."""
    tables = {}
    for x in catalog_surfaces() + [L.projective_space(3), L.projective_space(4), L.surface_in_p3(5)]:
        if x.kind == KIND_HIRZEBRUCH:
            h = (1, x.param + 1)
        elif x.kind == KIND_BLOWUP:
            h = vneg(x.canonical_class)
        else:
            h = (1,) * x.lattice_rank
        for side, expr in zip(("cot", "tan"), L.cotangent_tangent_pair(x)):
            for t in twists:
                tables[(x, side, t)] = ev.cohom(expr, vscale(t, h))
    return tables


def _log_arrangements():
    """(X, H, D): every one- and two-curve sub-arrangement of the negative
    curves on Bl_1..Bl_4 with H = -K, the quadric ruling arrangements with
    (a, b) <= (2, 2) with H = (1, 1), and fibre plus section on F_1."""
    out = []
    for k in range(1, 5):
        x = L.blowup_p2(k)
        for size in (1, 2):
            for curves in combinations(x.negative_curves, size):
                out.append((x, vneg(x.canonical_class), [L.component_from_class(x, c) for c in curves]))
    q = L.quadric_surface()
    for a in range(3):
        for b in range(3):
            if a + b:
                comps = [L.component_from_class(q, (1, 0))] * a + [L.component_from_class(q, (0, 1))] * b
                out.append((q, (1, 1), comps))
    f1 = L.hirzebruch(1)
    out.append((f1, (1, 2), [L.component_from_class(f1, (0, 1)), L.component_from_class(f1, (1, 0))]))
    return [(x, h, L.arrangement(x, comps)) for x, h, comps in out]


def _log_tables(ev, twists):
    tables = {}
    for n, (x, h, arr) in enumerate(_log_arrangements()):
        pair = log_pair(x, arr, ev)
        for side, expr in (("cot", pair.cotangent_log), ("tan", pair.tangent_log)):
            for t in twists:
                tables[(n, side, t)] = ev.cohom(expr, vscale(t, h))
    return tables


def test_catalog_tables_do_not_depend_on_evaluator_or_order():
    """Serre partners are data on the expressions, so a fresh evaluator sees
    the same duality as the default one, in either twist order; and a value
    cached at a cycle root, wherever the root sits on the stack, is the value
    an outermost call computes, so log-pair tables agree as well."""
    twists, log_twists = range(-4, 5), range(-3, 4)

    def tables(ev, order):
        return _catalog_tables(ev, twists[::order]), _log_tables(ev, log_twists[::order])

    default = tables(default_evaluator(), 1)
    assert len(default[0]) == 324 and len(default[1]) == 92 * 2 * 7
    assert tables(Evaluator(), 1) == default
    assert tables(Evaluator(), -1) == default


def test_log_pair_records_both_serre_pairs_on_its_evaluator():
    """The caller's evaluator lists the Omega^1/T pair it applies as well as
    the log pair, and a repeated verdict adds neither again."""
    x = L.quadric_surface()
    arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
    ev = Evaluator()
    first = is_acm(x, (1, 1), arr, ev=ev)
    cot, tan = cotangent_tangent_pair(x)
    pairs = ev.serre_dual_pairs()
    assert len(pairs) == 2 and (repr(cot), repr(tan)) in pairs
    assert ev.partners[cot.key()] is tan and ev.partners[tan.key()] is cot
    partners = {k: p.key() for k, p in ev.partners.items()}
    assert is_acm(x, (1, 1), arr, ev=ev) == first
    assert ev.serre_dual_pairs() == pairs
    assert {k: p.key() for k, p in ev.partners.items()} == partners


def test_invalid_arrangement_raises_on_every_call_and_is_not_kept():
    """A non-effective class, a rigid class listed twice and a non-SNC
    arrangement each raise on every call; the evaluator keeps no pair and
    records no Serre pair for them."""
    x = L.hirzebruch(1)
    section, fibre = L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))
    invalid = [
        (L.Arrangement((Component((0, -1), 0, True),), 1), "not effective"),
        (L.arrangement(x, [section, section]), "rigid"),  # C_0 has one section: one member only
        (L.Arrangement((section, fibre), 2, snc=False), "normal crossings"),
    ]
    ev = Evaluator()
    for arr, reason in invalid:
        for _ in range(2):
            with pytest.raises(InputError, match=reason):
                log_pair(x, arr, ev)
        assert ev.log_pairs == {} and ev.serre_dual_pairs() == [] and ev.partners == {}


def test_log_pair_hit_restores_a_cleared_partner_record():
    """A memo hit registers both Serre pairs again, so after the partner
    record is cleared it reads as a fresh build leaves it."""
    x = L.hirzebruch(2)
    arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
    fresh = Evaluator()
    log_pair(x, arr, fresh)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    ev.partners.clear()
    ev.partner_names.clear()
    assert log_pair(x, arr, ev) is pair
    assert ev.serre_dual_pairs() == fresh.serre_dual_pairs() and len(fresh.serre_dual_pairs()) == 2
    assert {k: p.key() for k, p in ev.partners.items()} == {k: p.key() for k, p in fresh.partners.items()}


def test_shared_log_pair_cannot_be_mutated():
    """Every caller on one evaluator gets the same pair, so its notes are a
    tuple, the pair is frozen, and a verdict's certificates are its own list."""
    x = L.projective_space(2)
    arr = L.hyperplane_arrangement(x, 3)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    assert pair.notes == ("hyperplane arrangement: split/Steiner model installed",)
    with pytest.raises(AttributeError):
        pair.notes.append("changed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.notes = ()
    verdict = is_acm(x, (1,), arr, ev=ev)
    assert verdict.certificates[0] == pair.notes[0]
    verdict.certificates.append("changed")
    assert log_pair(x, arr, ev).notes == ("hyperplane arrangement: split/Steiner model installed",)
