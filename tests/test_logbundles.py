import dataclasses
import json
from itertools import combinations, product
from pathlib import Path

import pytest

import logacm as L
from logacm import classify, logbundles
from logacm.classify import deficiency_concentrated_at_zero, is_acm
from logacm.errors import InputError, NotRulingArrangement
from logacm.exactseq import (
    CurveE,
    DualE,
    Evaluator,
    Expr,
    HyperE,
    LineE,
    MeetE,
    SeqE,
    SumE,
    TwistE,
    default_evaluator,
)
from logacm.intervals import meet_vecs, pad_vec, transpose_vec
from logacm.linebundles import binom
from logacm.logbundles import (
    cotangent_tangent_pair,
    ledger_checks,
    log_pair,
    quadric_ruling_splitting,
    ruling_counts,
    serre_met_pair,
)
from logacm.varieties import KIND_BLOWUP, KIND_HIRZEBRUCH, KIND_PN, Component, vadd, vneg, vscale, vsub

from conftest import catalog_surfaces, random_class


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


@dataclasses.dataclass(eq=False)
class RulesE(Expr):
    """The Bl_k cotangent as its section-count rules alone: the values the
    blow-up sequence's rule pins, read as a leaf (open where the rules
    are).  ``RulesEvaluator`` evaluates it."""

    variety: object

    def __post_init__(self):
        self.cdim = 2


class RulesEvaluator(Evaluator):
    def _raw(self, expr, twist):
        if isinstance(expr, RulesE):
            return tuple(logbundles._blowup_cotangent_rule(expr.variety, twist)[0])
        return super()._raw(expr, twist)


def rules_alone_pair(x):
    """The Bl_k cotangent as its rules alone, met with its Serre-dual
    reading, and its tangent."""
    return serre_met_pair(RulesE(x))


def test_blowup_sequence_meets_the_rules_soundly():
    """On a twist box of each Bl_k, the blow-up sequence pinned by its rule
    never conflicts, stays inside the interval of the sequence without its
    rule met with the rules alone (the same facts, met after the solve
    instead of inside it), and every fully exact row has the Riemann-Roch
    Euler characteristic.  Pins inside the solve narrow the upper end of
    h^1 at the counted twists."""
    exact, narrowed = {}, {}
    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        cot, _ = cotangent_tangent_pair(x)
        unpinned = dataclasses.replace(cot.parts[0], rule=None)
        reference, _ = serre_met_pair(MeetE([unpinned, RulesE(x)]))
        ev, bound = RulesEvaluator(), 3 if k <= 2 else 2
        exact[k] = narrowed[k] = 0
        for tw in product(range(-bound, bound + 1), repeat=x.lattice_rank):
            pinned, met = ev.cohom(cot, tw), ev.cohom(reference, tw)
            for p, m in zip(pinned, met):
                assert m.lo <= p.lo and (m.hi is None or (p.hi is not None and p.hi <= m.hi)), (k, tw, pinned, met)
            narrowed[k] += pinned != met
            if all(p.exact for p in pinned):
                exact[k] += 1
                assert pinned[0].lo - pinned[1].lo + pinned[2].lo == x.chi_cotangent_twist(tw), (k, tw, pinned)
    assert sum(exact.values()) >= 978, exact  # 822 rows with the rules alone
    assert narrowed == {1: 10, 2: 70, 3: 54, 4: 188}


def test_blowup_deficiency_verdicts_take_no_coarse_solve(monkeypatch):
    """Over the negative-curve sub-arrangements of at most three curves,
    polarized by -K, every verdict is the one the rules alone give.  There
    is no coarse path left to take: every solve is the one rank-path pass,
    for the bounded blow-up sequence and the unbounded rules alike."""

    def verdicts():
        ev, out = RulesEvaluator(), {}
        for k in (1, 2, 3, 4):
            x = L.blowup_p2(k)
            for size in range(4):
                for curves in combinations(x.negative_curves, size):
                    arr = L.arrangement(x, [L.component_from_class(x, c) for c in curves])
                    v = deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, ev=ev)
                    out[(k, curves)] = (v.status, v.witness)
        return out

    pinned = verdicts()
    assert len(pinned) == 228
    for module in (logbundles, classify):
        monkeypatch.setattr(module, "cotangent_tangent_pair", rules_alone_pair)
    assert verdicts() == pinned


def test_catalog_serre_duality_slot_for_slot(rng):
    """On every catalog surface h^i(Omega^1(t)) = h^{2-i}(Omega^1(-t)) and
    h^i(TX(t)) = h^{2-i}(Omega^1(K - t)), interval for interval, along the
    first lattice generator and at random twists."""
    for x in catalog_surfaces():
        cot, tan = cotangent_tangent_pair(x)
        k, ev = x.canonical_class, Evaluator()
        h = (1,) + (0,) * (x.lattice_rank - 1)
        twists = {vscale(t, h) for t in range(-5, 6)} | {random_class(rng, x, 4) for _ in range(60)}
        for t in sorted(twists):
            assert ev.cohom(cot, t) == transpose_vec(ev.cohom(cot, vneg(t))), (x.kind, x.param, t)
            assert ev.cohom(tan, t) == transpose_vec(ev.cohom(cot, vsub(k, t))), (x.kind, x.param, t)


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


def _dual_check_arrangements():
    """(X, twists, D) covering every leaf kind of the residue sequence: F_0..F_3
    and the quadric at |a|, |b| <= 5; Bl_1..Bl_4 along multiples of K; P^2
    and P^3 with curved components and hyperplanes, and surfaces in P^3 and
    an abelian surface (positive-genus sections among them) at |t| <= 5."""
    box = list(product(range(-5, 6), repeat=2))
    line = [(t,) for t in range(-5, 6)]
    out = []
    for e in range(4):
        x = L.hirzebruch(e)
        for classes in ([(1, 0)], [(0, 1)], [(1, 0), (0, 1)], [(1, e), (0, 1), (0, 1)], [(1, e + 1)]):
            out.append((x, box, [L.component_from_class(x, c) for c in classes]))
    q = L.quadric_surface()
    for classes in ([(1, 0), (1, 0), (0, 1)], [(1, 1)], [(1, 1), (1, 0)]):
        out.append((q, box, [L.component_from_class(q, c) for c in classes]))
    for k in range(1, 5):
        x = L.blowup_p2(k)
        along_k = [vscale(t, x.canonical_class) for t in range(-5, 6)]
        for curves in (x.negative_curves[:1], x.negative_curves[:2], x.negative_curves[-2:]):
            out.append((x, along_k, [L.component_from_class(x, c) for c in curves]))
    for n, degrees in ((2, [2]), (2, [3]), (2, [2, 1]), (2, [1, 1, 1]), (3, [2]), (3, [3, 1]), (3, [1] * 6)):
        x = L.projective_space(n)
        out.append((x, line, [L.component_from_class(x, (d,)) for d in degrees]))
    for d in (3, 4):
        x = L.surface_in_p3(d)
        out.append((x, line, [L.component_from_class(x, (1,))]))  # a plane section, genus (d-1)(d-2)/2
        out.append((x, line, [L.component_from_degree(x, 1, 0), L.component_from_degree(x, 2, 0)]))
    a = L.abelian_surface(2)
    out.append((a, line, [L.component_from_class(a, (1,))]))
    return [(x, twists, L.arrangement(x, comps)) for x, twists, comps in out]


def test_log_tangent_side_is_the_dual_view_of_the_residue_side():
    """T(-log D) is the dual of Omega^1(log D), so the log-tangent sequence
    0 -> T(-log D) -> T -> (+) O_{D_i}(D_i) -> 0, solved on its own, never
    narrows the residue side's transposed value: met with it, it gives the
    ``tangent_log`` value, on a fresh evaluator."""
    for x, twists, arr in _dual_check_arrangements():
        ev = Evaluator()
        pair = log_pair(x, arr, ev)
        _, tan = cotangent_tangent_pair(x)
        leaves = []
        for c in arr.components:
            if x.kind == KIND_PN:
                leaves.append(TwistE(HyperE(x, c.klass[0]), c.klass))  # O_D(D) = O_D(d)
            else:
                leaves.append(CurveE(x, c.genus, c.normal_degree(x), klass=c.klass, deg_h=c.deg_h))
        sequence = SeqE(x, None, tan, SumE(leaves), x.dim, name="log tangent")
        k = x.canonical_class
        for t in twists:
            residue = ev.cohom(pair.cotangent_log, vsub(k, t))
            dual = transpose_vec(pad_vec(residue, x.dim + 1))
            solved = pad_vec(ev.cohom(sequence, t), x.dim + 1)
            assert meet_vecs(solved, dual) == ev.cohom(pair.tangent_log, t), (x.kind, x.param, arr, t)


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


def test_two_plane_sections_of_the_cubic_surface_have_one_log_form():
    """Two plane sections D_1, D_2 of the smooth cubic surface have
    [D_1] = [D_2] = H, so H^0(O_{D_1} + O_{D_2}) -> H^1(Omega^1) has rank
    1, and h^0(Omega^1) = 0 gives h^0(Omega^1(log D)) = 1: d log(f_1/f_2)
    is the section.  The residue leaves O_{D_i} are trivial at twist 0,
    so with span_rank = 1 the engine reads exactly 1; with the span
    unasserted it reads 0..1 (a span pinned to min(m, h^{1,1}) would read
    an exact 0)."""
    x = L.surface_in_p3(3)
    section = L.component_from_degree(x, 3, 1)
    for span_rank, want in ((None, L.Iv(0, 1)), (1, L.iv(1))):
        arr = L.arrangement(x, [section, section], span_rank=span_rank)
        assert arr.span_asserted == (span_rank is not None)
        ev = Evaluator()
        h0 = ev.cohom(L.log_pair(x, arr, ev).cotangent_log, (0,))[0]
        assert h0 == want, (span_rank, h0)


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
    """Serre duality is in the expressions, so a fresh evaluator sees the
    same duality as the default one, in either twist order; and a value
    cached inside an evaluation, wherever it sits on the stack, is the value
    an outermost call computes, so log-pair tables agree as well."""
    twists, log_twists = range(-4, 5), range(-3, 4)

    def tables(ev, order):
        return _catalog_tables(ev, twists[::order]), _log_tables(ev, log_twists[::order])

    default = tables(default_evaluator(), 1)
    assert len(default[0]) == 324 and len(default[1]) == 92 * 2 * 7
    assert tables(Evaluator(), 1) == default
    assert tables(Evaluator(), -1) == default


def test_log_pair_records_one_serre_pair_on_its_evaluator():
    """The caller's evaluator lists the Omega^1/T pair it applies, and only
    that: the log tangent side is the dual view of the residue side, not a
    Serre partner.  A repeated verdict adds nothing again."""
    x = L.quadric_surface()
    arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
    ev = Evaluator()
    first = is_acm(x, (1, 1), arr, ev=ev)
    cot, tan = cotangent_tangent_pair(x)
    pair = log_pair(x, arr, ev)
    assert isinstance(pair.tangent_log, DualE) and pair.tangent_log.inner is pair.cotangent_log
    pairs = ev.serre_dual_pairs()
    assert pairs == [(repr(cot), repr(tan))]
    assert ev.partners == {cot: tan, tan: cot}
    partners = dict(ev.partners)
    assert is_acm(x, (1, 1), arr, ev=ev) == first
    assert ev.serre_dual_pairs() == pairs
    assert ev.partners == partners


def test_invalid_arrangement_raises_on_every_call_and_is_not_kept():
    """A non-effective class, a rigid class listed twice and a non-SNC
    arrangement each raise on every call; the evaluator's cache keeps
    nothing and its partner record no Serre pair for them."""
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
        assert ev.cache == {} and ev.serre_dual_pairs() == [] and ev.partners == {}


def test_log_pair_hit_restores_a_cleared_partner_record():
    """A memo hit registers the Omega^1/T Serre pair again, so after the
    partner record is cleared it reads as a fresh build leaves it; the log
    pair is one node and its dual view, with no record of its own."""
    x = L.hirzebruch(2)
    arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
    cot, tan = cotangent_tangent_pair(x)
    record = {cot: tan, tan: cot}  # each side of the Serre pair -> the other side

    fresh = Evaluator()
    fresh_pair = log_pair(x, arr, fresh)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    ev.partners.clear()
    ev.partner_names.clear()
    assert log_pair(x, arr, ev) is pair
    assert ev.serre_dual_pairs() == fresh.serre_dual_pairs() and len(fresh.serre_dual_pairs()) == 1
    assert ev.partners == record and fresh.partners == record
    for p in (pair, fresh_pair):
        assert isinstance(p.tangent_log, DualE) and p.tangent_log.inner is p.cotangent_log


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


# -- the relative log-tangent sequence of a ruling on F_e ----------------------
#
# Each check reads a fresh evaluator and builds the ruling model through the
# module attribute ``logbundles.ruling_log_tangent``, so a mutant patched in
# there is the model ``log_pair`` installs and the one the checks read.

FE_BOX = list(product(range(-4, 5), range(-6, 7)))


def _fe_box_arrangements():
    """(F_e, D) for e = 0..3 and every search candidate with class bound 2
    and at most three components."""
    from logacm.classify import _candidates

    surfaces = [L.hirzebruch(e) for e in range(4)]
    return [(x, arr) for x in surfaces for _, arr in _candidates(x, 2, 3)]


def _log_tangent_chi(x, arr, tw) -> int:
    """chi(T(-log D)(tw)) by Riemann-Roch for a rank-2 bundle,
    chi(E) = 2 chi(O) + c_1.(c_1 - K)/2 - c_2, with c_1(T(-log D)) = -K - D
    and c_2 = e(X) - e(D), e(D) = sum (2 - 2 g_i) - sum_{i<j} D_i.D_j; the
    twist adds 2 tw to c_1 and c_1.tw + tw^2 to c_2."""
    k, comps = x.canonical_class, arr.components
    d = tuple(map(sum, zip(*(c.klass for c in comps))))
    e_d = sum(2 - 2 * c.genus for c in comps) - sum(x.intersect(a.klass, b.klass) for a, b in combinations(comps, 2))
    c1, c2 = vsub(vneg(k), d), x.c2 - e_d
    c2 += x.intersect(c1, tw) + x.intersect(tw, tw)
    c1 = vadd(c1, vscale(2, tw))
    num = x.intersect(c1, vsub(c1, k))
    assert num % 2 == 0
    return 2 * x.chi_structure_sheaf + num // 2 - c2


def _check_riemann_roch(ev) -> int:
    """Every exact row of T(-log D)(L) over F_0..F_3 with |a| <= 4, |b| <= 6
    satisfies Riemann-Roch; returns the number of exact rows."""
    exact = 0
    for x, arr in _fe_box_arrangements():
        tan = log_pair(x, arr, ev).tangent_log
        for tw in FE_BOX:
            v = pad_vec(ev.cohom(tan, tw), 3)
            if all(c.exact for c in v):
                exact += 1
                assert v[0].lo - v[1].lo + v[2].lo == _log_tangent_chi(x, arr, tw), (x.param, arr, tw, v)
    return exact


def _check_split_inside(ev):
    """On F_0 with a lines of class (1, 0) and b of class (0, 1), the ruling
    model of either ruling contains the split Omega^1(log D) =
    O(a - 2, 0) + O(0, b - 2) at every twist of the box."""
    x = L.hirzebruch(0)
    for a, b in product(range(4), repeat=2):
        if a + b == 0:
            continue
        split = logbundles._ruling_split(x, a, b)
        for fibre, sections, k in (((0, 1), [(1, 0)] * a, b), ((1, 0), [(0, 1)] * b, a)):
            model = DualE(logbundles.ruling_log_tangent(x, fibre, sections, k))
            for tw in FE_BOX:
                for got, want in zip(ev.cohom(model, tw), ev.cohom(split, tw)):
                    assert got.lo <= want.lo and (got.hi is None or want.lo <= got.hi), (a, b, fibre, tw)


def _check_toric_boundary(ev):
    """The toric boundary B = C_0 + s_inf + two fibres of F_1..F_3 has
    T(-log B) = O + O, so each slot of ``log_pair``'s tangent side contains
    2 h^i(O(L)) over the box."""
    for e in (1, 2, 3):
        x = L.hirzebruch(e)
        arr = L.arrangement(x, [L.component_from_class(x, c) for c in ((1, 0), (1, e), (0, 1), (0, 1))])
        tan = log_pair(x, arr, ev).tangent_log
        for tw in FE_BOX:
            for got, h in zip(ev.cohom(tan, tw), L.line_cohom(x, tw)):
                assert got.lo <= 2 * h and (got.hi is None or 2 * h <= got.hi), (e, tw)


def _check_catalog_tangent(ev):
    """With D = 0 the ruling model is TX: its intervals contain the catalog
    T_{F_e} values (the same sequence, with its rule and Serre meet), and
    equal them where it is exact."""
    for e in range(4):
        x = L.hirzebruch(e)
        bare = logbundles.ruling_log_tangent(x, (0, 1), (), 0)
        _, tan = cotangent_tangent_pair(x)
        for tw in FE_BOX:
            for got, want in zip(ev.cohom(bare, tw), ev.cohom(tan, tw)):
                assert got.lo <= want.lo and (got.hi is None or (want.hi is not None and want.hi <= got.hi)), (e, tw)
                if got.exact:
                    assert want == got, (e, tw)


RULING_CHECKS = (_check_riemann_roch, _check_split_inside, _check_toric_boundary, _check_catalog_tangent)


def test_ruling_model_rows_satisfy_riemann_roch():
    """The sequence makes most T(-log D) rows over the box exact, and each
    exact row agrees with chi from c_1 = -K - D and c_2 = e(X) - e(D)."""
    assert _check_riemann_roch(Evaluator()) > 6000


@pytest.mark.parametrize("check", RULING_CHECKS[1:])
def test_ruling_model_matches_independent_values(check):
    check(Evaluator())


def test_ruling_model_is_installed_only_where_a_ruling_fits():
    """Fibres and disjoint sections of one ruling get the model (either
    ruling on F_0, where (2, 1) is a section of the second); meeting
    sections and F_1's class (2, 2) do not, and F_1's two (1, 1) sections
    at H = (2, 5) stay Unknown on the tangent side."""

    def arr(x, classes):
        return L.arrangement(x, [L.component_from_class(x, c) for c in classes])

    f0, f1, f2 = L.hirzebruch(0), L.hirzebruch(1), L.hirzebruch(2)
    assert logbundles.ruling_fit(f0, arr(f0, [(1, 0), (1, 0), (0, 1)])) == ((0, 1), ((1, 0), (1, 0)), 1)
    assert logbundles.ruling_fit(f0, arr(f0, [(1, 0), (2, 1)])) == ((1, 0), ((2, 1),), 1)
    assert logbundles.ruling_fit(f2, arr(f2, [(1, 0), (1, 2), (0, 1)])) == ((0, 1), ((1, 0), (1, 2)), 1)
    meeting = ([(1, 1), (1, 1)], [(2, 2)], [(2, 2), (0, 1)], [(1, 0), (1, 2)])
    for x, classes in [(f1, c) for c in meeting] + [(f2, [(1, 2), (1, 2)]), (f0, [(1, 1), (2, 1)])]:
        d = arr(x, classes)
        assert logbundles.ruling_fit(x, d) is None, (x.param, classes)
        assert isinstance(log_pair(x, d, Evaluator()).cotangent_log, SeqE), (x.param, classes)
    verdict = L.is_tacm(f1, (2, 5), arr(f1, [(1, 1), (1, 1)]), ev=Evaluator())
    assert verdict.status == "Unknown" and verdict.certificates[0].startswith("window uncertified")


def _mutant(dl: int = 0, dr: int = 0, drop: bool = False):
    """``ruling_log_tangent`` with the left class moved by dl fibres, the
    right class by dr fibres, or one section left out of the left class."""
    real = logbundles.ruling_log_tangent

    def build(x, fibre, sections, k, name="ruling log tangent", rule=None):
        seq = real(x, fibre, sections, k, name, rule)
        left = vadd(seq.left.klass, vscale(dl, fibre))
        if drop and sections:
            left = vadd(left, sections[0])
        right = vadd(seq.right.klass, vscale(dr, fibre))
        return SeqE(x, LineE(x, left), None, LineE(x, right), 2, name=name, rule=rule)

    return build


def test_every_mutant_of_the_ruling_model_is_killed(monkeypatch):
    """Moving either class of the sequence by a fibre, or leaving a section
    out of the left class, makes at least one independent check fail (an
    assertion or a conflict with the residue model)."""
    from logacm.errors import InconsistentHints

    mutants = {
        "left + f": _mutant(dl=1),
        "left - f": _mutant(dl=-1),
        "right + f": _mutant(dr=1),
        "right - f": _mutant(dr=-1),
        "section dropped": _mutant(drop=True),
    }
    killed = {}
    for name, build in mutants.items():
        with monkeypatch.context() as m:
            m.setattr(logbundles, "ruling_log_tangent", build)
            for check in RULING_CHECKS:
                try:
                    check(Evaluator())
                except (AssertionError, InconsistentHints):
                    killed.setdefault(name, []).append(check.__name__)
    assert sorted(killed) == sorted(mutants), killed
