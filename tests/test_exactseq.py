import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logacm as L
from logacm.classify import YES, _candidate_classes, deficiency_concentrated_at_zero
from logacm.cli import _as_class, build_arrangement, build_variety, load_problem
from logacm.errors import EngineError, InconsistentHints, InputError, NotVeryAmple, WindowNotFound
from logacm import exactseq
from logacm.exactseq import (
    LEFT,
    MIDDLE,
    RIGHT,
    CurveE,
    DualE,
    Evaluator,
    Expr,
    LineE,
    MeetE,
    SeqE,
    SumE,
    ToricOmegaE,
    TwistE,
    cm_regularity_certify,
    vanishing_window,
)
from logacm import logbundles
from logacm.catalog import KINDS
from logacm.intervals import Iv, exact_vec, iv, iv_meet, pad_vec, top_vec, transpose_vec
from logacm.logbundles import log_pair, repeated_rigid_class
from logacm.linebundles import line_cohom
from logacm.varieties import KIND_BLOWUP, KIND_HIRZEBRUCH, VarietyModel, vadd, vneg, vscale, vsub

from conftest import catalog_surfaces, random_class

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def at(twist, pins=None, ranks=None):
    """A sequence rule that gives pins and rank bounds at one twist only."""

    def rule(_x, tw):
        return (pins, ranks) if tw == twist else (None, None)

    return rule


def eqy1_middle(x, rule=None):
    """The tangent-bundle extension on F_e, unpinned unless given a rule."""
    e = x.param
    return SeqE(x, LineE(x, (2, e)), None, LineE(x, (0, 2)), 2, name="tan ext", rule=rule)


def test_tangent_f0_exact_without_pins():
    ev = Evaluator()
    x = L.hirzebruch(0)
    mid = eqy1_middle(x)
    v = ev.cohom(mid, (0, 0))
    assert [c.lo for c in v] == [6, 0, 0] and all(c.exact for c in v)


def test_tangent_fe_h1_with_pin():
    for e in range(2, 7):
        x = L.hirzebruch(e)
        ev = Evaluator()
        mid = eqy1_middle(x, rule=at((0, 0), pins=[iv(x.h0_tangent), None, None]))
        v = ev.cohom(mid, (0, 0))
        assert v[1].exact and v[1].lo == e - 1, e


def test_line_passthrough():
    ev = Evaluator()
    for x in catalog_surfaces():
        zero = (0,) * x.lattice_rank
        v = ev.cohom(LineE(x, zero), zero)
        assert [c.lo for c in v] == list(line_cohom(x, zero))


def test_split_sequence_soundness(rng):
    """The middle interval of 0 -> A -> A+C -> C -> 0 contains the split value."""
    ev = Evaluator()
    for x in catalog_surfaces()[:8]:
        for _ in range(10):
            a = random_class(rng, x, 3)
            c = random_class(rng, x, 3)
            mid = SeqE(x, LineE(x, a), None, LineE(x, c), 2, name="split")
            tw = random_class(rng, x, 2)
            got = ev.cohom(mid, tw)
            true = [p + q for p, q in zip(line_cohom(x, vadd(a, tw)), line_cohom(x, vadd(c, tw)))]
            for g, t in zip(got, true):
                assert g.lo <= t <= (g.hi if g.hi is not None else t), (x.kind, a, c, tw)


def test_chi_additivity_on_exact_solves(rng):
    ev = Evaluator()
    for x in catalog_surfaces()[:8]:
        for _ in range(10):
            a = random_class(rng, x, 3)
            c = random_class(rng, x, 3)
            mid = SeqE(x, LineE(x, a), None, LineE(x, c), 2, name="s")
            tw = random_class(rng, x, 2)
            got = ev.cohom(mid, tw)
            if all(g.exact for g in got):
                chi_mid = got[0].lo - got[1].lo + got[2].lo
                chi_ac = x.riemann_roch_chi(vadd(a, tw)) + x.riemann_roch_chi(vadd(c, tw))
                assert chi_mid == chi_ac


def test_rank_hint_narrows_never_widens():
    x = L.blowup_p2(2)
    cot, _ = L.cotangent_tangent_pair(x)
    leaves = [L.component_from_class(x, c) for c in [(0, 1, 0), (0, 0, 1), (1, -1, -1)]]
    from logacm.exactseq import CurveE

    right = SumE([CurveE(x, 0, 0, klass=c.klass) for c in leaves])
    free = SeqE(x, cot, None, right, 2, name="residue-free")
    hinted = SeqE(x, cot, None, right, 2, name="residue-hint", rule=at((0, 0, 0), ranks=[iv(3)]))
    ev = Evaluator()
    v_free = ev.cohom(free, (0, 0, 0))
    v_hint = ev.cohom(hinted, (0, 0, 0))
    for a, b in zip(v_hint, v_free):
        assert a.lo >= b.lo
        assert b.hi is None or (a.hi is not None and a.hi <= b.hi)
    assert v_hint[1].is_zero  # the hint resolves h^1 exactly


def test_inconsistent_hint_raises():
    x = L.hirzebruch(0)
    bad = SeqE(
        x,
        LineE(x, (2, 0)),
        None,
        LineE(x, (0, 2)),
        2,
        name="bad",
        rule=at((0, 0), ranks=[iv(5)]),  # impossible
    )
    ev = Evaluator()
    with pytest.raises(InconsistentHints):
        ev.cohom(bad, (0, 0))


def test_empty_meet_names_the_expression_and_twist(monkeypatch):
    """An empty meet names expr@twist; a meet that is not empty formats
    nothing."""
    x = L.projective_space(2)
    conflict = MeetE((LineE(x, (0,)), LineE(x, (1,))))
    with pytest.raises(InconsistentHints) as exc:
        Evaluator().cohom(conflict, (0,))
    assert str(exc.value) == "empty meet 1 & 3 at O(0,) == O(1,)@(0,)"

    serre = MeetE([LineE(x, (0,)), DualE(LineE(x, (1,)))])  # h^0(O) = 1 against h^2(O(1)(K)) = 0
    with pytest.raises(InconsistentHints) as exc:
        Evaluator().cohom(serre, (0,))
    assert str(exc.value) == "empty meet 1 & 0 at O(0,) == (O(1,))^v@(0,)"

    reprs = []
    monkeypatch.setattr(LineE, "__repr__", lambda self: reprs.append(self) or "O")
    agree = MeetE((LineE(x, (0,)), SumE((LineE(x, (0,)),))))
    assert Evaluator().cohom(agree, (1,))[0] == iv(3)
    assert reprs == []


def test_meet_of_parts(monkeypatch):
    """Parts that agree give that vector without a meet; parts that overlap
    give the narrowed meet, whichever part comes first; a part that
    conflicts with agreeing ones still raises, naming expr@twist."""
    meets, meet_vecs = [], exactseq.meet_vecs
    monkeypatch.setattr(exactseq, "meet_vecs", lambda a, b: meets.append((a, b)) or meet_vecs(a, b))
    x, ev = L.projective_space(2), FixedEvaluator()
    line = LineE(x, (1,))
    agree = MeetE((line, SumE((LineE(x, (1,)),)), TwistE(LineE(x, (0,)), (1,))))
    assert ev.cohom(agree, (1,)) == ev.cohom(line, (1,)) == (iv(6), iv(0), iv(0)) and meets == []

    wide = FixedE(x, (Iv(0, 3), Iv(1, None), iv(0)))
    narrow = FixedE(x, (Iv(2, 5), Iv(0, 4), Iv(0, 1)))
    short = FixedE(x, (Iv(2, 5), Iv(0, 4)))  # degree 2 past its end: an exact zero
    for parts in ((wide, narrow), (narrow, wide), (wide, wide, narrow), (wide, short)):
        meets.clear()
        assert ev.cohom(MeetE(parts), TW) == (Iv(2, 3), Iv(1, 4), iv(0)), parts
        assert len(meets) == 1

    conflict = MeetE((line, line, LineE(x, (2,))))
    with pytest.raises(InconsistentHints) as exc:
        ev.cohom(conflict, (0,))
    assert str(exc.value) == "empty meet 3 & 6 at O(1,) == O(1,) == O(2,)@(0,)"


def test_line_value_is_the_exact_backend_vector():
    """A ``LineE`` evaluates to ``exact_vec`` of ``line_cohom`` at the sum of
    its class and the twist, over a box of twists on every catalog kind."""
    varieties = catalog_surfaces() + [L.projective_space(3), L.projective_space(4)]
    assert {x.kind for x in varieties} == {k.name for k in KINDS}
    for x in varieties:
        ev = Evaluator()
        box = list(itertools.product(range(-3, 4) if x.lattice_rank <= 2 else range(-1, 2), repeat=x.lattice_rank))
        for klass in ((0,) * x.lattice_rank, x.canonical_class, box[-1]):
            node = LineE(x, klass)
            for tw in box:
                assert ev.cohom(node, tw) == exact_vec(line_cohom(x, vadd(klass, tw))), (x.kind, klass, tw)


def test_serre_dual_pairs_registry(monkeypatch):
    import logacm.exactseq as E

    x = L.hirzebruch(2)
    monkeypatch.setattr(E, "_DEFAULT", Evaluator())
    L.cotangent_tangent_pair.__wrapped__(x)  # the uncached body
    assert E.default_evaluator().partners == {}  # building the pair records nothing

    ev = Evaluator()
    cot, tan = L.cotangent_tangent_pair(x)
    log_pair(x, L.arrangement(x, []), ev)
    assert ev.serre_dual_pairs() == [(repr(cot), repr(tan))]
    assert ev.partners[cot] is tan
    assert ev.partners[tan] is cot


def test_log_pair_built_once_per_evaluator():
    """An evaluator keeps the log pair it built and records the Omega^1/T
    Serre pair once; the log tangent side is the dual view of the residue
    side; a fresh evaluator builds its own nodes."""
    x = L.hirzebruch(1)
    arr = L.arrangement(x, [L.component_from_class(x, c) for c in [(1, 0), (0, 1), (1, 1)]])
    cot, tan = L.cotangent_tangent_pair(x)
    ev = Evaluator()
    p = log_pair(x, arr, ev)
    pairs = ev.serre_dual_pairs()
    assert log_pair(x, arr, ev) is p  # built once per evaluator
    q = log_pair(x, arr, Evaluator())  # a fresh evaluator builds the pair again
    assert p.cotangent_log is not q.cotangent_log
    assert isinstance(p.tangent_log, DualE) and p.tangent_log.inner is p.cotangent_log
    assert pairs == [(repr(cot), repr(tan))]  # the Omega^1/T pair, once
    assert ev.serre_dual_pairs() == pairs


def test_pn_tangent_is_the_dual_of_its_cotangent():
    """TP^n is Dual(Omega^1); the tangent side of the empty
    arrangement still gets a vanishing window (its Serre transform is
    Omega^1 again, not a double dual)."""
    for n in (2, 3, 4):
        x = L.projective_space(n)
        cot, tan = L.cotangent_tangent_pair(x)
        assert isinstance(tan, DualE) and tan.inner is cot
        table = L.deficiency_table(x, (1,), L.arrangement(x, []), 1, side="tan")
        assert all(v.exact for v in table.entries.values())
        assert table.nonzero_twists() == ([-3] if n == 2 else [])  # h^1(TP^2(-3)) = h^1(Omega^1) = 1


def bl4_negative_curves(*which):
    """Bl_4 P^2 with an arrangement of some of its ten negative curves."""
    x = L.blowup_p2(4)
    return x, L.arrangement(x, [L.component_from_class(x, x.negative_curves[i]) for i in which])


def test_value_met_inside_an_evaluation_is_cached_at_its_first_computation():
    """Omega^1 of Bl_4 at twist zero is first asked inside the log pair's
    evaluation, not as the outermost call; its value is cached there, and so
    is the value of the blow-up sequence it meets with its Serre-dual
    reading."""
    x, arr = bl4_negative_curves(0, 4, 9)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    cot, _ = L.cotangent_tangent_pair(x)
    model = cot.parts[0]
    assert isinstance(cot, MeetE) and isinstance(model, SeqE)
    zero = (0,) * x.lattice_rank
    ev.cohom(pair.cotangent_log, zero)
    assert (cot, zero) in ev.cache
    assert (model, zero) in ev.cache


def test_blowup_sequence_rule_runs_once_per_twist(monkeypatch):
    """The Bl_4 blow-up sequence is cached at its first computation, so its
    rule runs once per twist over a whole deficiency verdict."""
    x, arr = bl4_negative_curves(0, 4, 9)
    ev = Evaluator()
    runs = Counter()
    seq = L.cotangent_tangent_pair(x)[0].parts[0]
    rule = seq.rule

    def counted(variety, twist):
        runs[twist] += 1
        return rule(variety, twist)

    monkeypatch.setattr(seq, "rule", counted)
    assert deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, ev=ev).status == YES
    assert runs and max(runs.values()) == 1


def test_each_sequence_is_solved_once_per_twist(monkeypatch):
    """Over a twist box on both sides of an F_1 and a Bl_4 log pair, each
    (sequence, twist) is solved at most once on one evaluator, though the
    Serre-dual readings visit many of them again; and every value is the
    one the same twist gets alone on a fresh evaluator."""
    f1 = L.hirzebruch(1)
    f1_arr = L.arrangement(f1, [L.component_from_class(f1, (1, 0)), L.component_from_class(f1, (0, 1))])
    f1_box = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    bl4, bl4_arr = bl4_negative_curves(0, 4, 9)
    mk, e1 = vneg(bl4.canonical_class), (0, 1, 0, 0, 0)
    bl4_box = [vadd(vscale(t, mk), vscale(s, e1)) for t in range(-3, 4) for s in range(-1, 2)]
    fresh = {}
    for x, arr, box in ((f1, f1_arr, f1_box), (bl4, bl4_arr, bl4_box)):
        for side in ("cot", "tan"):
            for tw in box:
                alone = Evaluator()
                fresh[x, side, tw] = alone.cohom(log_pair(x, arr, alone).for_side(side), tw)

    solves = Counter()
    solve = Evaluator._solve

    def counted(self, node, twist):
        solves[node, twist] += 1
        return solve(self, node, twist)

    monkeypatch.setattr(Evaluator, "_solve", counted)
    ev = Evaluator()
    for x, arr, box in ((f1, f1_arr, f1_box), (bl4, bl4_arr, bl4_box)):
        pair = log_pair(x, arr, ev)
        for side in ("cot", "tan"):
            for tw in box:
                assert ev.cohom(pair.for_side(side), tw) == fresh[x, side, tw], (x.kind, side, tw)
    assert len(solves) > 200 and max(solves.values()) == 1


def test_frames_released_when_evaluation_raises(monkeypatch):
    """An error raised several evaluations deep leaves nothing stale: no
    value of an evaluation it interrupted is cached, and a later call
    agrees with a fresh evaluator."""
    x, arr = bl4_negative_curves(0, 4, 9)
    h = vneg(x.canonical_class)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    seq = L.cotangent_tangent_pair(x)[0].parts[0]
    rule, raw = seq.rule, Evaluator._raw
    in_flight, at_raise = [], []

    def tracked(self, expr, twist):
        in_flight.append((expr, twist))
        try:
            return raw(self, expr, twist)
        finally:
            in_flight.pop()

    def failing(variety, twist):
        if len(in_flight) >= 3 and not at_raise:
            at_raise.extend(in_flight)
            raise InconsistentHints("injected mid-evaluation")
        return rule(variety, twist)

    monkeypatch.setattr(Evaluator, "_raw", tracked)
    monkeypatch.setattr(seq, "rule", failing)
    with pytest.raises(InconsistentHints):
        for t in range(-3, 4):
            ev.cohom(pair.tangent_log, vscale(t, h))
    assert at_raise and in_flight == []
    assert not any(key in ev.cache for key in at_raise)
    monkeypatch.undo()
    fresh = Evaluator()
    for side in (pair.cotangent_log, pair.tangent_log):
        for t in range(-3, 4):
            assert ev.cohom(side, vscale(t, h)) == fresh.cohom(side, vscale(t, h))


# -- the Serre partner edge that the Serre meet replaced ------------------------


class PartnerEvaluator(Evaluator):
    """The evaluation of Serre partners as edges, kept as the reference the
    Serre meet (``logbundles.serre_met_pair``) must equal.

    A partner p of an expression E, read from ``self.partners`` (which
    ``register_dual`` fills), says h^i(E(t)) = h^{n-i}(p(K - t)), and E's
    own value is met with it.  The edge makes evaluation cyclic: a call
    that meets an (expression, twist) being evaluated contributes nothing
    (a cut), and each frame keeps a low mark, the lowest depth a cut below
    it reached, as in Tarjan's lowlink.  A frame whose mark is not below its
    depth is the root of every cycle it saw, and only its value is cached.
    A partnered frame inside a cycle rooted further down keeps its own value
    under ("raw", expression, twist) when no cut in its own subtree reached
    below it, and a later visit does only the partner meet."""

    def __init__(self):
        super().__init__()
        self.depth, self.low = {}, []  # (expression, twist) -> depth; marks

    def _cohom(self, expr, twist):
        key = (expr, twist)
        cache = self.cache
        v = cache.get(key)
        if v is not None:
            return v
        depth, low = self.depth, self.low
        d = depth.get(key)
        if d is not None:  # a cycle cut: the frame at depth d is its root
            low[-1] = min(low[-1], d)
            return top_vec(expr.cdim + 1)
        d = len(low)
        depth[key] = d
        low.append(d)
        partner = self.partners.get(expr)
        raw = None
        try:
            if partner is None:
                v = self._raw(expr, twist)
            else:
                raw_key = ("raw", expr, twist)
                v = raw = cache.get(raw_key)
                if raw is None:
                    v = self._raw(expr, twist)
                    if low[-1] >= d:
                        raw = v  # no cut below this frame: a root's raw value
                w = self._cohom(partner, vsub(expr.variety.canonical_class, twist))
                v = exactseq._meet(v, transpose_vec(pad_vec(w, expr.cdim + 1)), expr, twist)
        finally:
            del depth[key]
            mark = low.pop()
            if mark < d and mark < low[-1]:
                low[-1] = mark  # inside a cycle rooted below: so is the parent
        if mark >= d:
            cache[key] = v
            if raw is not None:
                cache.pop(raw_key, None)
        elif raw is not None:
            cache[raw_key] = raw
        return v


def serre_met_models(x):
    """The Omega^1/T pair of x with the closed form at (anti-)ample twists
    taken off (on F_e and Bl_1..Bl_3): the Serre-met model and its -K
    twist; the other pairs as the catalog builds them."""
    cot, tan = L.cotangent_tangent_pair(x)
    if isinstance(cot, ToricOmegaE):
        return cot.model, TwistE(cot.model, vneg(x.canonical_class))
    return cot, tan


def partnered_pair(x):
    """The Omega^1/T pair of x as the partner edge paired it: a Serre-met
    pair gives up its meet and pairs the model's nodes (on F_e the tangent
    sequence and its Omega^1 view, on Bl_k two views of the blow-up
    sequence, on a surface in P^3 the conormal sequence and its twist); the
    other pairs keep their nodes."""
    cot, tan = serre_met_models(x)
    if not isinstance(cot, MeetE):
        return cot, tan
    model, mk = cot.parts[0], vneg(x.canonical_class)
    if x.kind == KIND_HIRZEBRUCH:
        return model, model.inner
    if x.kind == KIND_BLOWUP:
        model = TwistE(model, (0,) * x.lattice_rank)
    return model, TwistE(model, mk)


def serre_cases():
    """(X, twists, arrangements): F_0..F_3 and the quadric at |a|, |b| <= 4,
    Bl_1..Bl_4 along tK + uE_1, P^2, P^3, the surfaces in P^3 of degree
    2..4 and the abelian surface at |t| <= 5, each with log arrangements of
    one to three components."""
    box = list(itertools.product(range(-4, 5), repeat=2))
    line = [(t,) for t in range(-5, 6)]
    out = []
    for e in range(4):
        x = L.hirzebruch(e)
        out.append((x, box, [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)], [(1, e), (0, 1), (0, 1)], [(1, e + 1)]]))
    out.append((L.quadric_surface(), box, [[(1, 0)], [(1, 1)], [(1, 0), (1, 0), (0, 1)], [(1, 1), (1, 0)]]))
    for k in range(1, 5):
        x = L.blowup_p2(k)
        e1 = (0, 1) + (0,) * (k - 1)
        twists = [vadd(vscale(t, x.canonical_class), vscale(u, e1)) for t in range(-3, 4) for u in range(-2, 3)]
        curves = x.negative_curves
        out.append((x, twists, [curves[:1], curves[:2], curves[-2:], curves[:3], curves[-3:]]))
    out.append((L.projective_space(2), line, [[(1,)], [(2,)], [(2,), (1,)], [(1,), (1,), (1,)]]))
    out.append((L.projective_space(3), line, [[(1,)], [(2,)], [(1,), (1,), (1,)]]))
    for d in (2, 3, 4):
        out.append((L.surface_in_p3(d), line, [[(1,)], [(1,), (1,)]]))
    out.append((L.abelian_surface(2), line, [[(1,)]]))
    return [
        (x, twists, [L.arrangement(x, [L.component_from_class(x, c) for c in classes]) for classes in arrs])
        for x, twists, arrs in out
    ]


def serre_tables(ev, cases, pair, order):
    """Every Omega^1, TX and log-pair value of the cases on ev, with the
    Omega^1/T pair given by ``pair``, asking the twists in ``order``."""
    out = {}
    for x, twists, arrs in cases:
        cot, tan = pair(x)
        ev.register_dual(cot, tan)
        exprs = [("cot", cot), ("tan", tan)]
        for n, arr in enumerate(arrs):
            p = log_pair(x, arr, ev)
            exprs += [(("cot", n), p.cotangent_log), (("tan", n), p.tangent_log)]
        for t in twists[::order]:
            for name, expr in exprs:
                out[x, name, t] = ev.cohom(expr, t)
    return out


def test_serre_meet_equals_the_partner_edge_it_replaced(monkeypatch):
    """On the varieties and twists of ``serre_cases`` every Omega^1 and TX
    value, and both sides of every log pair, are the values the Serre
    partner edge gave: ``PartnerEvaluator`` on the pairs as they were
    partnered, asked in listed and in reversed twist order, against a plain
    evaluator on the catalog's Serre-met pairs (``serre_met_models``: the
    closed form that F_e and Bl_1..Bl_3 take at (anti-)ample twists is
    checked against these models in ``test_logbundles``)."""
    cases = serre_cases()
    models = {x: serre_met_models(x) for x, _, _ in cases}
    partnered = {x: partnered_pair(x) for x, _, _ in cases}
    monkeypatch.setattr(logbundles, "cotangent_tangent_pair", models.__getitem__)
    want = serre_tables(Evaluator(), cases, models.__getitem__, 1)
    assert len(want) == 6818
    monkeypatch.setattr(logbundles, "cotangent_tangent_pair", partnered.__getitem__)
    for order in (1, -1):
        got = serre_tables(PartnerEvaluator(), cases, partnered.__getitem__, order)
        assert [k for k in want if got[k] != want[k]] == []


def test_duality_involution_on_lines(rng):
    ev = Evaluator()
    for x in catalog_surfaces():
        for _ in range(15):
            l = random_class(rng, x, 4)
            tw = random_class(rng, x, 2)
            a = ev.cohom(LineE(x, l), tw)
            b = ev.cohom(LineE(x, vsub((0,) * x.lattice_rank, l)), vsub(x.canonical_class, tw))
            # h^i(L(t)) = h^{2-i}(L^v(K-t))
            assert [c.lo for c in a] == [c.lo for c in reversed(b)]


def test_twists_are_checked_where_they_enter():
    """A list twist gives the tuple twist's value, and a twist of the wrong
    length raises InputError at each entry point before anything is cached."""
    x = L.hirzebruch(1)
    arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
    expr = log_pair(x, arr, Evaluator()).cotangent_log
    assert Evaluator().cohom(expr, [1, 2]) == Evaluator().cohom(expr, (1, 2))
    for r in range(-2, 4):
        as_list = cm_regularity_certify(expr, r, [1, 2], Evaluator())
        assert as_list == cm_regularity_certify(expr, r, (1, 2), Evaluator())
    window = outcome(vanishing_window, expr, (1, 2), 8, Evaluator())
    assert isinstance(window, exactseq.WindowCert)
    assert outcome(vanishing_window, expr, [1, 2], 8, Evaluator()) == window
    ev = Evaluator()
    for bad in ((1,), [1, 2, 3]):
        with pytest.raises(InputError, match="lattice rank"):
            ev.cohom(expr, bad)
        with pytest.raises(InputError, match="lattice rank"):
            cm_regularity_certify(expr, 3, bad, ev)
        with pytest.raises(InputError, match="lattice rank"):
            vanishing_window(expr, bad, ev=ev)
    assert ev.cache == {}


def test_evaluator_checks_each_twist_once(monkeypatch):
    """Evaluating either side of a log pair at a fresh twist checks that
    twist once, in ``Evaluator.cohom``: the twists built inside from it are
    not checked again by the evaluator."""
    x = L.hirzebruch(1)
    arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
    pair = log_pair(x, arr, Evaluator())
    checks = Counter()
    check = VarietyModel.check_class

    def counted(self, klass):
        checks[sys._getframe(1).f_globals["__name__"]] += 1
        return check(self, klass)

    monkeypatch.setattr(VarietyModel, "check_class", counted)
    ev = Evaluator()
    for expr, twist in ((pair.tangent_log, (2, 3)), (pair.cotangent_log, (-1, 4))):
        checks.clear()
        entries = len(ev.cache)
        ev.cohom(expr, twist)
        assert len(ev.cache) - entries > 5  # evaluated through many twists, not a cache hit
        assert checks[exactseq.__name__] == 1, checks


def catalog_polarization(x):
    """An ample class of a catalog surface: H, (1,1), h + (e+1)f or -K."""
    if x.kind == "quadric":
        return (1, 1)
    if x.kind == "hirzebruch":
        return (1, x.param + 1)
    if x.kind == "blowup_p2":
        return vneg(x.canonical_class)
    return (1,)


def test_cm_regularity_examples():
    p2 = L.projective_space(2)
    assert not cm_regularity_certify(LineE(p2, (-1,)), 0, (1,))  # h^2(O(-3)) = 1
    assert cm_regularity_certify(LineE(p2, (-1,)), 1, (1,))
    with pytest.raises(NotVeryAmple):
        cm_regularity_certify(LineE(p2, (0,)), 1, (0,))


def test_regularity_persistence(rng):
    checked = 0
    for x in catalog_surfaces():
        h = catalog_polarization(x)
        try:
            x.very_ample_multiple(h)
        except NotVeryAmple:
            continue
        for _ in range(6):
            l = random_class(rng, x, 3)
            e = LineE(x, l)
            for r in range(-4, 5):
                if cm_regularity_certify(e, r, h):
                    assert cm_regularity_certify(e, r + 1, h), (x.kind, l, r)
                    checked += 1
                    break
    assert checked >= 50


def test_vanishing_window_line_on_f2():
    x = L.hirzebruch(2)
    win = vanishing_window(LineE(x, (0, 1)), (1, 3))
    ev = Evaluator()
    # residual slots agree with the direct backend, tails certified zero
    for t in range(-10, 11):
        truth = line_cohom(x, vadd((0, 1), vscale(t, (1, 3))))
        if t >= win.upper_from[1] or t <= win.lower_upto[1]:
            assert truth[1] == 0, t
    for t in win.residual(1):
        assert line_cohom(x, vadd((0, 1), vscale(t, (1, 3))))[1] >= 0


def test_window_soundness_random_lines(rng):
    for x in catalog_surfaces()[:10]:
        h = catalog_polarization(x)
        certified = 0
        for _ in range(8):
            l = random_class(rng, x, 3)
            try:
                win = vanishing_window(LineE(x, l), h, cap=10)
            except WindowNotFound:
                continue  # steep class beyond the cap: Unknown, never wrong
            certified += 1
            for t in range(-14, 15):
                if t >= win.upper_from[1] or t <= win.lower_upto[1]:
                    assert line_cohom(x, vadd(l, vscale(t, h)))[1] == 0, (x.kind, l, t)
        assert certified >= 3, x.kind


def test_split_tf0_interval_soundness():
    """Propagated intervals for the F_0 tangent extension contain the split
    bundle values on a twist grid."""
    x = L.hirzebruch(0)
    ev = Evaluator()
    mid = eqy1_middle(x)
    for t in range(-6, 7):
        tw = (t, t)
        got = ev.cohom(mid, tw)
        split = [
            p + q
            for p, q in zip(line_cohom(x, vadd((2, 0), tw)), line_cohom(x, vadd((0, 2), tw)))
        ]
        for g, s in zip(got, split):
            assert g.lo <= s <= (g.hi if g.hi is not None else s), (t, got, split)


# -- the long-exact-sequence solve against brute force -----------------------


@dataclass(eq=False)
class FixedE(Expr):
    """A term with given cohomology intervals at every twist."""

    variety: object
    vec: tuple

    def __post_init__(self):
        self.vec = tuple(self.vec)
        self.cdim = len(self.vec) - 1


class FixedEvaluator(Evaluator):
    def _raw(self, expr, twist):
        return expr.vec if isinstance(expr, FixedE) else super()._raw(expr, twist)


def brute_force_solve(ev, node, twist):
    """The unknown term of a bounded sequence by enumerating every rank
    vector and every flank value: the min/max of b_i = (a_i - rho_{i-1}) +
    (c_i - rho_i) over all assignments with 0 <= rho_i <= c_i, a_{i+1}, the
    unknown >= 0, and the ranks and unknown inside the bounds and pins of
    the node's rule."""
    n = node.amb
    terms = {LEFT: node.left, MIDDLE: node.middle, RIGHT: node.right}
    slot = next(name for name, term in terms.items() if term is None)
    known = {name: pad_vec(ev.cohom(term, twist), n + 1) for name, term in terms.items() if term is not None}
    cons = [None if i <= node.cdim else iv(0) for i in range(n + 1)]
    pins, ranks = node.rule(node.variety, twist) if node.rule is not None else (None, None)
    for i, p in enumerate((pins or ())[: n + 1]):
        if p is not None:
            cons[i] = p if cons[i] is None else iv_meet(cons[i], p)
    hints = [None] * n
    for d, r in enumerate((ranks or ())[:n]):
        hints[d] = r
    a, c = known.get(LEFT), known.get(RIGHT)
    ranges = []
    for i in range(n):
        hi = min(x.hi for x in (c and c[i], a and a[i + 1], hints[i]) if x is not None and x.hi is not None)
        lo = hints[i].lo if hints[i] is not None else 0
        if lo > hi:
            raise InconsistentHints("hint outside admissible range")
        ranges.append(range(lo, hi + 1))
    names = list(known)
    flank_values = [
        itertools.product(*(range(x.lo, x.hi + 1) for x in vec)) for vec in known.values()
    ]
    lows, highs = [None] * (n + 1), [None] * (n + 1)
    for choice in itertools.product(*flank_values):
        vals = dict(zip(names, choice))
        for rho in itertools.product(*ranges):
            r = (0, *rho, 0)  # r[i] = rho_{i-1}
            out = []
            for i in range(n + 1):
                if slot == MIDDLE:
                    out.append(vals[LEFT][i] - r[i] + vals[RIGHT][i] - r[i + 1])
                elif slot == LEFT:
                    out.append(vals[MIDDLE][i] - vals[RIGHT][i] + r[i] + r[i + 1])
                else:
                    out.append(vals[MIDDLE][i] - vals[LEFT][i] + r[i] + r[i + 1])
            av = vals.get(LEFT, out)
            cv = vals.get(RIGHT, out)
            if any(v < 0 for v in out):
                continue
            if any(rho[i] > cv[i] or rho[i] > av[i + 1] for i in range(n)):
                continue
            if any(k is not None and not (k.lo <= v and (k.hi is None or v <= k.hi)) for k, v in zip(cons, out)):
                continue
            for i, v in enumerate(out):
                lows[i] = v if lows[i] is None else min(lows[i], v)
                highs[i] = v if highs[i] is None else max(highs[i], v)
    if lows[0] is None:
        raise InconsistentHints("no admissible rank assignment")
    return tuple(Iv(lo, hi) for lo, hi in zip(lows, highs))[: node.cdim + 1]


P2, TW = L.projective_space(2), (0,)


def around(draw, v: int, bound) -> Iv:
    """An interval holding v: its lower end up to 2 below v, its upper end
    `bound` above v, or open where `bound` draws None."""
    above = draw(bound)
    return Iv(v - draw(st.integers(0, min(v, 2))), None if above is None else v + above)


def shifted(v: Iv, by: int) -> Iv:
    return Iv(max(0, v.lo + by), None if v.hi is None else max(0, v.hi + by))


@st.composite
def bounded_sequences(draw, widened=2, max_width=2, opened=0):
    """A sequence drawn from a rank path, so that most draws are feasible.

    The ranks r_k of the maps out of the terms A_0, B_0, C_0, A_1, ..., C_n
    of the long exact sequence come first; term k then has dimension
    r_{k-1} + r_k, and the unknown slot, at a random place, vanishes above
    cdim.  The flanks are exact at those dimensions, except that at most
    `widened` entries widen to intervals of width 1..`max_width` holding
    them, and with `opened` one to `opened` entries lose their upper bound.
    Rank hints hold their connecting rank and pins the unknown's dimension;
    both are installed as the sequence's rule at TW, which meets hints of
    one degree when it is called.  Some draws are perturbed: the unknown is
    pinned to its dimension at every degree, then one flank entry, hint or
    pin moves by one, which leaves no admissible rank path unless a wide
    entry takes up the shift (or the moved hint conflicts with another of
    its degree, and the rule raises)."""
    n = draw(st.integers(1, 4))
    slot = draw(st.integers(0, 2))  # LEFT, MIDDLE or RIGHT
    cdim = draw(st.integers(n - 1, n))
    length = 3 * (n + 1)
    ranks = draw(st.lists(st.integers(0, 3), min_size=length - 1, max_size=length - 1)) + [0]
    for k in range(3 * (cdim + 1) + slot, length, 3):  # the unknown above cdim: no rank in or out
        ranks[k] = ranks[k - 1] = 0
    dims = [ranks[k] + (ranks[k - 1] if k else 0) for k in range(length)]

    flanks = [[Iv(dims[3 * i + j], dims[3 * i + j]) for i in range(n + 1)] for j in range(3) if j != slot]
    for pos, width in draw(st.lists(st.tuples(st.integers(0, 2 * n + 1), st.integers(1, max_width)), max_size=widened)):
        v = flanks[pos % 2][pos // 2].lo
        lo = v - draw(st.integers(0, min(v, width)))
        flanks[pos % 2][pos // 2] = Iv(lo, lo + width)
    if opened:
        for pos in draw(st.lists(st.integers(0, 2 * n + 1), min_size=1, max_size=opened)):
            flanks[pos % 2][pos // 2] = Iv(flanks[pos % 2][pos // 2].lo, None)
    bound = st.one_of(st.none(), st.integers(0, 3))
    hints = [(d, around(draw, ranks[3 * d + 2], bound)) for d in draw(st.lists(st.integers(0, n - 1), max_size=2))]
    pins = [around(draw, dims[3 * i + slot], bound) if draw(st.booleans()) else None for i in range(cdim + 1)]
    pinned = draw(st.booleans())

    if draw(st.integers(0, 2)) == 2:
        pins, pinned = [iv(dims[3 * i + slot]) for i in range(cdim + 1)], True
        target, pos, by = draw(st.tuples(st.sampled_from("fhp"), st.integers(0, 2 * n + 1), st.sampled_from([-1, 1])))
        if target == "f":
            flanks[pos % 2][pos // 2] = shifted(flanks[pos % 2][pos // 2], by)
        elif target == "h":
            hints.append((pos % n, iv(max(0, ranks[3 * (pos % n) + 2] + by))))
        else:
            pins[pos % (cdim + 1)] = shifted(pins[pos % (cdim + 1)], by)

    terms = [FixedE(P2, f) for f in flanks]
    terms.insert(slot, None)

    def rule(_x, twist):
        if twist != TW:
            return None, None
        ranks = [None] * n
        for d, h in hints:
            ranks[d] = h if ranks[d] is None else iv_meet(ranks[d], h)
        return (pins if pinned else None), ranks

    return SeqE(P2, *terms, cdim, name="random", rule=rule)


def solve_or_raise(solve, *args):
    try:
        return solve(*args)
    except InconsistentHints:
        return InconsistentHints


def check_drawn(sequences, max_examples, check):
    """Run `check` on `max_examples` drawn sequences; it returns whether the
    sequence was feasible.  At least half of the draws must be, and some
    must not, so that both the solve and its refusal are tested."""
    feasible = []

    @settings(derandomize=True, max_examples=max_examples, deadline=None)
    @given(sequences)
    def run(node):
        feasible.append(check(node))

    run()
    assert len(feasible) > sum(feasible) >= len(feasible) / 2, (sum(feasible), len(feasible))


# -- the flat-list kernel against the rank-path solve it replaced -------------

_INF = float("inf")


def _ends(v: Iv) -> tuple:
    """v as a (lo, hi) pair, with hi = _INF for an open end."""
    return (v.lo, _INF if v.hi is None else v.hi)


def _apply_relation(a, b, c, con):
    """The intervals of the terms A_i, B_i, C_i of the long exact
    sequence at one degree, as (lo, hi) pairs with hi = _INF for an open
    end.  a, b and c are the known terms' values and None for the
    unknown, whose interval is its constraint ``con``, or [0, _INF)
    without one."""
    free = (0, _INF) if con is None else _ends(con)
    return tuple(free if v is None else _ends(v) for v in (a, b, c))


def rank_path_solve(self, node: SeqE, twist) -> tuple[Iv, ...]:
    """The rank-path solve that the flat-list ``Evaluator._solve`` replaced,
    verbatim but for ``apply``, which is this module's ``_apply_relation``
    (the evaluator's returns intervals, not (lo, hi) pairs): the reference the
    kernel must equal, tuple for tuple and error text for error text."""
    n = node.amb
    seq = (node.left, node.middle, node.right)
    known = [None if t is None else pad_vec(self._cohom(t, twist), n + 1) for t in seq]
    cons, hints = node.constraints_at(twist)
    apply = _apply_relation
    # the terms A_0, B_0, C_0, A_1, ..., C_n of the long exact sequence;
    # term k has dimension r_{k-1} + r_k, r_k the rank of the map out of
    # it, with r_{-1} = r_last = 0, so the constraints form a path
    terms = [t for i in range(n + 1) for t in apply(*(v and v[i] for v in known), cons[i])]
    boxes = [(0, _INF)] * (len(terms) - 1) + [(0, 0)]
    for i, h in enumerate(hints):
        if h is not None:  # the connecting rank C_i -> A_{i+1}
            boxes[3 * i + 2] = _ends(h)

    # A forward pass keeps the r_k consistent with terms 0..k, a backward
    # pass narrows them to those consistent with every term; each such
    # set is an integer interval (module docstring).
    reach, (xlo, xhi) = [], (0, 0)
    for (lo, hi), (blo, bhi) in zip(terms, boxes):
        xlo, xhi = max(blo, lo - xhi), min(bhi, hi - xlo)
        if xlo > xhi:
            raise InconsistentHints(f"{node.name}@{twist}: no admissible rank assignment")
        reach.append((xlo, xhi))
    for k in range(len(terms) - 1, 0, -1):
        (lo, hi), (ylo, yhi), (xlo, xhi) = terms[k], reach[k], reach[k - 1]
        reach[k - 1] = (max(xlo, lo - yhi), min(xhi, hi - ylo))

    # the unknown at degree i: its interval met with the sums of a
    # reachable rank into it and a reachable rank out of it
    out = []
    for k in range(known.index(None), len(terms), 3)[: node.cdim + 1]:
        (lo, hi), (xlo, xhi), (ylo, yhi) = terms[k], reach[k - 1] if k else (0, 0), reach[k]
        hi = min(hi, xhi + yhi)
        out.append(Iv(max(lo, xlo + ylo), None if hi == _INF else hi))
    return tuple(out)


def solved(solve, *args):
    """(value, None), or (InconsistentHints, its message) if solve raises."""
    try:
        return solve(*args), None
    except InconsistentHints as exc:
        return InconsistentHints, str(exc)


def kernel_solve(ev, node, twist=TW):
    """ev._solve(node, twist), or InconsistentHints if it raises, after
    asserting that ``rank_path_solve`` returns the same tuple or raises with
    the same message."""
    got = solved(ev._solve, node, twist)
    assert got == solved(rank_path_solve, ev, node, twist), (node, twist)
    return got[0]


def matches_brute_force(node, ev=None):
    """Whether node is feasible, after asserting that the solve and the
    brute force agree on it."""
    ev = ev or FixedEvaluator()
    got = kernel_solve(ev, node)
    assert got == solve_or_raise(brute_force_solve, ev, node, TW)
    return got is not InconsistentHints


def test_solve_matches_brute_force():
    check_drawn(bounded_sequences(), 300, matches_brute_force)


def trimmed(node: SeqE) -> SeqE:
    """node with each flank's trailing exact zeros cut off: the same
    sequence, since a degree past the end of a value is an exact zero."""

    def cut(term):
        if term is None:
            return None
        vec = list(term.vec)
        while len(vec) > 1 and vec[-1] == iv(0):
            vec.pop()
        return FixedE(term.variety, vec)

    return SeqE(P2, cut(node.left), cut(node.middle), cut(node.right), node.cdim, node.name, node.amb, node.rule)


def test_solve_reads_short_flanks_as_padded():
    """Flanks shorter than the sequence read as padded with exact zeros:
    the solve of a trimmed sequence equals the solve of the whole one, and
    both oracles agree with it."""
    shortened = []

    def check(node):
        short = trimmed(node)
        shortened.append(any(len(t.vec) < node.amb + 1 for t in (short.left, short.middle, short.right) if t))
        assert kernel_solve(FixedEvaluator(), short) == kernel_solve(FixedEvaluator(), node)
        return matches_brute_force(short)

    check_drawn(bounded_sequences(), 150, check)
    assert sum(shortened) >= len(shortened) / 4, (sum(shortened), len(shortened))


class RelationCountingEvaluator(FixedEvaluator):
    def __init__(self):
        super().__init__()
        self.relations = 0

    def _apply_relation(self, *args):
        self.relations += 1
        return Evaluator._apply_relation(*args)


def test_solve_with_exact_flanks_matches_brute_force():
    """Every flank exact: the solve builds one relation per degree."""

    def check(node):
        ev = RelationCountingEvaluator()
        feasible = matches_brute_force(node, ev)
        assert ev.relations == node.amb + 1 or (not feasible and ev.relations == 0)
        return feasible

    check_drawn(bounded_sequences(widened=0), 300, check)


def test_solve_with_wide_flanks_matches_brute_force():
    check_drawn(bounded_sequences(widened=4, max_width=3), 150, matches_brute_force)


def truncated(node, cut):
    """node with every open flank entry [lo, ?) cut to [lo, lo + cut]."""
    def cut_term(term):
        if term is None:
            return None
        return FixedE(P2, [Iv(v.lo, v.lo + cut) if v.hi is None else v for v in term.vec])

    terms = (cut_term(t) for t in (node.left, node.middle, node.right))
    return SeqE(P2, *terms, node.cdim, name="truncated", rule=node.rule)


def test_solve_with_open_flanks_matches_truncated_solves():
    """An open flank entry reads as the limit of ever larger bounds: every
    lower end is that of the solves with the open entries cut far above
    their values, and an upper end is open exactly where two such cuts
    disagree."""

    def check(node):
        ev = FixedEvaluator()
        got, near, far = (kernel_solve(ev, m) for m in (node, truncated(node, 1000), truncated(node, 2000)))
        if InconsistentHints in (got, near, far):
            assert got is near is far is InconsistentHints
            return False
        for g, a, b in zip(got, near, far):
            assert g.lo == a.lo == b.lo
            assert g.hi == (None if a.hi != b.hi else a.hi)
        return True

    check_drawn(bounded_sequences(opened=2), 300, check)


def test_solve_cost_is_independent_of_rank_ranges(monkeypatch):
    """Ranks range over 0..100,000 and a flank has three values, far beyond
    any enumeration; pinning h^1 of the middle to 0 forces both ranks to
    their top, so the exact answer is (0, 0, 0), with one relation per
    degree."""
    big = 100_000
    a = FixedE(P2, [iv(0), Iv(big, big + 2), iv(big)])
    c = FixedE(P2, [iv(big), iv(big), iv(0)])
    node = SeqE(P2, a, None, c, 2, name="wide", rule=at(TW, pins=[None, iv(0), None]))
    calls = Counter()
    relation = Evaluator._apply_relation

    def counted(*args):
        calls["relation"] += 1
        return relation(*args)

    monkeypatch.setattr(Evaluator, "_apply_relation", staticmethod(counted))
    assert FixedEvaluator()._solve(node, TW) == (iv(0), iv(0), iv(0))
    assert calls["relation"] == node.amb + 1
    unpinned = SeqE(P2, a, None, c, 2, name="wide")
    assert FixedEvaluator()._solve(unpinned, TW) == (Iv(0, big), Iv(0, 2 * big + 2), Iv(0, big))


def test_kernel_matches_rank_path_solve_on_searches(monkeypatch):
    """Every (node, twist) solved while searching F_1 at H = (1, 2), F_0
    and the quadric at H = (1, 1), F_2 at H = (1, 3), F_3 at H = (1, 4),
    F_1..F_3 at H = (2, 2e + 1), F_0 and F_1 at H = (1, e + 2) and F_4 at
    H = (1, 5), on both sides, solves to the same value or error with the
    kernel and with ``rank_path_solve``."""
    seen = {}
    kernel = Evaluator._solve

    def recorded(self, node, twist):
        seen[node, twist] = None
        return kernel(self, node, twist)

    monkeypatch.setattr(Evaluator, "_solve", recorded)
    ev = Evaluator()
    searches = (
        (L.hirzebruch(1), (1, 2)),
        (L.hirzebruch(0), (1, 1)),
        (L.quadric_surface(), (1, 1)),
        (L.hirzebruch(2), (1, 3)),
        (L.hirzebruch(3), (1, 4)),
        *((L.hirzebruch(e), (2, 2 * e + 1)) for e in (1, 2, 3)),
        *((L.hirzebruch(e), (1, e + 2)) for e in (0, 1)),
        (L.hirzebruch(4), (1, 5)),
    )
    for x, h in searches:
        for side in ("cot", "tan"):
            L.search(x, h, 1, 2, side, ev=ev)
    monkeypatch.undo()
    assert len(seen) > 300
    for node, twist in seen:
        kernel_solve(ev, node, twist)


@dataclass(eq=False)
class UnmodelledE(Expr):
    """A node type that no evaluation rule models."""

    variety: object

    def __post_init__(self):
        self.cdim = self.variety.dim


def test_raw_dispatches_on_the_node_type(monkeypatch):
    """An unmodelled node type is refused by name, and a ``_solve``
    replaced on the class is the one evaluation calls."""
    ev = Evaluator()
    with pytest.raises(InputError, match=r"^cannot evaluate "):
        ev.cohom(UnmodelledE(P2), TW)

    x = L.hirzebruch(1)
    pair = log_pair(x, L.arrangement(x, [L.component_from_class(x, (1, 1))]), ev)
    calls = Counter()
    raw, solve = Evaluator._raw, Evaluator._solve

    def dispatched(self, expr, twist):
        calls["sequences"] += isinstance(expr, SeqE)
        return raw(self, expr, twist)

    def counted(self, node, twist):
        calls["solves"] += 1
        return solve(self, node, twist)

    monkeypatch.setattr(Evaluator, "_raw", dispatched)
    monkeypatch.setattr(Evaluator, "_solve", counted)
    got = ev.cohom(pair.tangent_log, (0, -1))
    # the residue sequence at K - t = (-2, -2), where neither Omega^1's twist
    # nor its negative is ample, so Omega^1 is read from its model: T_F1 at
    # two twists, inside it as Omega^1 = T(K) and in Omega^1's Serre-dual
    # reading
    assert calls["solves"] == calls["sequences"] >= 3, calls
    monkeypatch.undo()
    fresh = Evaluator()
    assert got == fresh.cohom(log_pair(x, pair.arrangement, fresh).tangent_log, (0, -1))


# -- the probed regularity scan against a scan from -cap ---------------------


def serre_transform(expr):
    """E^v tensor omega as an expression (E^vv = E)."""
    return TwistE(expr.inner if isinstance(expr, DualE) else DualE(expr), expr.variety.canonical_class)


def linear_regularity_scan(expr, dual, h, cap, nu, ev):
    """The thresholds of ``_one_sided_regularity`` by trying every r from -cap
    upward, with no top-degree probe, on expr or with ``dual`` on its Serre
    transform built as an expression: the oracle of the probed scan."""
    x = expr.variety
    n = x.dim
    hh = x.check_class(h)
    big = vscale(nu, hh)
    side = serre_transform(expr) if dual else expr
    thresholds = {i: None for i in range(1, n + 1)}
    for t0 in range(nu):
        shifted = TwistE(side, vscale(t0, hh)) if t0 else side
        found = next((r for r in range(-cap, cap + 1) if exactseq.cm_regularity_certify(shifted, r, big, ev)), None)
        if found is None:
            raise WindowNotFound(cap, f"{side!r} residue class {t0}")
        for i in range(1, n + 1):
            bound = t0 + nu * (found - i)
            if thresholds[i] is None or bound > thresholds[i]:
                thresholds[i] = bound
    return thresholds


def outcome(fn, *args):
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc), str(exc)


def window_outcomes(expr, h, cap, ev):
    """Both one-sided scans and the window of expr, each as its value or the
    error it raised, through whatever ``exactseq._one_sided_regularity`` is."""
    nu = expr.variety.very_ample_multiple(h)
    scan = exactseq._one_sided_regularity
    return (
        outcome(scan, expr, False, h, cap, nu, ev),
        outcome(scan, expr, True, h, cap, nu, ev),
        outcome(vanishing_window, expr, h, cap, ev),
    )


def assert_probe_matches_linear_scan(monkeypatch, cases):
    """Every (expr, H) gives the same outcomes at caps 0..8 with the probe
    as with the linear scan, each on its own fresh evaluator.  Some probes
    must move the start, and some past the cap, or nothing was skipped."""
    starts = Counter()
    probe = exactseq._top_degree_start

    def recorded(expr, dual, t0, nu, h, cap, ev):
        r = probe(expr, dual, t0, nu, h, cap, ev)
        starts["past cap" if r > cap else "moved" if r > -cap else "at -cap"] += 1
        return r

    monkeypatch.setattr(exactseq, "_top_degree_start", recorded)
    probed_ev, linear_ev = Evaluator(), Evaluator()
    for expr, h in cases:
        for cap in range(9):
            probed = window_outcomes(expr, h, cap, probed_ev)
            with monkeypatch.context() as m:
                m.setattr(exactseq, "_one_sided_regularity", linear_regularity_scan)
                linear = window_outcomes(expr, h, cap, linear_ev)
            assert probed == linear, (expr, h, cap)
    assert starts["moved"] and starts["past cap"], starts


def problem_log_pairs():
    """(x, H, log pair) of every problem document with a variety and a
    polarization."""
    out = []
    for path in sorted(PROBLEMS.glob("*.yaml")):
        spec = load_problem(path)
        if not spec.variety or spec.polarization is None:
            continue
        x = build_variety(spec)
        out.append((x, _as_class(x, spec.polarization), log_pair(x, build_arrangement(x, spec), Evaluator())))
    assert len(out) == 9
    return out


def sweep_arrangement_cases():
    """Both log sides of every arrangement of at most two candidate classes
    on the quadric and F_0..F_3, at the search sweep's polarizations."""
    spaces = [(L.quadric_surface(), [(1, 1), (1, 2), (2, 1), (2, 3)], 1)]
    for e in range(4):
        spaces.append((L.hirzebruch(e), [(1, e + 1), (1, e + 2), (2, 2 * e + 1), (2, 2 * e + 3)], 2 if e >= 2 else 1))
    cases = []
    for x, hs, class_bound in spaces:
        for m in (1, 2):
            for combo in itertools.combinations_with_replacement(sorted(_candidate_classes(x, class_bound)), m):
                if repeated_rigid_class(x, combo) is not None:
                    continue
                pair = log_pair(x, L.arrangement(x, [L.component_from_class(x, c) for c in combo]), Evaluator())
                cases += [(pair.for_side(side), h) for h in hs for side in ("cot", "tan")]
    return cases


def test_probed_scan_matches_linear_scan_on_problem_log_pairs(monkeypatch):
    cases = [(pair.for_side(side), h) for _, h, pair in problem_log_pairs() for side in ("cot", "tan")]
    assert_probe_matches_linear_scan(monkeypatch, cases)


def test_probed_scan_matches_linear_scan_on_sweep_arrangements(monkeypatch):
    cases = sweep_arrangement_cases()
    assert len(cases) >= 250
    assert_probe_matches_linear_scan(monkeypatch, cases)


def test_probed_scan_matches_linear_scan_on_random_lines(monkeypatch, rng):
    cases = [
        (LineE(x, random_class(rng, x, 4)), catalog_polarization(x))
        for x in catalog_surfaces()
        for _ in range(4)
    ]
    assert_probe_matches_linear_scan(monkeypatch, cases)


def test_top_degree_non_increasing_on_lines(rng):
    """h^n(L + sH) from the line-bundle backends never rises with s."""
    for x in catalog_surfaces():
        h = catalog_polarization(x)
        for _ in range(6):
            l = random_class(rng, x, 4)
            top = [line_cohom(x, vadd(l, vscale(s, h)))[x.dim] for s in range(-6, 7)]
            assert top == sorted(top, reverse=True), (x.kind, l, top)


def test_top_degree_non_increasing_on_problem_log_pairs():
    """Every pair of exact h^n slots of the problem log pairs along H is
    non-increasing in the twist."""
    ev = Evaluator()
    for x, h, pair in problem_log_pairs():
        for side in ("cot", "tan"):
            expr = pair.for_side(side)
            exact = [
                v[x.dim].lo
                for v in (pad_vec(ev.cohom(expr, vscale(s, h)), x.dim + 1) for s in range(-6, 7))
                if v[x.dim].exact
            ]
            assert exact == sorted(exact, reverse=True), (x.kind, side, exact)


def test_probe_asks_fewer_regularity_certificates(monkeypatch):
    """On F_1 with a section and a fibre, the probed window tests regularity
    (``_is_regular``, which ``cm_regularity_certify`` also calls) less often
    than the scan from -cap, and certifies the same window."""
    x = L.hirzebruch(1)
    arr = L.arrangement(x, [L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))])
    expr, h = log_pair(x, arr, Evaluator()).cotangent_log, (1, 2)
    calls = Counter()
    certify = exactseq._is_regular

    def counted(*args):
        calls["certify"] += 1
        return certify(*args)

    monkeypatch.setattr(exactseq, "_is_regular", counted)
    probed = vanishing_window(expr, h, ev=Evaluator())
    probed_calls = calls.pop("certify")
    monkeypatch.setattr(exactseq, "_one_sided_regularity", linear_regularity_scan)
    linear = vanishing_window(expr, h, ev=Evaluator())
    assert probed == linear
    assert 0 < probed_calls < calls["certify"], (probed_calls, calls)


@dataclass(eq=False)
class TableE(Expr):
    """A term with given cohomology at listed twists and 0 elsewhere."""

    variety: object
    cdim: int
    table: tuple  # ((twist, vec), ...)


class TableEvaluator(Evaluator):
    def _raw(self, expr, twist):
        if isinstance(expr, TableE):
            return dict(expr.table).get(twist, (iv(0),) * (expr.cdim + 1))
        return super()._raw(expr, twist)


def test_probe_reads_only_the_top_degree_of_x():
    """h^2 = 1 at twist -1 moves the start of a sheaf on P^2 above r = 1,
    but not for a term of cdim 3, whose h^2 is not a top degree; that term
    is 2-regular at every r, so its scan must start at -cap."""
    ev = TableEvaluator()
    surface = TableE(P2, 2, (((-1,), (iv(0), iv(0), iv(1))),))
    assert exactseq._top_degree_start(surface, False, 0, 1, (1,), 8, ev) == 2
    assert exactseq._top_degree_start(surface, False, 0, 1, (1,), 1, ev) == 2  # past the cap: the scan is empty
    solid = TableE(P2, 3, (((-1,), (iv(0), iv(0), iv(1), iv(0))),))
    assert exactseq._top_degree_start(solid, False, 0, 1, (1,), 8, ev) == -8
    assert exactseq._one_sided_regularity(solid, False, (1,), 8, 1, ev) == {1: -9, 2: -10}


def test_slot_reads_the_serre_transform_from_expr():
    """``_slot`` reads degree i of expr at tH, or with ``dual`` of its Serre
    transform built as an expression, as a fresh evaluator gives it, for
    |t| <= 8 + nu: on the P^2 tangent (a DualE), a sum of curve leaves on a
    surface (cdim < dim) and the abelian surface, whose scan reads nu = 3
    residue classes t0 + 3m."""
    p2, f1, ab = L.projective_space(2), L.hirzebruch(1), L.abelian_surface(2)
    curves = SumE([CurveE(f1, 0, -1, klass=(1, 0)), CurveE(f1, 1, 0, klass=(0, 1))])
    cases = [
        (L.cotangent_tangent_pair(p2)[1], (1,)),
        (curves, (1, 2)),
        (LineE(ab, (1,)), (1,)),
        (L.cotangent_tangent_pair(ab)[0], (1,)),
    ]
    assert isinstance(cases[0][0], DualE) and curves.cdim < f1.dim and ab.very_ample_multiple((1,)) == 3
    for expr, h in cases:
        x = expr.variety
        reach = 8 + x.very_ample_multiple(h)
        transform = serre_transform(expr)
        ev = Evaluator()
        for t in range(-reach, reach + 1):
            for dual, sheaf in ((False, expr), (True, transform)):
                want = pad_vec(Evaluator().cohom(sheaf, vscale(t, h)), x.dim + 1)
                got = tuple(exactseq._slot(ev, expr, dual, t, h, i) for i in range(x.dim + 1))
                assert got == want, (expr, dual, t)
