import os
import sys
import threading
from collections import Counter

import pytest

import logacm as L
from logacm.classify import YES, deficiency_concentrated_at_zero
from logacm.errors import InconsistentHints, InputError, NotVeryAmple, WindowNotFound
from logacm.exactseq import (
    BlowupCotE,
    Evaluator,
    LineE,
    RankHint,
    Seq,
    SeqE,
    SumE,
    TwistE,
    cm_regularity_certify,
    serre_pair,
    vanishing_window,
)
from logacm.intervals import iv
from logacm.logbundles import log_pair
from logacm.linebundles import line_cohom
from logacm.varieties import vadd, vneg, vscale, vsub

from conftest import catalog_surfaces, random_class


def eqy1_middle(x, pins=None):
    """The tangent-bundle extension on F_e, optionally unpinned."""
    e = x.param
    seq = Seq(x, LineE(x, (2, e)), None, LineE(x, (0, 2)), name="tan ext")
    return SeqE(seq, 2, pins=pins or {})


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
        mid = eqy1_middle(x, pins={(0, 0): [iv(x.h0_tangent), None, None]})
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
            seq = Seq(x, LineE(x, a), None, LineE(x, c), name="split")
            mid = SeqE(seq, 2)
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
            mid = SeqE(Seq(x, LineE(x, a), None, LineE(x, c), name="s"), 2)
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
    free = SeqE(Seq(x, cot, None, right, name="residue-free"), 2)
    hinted = SeqE(
        Seq(x, cot, None, right, hints=(RankHint((0, 0, 0), 0, iv(3), "span"),), name="residue-hint"),
        2,
    )
    ev = Evaluator()
    v_free = ev.cohom(free, (0, 0, 0))
    v_hint = ev.cohom(hinted, (0, 0, 0))
    for a, b in zip(v_hint, v_free):
        assert a.lo >= b.lo
        assert b.hi is None or (a.hi is not None and a.hi <= b.hi)
    assert v_hint[1].is_zero  # the hint resolves h^1 exactly


def test_inconsistent_hint_raises():
    x = L.hirzebruch(0)
    seq = Seq(
        x,
        LineE(x, (2, 0)),
        None,
        LineE(x, (0, 2)),
        hints=(RankHint((0, 0), 0, iv(5), "impossible"),),
        name="bad",
    )
    ev = Evaluator()
    with pytest.raises(InconsistentHints):
        ev.cohom(SeqE(seq, 2), (0, 0))


def test_serre_dual_pairs_registry(monkeypatch):
    import logacm.exactseq as E

    x = L.hirzebruch(2)
    monkeypatch.setattr(E, "_DEFAULT", Evaluator())
    cot, tan = L.cotangent_tangent_pair.__wrapped__(x)  # the uncached body
    assert cot.partner is tan and tan.partner is cot
    assert E.default_evaluator().partners == {}  # pairing alone records nothing

    ev = Evaluator()
    cot, tan = L.cotangent_tangent_pair(x)
    log_pair(x, L.arrangement(x, []), ev)
    assert ev.serre_dual_pairs() == [(repr(cot), repr(tan))]
    assert ev.partners[cot.key()] is tan
    assert ev.partners[tan.key()] is cot


def test_structure_built_twice_has_one_key_and_cache_entry():
    x = L.hirzebruch(1)
    pins = {(0, 0): [iv(x.h0_tangent), None, None]}
    a, b = eqy1_middle(x, pins), eqy1_middle(x, dict(pins))
    assert a is not b and a.key() == b.key()
    assert eqy1_middle(x).key() != a.key()  # the pins are part of the structure
    ev = Evaluator()
    ev.cohom(a, (1, 1))
    entries = len(ev.cache)
    assert ev.cohom(b, (1, 1)) == ev.cohom(a, (1, 1))
    assert len(ev.cache) == entries

    arr = L.arrangement(x, [L.component_from_class(x, c) for c in [(1, 0), (0, 1), (1, 1)]])
    p = log_pair(x, arr, ev)
    pairs = ev.serre_dual_pairs()
    q = log_pair(x, arr, ev)
    assert p.cotangent_log is not q.cotangent_log
    assert (p.cotangent_log.key(), p.tangent_log.key()) == (q.cotangent_log.key(), q.tangent_log.key())
    assert len(pairs) == 2  # the Omega^1/T pair and the log pair, once each
    assert ev.serre_dual_pairs() == pairs
    with pytest.raises(InputError):  # a partner set after keying would change a key in use
        serre_pair(a, b)


def test_log_pair_sides_keyed_jointly():
    """The span-rank hint sits on the residue side only; the tangent side is
    keyed with its partner, so span ranks 19 and 20 do not share a key."""
    x = L.surface_in_p3(4)
    comps = [L.component_from_degree(x, 1, 0) for _ in range(20)]
    p19, p20 = (log_pair(x, L.arrangement(x, comps, span_rank=r), Evaluator()) for r in (19, 20))
    assert p19.tangent_log.key() != p20.tangent_log.key()
    assert p19.cotangent_log.key() != p20.cotangent_log.key()


def test_key_assignment_under_thread_contention():
    """Threads key new structures at once, two threads per structure set:
    a structure gets one key and distinct structures never share one."""
    x = L.hirzebruch(2)
    n_threads = 4 * (os.cpu_count() or 1) + 4
    per_thread = 3000

    def build(group, j):
        line = LineE(x, (7919 + group, -7919 - j))  # classes no other test keys
        return TwistE(SumE([line, line]), (1, 0)) if j % 2 else line

    start = threading.Barrier(n_threads)
    seen = [None] * n_threads

    def work(i):
        start.wait(timeout=30)
        seen[i] = {(i // 2, j): build(i // 2, j).key() for j in range(per_thread)}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    keys = {}
    for got in seen:
        assert got is not None
        for st, k in got.items():
            assert keys.setdefault(st, k) == k
    assert len(set(keys.values())) == len(keys)
    assert all(build(*st).key() == k for st, k in keys.items())


def bl4_negative_curves(*which):
    """Bl_4 P^2 with an arrangement of some of its ten negative curves."""
    x = L.blowup_p2(4)
    return x, L.arrangement(x, [L.component_from_class(x, x.negative_curves[i]) for i in which])


def test_value_met_inside_a_cycle_is_cached_at_its_root():
    """Omega^1 of Bl_4 at twist zero is first asked inside the log pair's
    evaluation, not as the outermost call; it roots the Serre cycle through
    its partner, so its value is cached there."""
    x, arr = bl4_negative_curves(0, 4, 9)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    cot, _ = L.cotangent_tangent_pair(x)
    assert isinstance(cot, BlowupCotE)
    zero = (0,) * x.lattice_rank
    ev.cohom(pair.cotangent_log, zero)
    assert (cot.key(), zero) in ev.cache


def test_cycle_members_are_not_recomputed_per_visit():
    """A value computed inside a cycle rooted elsewhere is recomputed when it
    is asked as a root of its own, and not again: the Bl_4 cotangent rule
    runs at most twice per twist over a whole deficiency verdict."""
    x, arr = bl4_negative_curves(0, 4, 9)
    ev = Evaluator()
    runs = Counter()
    rule = ev._blowup_cotangent

    def counted(variety, twist):
        runs[twist] += 1
        return rule(variety, twist)

    ev._blowup_cotangent = counted
    assert deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, ev=ev).status == YES
    assert runs and max(runs.values()) <= 2


def test_frames_released_when_evaluation_raises():
    """An error raised several frames deep leaves no frame behind: a later
    call sees no stale cycle cut and agrees with a fresh evaluator."""
    x, arr = bl4_negative_curves(0, 4, 9)
    h = vneg(x.canonical_class)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    rule = ev._blowup_cotangent
    depth_at_raise = []

    def failing(variety, twist):
        depth = len(ev._frames.low)
        if depth >= 3 and not depth_at_raise:
            depth_at_raise.append(depth)
            raise InconsistentHints("injected mid-evaluation")
        return rule(variety, twist)

    ev._blowup_cotangent = failing
    with pytest.raises(InconsistentHints):
        for t in range(-3, 4):
            ev.cohom(pair.tangent_log, vscale(t, h))
    assert depth_at_raise
    assert ev._frames.depth == {} and ev._frames.low == []
    del ev._blowup_cotangent
    fresh = Evaluator()
    for side in (pair.cotangent_log, pair.tangent_log):
        for t in range(-3, 4):
            assert ev.cohom(side, vscale(t, h)) == fresh.cohom(side, vscale(t, h))


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


def test_cm_regularity_examples():
    p2 = L.projective_space(2)
    assert not cm_regularity_certify(LineE(p2, (-1,)), 0, (1,))  # h^2(O(-3)) = 1
    assert cm_regularity_certify(LineE(p2, (-1,)), 1, (1,))
    with pytest.raises(NotVeryAmple):
        cm_regularity_certify(LineE(p2, (0,)), 1, (0,))


def test_regularity_persistence(rng):
    checked = 0
    for x in catalog_surfaces():
        if x.kind in ("surface_p3", "abelian"):
            h = (1,)
        elif x.kind == "hirzebruch":
            h = (1, x.param + 1)
        elif x.kind == "blowup_p2":
            from logacm.varieties import vneg

            h = vneg(x.canonical_class)
        elif x.kind == "quadric":
            h = (1, 1)
        else:
            h = (1,)
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
        if x.kind == "quadric":
            h = (1, 1)
        elif x.kind == "hirzebruch":
            h = (1, x.param + 1)
        elif x.kind == "blowup_p2":
            from logacm.varieties import vneg

            h = vneg(x.canonical_class)
        else:
            h = (1,)
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
