import itertools
import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass, fields
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
    BlowupCotE,
    BottE,
    CurveE,
    DualE,
    Evaluator,
    Expr,
    HyperE,
    LineE,
    MeetE,
    RankHint,
    SeqE,
    SumE,
    TwistE,
    cm_regularity_certify,
    serre_pair,
    vanishing_window,
)
from logacm.intervals import Iv, iv, iv_meet, pad_vec
from logacm.logbundles import log_pair, repeated_rigid_class
from logacm.linebundles import line_cohom
from logacm.varieties import VarietyModel, vadd, vneg, vscale, vsub

from conftest import catalog_surfaces, random_class

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def eqy1_middle(x, pins=None):
    """The tangent-bundle extension on F_e, optionally unpinned."""
    e = x.param
    return SeqE(x, LineE(x, (2, e)), None, LineE(x, (0, 2)), 2, name="tan ext", pins=pins or {})


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
    hinted = SeqE(x, cot, None, right, 2, name="residue-hint", hints=(RankHint((0, 0, 0), 0, iv(3), "span"),))
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
        hints=(RankHint((0, 0), 0, iv(5), "impossible"),),
    )
    ev = Evaluator()
    with pytest.raises(InconsistentHints):
        ev.cohom(bad, (0, 0))


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
    assert log_pair(x, arr, ev) is p  # built once per evaluator
    q = log_pair(x, arr, Evaluator())  # a fresh evaluator builds the pair again
    assert p.cotangent_log is not q.cotangent_log
    assert (p.cotangent_log.key(), p.tangent_log.key()) == (q.cotangent_log.key(), q.tangent_log.key())
    assert len(pairs) == 2  # the Omega^1/T pair and the log pair, once each
    assert ev.serre_dual_pairs() == pairs
    ev.cohom(p.cotangent_log, (1, 1))
    entries = len(ev.cache)
    assert ev.cohom(q.cotangent_log, (1, 1)) == ev.cohom(p.cotangent_log, (1, 1))
    assert len(ev.cache) == entries  # the rebuilt pair shares the cache entry
    with pytest.raises(InputError):  # a partner set after keying would change a key in use
        serre_pair(a, b)


def _no_rule(x, tw):
    return None, None


def field_changes():
    """(node type, constructor arguments, field, another value) covering
    every field of every catalog node type."""
    x, y = L.hirzebruch(1), L.hirzebruch(2)
    p2, p3 = L.projective_space(2), L.projective_space(3)
    a, b = LineE(x, (1, 0)), LineE(x, (0, 1))
    seq = dict(variety=x, left=a, middle=SumE([a, b]), right=None, cdim=2, name="s")
    changes = {
        LineE: (dict(variety=x, klass=(1, 0)), dict(variety=y, klass=(0, 1))),
        CurveE: (
            dict(variety=x, genus=0, base_deg=1, klass=(1, 0), deg_h=None),
            dict(variety=y, genus=1, base_deg=2, klass=(0, 1), deg_h=1),
        ),
        HyperE: (dict(variety=p3, d=2, shift=0), dict(variety=p2, d=3, shift=1)),
        BottE: (dict(variety=p2, p=1, shift=0, n=None), dict(variety=p3, p=2, shift=1, n=3)),
        SumE: (dict(parts=(a, b)), dict(parts=(a, a))),
        TwistE: (dict(inner=a, by=(1, 0)), dict(inner=b, by=(0, 1))),
        DualE: (dict(inner=a), dict(inner=b)),
        MeetE: (dict(parts=(a, b)), dict(parts=(b, a))),
        BlowupCotE: (dict(variety=L.blowup_p2(1)), dict(variety=L.blowup_p2(2))),
        SeqE: (
            seq,
            dict(
                variety=y,
                left=b,
                middle=SumE([a, a]),
                cdim=1,
                name="t",
                amb=3,
                hints=(RankHint((0, 0), 0, iv(1), "test"),),
                pins={(0, 0): [iv(6), None, None]},
                rule=_no_rule,
            ),
        ),
    }
    for cls, (base, other) in changes.items():
        for name, value in other.items():
            yield cls, base, name, value
    yield SeqE, dict(seq, left=None, right=b), "right", a  # the unknown moves with another field


def test_every_field_is_part_of_the_key():
    """Changing any one field changes the key, and building a node again
    from the same fields gives the same key."""
    covered = set()
    for cls, base, name, value in field_changes():
        node = cls(**base)
        assert cls(**base).key() == node.key() and cls(**base) is not node, cls
        changed = dict(base, **{name: value})
        assert cls(**changed).key() not in (node.key(), cls(**base).key()), (cls, name)
        covered.add((cls, name))
    catalog = {c for c in Expr.__subclasses__() if c.__module__ == exactseq.__name__}
    assert covered == {(c, f.name) for c in catalog for f in fields(c)}


def test_pn_tangent_is_the_dual_of_its_cotangent():
    """TP^n is Dual(Omega^1), paired with it; the tangent side of the empty
    arrangement still gets a vanishing window (its Serre transform is
    Omega^1 again, not a double dual)."""
    for n in (2, 3, 4):
        x = L.projective_space(n)
        cot, tan = L.cotangent_tangent_pair(x)
        assert isinstance(tan, DualE) and tan.inner is cot and cot.partner is tan
        table = L.deficiency_table(x, (1,), L.arrangement(x, []), 1, side="tan")
        assert all(v.exact for v in table.entries.values())
        assert table.nonzero_twists() == ([-3] if n == 2 else [])  # h^1(TP^2(-3)) = h^1(Omega^1) = 1


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
    its partner, so its value is cached there, and so is the value of its
    rule leaf, met with the blow-up sequence."""
    x, arr = bl4_negative_curves(0, 4, 9)
    ev = Evaluator()
    pair = log_pair(x, arr, ev)
    cot, tan = L.cotangent_tangent_pair(x)
    assert isinstance(cot, MeetE) and cot.partner is tan
    (rules,) = [p for p in cot.parts if isinstance(p, BlowupCotE)]
    zero = (0,) * x.lattice_rank
    ev.cohom(pair.cotangent_log, zero)
    assert (cot.key(), zero) in ev.cache
    assert (rules.key(), zero) in ev.cache


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
    unknown >= 0, and the ranks and unknown inside the hints and pins."""
    n = node.amb
    terms = {LEFT: node.left, MIDDLE: node.middle, RIGHT: node.right}
    slot = next(name for name, term in terms.items() if term is None)
    known = {name: pad_vec(ev.cohom(term, twist), n + 1) for name, term in terms.items() if term is not None}
    cons = [None if i <= node.cdim else iv(0) for i in range(n + 1)]
    pins, ranks = node.rule(node.variety, twist) if node.rule is not None else (None, None)
    for given in (node.pins.get(twist), pins):
        for i, p in enumerate((given or ())[: n + 1]):
            if p is not None:
                cons[i] = p if cons[i] is None else iv_meet(cons[i], p)
    hints = [None] * n
    given = [(h.degree, h.rank) for h in node.hints if tuple(h.twist) == tuple(twist)]
    given += [(d, r) for d, r in enumerate(ranks or ()) if r is not None]
    for d, r in given:
        if 0 <= d < n:
            hints[d] = r if hints[d] is None else iv_meet(hints[d], r)
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


@st.composite
def bounded_sequences(draw, widened=2, max_width=2, opened=0):
    """A sequence with bounded flanks (exact, at most `widened` entries
    widened by 1..`max_width`), random rank hints and pins; the unknown slot
    at a random place.  With `opened`, one to `opened` flank entries then
    lose their upper bound."""
    n = draw(st.integers(1, 4))
    slot = draw(st.sampled_from([LEFT, MIDDLE, RIGHT]))
    flanks = [[[v, v] for v in draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))] for _ in range(2)]
    widths = st.tuples(st.integers(0, 2 * n + 1), st.integers(1, max_width))
    for pos, width in draw(st.lists(widths, max_size=widened)):
        flanks[pos % 2][pos // 2][1] += width
    if opened:
        for pos in draw(st.lists(st.integers(0, 2 * n + 1), min_size=1, max_size=opened)):
            flanks[pos % 2][pos // 2][1] = None
    terms = [FixedE(P2, [Iv(lo, hi) for lo, hi in f]) for f in flanks]
    terms.insert([LEFT, MIDDLE, RIGHT].index(slot), None)
    bound = st.one_of(st.none(), st.integers(0, 3))
    hints = tuple(
        RankHint(TW, d, Iv(lo, None if w is None else lo + w), "test")
        for d, lo, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2), bound), max_size=2))
    )
    pins = [
        None if p is None else Iv(p[0], None if p[1] is None else p[0] + p[1])
        for p in draw(st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 4), bound)), min_size=n + 1, max_size=n + 1))
    ]
    cdim = draw(st.integers(n - 1, n))
    pinned = {TW: pins[: cdim + 1]} if draw(st.booleans()) else None
    return SeqE(P2, *terms, cdim, name="random", hints=hints, pins=pinned)


def solve_or_raise(solve, *args):
    try:
        return solve(*args)
    except InconsistentHints:
        return InconsistentHints


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bounded_sequences())
def test_solve_matches_brute_force(node):
    ev = FixedEvaluator()
    assert solve_or_raise(ev._solve, node, TW) == solve_or_raise(brute_force_solve, ev, node, TW)


class RelationCountingEvaluator(FixedEvaluator):
    def __init__(self):
        super().__init__()
        self.relations = 0

    def _apply_relation(self, *args):
        self.relations += 1
        return Evaluator._apply_relation(*args)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bounded_sequences(widened=0))
def test_solve_with_exact_flanks_matches_brute_force(node):
    """Every flank exact: the solve builds one relation per degree."""
    ev = RelationCountingEvaluator()
    got = solve_or_raise(ev._solve, node, TW)
    assert got == solve_or_raise(brute_force_solve, ev, node, TW)
    assert ev.relations == node.amb + 1 or (got is InconsistentHints and ev.relations == 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(bounded_sequences(widened=4, max_width=3))
def test_solve_with_wide_flanks_matches_brute_force(node):
    ev = FixedEvaluator()
    assert solve_or_raise(ev._solve, node, TW) == solve_or_raise(brute_force_solve, ev, node, TW)


def truncated(node, cut):
    """node with every open flank entry [lo, ?) cut to [lo, lo + cut]."""
    def cut_term(term):
        if term is None:
            return None
        return FixedE(P2, [Iv(v.lo, v.lo + cut) if v.hi is None else v for v in term.vec])

    terms = (cut_term(t) for t in (node.left, node.middle, node.right))
    return SeqE(P2, *terms, node.cdim, name="truncated", hints=node.hints, pins=node.pins)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bounded_sequences(opened=2))
def test_solve_with_open_flanks_matches_truncated_solves(node):
    """An open flank entry reads as the limit of ever larger bounds: every
    lower end is that of the solves with the open entries cut far above
    their values, and an upper end is open exactly where two such cuts
    disagree."""
    ev = FixedEvaluator()
    got, near, far = (solve_or_raise(ev._solve, m, TW) for m in (node, truncated(node, 1000), truncated(node, 2000)))
    if InconsistentHints in (got, near, far):
        assert got is near is far is InconsistentHints
        return
    for g, a, b in zip(got, near, far):
        assert g.lo == a.lo == b.lo
        assert g.hi == (None if a.hi != b.hi else a.hi)


def test_solve_cost_is_independent_of_rank_ranges(monkeypatch):
    """Ranks range over 0..100,000 and a flank has three values, far beyond
    any enumeration; pinning h^1 of the middle to 0 forces both ranks to
    their top, so the exact answer is (0, 0, 0), with one relation per
    degree."""
    big = 100_000
    a = FixedE(P2, [iv(0), Iv(big, big + 2), iv(big)])
    c = FixedE(P2, [iv(big), iv(big), iv(0)])
    node = SeqE(P2, a, None, c, 2, name="wide", pins={TW: [None, iv(0), None]})
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


# -- the probed regularity scan against a scan from -cap ---------------------


def linear_regularity_scan(expr, h, cap, nu, ev):
    """The thresholds of ``_one_sided_regularity`` by trying every r from -cap
    upward, with no top-degree probe: the oracle of the probed scan."""
    x = expr.variety
    n = x.dim
    hh = x.check_class(h)
    big = vscale(nu, hh)
    thresholds = {i: None for i in range(1, n + 1)}
    for t0 in range(nu):
        shifted = TwistE(expr, vscale(t0, hh)) if t0 else expr
        found = next((r for r in range(-cap, cap + 1) if exactseq.cm_regularity_certify(shifted, r, big, ev)), None)
        if found is None:
            raise WindowNotFound(cap, f"{expr!r} residue class {t0}")
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
    x = expr.variety
    nu = x.very_ample_multiple(h)
    dual = expr.inner if isinstance(expr, DualE) else DualE(expr)
    scan = exactseq._one_sided_regularity
    return (
        outcome(scan, expr, h, cap, nu, ev),
        outcome(scan, TwistE(dual, x.canonical_class), h, cap, nu, ev),
        outcome(vanishing_window, expr, h, cap, ev),
    )


def assert_probe_matches_linear_scan(monkeypatch, cases):
    """Every (expr, H) gives the same outcomes at caps 0..8 with the probe
    as with the linear scan, each on its own fresh evaluator.  Some probes
    must move the start, and some past the cap, or nothing was skipped."""
    starts = Counter()
    probe = exactseq._top_degree_start

    def recorded(shifted, big, cap, ev):
        r = probe(shifted, big, cap, ev)
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
    assert exactseq._top_degree_start(surface, (1,), 8, ev) == 2
    assert exactseq._top_degree_start(surface, (1,), 1, ev) == 2  # past the cap: the scan is empty
    solid = TableE(P2, 3, (((-1,), (iv(0), iv(0), iv(1), iv(0))),))
    assert exactseq._top_degree_start(solid, (1,), 8, ev) == -8
    assert exactseq._one_sided_regularity(solid, (1,), 8, 1, ev) == {1: -9, 2: -10}
