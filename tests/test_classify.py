import dataclasses

import pytest

import logacm as L
from logacm.classify import NO, UNKNOWN, YES, deficiency_concentrated_at_zero
from logacm.errors import InputError, IntervalPresent, NotAmple, OutOfScope
from logacm.exactseq import Evaluator, TwistE
from logacm.varieties import vneg, vscale

from conftest import F0_SPLIT_YES, F0_STATED_YES, bench_workloads, f0_split_grid, twist_zero_h1


def exceptional_arrangement(x, count=None):
    k = x.param
    count = k if count is None else count
    classes = [tuple(1 if j == i + 1 else 0 for j in range(k + 1)) for i in range(count)]
    return L.arrangement(x, [L.component_from_class(x, c) for c in classes])


def test_necessary_conditions_examples():
    # ruling polarization (2,1) with a conic component fails residue injectivity
    q = L.quadric_surface()
    arr = L.arrangement(q, [L.component_from_class(q, c) for c in [(1, 1), (0, 1)]])
    viol, _ = L.necessary_conditions(q, (2, 1), arr)
    assert any(v.rule == "residue-injectivity" and v.witness[1] == -1 for v in viol)

    # trivial arrangement violates the component-count bound
    p2 = L.projective_space(2)
    viol, _ = L.necessary_conditions(p2, (1,), L.arrangement(p2, []))
    assert viol[0].rule == "components-vs-h11"

    # a conic on the cubic surface has a section of its normal bundle
    x3 = L.surface_in_p3(3)
    conic = L.component_from_degree(x3, 2, 0)
    viol, _ = L.necessary_conditions(x3, (1,), L.arrangement(x3, [conic], span_rank=1))
    assert any(v.rule == "normal-sections-vs-tangent" for v in viol)


def test_not_ample_raises():
    with pytest.raises(NotAmple):
        L.is_acm(L.hirzebruch(2), (1, 1), L.arrangement(L.hirzebruch(2), []))


def test_pn_hyperplanes():
    for n in (2, 3, 4):
        x = L.projective_space(n)
        for m in range(1, n + 4):
            v = L.is_acm(x, (1,), L.hyperplane_arrangement(x, m))
            assert v.status == (YES if m <= n + 1 else NO), (n, m)
            if v.status == NO:
                assert v.witness[2].lo >= 1


def test_quadric_ruling_classification():
    x = L.quadric_surface()
    for a in range(0, 5):
        for b in range(0, 5):
            if a + b == 0:
                continue
            comps = [L.component_from_class(x, (1, 0))] * a + [L.component_from_class(x, (0, 1))] * b
            v = L.is_acm(x, (1, 1), L.arrangement(x, comps))
            expected = YES if (1 <= a <= 3 and 1 <= b <= 3) else NO
            assert v.status == expected, (a, b, v.witness)


def test_blowup2_exceptional_acm():
    x = L.blowup_p2(2)
    arr = L.arrangement(x, [L.component_from_class(x, c) for c in [(0, 1, 0), (0, 0, 1), (1, -1, -1)]])
    v = L.is_acm(x, vneg(x.canonical_class), arr)
    assert v.status == YES
    assert any("thresholds" in c for c in v.certificates)


def test_blowup2_large_anticanonical_multiple_reaches_the_window_scan():
    """13(-K) and 40(-K) on Bl_2 are certified very ample, so the verdict
    comes from the regularity scan, which finds no window within the cap."""
    from logacm.errors import WindowNotFound

    x = L.blowup_p2(2)
    arr = L.arrangement(x, [L.component_from_class(x, c) for c in [(0, 1, 0), (0, 0, 1), (1, -1, -1)]])
    for t in (13, 40):
        h = vscale(t, vneg(x.canonical_class))
        v = L.is_acm(x, h, arr)
        assert v.status == UNKNOWN, t
        assert v.certificates[0].startswith("window uncertified (no certified window within cap=8"), v.certificates
        with pytest.raises(WindowNotFound):
            deficiency_concentrated_at_zero(x, h, arr)


def test_degree0_notions():
    # trivial arrangement on F_e has h^1(T) = 0 at twist zero iff e <= 1
    for e in range(0, 5):
        x = L.hirzebruch(e)
        h1 = twist_zero_h1(x, L.arrangement(x, []), "tan")
        assert h1.is_zero == (e in (0, 1)), e
        assert e in (0, 1) or h1.lo >= 1, e
    # the cotangent side at twist zero never vanishes
    for x in (L.projective_space(2), L.quadric_surface(), L.blowup_p2(3)):
        assert twist_zero_h1(x, L.arrangement(x, []), "cot") == L.iv(x.h11)


def test_concentration_for_exceptional_subarrangements():
    from itertools import combinations

    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        mk = vneg(x.canonical_class)
        classes = [tuple(1 if j == i + 1 else 0 for j in range(k + 1)) for i in range(k)]
        for size in range(1, k + 1):
            for sub in combinations(classes, size):
                arr = L.arrangement(x, [L.component_from_class(x, c) for c in sub])
                v = L.deficiency_concentrated_at_zero(x, mk, arr)
                assert v.status == YES, (k, sub)


def test_trivial_tacm_hirzebruch_examples():
    x = L.hirzebruch(1)
    empty = L.arrangement(x, [])
    assert L.is_tacm(x, (3, 5), empty).status == YES
    assert L.is_tacm(x, (2, 7), empty).status == NO
    assert L.is_tacm(x, (3, 4), empty).status == NO


def test_deficiency_tables():
    ab = L.abelian_surface(2)
    t = L.deficiency_table(ab, (1,), L.arrangement(ab, []), 1)
    assert t.nonzero_twists() == [0]
    assert t.entries[0].exact and t.entries[0].lo == 4
    assert L.one_degree_buchsbaum(t)

    p2 = L.projective_space(2)
    t2 = L.deficiency_table(p2, (1,), L.hyperplane_arrangement(p2, 1), 1)
    assert t2.nonzero_twists() == []
    assert L.one_degree_buchsbaum(t2)

    # the generic Steiner module: the lower tail rests on generic matrix
    # ranks the dimension engine cannot certify, so the strict table raises
    p3 = L.projective_space(3)
    from logacm.errors import WindowNotFound
    from logacm.exactseq import default_evaluator
    from logacm.logbundles import log_pair

    with pytest.raises(WindowNotFound):
        L.deficiency_table(p3, (1,), L.hyperplane_arrangement(p3, 6), 2)
    # the forced slot itself is exact
    pair = log_pair(p3, L.hyperplane_arrangement(p3, 6))
    v = default_evaluator().cohom(pair.cotangent_log, (-3,))
    assert v[2].exact and v[2].lo == 2


def test_one_degree_buchsbaum_rules():
    from logacm.classify import DeficiencyTable
    from logacm.intervals import Iv, iv

    assert L.one_degree_buchsbaum(DeficiencyTable(1, {0: iv(4)}, None, []))
    assert L.one_degree_buchsbaum(DeficiencyTable(1, {}, None, []))
    assert not L.one_degree_buchsbaum(DeficiencyTable(1, {0: iv(1), 2: iv(1)}, None, []))
    with pytest.raises(IntervalPresent):
        L.one_degree_buchsbaum(DeficiencyTable(1, {0: Iv(0, 3)}, None, []))


def test_search_quadric():
    x = L.quadric_surface()
    res = L.search(x, (1, 1), class_bound=4, m_bound=8)
    yes = [c for c, v, _ in res if v.status == YES]
    assert len(yes) == 9
    for combo in yes:
        a = combo.count((1, 0))
        b = combo.count((0, 1))
        assert 1 <= a <= 3 and 1 <= b <= 3


def test_search_p2_hyperplanes():
    x = L.projective_space(2)
    res = L.search(x, (1,), class_bound=1, m_bound=4)
    statuses = {len(c): v.status for c, v, _ in res}
    assert statuses == {1: YES, 2: YES, 3: YES, 4: NO}


def test_repeated_search_adds_no_entries():
    """A rebuilt arrangement finds its log pair in the evaluator's memo, and
    the window scan builds no node, so the second pass is answered from the
    first pass's cache and partner record."""
    ev = Evaluator()
    x = L.quadric_surface()
    first = L.search(x, (1, 1), 4, 8, ev=ev)
    sizes = (len(ev.cache), len(ev.partners), len(ev.serre_dual_pairs()))
    assert sizes[2] * 2 == sizes[1]  # each pair recorded once
    second = L.search(x, (1, 1), 4, 8, ev=ev)
    assert (len(ev.cache), len(ev.partners), len(ev.serre_dual_pairs())) == sizes
    assert [(c, v.status, v.witness) for c, v, _ in second] == [(c, v.status, v.witness) for c, v, _ in first]


def test_repeated_blowup_deficiency_adds_no_entries():
    """A second deficiency verdict on a Bl_3 arrangement, on the same
    evaluator, reads the first one's cache: the memoized log pair is the
    same node, and the window scan builds no node of its own."""
    x = L.blowup_p2(3)
    arr = L.arrangement(x, [L.component_from_class(x, x.negative_curves[i]) for i in (0, 3)])
    ev = Evaluator()
    for side, status in (("cot", YES), ("tan", NO)):
        first = deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, side=side, ev=ev)
        sizes = (len(ev.cache), len(ev.partners))
        again = deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, side=side, ev=ev)
        assert (len(ev.cache), len(ev.partners)) == sizes
        assert (again.status, again.witness) == (first.status, first.witness) and first.status == status


def test_search_filters_each_candidate_once(monkeypatch):
    import logacm.classify as C

    filtered = []
    real = C.necessary_conditions

    def counted(x, h, arr, *args, **kwargs):
        filtered.append(tuple(c.klass for c in arr.components))
        return real(x, h, arr, *args, **kwargs)

    monkeypatch.setattr(C, "necessary_conditions", counted)
    results = C.search(L.quadric_surface(), (1, 1), 4, 8, ev=Evaluator())
    assert filtered == [combo for combo, _, _ in results]


def test_search_explains_filtered_candidates_as_is_acm():
    """A candidate the filters reject gets the verdict ``is_acm`` gives the
    same arrangement; the third element stays the first failing rule."""
    x, h, ev = L.quadric_surface(), (1, 1), Evaluator()
    checked = 0
    for combo, verdict, first in L.search(x, h, 4, 2, ev=ev):
        arr = L.arrangement(x, [L.component_from_class(x, c) for c in combo])
        violations, _ = L.necessary_conditions(x, h, arr, ev=ev)
        if violations:
            assert verdict == L.is_acm(x, h, arr, ev=ev), combo
            assert first == violations[0].rule
            checked += 1
    assert checked


def counted_builds(monkeypatch):
    """Every component and arrangement ``search`` builds, in order."""
    import logacm.classify as C

    built = []
    component, arrangement = C.component_from_class, C.arrangement

    def counted_component(x, klass):
        built.append(("component", klass))
        return component(x, klass)

    def counted_arrangement(x, comps, *args, **kwargs):
        built.append(("arrangement", tuple(c.klass for c in comps)))
        return arrangement(x, comps, *args, **kwargs)

    monkeypatch.setattr(C, "component_from_class", counted_component)
    monkeypatch.setattr(C, "arrangement", counted_arrangement)
    return built


def test_search_builds_its_candidates_once_per_evaluator(monkeypatch):
    """The candidates depend only on (variety, class_bound, m_bound): a fresh
    evaluator builds them on its first search, and every other polarization
    and side on an equal variety with the same bounds builds none."""
    built = counted_builds(monkeypatch)
    polarizations = bench_workloads().sweep_polarizations("F2")
    ev = Evaluator()
    first = L.search(L.hirzebruch(2), polarizations[0], 2, 2, "cot", ev=ev)
    combos = [combo for combo, _, _ in first]
    assert [b for b in built if b[0] == "arrangement"] == [("arrangement", combo) for combo in combos]
    assert sum(1 for b in built if b[0] == "component") == sum(map(len, combos))
    built.clear()
    x = L.hirzebruch(2)  # equal to the first variety, not the same object
    shared = {(h, side): L.search(x, h, 2, 2, side, ev=ev) for h in polarizations for side in ("cot", "tan")}
    assert built == []
    for (h, side), res in shared.items():
        assert res == L.search(x, h, 2, 2, side, ev=Evaluator())
    built.clear()
    smaller = L.search(x, polarizations[0], 1, 2, ev=ev)
    assert [b for b in built if b[0] == "arrangement"] == [("arrangement", combo) for combo, _, _ in smaller]
    built.clear()
    L.search(x, polarizations[1], 1, 2, "tan", ev=ev)
    assert built == []


def test_search_deterministic():
    x = L.quadric_surface()
    r1 = [(c, v.status) for c, v, _ in L.search(x, (1, 1), 2, 4)]
    r2 = [(c, v.status) for c, v, _ in L.search(x, (1, 1), 2, 4)]
    assert r1 == r2


def test_verdict_invariants():
    # No always carries a positive witness when it comes from slot evaluation
    x = L.quadric_surface()
    comps = [L.component_from_class(x, (1, 0))] * 4 + [L.component_from_class(x, (0, 1))]
    v = L.is_acm(x, (1, 1), L.arrangement(x, comps))
    assert v.status == NO and v.witness[2].lo >= 1
    # Yes carries window certificates
    w = L.is_acm(x, (1, 1), L.arrangement(x, comps[:2] + comps[-1:]))
    assert w.status == YES and any("tail" in c for c in w.certificates)


def test_subcanonical_coherence():
    x = L.quadric_surface()
    for a, b in [(1, 1), (2, 2), (3, 1), (4, 2)]:
        comps = [L.component_from_class(x, (1, 0))] * a + [L.component_from_class(x, (0, 1))] * b
        arr = L.arrangement(x, comps)
        va = L.is_acm(x, (1, 1), arr)
        vt = L.is_tacm(x, (1, 1), arr)
        assert {va.status, vt.status} != {YES, NO}, (a, b)
        if YES in (va.status, vt.status):
            assert va.status == vt.status == YES


def test_k3_quartic_lines_exact_witness():
    """The 20-line quartic arrangement has h^1(Omega^1(log D)(-1)) = 16; the
    engine reports the exact witness instead of the claimed vanishing."""
    x = L.surface_in_p3(4)
    comps = [L.component_from_degree(x, 1, 0) for _ in range(20)]
    arr = L.arrangement(x, comps, span_rank=20)
    v = L.is_acm(x, (1,), arr)
    assert v.status == NO
    i, t, val = v.witness
    assert (i, abs(t)) == (1, 1) and val.exact and val.lo == 16
    vt = L.is_tacm(x, (1,), arr)
    assert vt.status == NO


def test_f0_search_matches_split_oracle():
    """Full-pipeline verdicts for pure ruling arrangements wrt (2,1) agree
    with the brute-force split-bundle oracle on the searched range."""
    x = L.hirzebruch(0)
    res = L.search(x, (2, 1), class_bound=2, m_bound=5, cap=10)
    got = sorted(
        (c.count((1, 0)), c.count((0, 1)))
        for c, v, _ in res
        if v.status == YES and all(k in ((1, 0), (0, 1)) for k in c)
    )
    want = sorted(k for k, yes in f0_split_grid().items() if yes and sum(k) <= 5)
    assert got == want


def test_f0_split_oracle_report():
    """The Kunneth grid of the split sums equals ``is_acm`` on the quadric
    with H = (2, 1), and records its disagreement with the stated range."""
    grid = f0_split_grid()
    assert sorted(k for k, yes in grid.items() if yes) == F0_SPLIT_YES
    assert F0_SPLIT_YES != F0_STATED_YES
    x = L.quadric_surface()
    for (k1, k2), yes in grid.items():
        comps = [L.component_from_class(x, (1, 0))] * k1 + [L.component_from_class(x, (0, 1))] * k2
        assert L.is_acm(x, (2, 1), L.arrangement(x, comps)).status == (YES if yes else NO), (k1, k2)


def test_yes_stable_under_larger_cap():
    """Re-evaluation with a larger regularity cap never flips Yes to No."""
    x = L.quadric_surface()
    for a in range(1, 4):
        for b in range(1, 4):
            comps = [L.component_from_class(x, (1, 0))] * a + [L.component_from_class(x, (0, 1))] * b
            arr = L.arrangement(x, comps)
            assert L.is_acm(x, (1, 1), arr, cap=6).status == YES
            assert L.is_acm(x, (1, 1), arr, cap=12).status == YES


def test_no_witness_reevaluates_positive():
    """Every slot witness of a No verdict re-evaluates to >= 1 on the log
    expression directly, independently of any window."""
    from logacm.exactseq import default_evaluator
    from logacm.intervals import pad_vec
    from logacm.logbundles import log_pair
    from logacm.varieties import vscale

    ev = default_evaluator()
    cases = []
    q = L.quadric_surface()
    cases.append((q, (1, 1), [L.component_from_class(q, (1, 0))] * 4 + [L.component_from_class(q, (0, 1))]))
    p3 = L.projective_space(3)
    cases.append((p3, (1,), [L.component_from_class(p3, (1,)) for _ in range(6)]))
    for x, h, comps in cases:
        arr = L.arrangement(x, comps)
        v = L.is_acm(x, h, arr)
        assert v.status == NO and v.witness is not None
        i, t, _ = v.witness
        pair = log_pair(x, arr)
        slot = pad_vec(ev.cohom(pair.cotangent_log, vscale(t, x.check_class(h))), x.dim + 1)[i]
        assert slot.lo >= 1


def test_filter_monotonicity_quadric_grid():
    """Arrangements rejected by the residue-injectivity filter also fail the
    full evaluation at the filter's witness slot."""
    from logacm.exactseq import default_evaluator
    from logacm.intervals import pad_vec
    from logacm.logbundles import log_pair
    from logacm.varieties import vscale

    ev = default_evaluator()
    x = L.quadric_surface()
    h = (1, 1)
    for a in range(0, 5):
        for b in range(0, 5):
            if a + b == 0:
                continue
            comps = [L.component_from_class(x, (1, 0))] * a + [L.component_from_class(x, (0, 1))] * b
            arr = L.arrangement(x, comps)
            viol, _ = L.necessary_conditions(x, h, arr)
            hits = [w for w in viol if w.rule == "residue-injectivity"]
            if not hits:
                continue
            i, t, val = hits[0].witness
            pair = log_pair(x, arr)
            slot = pad_vec(ev.cohom(pair.cotangent_log, vscale(t, h)), 3)[i]
            assert slot.lo >= 1, (a, b)


def test_unasserted_span_still_decides_quartic():
    x = L.surface_in_p3(4)
    comps = [L.component_from_degree(x, 1, 0) for _ in range(20)]
    arr = L.arrangement(x, comps)  # no span_rank given
    assert not arr.span_asserted
    v = L.is_acm(x, (1,), arr)
    assert v.status == NO and v.witness[2].lo == 16


def test_rank_one_rule_needs_divisible_degrees():
    # H-degree 1 components cannot lie in a lattice generated by H (H^2 = 4)
    x = L.surface_in_p3(4)
    arr = L.arrangement(x, [L.component_from_degree(x, 1, 0)], span_rank=1)
    viol, _ = L.necessary_conditions(x, (1,), arr)
    assert not any(w.rule == "rank-one" for w in viol)
    # hyperplane sections are t*H: the rule applies and rejects
    arr2 = L.arrangement(x, [L.component_from_degree(x, 4, 3)], span_rank=1)
    viol2, _ = L.necessary_conditions(x, (1,), arr2)
    assert any(w.rule == "rank-one" for w in viol2)


def test_rigid_class_multiplicity_rejected():
    from logacm.errors import InputError
    from logacm.logbundles import log_pair

    x = L.blowup_p2(2)
    arr = L.arrangement(x, [L.component_from_class(x, (0, 1, 0))] * 2)
    with pytest.raises(InputError):
        log_pair(x, arr)


def test_unknown_side_is_rejected():
    """A side other than "cot"/"tan" raises instead of being read as one of
    them; "tan" itself reaches the tangent-side rule."""
    q = L.quadric_surface()
    arr = L.arrangement(q, [L.component_from_class(q, (1, 0))] * 4 + [L.component_from_class(q, (0, 1))] * 3)
    viol, _ = L.necessary_conditions(q, (1, 2), arr, "tan")
    assert any(v.rule == "normal-sections-vs-tangent" for v in viol)
    calls = [
        lambda: L.necessary_conditions(q, (1, 2), arr, "tangent"),
        lambda: L.search(q, (1, 1), 2, 2, side="tangent"),
        lambda: L.deficiency_table(q, (1, 1), arr, side="tangent"),
        lambda: L.log_pair(q, arr).for_side("tangent"),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()
    pair = L.log_pair(q, arr)
    assert pair.for_side("cot") is pair.cotangent_log and pair.for_side("tan") is pair.tangent_log


def test_first_positive_checks_no_twist(monkeypatch):
    """``_first_positive`` reads multiples of a checked H through the
    unchecked step: it adds no ``check_class`` call."""
    from logacm.classify import _first_positive
    from logacm.logbundles import log_pair
    from logacm.varieties import VarietyModel

    x, h = L.hirzebruch(1), (1, 2)
    ev = Evaluator()
    expr = log_pair(x, L.arrangement(x, [L.component_from_class(x, (0, 1))]), ev).for_side("tan")
    want = [ev.cohom(expr, (t, 2 * t)) for t in range(-2, 3)]
    checks = []
    check_class = VarietyModel.check_class
    monkeypatch.setattr(VarietyModel, "check_class", lambda self, c: checks.append(c) or check_class(self, c))
    witness, _ = _first_positive(ev, expr, h, 2, 1, range(-2, 3))
    assert checks == []
    assert witness == next((1, t, v[1]) for t, v in zip(range(-2, 3), want) if v[1].lo >= 1)


def window_first_classify_expr(x, h, expr, cap, ev):
    """Reference for ``classify._classify_expr``: certify the window first,
    then scan every residual slot (the order before the witness probe)."""
    from logacm.classify import UNKNOWN, Verdict, _scan_slots
    from logacm.errors import NotVeryAmple, WindowNotFound
    from logacm.exactseq import vanishing_window

    n = x.dim
    h = x.check_class(h)
    window_note = ""
    try:
        window = vanishing_window(expr, h, cap=cap, ev=ev)
    except (WindowNotFound, NotVeryAmple) as exc:
        window = None
        window_note = f"window uncertified ({exc})"
    full = range(-cap, cap + 1)
    witness, blocking = _scan_slots(ev, expr, h, n, window.residual if window is not None else lambda i: full)
    if witness is not None:
        return Verdict(NO, witness, ("nonzero intermediate cohomology at the witness slot",))
    if window is None:
        return Verdict(UNKNOWN, None, (window_note, "no exact nonzero slot found in the scanned range"))
    if blocking is not None:
        return Verdict(UNKNOWN, blocking, (*window.certificates, "undecided interval at the reported slot"))
    certs = (
        *window.certificates,
        "all residual slots vanish: " + ", ".join(f"h^{i} on {list(window.residual(i))}" for i in range(1, n)),
    )
    return Verdict(YES, None, certs)


def probe_cases():
    """(variety, polarization, arrangement) for the witness-probe oracle."""
    from itertools import combinations_with_replacement

    from logacm.classify import _candidate_classes
    from logacm.logbundles import repeated_rigid_class

    cases = []
    surfaces = [(L.quadric_surface(), [(1, 1), (2, 1)])]
    surfaces += [(L.hirzebruch(e), [(1, e + 1), (2, 2 * e + 1)]) for e in range(4)]
    for x, pols in surfaces:
        cands = sorted(_candidate_classes(x, 1))
        for m in range(3):
            for combo in combinations_with_replacement(cands, m):
                if repeated_rigid_class(x, combo) is None:
                    arr = L.arrangement(x, [L.component_from_class(x, c) for c in combo])
                    cases += [(x, h, arr) for h in pols]
    # on P^n also hypersurfaces of higher degree: witnesses in degree n - 1,
    # and an undecided h^1 at t = 0 before a witness at t = -1
    for n, sizes, degrees in ((3, range(1, 7), ((1, 1, 2), (3,))), (4, (2, 5, 6), ((2,),))):
        x = L.projective_space(n)
        cases += [(x, (1,), L.hyperplane_arrangement(x, m)) for m in sizes]
        cases += [(x, (1,), L.arrangement(x, [L.component_from_class(x, (d,)) for d in ds])) for ds in degrees]
    ab = L.abelian_surface(4)
    assert ab.very_ample_multiple((1,)) == 3
    for comps in ((), ((1, 1),), ((2, 2),)):
        cases.append((ab, (1,), L.arrangement(ab, [L.component_from_degree(ab, d, g) for d, g in comps])))
    return cases


@pytest.mark.parametrize("cap", [0, 1, 8])
def test_witness_probe_matches_window_first_scan(cap):
    """The probe at t = 0, -1, 1 changes no verdict, witness or certificate."""
    from logacm.classify import _classify_expr
    from logacm.logbundles import log_pair

    statuses = set()
    for x, h, arr in probe_cases():
        ours, reference = Evaluator(), Evaluator()
        for side in ("cot", "tan"):
            got = _classify_expr(x, h, log_pair(x, arr, ours).for_side(side), cap, ours)
            want = window_first_classify_expr(x, h, log_pair(x, arr, reference).for_side(side), cap, reference)
            assert (got.status, got.witness, got.certificates) == (want.status, want.witness, want.certificates), (
                x.kind,
                x.param,
                h,
                arr,
                side,
            )
            statuses.add(got.status)
    assert NO in statuses and (YES in statuses or cap < 8), statuses  # small caps certify no window


def test_witness_probe_skips_a_failing_window(monkeypatch):
    """On F_1 with H = (1, 2) and D two (1, 1) sections, which meet, the
    tangent side has no window within the cap and h^1 = 1 at t = -1: the
    probe answers No without looking for a window."""
    import logacm.classify as C
    from logacm.errors import WindowNotFound
    from logacm.exactseq import vanishing_window
    from logacm.logbundles import log_pair

    x, h = L.hirzebruch(1), (1, 2)
    arr = L.arrangement(x, [L.component_from_class(x, (1, 1))] * 2)
    ev = Evaluator()
    expr = log_pair(x, arr, ev).for_side("tan")
    with pytest.raises(WindowNotFound):
        vanishing_window(expr, h, cap=8, ev=Evaluator())
    want = window_first_classify_expr(x, h, expr, 8, Evaluator())
    assert want.status == NO and want.witness[:2] == (1, -1) and want.witness[2] == L.iv(1)

    calls = []
    monkeypatch.setattr(C, "vanishing_window", lambda *a, **k: calls.append(a))
    got = C._classify_expr(x, h, expr, 8, ev)
    assert calls == []
    assert (got.status, got.witness, got.certificates) == (want.status, want.witness, want.certificates)


def wide_fe_space():
    """(variety, polarization, class_bound, m_bound) for F_0..F_3 at the
    sweep's polarizations with class bound 2 and up to three components:
    arrangements with sections, fibres and curves of class (2, b)."""
    return [
        (L.hirzebruch(e), h, 2, 3) for e in range(4) for h in bench_workloads().sweep_polarizations(f"F{e}")
    ]


def window_cases():
    """``probe_cases()``, every candidate arrangement of the sweep's specs
    and of ``wide_fe_space()``, each (variety, polarization, arrangement)
    once."""
    from logacm.classify import _candidates

    cases = dict.fromkeys(probe_cases())
    for name, h, cb, mb, _ in bench_workloads().sweep_space():
        x = L.quadric_surface() if name == "quadric" else L.hirzebruch(int(name[1:]))
        cases.update(dict.fromkeys((x, h, arr) for _, arr in _candidates(x, cb, mb)))
    for x, h, cb, mb in wide_fe_space():
        cases.update(dict.fromkeys((x, h, arr) for _, arr in _candidates(x, cb, mb)))
    return list(cases)


def test_certified_tails_cover_only_zero_slots():
    """Every twist in [-cap, cap] that a certified tail of the window covers
    reads lo == 0 on a fresh evaluator, whether or not the other tail is
    certified; where both are, ``vanishing_window`` reports those tails.
    Over ``window_cases()`` on both sides, at caps 0, 1 and 8."""
    from collections import Counter

    from logacm.errors import NotVeryAmple, WindowNotFound
    from logacm.exactseq import _one_sided_regularity, vanishing_window
    from logacm.intervals import pad_vec
    from logacm.logbundles import log_pair

    windows, covered = Counter(), 0
    for x, h, arr in window_cases():
        try:
            nu = x.very_ample_multiple(h)
        except NotVeryAmple:
            continue
        n = x.dim
        for cap in (0, 1, 8):
            ev = Evaluator()
            for side in ("cot", "tan"):
                expr = log_pair(x, arr, ev).for_side(side)
                tails = {}
                for dual in (False, True):
                    try:
                        raw = _one_sided_regularity(expr, dual, h, cap, nu, ev)
                    except WindowNotFound:
                        continue
                    tails[dual] = {i: -raw[n - i] if dual else raw[i] for i in range(1, n)}
                windows[tuple(tails)] += 1
                if len(tails) == 2:
                    window = vanishing_window(expr, h, cap=cap, ev=ev)
                    assert (window.upper_from, window.lower_upto) == (tails[False], tails[True])
                fresh = Evaluator()
                reread = log_pair(x, arr, fresh).for_side(side)
                for dual, bounds in tails.items():
                    for i, b in bounds.items():
                        for t in range(-cap, cap + 1):
                            if t <= b if dual else t >= b:
                                covered += 1
                                v = pad_vec(fresh.cohom(reread, vscale(t, h)), n + 1)[i]
                                assert v.lo == 0, (x, h, arr, side, cap, i, t)
    alone = windows[(False,)] > 100 and windows[(True,)] > 100  # one tail certified, the other failing
    assert alone and windows[(False, True)] > 100 and covered > 1000, (windows, covered)


def test_window_raises_the_upper_tail_when_both_fail(monkeypatch):
    """With no tail certified (the quadric's empty arrangement at cap 0),
    ``vanishing_window`` raises the upper tail's message and never scans
    the lower tail."""
    from logacm import exactseq
    from logacm.errors import WindowNotFound
    from logacm.exactseq import vanishing_window
    from logacm.logbundles import log_pair

    q, h = L.quadric_surface(), (1, 1)
    expr = log_pair(q, L.arrangement(q, []), Evaluator()).cotangent_log
    messages = []
    scan = exactseq._one_sided_regularity
    for dual in (False, True):
        with pytest.raises(WindowNotFound) as exc:
            scan(expr, dual, h, 0, 1, Evaluator())
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    duals = []
    monkeypatch.setattr(exactseq, "_one_sided_regularity", lambda e, dual, *a: duals.append(dual) or scan(e, dual, *a))
    with pytest.raises(WindowNotFound) as exc:
        vanishing_window(expr, h, cap=0, ev=Evaluator())
    assert (str(exc.value), duals) == (messages[0], [False])


# -- Weyl-group orbits of (-1)-curve arrangements on Bl_k P^2 -----------------


def blowup_space():
    """(x, arrangement) for every set of at most three (-1)-curves on
    Bl_1..Bl_4: the arrangements of the blowup benchmark."""
    from itertools import combinations

    out = []
    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        for m in range(4):
            for sub in combinations(x.negative_curves, m):
                out.append((x, L.arrangement(x, [L.component_from_class(x, c) for c in sub])))
    return out


def simple_roots(k):
    """E_i - E_{i+1}, and H - E_1 - E_2 - E_3 for k >= 3."""
    unit = [tuple(int(j == i) for j in range(k + 1)) for i in range(k + 1)]
    roots = [tuple(a - b for a, b in zip(unit[i], unit[i + 1])) for i in range(1, k)]
    return roots + ([(1, -1, -1, -1) + (0,) * (k - 3)] if k >= 3 else [])


def reflect(x, a, v):
    return tuple(vi + x.intersect(v, a) * ai for vi, ai in zip(v, a))


def reflect_arrangement(x, a, arr):
    return L.arrangement(x, [L.component_from_class(x, reflect(x, a, c.klass)) for c in arr.components])


def without_orbits(monkeypatch):
    import logacm.classify as C

    monkeypatch.setattr(C, "_orbit_rep", lambda x, h, arr, ev: arr)


def test_weyl_group_orders_and_generators():
    """|W| = 2, 12, 120: each simple reflection fixes K, preserves the
    intersection form and permutes the (-1)-curves, and the closure of the
    permutations they induce has that order and preserves the curves'
    intersections.  On a fresh evaluator with H = -K, every set of
    (-1)-curves (8, 64 and 1,024 of them) gets the arrangement of its least
    image under that closure, in ``negative_curves`` order, and the members
    of one orbit get the same object.  The orbits number 6, 13 (two-colourings
    of the hexagon of curves up to its dihedral group) and 34 (graphs on five
    vertices: W = S_5 acts on the ten curves as on pairs of five points)."""
    from itertools import combinations

    from logacm.classify import _orbit_rep
    from logacm.varieties import Arrangement

    for k, order in ((2, 2), (3, 12), (4, 120)):
        x = L.blowup_p2(k)
        curves = x.negative_curves
        basis = [tuple(int(j == i) for j in range(k + 1)) for i in range(k + 1)]
        gens = []
        for a in simple_roots(k):
            assert x.intersect(a, a) == -2
            assert reflect(x, a, x.canonical_class) == x.canonical_class
            for u in basis:
                for v in basis:
                    assert x.intersect(reflect(x, a, u), reflect(x, a, v)) == x.intersect(u, v)
            image = [reflect(x, a, c) for c in curves]
            assert sorted(image) == sorted(curves)
            gens.append(tuple(curves.index(c) for c in image))
        closure = {tuple(range(len(curves)))}
        while True:
            grown = closure | {tuple(g[j] for j in p) for p in closure for g in gens}
            if grown == closure:
                break
            closure = grown
        assert len(closure) == order
        for p in closure:  # every element preserves the curves' intersections
            for i, c in enumerate(curves):
                for j, d in enumerate(curves):
                    assert x.intersect(curves[p[i]], curves[p[j]]) == x.intersect(c, d)

        ev, mk, seen = Evaluator(), vneg(x.canonical_class), {}
        subsets = [s for m in range(len(curves) + 1) for s in combinations(range(len(curves)), m)]
        assert len(subsets) == {2: 8, 3: 64, 4: 1024}[k]
        for sub in subsets:
            arr = L.arrangement(x, [L.component_from_class(x, curves[i]) for i in sub])
            least = min(sum(1 << p[i] for i in sub) for p in closure)
            comps = tuple(L.component_from_class(x, c) for i, c in enumerate(curves) if least >> i & 1)
            rep = _orbit_rep(x, mk, arr, ev)
            assert rep == Arrangement(comps, arr.span_rank, arr.snc, arr.span_asserted), (k, sub)
            assert seen.setdefault(least, rep) is rep, (k, sub)
        assert len(seen) == {2: 6, 3: 13, 4: 34}[k]


def test_blowup_space_has_24_orbits():
    from logacm.classify import _orbit_rep

    space = blowup_space()
    assert len(space) == 228
    ev = Evaluator()
    reps = {(x.param, _orbit_rep(x, vneg(x.canonical_class), arr, ev)) for x, arr in space}
    assert len(reps) == 24
    assert sorted(k for k, _ in reps) == [1] * 2 + [2] * 6 + [3] * 8 + [4] * 8


def test_reflected_arrangements_have_equal_tables():
    """Metamorphic oracle, through ``log_pair`` alone: D and sigma D have the
    same table on both sides at t(-K), |t| <= 4, for every simple
    reflection sigma."""
    from logacm.logbundles import log_pair

    ev = Evaluator()

    def table(x, arr):
        mk = vneg(x.canonical_class)
        pair = log_pair(x, arr, ev)
        return [ev.cohom(pair.for_side(side), tuple(t * a for a in mk)) for side in ("cot", "tan") for t in range(-4, 5)]

    compared = 0
    for x, arr in blowup_space():
        for a in simple_roots(x.param):
            image = reflect_arrangement(x, a, arr)
            assert table(x, image) == table(x, arr), (x.param, arr, a)
            compared += 1
    assert compared == 8 * 1 + 42 * 3 + 176 * 4


def verdict_data(call):
    """(status, witness, certificates) of a verdict, or the error raised."""
    try:
        v = call()
    except Exception as exc:  # noqa: BLE001 - both paths must raise alike
        return type(exc), str(exc)
    v = v[0] if isinstance(v, tuple) else v
    return v.status, v.witness, v.certificates


def test_orbit_verdicts_equal_the_uncanonicalized_path(monkeypatch):
    """``deficiency_concentrated_at_zero`` over the blowup space and
    ``_classify`` over every multiset of at most three (-1)-curves, both
    sides, H = -K (and -2K on Bl_3): the same verdicts, witnesses and certificates with and
    without orbit sharing."""
    from itertools import combinations_with_replacement

    from logacm.classify import _classify

    calls = [
        (lambda x=x, arr=arr, side=side, ev=None: L.deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, side=side, ev=ev))
        for x, arr in blowup_space()
        for side in ("cot", "tan")
    ]
    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        for m in (1, 2, 3):
            for combo in combinations_with_replacement(x.negative_curves, m):
                arr = L.arrangement(x, [L.component_from_class(x, c) for c in combo])
                for side in ("cot", "tan"):
                    for h in (vneg(x.canonical_class), tuple(-2 * a for a in x.canonical_class))[: 1 + (k == 3)]:
                        calls.append(lambda x=x, h=h, arr=arr, side=side, ev=None: _classify(x, h, arr, side, 8, ev))
    shared = Evaluator()
    got = [verdict_data(lambda: call(ev=shared)) for call in calls]
    without_orbits(monkeypatch)
    reference = Evaluator()
    want = [verdict_data(lambda: call(ev=reference)) for call in calls]
    assert len(got) == 456 + 2 * (3 + 19 + 2 * 83 + 285)
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []
    assert {g[0] for g in got} >= {YES, NO, InputError}


def test_orbit_verdicts_do_not_depend_on_the_order_asked():
    import random

    space = blowup_space()

    def verdicts(order, ev_for):
        out = {}
        for i in order:
            x, arr = space[i]
            for side in ("cot", "tan"):
                out[i, side] = verdict_data(
                    lambda: L.deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, side=side, ev=ev_for())
                )
        return out

    indices = list(range(len(space)))
    shuffled = random.Random(16).sample(indices, len(indices))
    runs = []
    for order in (indices, indices[::-1], shuffled):
        ev = Evaluator()
        runs.append(verdicts(order, lambda: ev))
    runs.append(verdicts(indices, Evaluator))  # each arrangement alone on a fresh evaluator
    assert all(run == runs[0] for run in runs[1:])


def test_orbit_rep_leaves_other_inputs_unchanged():
    """Out of scope, the arrangement itself comes back: H not a multiple of
    -K, a component that is not a (-1)-curve, a repeated class."""
    from logacm.classify import _orbit_rep

    ev = Evaluator()
    bl2 = L.blowup_p2(2)
    lines = L.arrangement(bl2, [L.component_from_class(bl2, c) for c in [(0, 0, 1), (1, -1, -1)]])
    assert _orbit_rep(bl2, (4, -1, -1), lines, ev) is lines
    assert _orbit_rep(bl2, (3, -1, -1), lines, ev) is not lines  # in scope: the representative

    bl3 = L.blowup_p2(3)
    mk = vneg(bl3.canonical_class)
    fibre = L.arrangement(bl3, [L.component_from_class(bl3, c) for c in [(0, 0, 1, 0), (1, -1, 0, 0)]])
    assert _orbit_rep(bl3, mk, fibre, ev) is fibre
    repeated = L.arrangement(bl3, [L.component_from_class(bl3, (0, 0, 1, 0))] * 2)
    assert _orbit_rep(bl3, mk, repeated, ev) is repeated
    assert _orbit_rep(bl3, (6, -2, -2, -2), repeated, ev) is repeated


# -- the evaluator's session memo ---------------------------------------------


def search_data(x, h, cb, mb, side, ev):
    return [(combo, v.status, v.witness, v.certificates, first) for combo, v, first in L.search(x, h, cb, mb, side, ev=ev)]


def test_memoized_search_equals_a_fresh_evaluator_in_either_order():
    """Every sweep spec, asked on one shared evaluator in listed and then in
    reversed order, gives the combos, verdicts, witnesses, certificates and
    first rules that a fresh evaluator per spec gives."""
    specs = bench_workloads().sweep_space()
    assert len(specs) == 56

    def inputs(spec):
        name, h, cb, mb, side = spec
        x = L.quadric_surface() if name == "quadric" else L.hirzebruch(int(name[1:]))
        return x, h, cb, mb, side

    alone = [search_data(*inputs(s), Evaluator()) for s in specs]
    ev = Evaluator()
    shared = [search_data(*inputs(s), ev) for s in specs]
    reverse = [search_data(*inputs(s), ev) for s in specs[::-1]][::-1]
    assert [i for i, (a, s, r) in enumerate(zip(alone, shared, reverse)) if not a == s == r] == []


def test_evaluation_never_reenters_what_it_is_computing(monkeypatch):
    """Every node refers only to nodes built before it, so over the sweep
    and blowup benchmark spaces and ``wide_fe_space()`` no (expression,
    twist) is asked for again while it is being computed, and each is
    computed once per evaluator."""
    from collections import Counter

    in_flight, reentered, computed = set(), [], Counter()
    cohom, raw = Evaluator._cohom, Evaluator._raw

    def entered(self, expr, twist):
        key = (expr, twist)
        if key in in_flight:
            reentered.append(key)
            return cohom(self, expr, twist)
        in_flight.add(key)
        try:
            return cohom(self, expr, twist)
        finally:
            in_flight.discard(key)

    def counted(self, expr, twist):
        computed[expr, twist] += 1
        return raw(self, expr, twist)

    monkeypatch.setattr(Evaluator, "_cohom", entered)
    monkeypatch.setattr(Evaluator, "_raw", counted)
    ev = Evaluator()
    for name, h, cb, mb, side in bench_workloads().sweep_space():
        x = L.quadric_surface() if name == "quadric" else L.hirzebruch(int(name[1:]))
        L.search(x, h, cb, mb, side, ev=ev)
    for x, h, cb, mb in wide_fe_space():
        for side in ("cot", "tan"):
            L.search(x, h, cb, mb, side, ev=ev)
    for x, arr in blowup_space():
        deficiency_concentrated_at_zero(x, vneg(x.canonical_class), arr, ev=ev)
    assert reentered == [] and in_flight == set()
    assert len(computed) > 5000 and max(computed.values()) == 1


def test_a_sweep_pass_keeps_no_zero_twist_view():
    """F_e's Omega^1 model is T(K), so its Serre-dual side reads T itself, not
    a twist of T by zero: after a cold sweep pass no cached value is keyed by
    a TwistE whose twist is zero."""
    ev = Evaluator()
    for name, h, cb, mb, side in bench_workloads().sweep_space():
        x = L.quadric_surface() if name == "quadric" else L.hirzebruch(int(name[1:]))
        L.search(x, h, cb, mb, side, ev=ev)
    views = [key for key in ev.cache if isinstance(key[0], TwistE)]
    assert views and [key for key in views if not any(key[0].by)] == []


def test_remembered_verdicts_are_immutable():
    """A caller cannot change a later answer: a verdict refuses assignment
    and its certificates refuse append, and the next ask returns the same
    object, with the same status, witness and certificates."""
    ev = Evaluator()
    q = L.quadric_surface()
    arr = L.arrangement(q, [L.component_from_class(q, (1, 0)), L.component_from_class(q, (0, 1))])
    bl3 = L.blowup_p2(3)
    mk = vneg(bl3.canonical_class)
    for ask in (
        lambda: L.is_acm(q, (1, 1), arr, ev=ev),
        lambda: L.is_tacm(q, (2, 1), arr, ev=ev),
        lambda: deficiency_concentrated_at_zero(bl3, mk, exceptional_arrangement(bl3), ev=ev),
    ):
        first = ask()
        want = (first.status, first.witness, first.certificates)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.status = "changed by the caller"
        with pytest.raises(AttributeError):
            first.certificates.append("changed by the caller")
        again = ask()
        assert again is first
        assert (again.status, again.witness, again.certificates) == want


def test_a_remembered_search_returns_the_kept_verdicts():
    """Asking a search again costs one lookup per candidate: each result is
    the (verdict, first rule) pair kept under ("verdict", ...), the objects
    themselves, and a second ``is_acm`` returns the first call's verdict."""
    from logacm.classify import Verdict, _candidates

    x, h = L.hirzebruch(2), (2, 5)
    ev = Evaluator()
    first = L.search(x, h, 2, 2, ev=ev)
    again = L.search(x, h, 2, 2, ev=ev)
    cands = _candidates(x, 2, 2)
    assert len(again) == len(first) == len(cands) == 8
    assert {v.status for _, v, _ in again} == {YES, NO}
    for (_, v1, rule1), (_, verdict, rule), (_, arr) in zip(first, again, cands):
        kept = ev.cache[("verdict", x, h, arr, "cot", 8)]
        assert type(kept) is tuple and len(kept) == 2
        assert type(kept[0]) is Verdict and type(kept[1]) is str
        assert verdict is kept[0] is v1 and rule is kept[1] is rule1
    arr = cands[-1][1]
    verdict = L.is_acm(x, h, arr, ev=ev)
    assert verdict is ev.cache[("verdict", x, h, arr, "cot", 8)][0]
    assert L.is_acm(x, h, arr, ev=ev) is verdict
    bl3 = L.blowup_p2(3)
    concentrated = deficiency_concentrated_at_zero(bl3, vneg(bl3.canonical_class), exceptional_arrangement(bl3), ev=ev)
    assert [v for k, v in ev.cache.items() if k[0] == "deficiency"] == [concentrated]
    assert deficiency_concentrated_at_zero(bl3, vneg(bl3.canonical_class), exceptional_arrangement(bl3), ev=ev) is concentrated


def test_every_reusable_result_goes_through_remember(monkeypatch):
    """``Evaluator.remember`` is the one door into the session memo: after a
    search on the quadric and on F_1, a deficiency verdict on Bl_3 and a
    log pair on P^3, every key in ``ev.cache`` is an (expression, twist)
    pair, ``search``'s ("candidates", ...) or a key ``remember`` wrote.
    Its contract: a repeat returns the kept object, and a build that raises
    keeps nothing and raises again."""
    from logacm.exactseq import Expr

    written = set()
    door = Evaluator.remember

    def recorded(self, key, build, *args):
        kept = door(self, key, build, *args)
        written.add(key)
        return kept

    monkeypatch.setattr(Evaluator, "remember", recorded)
    ev = Evaluator()
    L.search(L.quadric_surface(), (1, 1), 2, 2, ev=ev)
    L.search(L.hirzebruch(1), (1, 2), 2, 2, ev=ev)
    bl3 = L.blowup_p2(3)
    deficiency_concentrated_at_zero(bl3, vneg(bl3.canonical_class), exceptional_arrangement(bl3), ev=ev)
    p3 = L.projective_space(3)
    L.log_pair(p3, L.hyperplane_arrangement(p3, 3), ev)
    for key in ev.cache:
        cohomology = len(key) == 2 and isinstance(key[0], Expr)
        assert cohomology or key[0] == "candidates" or key in written, key
    assert {key[0] for key in written} == {"leaf", "log_pair", "orbits", "verdict", "deficiency"}

    builds = []
    first = ev.remember(("probe",), lambda: builds.append(1) or object())
    assert ev.remember(("probe",), lambda: builds.append(2) or object()) is first and builds == [1]

    def failing():
        raise InputError("no value")

    for _ in range(2):
        with pytest.raises(InputError, match="no value"):
            ev.remember(("failed",), failing)
        assert ("failed",) not in ev.cache


def test_out_of_range_bounds_raise_before_anything_is_kept():
    """A negative cap, class bound or m is refused with ``InputError`` by
    every library entry point that takes it, as the CLI refuses it, and
    the session keeps nothing."""
    from logacm.exactseq import vanishing_window

    q = L.quadric_surface()
    arr = L.arrangement(q, [L.component_from_class(q, (1, 0)), L.component_from_class(q, (0, 1))])
    ev = Evaluator()
    pair = L.log_pair(q, arr, ev)
    ev.cache.clear()
    asks = [
        lambda: L.is_acm(q, (1, 1), arr, cap=-1, ev=ev),
        lambda: L.is_tacm(q, (1, 1), arr, cap=-1, ev=ev),
        lambda: L.search(q, (1, 1), 1, 2, cap=-1, ev=ev),
        lambda: L.deficiency_table(q, (1, 1), arr, cap=-1, ev=ev),
        lambda: deficiency_concentrated_at_zero(q, (1, 1), arr, cap=-1, ev=ev),
        lambda: vanishing_window(pair.cotangent_log, (1, 1), cap=-1, ev=ev),
    ]
    for ask in asks:
        with pytest.raises(InputError, match="cap must be a non-negative integer, got -1"):
            ask()
    bl2 = L.blowup_p2(2)
    for x, h in ((q, (1, 1)), (L.hirzebruch(1), (1, 2)), (L.projective_space(2), (1,)), (bl2, vneg(bl2.canonical_class))):
        for bounds, name in (((-1, 2), "class_bound"), ((1, -1), "m_bound")):
            with pytest.raises(InputError, match=f"{name} must be a non-negative integer, got -1"):
                L.search(x, h, *bounds, ev=ev)
    assert ev.cache == {}
    for m in (-1, -2):
        with pytest.raises(InputError, match=f"m = {m}"):
            L.hyperplane_arrangement(L.projective_space(3), m)
    assert L.hyperplane_arrangement(L.projective_space(3), 0).size == 0


def test_failed_verdicts_raise_again_and_are_not_kept():
    """A non-ample H and an invalid arrangement raise on every call and keep
    no verdict: the cache holds only what the steps that succeeded built
    (the numeric filters' cohomology).  A non-ample H is refused before
    anything is built, by the classifier and the deficiency verdicts alike."""
    from logacm.classify import _classify

    x = L.hirzebruch(1)
    section, fibre = L.component_from_class(x, (1, 0)), L.component_from_class(x, (0, 1))
    ev = Evaluator()
    for _ in range(2):
        with pytest.raises(NotAmple):
            L.is_acm(x, (1, 1), L.arrangement(x, [fibre]), ev=ev)
        with pytest.raises(NotAmple):
            deficiency_concentrated_at_zero(x, (1, 1), L.arrangement(x, [fibre]), ev=ev)
        with pytest.raises(NotAmple):
            L.deficiency_table(x, (1, 1), L.arrangement(x, [fibre]), ev=ev)
    assert ev.cache == {}

    h = (1, 2)
    for arr, reason in (
        (L.arrangement(x, [section, section]), "rigid"),
        (L.Arrangement((section, fibre), 2, snc=False), "normal crossings"),
    ):
        for side in ("cot", "tan"):
            ev = Evaluator()
            for _ in range(2):
                with pytest.raises(InputError, match=reason):
                    _classify(x, h, arr, side, 8, ev)
                with pytest.raises(InputError, match=reason):
                    deficiency_concentrated_at_zero(x, h, arr, side=side, ev=ev)
            filters = Evaluator()
            L.necessary_conditions(x, h, arr, side, filters)
            assert ev.cache.keys() == filters.cache.keys()


def test_failed_searches_keep_nothing():
    """A search that raises keeps no candidates and raises again on every
    call: a non-ample H, a variety without a candidate list and a negative
    class bound; an empty size range finds nothing."""
    ev, empty = Evaluator(), Evaluator()
    for _ in range(2):
        with pytest.raises(NotAmple):
            L.search(L.hirzebruch(1), (1, 1), 1, 2, ev=ev)
        assert ev.cache == {}
        with pytest.raises(OutOfScope):
            L.search(L.abelian_surface(2), (1,), 1, 2, ev=ev)
        for e in range(4):
            with pytest.raises(InputError):
                L.search(L.hirzebruch(e), (1, e + 1), -1, 2, ev=ev)
        assert ev.cache == {}
        assert L.search(L.hirzebruch(2), (1, 3), 2, 0, ev=empty) == []


def test_cleared_cache_is_a_cold_session(monkeypatch):
    """``ev.cache.clear()`` is the whole reset: afterwards ``log_pair``
    builds new nodes, ``_orbit_rep`` builds its Weyl table again and
    ``search`` its candidates, and the answers are the ones the first
    session gave."""
    import logacm.classify as C

    built = []

    class Counted(C._WeylOrbits):
        def __init__(self, x):
            built.append(x)
            super().__init__(x)

    monkeypatch.setattr(C, "_WeylOrbits", Counted)
    x = L.blowup_p2(3)
    mk = vneg(x.canonical_class)
    arr = exceptional_arrangement(x, 2)
    ev = Evaluator()
    pair = L.log_pair(x, arr, ev)
    first = deficiency_concentrated_at_zero(x, mk, arr, ev=ev)
    assert L.log_pair(x, arr, ev) is pair and deficiency_concentrated_at_zero(x, mk, arr, ev=ev) == first
    assert built == [x]
    ev.cache.clear()
    again = L.log_pair(x, arr, ev)
    assert again is not pair and again.cotangent_log is not pair.cotangent_log
    assert deficiency_concentrated_at_zero(x, mk, arr, ev=ev) == first
    assert built == [x, x]

    f2 = L.hirzebruch(2)
    searched = L.search(f2, (1, 3), 2, 2, ev=ev)
    builds = counted_builds(monkeypatch)
    assert L.search(f2, (1, 3), 2, 2, ev=ev) == searched and builds == []
    ev.cache.clear()
    assert L.search(f2, (1, 3), 2, 2, ev=ev) == searched
    assert [b[1] for b in builds if b[0] == "arrangement"] == [combo for combo, _, _ in searched]
