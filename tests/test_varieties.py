from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logacm as L
from logacm.errors import InputError, NonGeneralConfig, NotVeryAmple
from logacm.exactseq import CurveE, Evaluator
from logacm.varieties import KIND_PN, Component, VarietyModel, matrix_rank, rat0_case, vneg, vscale, vsub

from conftest import catalog_surfaces, random_class, run_optimized


def test_intersection_examples():
    for e in range(0, 5):
        f = L.hirzebruch(e)
        assert f.intersect((1, 0), (1, 0)) == -e
        assert f.intersect((1, 0), (0, 1)) == 1
        assert f.intersect((3, 2), (0, 0)) == 0


def test_intersection_symmetry(rng):
    for x in catalog_surfaces():
        for _ in range(20):
            a, b = random_class(rng, x), random_class(rng, x)
            assert x.intersect(a, b) == x.intersect(b, a)


def test_noether_identity_all_catalog():
    for x in catalog_surfaces():
        k2 = x.intersect(x.canonical_class, x.canonical_class)
        assert 12 * x.chi_structure_sheaf == k2 + x.c2


def test_h0_tangent_catalog():
    assert L.projective_space(3).h0_tangent == 15
    assert L.hirzebruch(0).h0_tangent == 6
    assert L.hirzebruch(1).h0_tangent == 6
    assert L.hirzebruch(4).h0_tangent == 9
    assert L.blowup_p2(2).h0_tangent == 4
    assert L.blowup_p2(3).h0_tangent == 2
    assert L.blowup_p2(4).h0_tangent == 0
    assert L.surface_in_p3(3).h0_tangent == 0
    assert L.abelian_surface(2).h0_tangent == 2


def test_adjunction_examples():
    f0 = L.hirzebruch(0)
    assert f0.adjunction_genus((1, 1)) == 0
    # rational classes on F_e satisfy (a-1)(ae-2b+2) = 0
    for e in (0, 1, 2, 3):
        fe = L.hirzebruch(e)
        for b in range(e, e + 4):
            assert fe.adjunction_genus((1, b)) == 0
    # line on a quartic surface: D^2 = -2, K = 0
    x4 = L.surface_in_p3(4)
    comp = L.component_from_degree(x4, 1, 0)
    assert comp.self_int == -2


def test_riemann_roch_examples():
    ab = L.abelian_surface(2 * 3)  # polarization square 6, d = 3
    for t in range(-3, 4):
        assert ab.riemann_roch_chi((t,)) == 3 * t * t
    for x in catalog_surfaces():
        assert x.riemann_roch_chi((0,) * x.lattice_rank) == x.chi_structure_sheaf
    b2 = L.blowup_p2(2)
    assert b2.riemann_roch_chi(vneg(b2.canonical_class)) == 8


def test_riemann_roch_serre_symmetry(rng):
    for x in catalog_surfaces():
        for _ in range(25):
            l = random_class(rng, x)
            assert x.riemann_roch_chi(l) == x.riemann_roch_chi(vsub(x.canonical_class, l))


def test_chi_tangent():
    assert L.blowup_p2(2).chi_tangent() == 4
    assert L.surface_in_p3(3).chi_tangent() == -4
    assert L.abelian_surface(2).chi_tangent() == 0
    for e in range(0, 4):
        assert L.hirzebruch(e).chi_tangent() == 6


def test_is_ample():
    assert not L.hirzebruch(2).is_ample((1, 1))
    assert L.hirzebruch(1).is_ample((1, 2))
    assert not L.projective_space(3).is_ample((0,))
    b2 = L.blowup_p2(2)
    assert b2.is_ample(vneg(b2.canonical_class))
    assert not b2.is_ample((1, 0, 0))  # pullback of a line is nef, not ample
    assert L.quadric_surface().is_ample((2, 1))
    # L^2 > 0 and L.E > 0, but L.(H - E) < 0: -L = 4H + 3E is effective
    b1 = L.blowup_p2(1)
    for anti in ((-4, -3), (-3, -2), (-2, -1)):
        assert not b1.is_ample(anti)
        with pytest.raises(NotVeryAmple):
            b1.very_ample_multiple(anti)
    assert b1.is_ample((2, -1)) and b1.is_ample(vneg(b1.canonical_class))


def test_blowup_certifies_every_positive_multiple_of_minus_k():
    """-K is very ample on Bl_k P^2 for k <= 4, so every t(-K) with t >= 1
    is; nothing else is certified on a blow-up."""
    for k in range(1, 5):
        x = L.blowup_p2(k)
        mk = vneg(x.canonical_class)
        for t in (1, 2, 12, 13, 40):
            assert x.very_ample_multiple(vscale(t, mk)) == 1, (k, t)
        for t in (0, -1, -13):
            with pytest.raises(NotVeryAmple):
                x.very_ample_multiple(vscale(t, mk))
    for k, l in ((1, (2, -1)), (1, (4, -2)), (1, (7, -2)), (2, (4, -1, -1)), (3, (40, -13, -13, -14))):
        x = L.blowup_p2(k)
        assert x.is_ample(l), l
        with pytest.raises(NotVeryAmple):
            x.very_ample_multiple(l)


def test_check_class_returns_a_tuple_of_ints():
    x = L.hirzebruch(2)
    assert x.check_class((3, -1)) == (3, -1)
    for given, want in (([3, -1], (3, -1)), ((True, 2), (1, 2)), ([False, True], (0, 1)), ((2.0, 1), (2, 1))):
        got = x.check_class(given)
        assert got == want and type(got) is tuple and all(type(v) is int for v in got), given
    assert L.projective_space(3).check_class(5) == (5,)
    for wrong in ((1, 2, 3), (1,), (), [1, 2, 3], (True,)):
        with pytest.raises(InputError):
            x.check_class(wrong)


def _ample_per_kind(x, l):
    """The per-kind ampleness chain that Kleiman's criterion replaced."""
    if x.kind == "quadric":
        return l[0] > 0 and l[1] > 0
    if x.kind == "hirzebruch":
        return l[0] > 0 and l[1] > l[0] * x.param
    if x.kind == "blowup_p2":
        return x.intersect(l, l) > 0 and all(x.intersect(l, c) > 0 for c in x.negative_curves)
    return l[0] > 0


def test_kleiman_agrees_with_per_kind_rule_off_anti_ample_bl1():
    disagree = set()
    checked = 0
    for x in catalog_surfaces() + [L.projective_space(3), L.projective_space(4)]:
        bound = 3 if x.lattice_rank >= 4 else 4
        anticanonical = {vscale(t, vneg(x.canonical_class)) for t in range(1, 13)}
        for l in product(range(-bound, bound + 1), repeat=x.lattice_rank):
            checked += 1
            ample = x.is_ample(l)
            if ample != _ample_per_kind(x, l):
                disagree.add((x.kind, x.param, l))
            try:
                nu = x.very_ample_multiple(l)
            except NotVeryAmple:
                nu = None
            if not ample or (x.kind == "blowup_p2" and l not in anticanonical):
                assert nu is None, (x.kind, x.param, l)
            else:
                assert nu == (3 if x.kind == "abelian" and l[0] < 3 else 1), (x.kind, x.param, l)
    assert checked == 20495
    # a < 0 and |b| < |a| with b < 0: L^2 > 0 and L.E > 0, yet L.(H - E) < 0
    assert disagree == {("blowup_p2", 1, (a, b)) for a in range(-4, -1) for b in range(a + 1, 0)}


def test_negative_curves_have_genus_zero():
    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        for c in x.negative_curves:
            assert x.adjunction_genus(c) == 0
            assert x.intersect(c, c) == -1


def test_rational_classes_on_Fe():
    out = L.rational_classes_on_Fe(1, 3)
    assert (2, 2) in out
    assert rat0_case(1, (2, 2)) == "v"
    out0 = L.rational_classes_on_Fe(0, 2)
    assert (1, 1) in out0 and (2, 1) in out0
    assert L.rational_classes_on_Fe(2, 0) == []
    for e in (0, 1, 2, 3):
        fe = L.hirzebruch(e)
        for c in L.rational_classes_on_Fe(e, 4):
            assert fe.adjunction_genus(c) == 0


def test_blowup_validation():
    with pytest.raises(NonGeneralConfig):
        L.blowup_p2(5)


def test_class_length_validation():
    f1 = L.hirzebruch(1)
    curve = CurveE(f1, 0, 0, klass=(1, 0))
    public_entries = [
        lambda: f1.intersect((1, 0, 0), (0, 1)),
        lambda: f1.intersect((0, 1), (1,)),
        lambda: f1.adjunction_genus((1, 0, 0)),
        lambda: f1.riemann_roch_chi((1,)),
        lambda: f1.chi_cotangent_twist((1, 2, 3)),
        lambda: L.component_from_class(f1, (1, 1, 1)),
        lambda: CurveE(f1, 0, 0, klass=(1,)),
        lambda: Evaluator().cohom(curve, (1, 0, 0)),
    ]
    for call in public_entries:
        with pytest.raises(InputError):
            call()
    # the pairing stays a surface notion on every path
    p3 = L.projective_space(3)
    with pytest.raises(InputError):
        p3.intersect((1,), (1,))
    with pytest.raises(InputError):
        Component((2,), 0, True).normal_degree(p3)


def test_arrangement_span_rank():
    x = L.blowup_p2(2)
    comps = [L.component_from_class(x, c) for c in [(0, 1, 0), (0, 0, 1), (1, -1, -1)]]
    arr = L.arrangement(x, comps)
    assert arr.span_rank == 3
    arr2 = L.arrangement(x, comps[:2])
    assert arr2.span_rank == 2
    with pytest.raises(InputError):
        L.arrangement(x, comps, span_rank=4)


def fraction_rank(rows) -> int:
    """Reference rank over Q: Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [v / m[rank][col] for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Integer matrices whose extra rows are zero or integer combinations of
    the drawn ones, in a drawn order."""
    cols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(st.integers(-50, 50), min_size=cols, max_size=cols), max_size=4))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        if base and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(cols)])
        else:
            rows.append([0] * cols)
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


def test_matrix_rank():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 1], [2, 2]]) == 1
    assert matrix_rank([[0, 0]]) == 0
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert matrix_rank([[0, 2, 4], [0, 3, 6], [1, 0, 0], [1, 2, 4]]) == 2
    assert matrix_rank([(1, 0, 0), (0, 1, 0), (1, -1, -1), (0, 0, 1)]) == 3


@settings(derandomize=True, max_examples=300, deadline=None)
@given(integer_matrices())
def test_matrix_rank_matches_fraction_reference(rows):
    assert matrix_rank(rows) == fraction_rank(rows)


def test_subcanonical_detection():
    assert L.projective_space(3).is_subcanonical((1,)) == -4
    assert L.quadric_surface().is_subcanonical((1, 1)) == -2
    assert L.quadric_surface().is_subcanonical((2, 1)) is None
    assert L.surface_in_p3(4).is_subcanonical((1,)) == 0
    assert L.hirzebruch(2).is_subcanonical((1, 3)) is None
    assert L.hirzebruch(1).is_subcanonical((2, 3)) == -1


def fraction_subcanonical(x, h):
    """Reference for ``is_subcanonical``: the set of ratios K_i / H_i."""
    k = x.canonical_class
    if all(a == 0 for a in k):
        return 0
    if any(b == 0 and a != 0 for a, b in zip(k, h)):
        return None
    ratios = {Fraction(a, b) for a, b in zip(k, h) if b != 0}
    if len(ratios) != 1:
        return None
    r = ratios.pop()
    return int(r) if r.denominator == 1 else None


def test_subcanonical_matches_fraction_reference():
    """Every catalog kind, every class with entries in [-4, 4]."""
    varieties = catalog_surfaces() + [L.projective_space(3), L.projective_space(4)]
    assert {x.kind for x in varieties} == {KIND_PN, "quadric", "hirzebruch", "blowup_p2", "surface_p3", "abelian"}
    subcanonical = 0
    for x in varieties:
        for h in product(range(-4, 5), repeat=x.lattice_rank):
            got = x.is_subcanonical(h)
            assert got == fraction_subcanonical(x, h), (x.kind, x.param, h)
            subcanonical += got is not None
    assert subcanonical > 0


BAD_CANONICAL = (KIND_PN, 2, 1, ((1,),), (-2,), 1, 8, 0, 1, 8)  # P^2 data with K = -2H: passes Noether


def test_riemann_roch_parity_is_checked_under_optimize():
    x = VarietyModel(*BAD_CANONICAL)
    assert 12 * x.chi_structure_sheaf == x.intersect(x.canonical_class, x.canonical_class) + x.c2
    with pytest.raises(InputError):
        x.riemann_roch_chi((1,))  # L.(L - K) = 3 is odd
    code = f"""
from logacm.errors import InputError
from logacm.varieties import VarietyModel
try:
    print(VarietyModel(*{BAD_CANONICAL!r}).riemann_roch_chi((1,)))
except InputError:
    print("raised")
"""
    assert run_optimized(code).split() == ["raised"]


def test_catalog_entries_are_built_once():
    """A catalog model is immutable, so every call with the same parameter
    returns the same instance; a parameter outside the catalog still raises
    on every call."""
    for build, args in ((L.projective_space, (3,)), (L.quadric_surface, ()), (L.hirzebruch, (2,)), (L.blowup_p2, (4,))):
        assert build(*args) is build(*args)
    assert L.hirzebruch(1) is not L.hirzebruch(2)
    for _ in range(2):
        with pytest.raises(NonGeneralConfig):
            L.blowup_p2(5)
        with pytest.raises(InputError):
            L.hirzebruch(-1)
