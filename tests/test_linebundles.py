from itertools import product
from math import prod

import pytest

import logacm as L
from logacm.errors import EngineError, InputError
from logacm.linebundles import _cohom_line_blowup, binom, cohom_ci, cohom_line_blowup, line_cohom
from logacm.varieties import vneg, vsub

from conftest import catalog_surfaces, random_class, run_optimized


def bott_oracle(n, t):
    """Euler-sequence chase, independent of the Bott closed form."""
    v = [0] * (n + 1)
    if t >= 1:
        v[0] = (n + 1) * binom(t - 1 + n, n) - binom(t + n, n)
    if t == 0:
        v[1] = 1

    def hn(s):
        return binom(-s - 1, n)

    v[n] += (n + 1) * hn(t - 1) - hn(t)
    return tuple(v)


def test_cohom_line_pn():
    assert cohom_ci(3, (), 2)[0] == 10
    assert cohom_ci(3, (), -4)[3] == 1
    assert cohom_ci(2, (), -2) == (0, 0, 0)
    for n in range(1, 8):
        for t in range(-12, 13):
            assert cohom_ci(n, (), t) == L.cohom_bott(n, 0, t), (n, t)
    with pytest.raises(InputError, match="need n >= 1"):
        cohom_ci(0, (), 1)
    with pytest.raises(InputError, match="need n >= 1"):
        cohom_ci(3, (2, 2, 2), 1)  # points, not a variety of dimension >= 1


def test_hypersurface_against_restriction_sequence():
    """0 -> O(t-d) -> O(t) -> O_D(t) -> 0 on P^N, with the P^N values from
    Bott's formula: only h^0 and h^N of P^N are nonzero, so O_D(t) has
    h^0 = h^0(O(t)) - h^0(O(t-d)), h^{N-1} = h^N(O(t-d)) - h^N(O(t)), and
    nothing in between."""
    for n in range(2, 7):
        for d in range(1, 6):
            for t in range(-8, 9):
                hi, lo = L.cohom_bott(n, 0, t), L.cohom_bott(n, 0, t - d)
                want = [0] * n
                want[0] += hi[0] - lo[0]
                want[n - 1] += lo[n] - hi[n]
                assert cohom_ci(n, (d,), t) == tuple(want), (n, d, t)


def test_complete_intersection_surfaces_against_riemann_roch():
    """chi(O_X(t)) = chi(O_X) + (t^2 H^2 - t K.H) / 2 with K = (sum d - N - 1)H
    and H^2 = prod d, on surfaces in P^3 (chi(O_X) from the catalog), the
    (2,2) del Pezzo surface in P^4 (chi = 1) and the (2,3) K3 surface in P^4
    (chi = 2)."""
    cases = [(3, (d,), L.surface_in_p3(d).chi_structure_sheaf) for d in range(2, 9)]
    cases += [(4, (2, 2), 1), (4, (2, 3), 2)]
    for N, degrees, chi_o in cases:
        k, h2 = sum(degrees) - N - 1, prod(degrees)
        for t in range(-10, 11):
            v = cohom_ci(N, degrees, t)
            assert v[1] == 0
            assert 2 * (v[0] + v[2]) == 2 * chi_o + t * t * h2 - t * k * h2, (N, degrees, t)
    assert cohom_ci(4, (2, 2), 1)[0] == 5
    assert cohom_ci(4, (2, 2), 2)[0] == 13  # 15 quadrics, two of them vanish on X


def test_bott_examples():
    assert L.cohom_bott(2, 1, 2)[0] == 3  # (a-1)(a-3) at a = 4
    assert L.cohom_bott(3, 1, 0) == (0, 1, 0, 0)
    for n in (2, 3, 4):
        for t in range(1, 6):
            assert L.cohom_bott(n, 1, t)[1] == 0


def test_bott_against_euler_chase():
    for n in (2, 3, 4):
        for t in range(-8, 9):
            assert L.cohom_bott(n, 1, t) == bott_oracle(n, t), (n, t)


def test_tangent_pn():
    def tangent(n, t):
        tan = L.cotangent_tangent_pair(L.projective_space(n))[1]
        v = L.Evaluator().cohom(tan, (t,))
        assert all(c.exact for c in v), (n, t, v)
        return tuple(c.lo for c in v)

    assert tangent(3, 0)[0] == 15
    assert tangent(2, -3) == (0, 1, 0)  # H^1(TP^2) at degree -3
    assert tangent(3, -2) == (0, 0, 0, 0)


def test_quadric_kunneth():
    assert L.cohom_line_quadric(-2, 0)[1] == 1
    assert L.cohom_line_quadric(-2, -2) == (0, 0, 1)
    assert L.cohom_line_quadric(1, 1)[0] == 4


def test_hirzebruch_vs_quadric_grid():
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert L.cohom_line_hirzebruch(0, a, b) == L.cohom_line_quadric(a, b), (a, b)


def test_hirzebruch_known_section_counts():
    for e in range(1, 7):
        v = L.cohom_line_hirzebruch(e, 2, e)
        assert v[0] == e + 2
        assert v[1] == max(0, e - 1)
        assert L.cohom_line_hirzebruch(e, 2, 2 * e)[0] == 3 * e + 3
        assert L.cohom_line_hirzebruch(e, 0, 2)[0] == 3
    assert L.cohom_line_hirzebruch(1, 2, 3)[0] == 9
    assert L.cohom_line_hirzebruch(1, 3, 3)[0] == 10
    # the a = -1 row vanishes identically
    for e in range(0, 5):
        for b in range(-6, 7):
            assert L.cohom_line_hirzebruch(e, -1, b) == (0, 0, 0)


def test_hirzebruch_monotone_in_fiber(rng):
    for e in (0, 1, 2, 3):
        for _ in range(40):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            assert L.cohom_line_hirzebruch(e, a, b)[0] <= L.cohom_line_hirzebruch(e, a, b + 1)[0]


def fibre_sum_hirzebruch(e, a, b):
    """Reference for ``cohom_line_hirzebruch``, term by term: for a >= 0,
    pi_* O(ah + bf) is the sum of O_{P^1}(b - ie) over i = 0..a; a = -1
    has no cohomology, and a <= -2 is Serre duality against
    K = -2h - (e + 2)f."""
    if a >= 0:
        terms = [b - i * e for i in range(a + 1)]
        return (sum(max(0, d + 1) for d in terms), sum(max(0, -d - 1) for d in terms), 0)
    if a == -1:
        return (0, 0, 0)
    return tuple(reversed(fibre_sum_hirzebruch(e, -2 - a, -(e + 2) - b)))


def test_hirzebruch_closed_form_equals_fibre_sum():
    for e in range(7):
        x = L.hirzebruch(e)
        k = x.canonical_class
        for a in range(-40, 41):
            for b in range(-60, 61):
                v = L.cohom_line_hirzebruch(e, a, b)
                assert v == fibre_sum_hirzebruch(e, a, b), (e, a, b)
                assert v[0] - v[1] + v[2] == x.riemann_roch_chi((a, b)), (e, a, b)
                assert v == tuple(reversed(L.cohom_line_hirzebruch(e, k[0] - a, k[1] - b))), (e, a, b)


def test_blowup_examples():
    b2 = L.blowup_p2(2)
    assert L.cohom_line_blowup(b2, (0, 1, 0)) == (1, 0, 0)
    assert L.cohom_line_blowup(b2, (1, -1, -1))[0] == 1
    mk = vneg(b2.canonical_class)
    assert L.cohom_line_blowup(b2, mk) == (8, 0, 0)


def test_blowup_linear_conditions_oracle():
    # h^0(O(dL - sum E_i)) = C(d+2,2) - k for general points, d >= 1
    for k in (1, 2, 3, 4):
        x = L.blowup_p2(k)
        for d in (1, 2, 3):
            cls = (d,) + (-1,) * k
            expected = max(0, binom(d + 2, 2) - k)
            assert L.cohom_line_blowup(x, cls)[0] == expected, (k, d)


def test_blowup_agrees_with_hirzebruch_one():
    b1 = L.blowup_p2(1)
    for a in range(-4, 5):
        for b in range(-4, 5):
            # O(ah+bf) on F_1 is O(bL + (a-b)E) on the blow-up
            assert L.cohom_line_hirzebruch(1, a, b) == L.cohom_line_blowup(b1, (b, a - b)), (a, b)


def test_surface_p3_line():
    assert cohom_ci(3, (3,), 2) == (10, 0, 0)
    assert cohom_ci(3, (4,), -1) == (0, 0, cohom_ci(3, (4,), 1)[0])
    # chi agrees with Riemann-Roch
    for d in (2, 3, 4):
        x = L.surface_in_p3(d)
        for t in range(-4, 5):
            v = line_cohom(x, (t,))
            assert v == cohom_ci(3, (d,), t)
            assert v[0] - v[1] + v[2] == x.riemann_roch_chi((t,))


def test_curve_cohomology():
    h0, h1 = L.cohom_line_curve(0, -1)
    assert (h0.lo, h0.hi, h1.lo, h1.hi) == (0, 0, 0, 0)
    h0, h1 = L.cohom_line_curve(1, 0)
    assert (h0.lo, h0.hi) == (0, 1) and (h1.lo, h1.hi) == (0, 1)
    h0, h1 = L.cohom_line_curve(3, 9)
    assert h0.exact and h0.lo == 7 and h1.is_zero
    # degenerate interval for genus zero everywhere
    for d in range(-5, 6):
        h0, h1 = L.cohom_line_curve(0, d)
        assert h0.exact and h1.exact


def test_abelian_line():
    assert L.cohom_line_abelian(1, 0) == (1, 2, 1)
    assert L.cohom_line_abelian(2, 1) == (2, 0, 0)
    assert L.cohom_line_abelian(1, -1) == (0, 0, 1)


def test_hypersurface_section_duality():
    # h^{n-1}(O_D(1-n)) = h^0(O_D(d-2))
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            lhs = cohom_ci(n, (d,), 1 - n)[n - 1]
            rhs = cohom_ci(n, (d,), d - 2)[0]
            assert lhs == rhs, (n, d)


def test_serre_duality_randomized(rng):
    for x in catalog_surfaces():
        for _ in range(40):
            l = random_class(rng, x)
            v = line_cohom(x, l)
            w = line_cohom(x, vsub(x.canonical_class, l))
            assert v == tuple(reversed(w)), (x.kind, l)


def test_chi_consistency_randomized(rng):
    for x in catalog_surfaces():
        for _ in range(40):
            l = random_class(rng, x)
            v = line_cohom(x, l)
            assert v[0] - v[1] + v[2] == x.riemann_roch_chi(l), (x.kind, l)


def test_line_memo_matches_backend_on_blowups():
    """The memoized blow-up backend returns the value of the reduction itself,
    which obeys Riemann-Roch, for every class in a box on Bl_1..Bl_4
    (|coordinates| <= 5 on Bl_1 and Bl_2; the boxes shrink with the lattice
    rank, since Bl_4 at <= 5 has 161,051 classes)."""
    reduction = _cohom_line_blowup.__wrapped__
    for k, bound in ((1, 5), (2, 5), (3, 3), (4, 2)):
        x = L.blowup_p2(k)
        for l in product(range(-bound, bound + 1), repeat=k + 1):
            v = line_cohom(x, l)
            assert v == reduction(x, l), (k, l)
            assert v[0] - v[1] + v[2] == x.riemann_roch_chi(l), (k, l)


def test_line_memo_validates_before_lookup():
    x = L.blowup_p2(2)
    assert line_cohom(x, [1, 0, 0]) == cohom_line_blowup(x, [1, 0, 0]) == line_cohom(x, (1, 0, 0))
    for wrong in [(1, 0), [1, 0, 0, 0]]:  # share leading values with a cached class
        with pytest.raises(InputError):
            line_cohom(x, wrong)
        with pytest.raises(InputError):
            cohom_line_blowup(x, wrong)


def test_blowup_h1_check_is_kept_under_optimize(monkeypatch):
    """h^1 = h^0 + h^2 - chi < 0 means the reduction broke Riemann-Roch: an
    engine error, raised also under python -O."""
    from logacm import linebundles

    monkeypatch.setattr(linebundles, "_h0_blowup", lambda x, l: 0)  # h^1 = -chi, and chi(H) = 3
    with pytest.raises(EngineError):
        _cohom_line_blowup.__wrapped__(L.blowup_p2(1), (1, 0))
    code = """
from logacm import linebundles
from logacm.errors import EngineError
from logacm.catalog import blowup_p2
linebundles._h0_blowup = lambda x, l: 0
try:
    print(linebundles._cohom_line_blowup(blowup_p2(1), (1, 0)))
except EngineError:
    print("raised")
"""
    assert run_optimized(code).split() == ["raised"]
