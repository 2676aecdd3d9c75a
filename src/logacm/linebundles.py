"""Exact cohomology of line bundles on the catalog varieties and on smooth
curves: the ground truth all sequence propagation rests on."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import EngineError, InputError
from .intervals import Iv, iv
from .varieties import KIND_BLOWUP, VarietyModel, vneg, vsub


def binom(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def h0_p1(d: int) -> int:
    return max(0, d + 1)


def h1_p1(d: int) -> int:
    return max(0, -d - 1)


def koszul_count(N: int, degrees: tuple, t: int) -> int:
    """dim (S/I)_t for I generated by a regular sequence of forms of the
    given degrees in the N + 1 variables of P^N: the Koszul resolution gives
    sum over subsets S of (-1)^|S| C(t - d_S + N, N)."""
    faces = (s for r in range(len(degrees) + 1) for s in combinations(degrees, r))
    return sum((-1) ** len(s) * binom(t - sum(s) + N, N) for s in faces)


@lru_cache(maxsize=None)
def cohom_ci(N: int, degrees: tuple, t: int) -> tuple[int, ...]:
    """O_X(t) on a smooth complete intersection X of the given degrees in
    P^N, of dimension n = N - len(degrees) >= 1 (P^N itself for no degrees).

    X is aCM, so h^0 is the Koszul count of its coordinate ring, h^n is h^0
    at K - t by Serre duality (omega_X = O_X(K), K = sum d - N - 1), and
    every degree in between is 0."""
    n = N - len(degrees)
    if n < 1:
        raise InputError("need n >= 1")
    v = [0] * (n + 1)
    v[0] = koszul_count(N, degrees, t)
    v[n] = koszul_count(N, degrees, sum(degrees) - N - 1 - t)
    return tuple(v)


@lru_cache(maxsize=None)
def cohom_bott(n: int, p: int, t: int) -> tuple[int, ...]:
    """h^q(Omega^p_{P^n}(t)) by Bott's formula."""
    if not 0 <= p <= n:
        raise InputError("need 0 <= p <= n")
    v = [0] * (n + 1)
    if t > p:
        v[0] = binom(t + n - p, t) * binom(t - 1, p)
    elif t == 0:
        v[p] = 1
    elif t < p - n:
        v[n] = binom(-t + p, -t) * binom(-t - 1, n - p)
    return tuple(v)


def cohom_line_quadric(a: int, b: int) -> tuple[int, ...]:
    h0 = h0_p1(a) * h0_p1(b)
    h1 = h0_p1(a) * h1_p1(b) + h1_p1(a) * h0_p1(b)
    h2 = h1_p1(a) * h1_p1(b)
    return (h0, h1, h2)


def cohom_line_hirzebruch(e: int, a: int, b: int) -> tuple[int, ...]:
    """O(a h + b f) on F_e, h the negative section and f a fibre.

    For a >= 0 the pushforward to P^1 splits as the sum of O(b - i e) over
    i = 0..a (Hartshorne V.2.3, III Ex. 8.4), so h^0 and h^1 are two
    arithmetic series in closed form; a <= -2 is Serre duality onto that
    branch."""
    if e < 0:
        raise InputError("need e >= 0")
    if a >= 0:
        if e == 0:
            return ((a + 1) * h0_p1(b), (a + 1) * h1_p1(b), 0)
        # h^0: the terms b - ie + 1 over i = 0..n-1, n = min(a, b // e) + 1
        n = min(a, b // e) + 1 if b >= 0 else 0
        h0 = n * (b + 1) - e * n * (n - 1) // 2
        # h^1: the terms ie - b - 1 over i = lo..a, all positive
        lo = max(0, (b + 1) // e + 1)
        m = max(0, a - lo + 1)
        h1 = e * m * (lo + a) // 2 - m * (b + 1)
        return (h0, h1, 0)
    if a == -1:
        return (0, 0, 0)
    # Serre duality against K = -2h - (e+2)f
    da, db = -2 - a, -(e + 2) - b
    dual = cohom_line_hirzebruch(e, da, db)
    return tuple(reversed(dual))


def cohom_line_blowup(x: VarietyModel, l) -> tuple[int, ...]:
    """Exact cohomology on Bl_k P^2, k <= 4 general points.

    h^0 by Zariski-style reduction against the finite negative-curve list,
    h^2 by Serre duality, h^1 from chi.  Memoized per (variety, class): the
    reduction is the one backend that costs more than a memo entry.  The
    class is validated, and made a hashable tuple, before the memo is read.
    """
    if x.kind != KIND_BLOWUP:
        raise InputError("cohom_line_blowup needs a BlowupP2 catalog entry")
    return _cohom_line_blowup(x, x.check_class(l))


@lru_cache(maxsize=None)
def _cohom_line_blowup(x: VarietyModel, l) -> tuple[int, ...]:
    h0 = _h0_blowup(x, l)
    h2 = _h0_blowup(x, vsub(x.canonical_class, l))
    h1 = h0 + h2 - x.riemann_roch_chi(l)
    if h1 < 0:
        raise EngineError(f"blow-up cohomology broke Riemann-Roch at {l}")
    return (h0, h1, h2)


def _h0_blowup(x: VarietyModel, l) -> int:
    mk = vneg(x.canonical_class)
    while True:
        if all(c == 0 for c in l):
            return 1
        if x.intersect(l, mk) <= 0:
            return 0
        viol = next((c for c in x.negative_curves if x.intersect(l, c) < 0), None)
        if viol is None:
            break
        l = vsub(l, viol)  # C in the base locus: h^0 unchanged
    if all(x.intersect(l, c) >= 0 for c in x.mori_generators):
        return x.riemann_roch_chi(l)  # nef on a del Pezzo: h^1 = h^2 = 0
    return 0  # negative against a moving extremal class


def cohom_line_abelian(d: int, t: int) -> tuple[int, ...]:
    if d < 1:
        raise InputError("need d >= 1")
    if t > 0:
        return (d * t * t, 0, 0)
    if t == 0:
        return (1, 2, 1)
    return (0, 0, d * t * t)


def cohom_line_curve(g: int, deg: int) -> tuple[Iv, Iv]:
    """Line bundle of degree deg on a smooth genus-g curve.

    Exact outside the special range; Clifford intervals for
    0 <= deg <= 2g-2 with g >= 1, where the bundle itself is undetermined.
    """
    if g < 0:
        raise InputError("need g >= 0")
    chi = deg + 1 - g
    if g == 0 or deg < 0 or deg > 2 * g - 2:
        h0 = max(0, chi) if deg >= 0 or g == 0 else 0
        if deg < 0:
            h0 = 0
        h1 = h0 - chi
        return (iv(h0), iv(h1))
    lo = max(0, chi)
    hi = deg // 2 + 1
    return (Iv(lo, hi), Iv(lo - chi, hi - chi))


def line_cohom(x: VarietyModel, l) -> tuple[int, ...]:
    """h^i(O(L)) from the exact line-bundle backend of x's kind
    (``catalog``)."""
    l = x.check_class(l)
    if x.record is None:
        raise InputError(f"no line-bundle backend for kind {x.kind}")
    return x.record.line(x, l)
