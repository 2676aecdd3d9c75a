"""Exact cohomology of line bundles on the catalog varieties and on smooth
curves: the ground truth all sequence propagation rests on."""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import EngineError, InputError
from .intervals import Iv, iv
from .varieties import (
    KIND_ABELIAN,
    KIND_BLOWUP,
    KIND_HIRZEBRUCH,
    KIND_PN,
    KIND_QUADRIC,
    KIND_SURFACE_P3,
    VarietyModel,
    vneg,
    vsub,
)


def binom(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def h0_p1(d: int) -> int:
    return max(0, d + 1)


def h1_p1(d: int) -> int:
    return max(0, -d - 1)


@lru_cache(maxsize=None)
def cohom_line_Pn(n: int, t: int) -> tuple[int, ...]:
    if n < 1:
        raise InputError("need n >= 1")
    v = [0] * (n + 1)
    v[0] = binom(n + t, n)
    v[n] = binom(-t - 1, n)
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
    if e < 0:
        raise InputError("need e >= 0")
    if a >= 0:
        h0 = sum(h0_p1(b - i * e) for i in range(a + 1))
        h1 = sum(h1_p1(b - i * e) for i in range(a + 1))
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


def cohom_line_surface_p3(d: int, t: int) -> tuple[int, ...]:
    """O_X(t) for a smooth degree-d surface in P^3 (exact, h^1 always 0)."""
    h0 = binom(t + 3, 3) - binom(t - d + 3, 3)
    s = d - 4 - t
    h2 = binom(s + 3, 3) - binom(s - d + 3, 3)
    return (h0, 0, h2)


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


def cohom_hypersurface_section(n: int, d: int, t: int) -> tuple[int, ...]:
    """O_D(t) for a smooth degree-d hypersurface D in P^n (exact)."""
    v = [0] * n
    v[0] = binom(t + n, n) - binom(t - d + n, n)
    hn = cohom_line_Pn(n, t - d)[n] - cohom_line_Pn(n, t)[n]
    v[n - 1] += hn
    return tuple(v)


def line_cohom(x: VarietyModel, l) -> tuple[int, ...]:
    """Dispatch a line-bundle class to its exact catalog backend."""
    l = x.check_class(l)
    k = x.kind
    if k == KIND_PN:
        return cohom_line_Pn(x.dim, l[0])
    if k == KIND_QUADRIC:
        return cohom_line_quadric(l[0], l[1])
    if k == KIND_HIRZEBRUCH:
        return cohom_line_hirzebruch(x.param, l[0], l[1])
    if k == KIND_BLOWUP:
        return cohom_line_blowup(x, l)
    if k == KIND_SURFACE_P3:
        return cohom_line_surface_p3(x.param, l[0])
    if k == KIND_ABELIAN:
        return cohom_line_abelian(x.param, l[0])
    raise InputError(f"no line-bundle backend for kind {k}")
