"""Cotangent and log-sheaf expressions for every catalog variety.

Builds the residue sequence of an arrangement, gives each sequence its rule
of known facts (Hodge numbers and tangent-section counts on F_e, section
counts on the del Pezzo blow-ups, the Jacobian-ring rank on surfaces in
P^3, the coboundary span rank) and installs the split-bundle upgrades for
hyperplane arrangements on P^n and ruling arrangements on the quadric, and
on F_e the relative log-tangent sequence of a ruling for fibres and
disjoint sections (``ruling_log_tangent``).  Each model is met with the
residue sequence: both are sound, so the meet only narrows intervals (a
conflict raises), and no decided verdict changes.
T_X(-log D) is the dual of Omega^1_X(log D) for an SNC divisor (Esnault and
Viehweg, *Lectures on Vanishing Theorems*, 1992, Section 2), so the
log-tangent side is a ``DualE`` of the residue side and one solve serves
both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod

from .errors import InputError, NotRulingArrangement
from .exactseq import (
    BottE,
    CurveE,
    DualE,
    Evaluator,
    Expr,
    HyperE,
    LineE,
    MeetE,
    SeqE,
    SumE,
    ToricOmegaE,
    TwistE,
    default_evaluator,
)
from .intervals import Iv, iv
from .linebundles import binom, cohom_ci, koszul_count, line_cohom
from .varieties import (
    KIND_HIRZEBRUCH,
    KIND_PN,
    KIND_QUADRIC,
    Arrangement,
    VarietyModel,
    vneg,
    vscale,
    vsub,
)


@lru_cache(maxsize=None)
def cotangent_tangent_pair(x: VarietyModel) -> tuple[Expr, Expr]:
    """(Omega^1_X, TX) expressions, built once per variety by its kind's
    record (``catalog``)."""
    if x.record is None:
        raise InputError(f"no cotangent model for kind {x.kind}")
    return x.record.cotangent_tangent(x)


def serre_met_pair(model: Expr, bott: bool = False) -> tuple[Expr, Expr]:
    """(Omega^1, TX) on a surface from a model of Omega^1, met with its
    Serre-dual reading: TX = Omega^1(-K) is the dual of Omega^1, so
    h^i(Omega^1(t)) = h^{2-i}(TX(K - t)) = h^{2-i}(Omega^1(-t)).

    With ``bott`` (the surface is smooth projective toric: F_e, Bl_k P^2
    for k <= 3) Omega^1 is in closed form wherever the twist L or -L is
    ample, by Bott-Steenbrink-Danilov vanishing (``ToricOmegaE``), and TX
    wherever L - K or K - L is; the met model runs at every other twist."""
    mk = vneg(model.variety.canonical_class)
    tangent = TwistE(model, mk)
    if not any(tangent.by):  # F_e's model is T(K): its -K twist is T itself
        tangent = tangent.inner
    cot = MeetE([model, DualE(tangent)])
    if bott:
        cot = ToricOmegaE(cot)
    return cot, TwistE(cot, mk)


def ruling_log_tangent(x: VarietyModel, fibre, sections=(), k: int = 0, name: str = "ruling log tangent", rule=None) -> SeqE:
    """T_X(-log D) on F_e for D = k fibres of a ruling pi (fibre class
    ``fibre``) plus pairwise disjoint sections of the classes ``sections``:
    0 -> T_{X/P^1}(-sum s_j) = O(-K - 2f - sum s_j) -> T_X(-log D) ->
    pi^*T_{P^1}(-sum p_i) = O((2 - k)f) -> 0.  Where a section meets a fibre,
    d(pi) maps u d/du onto T_{P^1}(-p) with kernel v d/dv, the vertical
    fields vanishing on the section.  D = 0 gives TX itself."""
    left = vsub(vneg(x.canonical_class), vscale(2, fibre))
    for s in sections:
        left = vsub(left, s)
    return SeqE(x, LineE(x, left), None, LineE(x, vscale(2 - k, fibre)), 2, name=name, rule=rule)


def _fe_tangent_rule(x: VarietyModel, tw):
    """Known values of T_{F_e}(tw); the rule of the tangent extension.

    At tw = 0, h^0 is the tangent-section count; at tw = K, T(K) = Omega^1
    has the Hodge numbers h^{1,0}, h^{1,1}, h^{1,2}.  On F_1, sections of
    Omega^1 along pullbacks of O_{P^2}(s) are bounded below by the Bott
    count (s-1)(s+1); those twists are neither 0 nor K."""
    if tw == x.canonical_class:
        return [iv(0), iv(x.h11), iv(x.q)], None
    if not any(tw):
        return [iv(x.h0_tangent), None, None], None
    if x.param == 1:
        rel = vsub(tw, x.canonical_class)  # tangent at tw is cotangent at tw - K
        if rel[0] == rel[1] and rel[0] >= 2:
            s = rel[0]
            return [Iv(s * s - 1, None), None, None], None
    return None, None


def _blowup_cotangent_rule(x: VarietyModel, tw):
    """Section counts of Omega^1(tw) on a del Pezzo blow-up Bl_k P^2 (k <= 4);
    the rule of the blow-up sequence.  h^2(Omega^1(t)) = h^0(Omega^1(-t)) by
    Serre duality (TX(K) = Omega^1), and h^1 follows from chi."""
    h0 = _del_pezzo_sections(x, tw)
    h2 = _del_pezzo_sections(x, vneg(tw))
    chi = x.chi_cotangent_twist(tw)
    lo = max(0, h0.lo + h2.lo - chi)
    hi = None if h0.hi is None or h2.hi is None else max(lo, h0.hi + h2.hi - chi)
    return [h0, Iv(lo, hi), h2], None


def _del_pezzo_sections(x: VarietyModel, t) -> Iv:
    """h^0(Omega^1(t)) on a del Pezzo blow-up."""
    mk = vneg(x.canonical_class)
    if x.is_effective(vneg(t)):
        return iv(0)  # h^0 <= h^0(Omega^1) = q = 0
    if t == mk:
        return iv(x.h0_tangent)  # Omega^1(-K) = TX
    if x.is_effective(vsub(mk, t)):
        return Iv(0, x.h0_tangent)  # Omega^1(t) embeds in TX after an effective twist
    return Iv(0, None)


def _jacobian_rank(x: VarietyModel, tw):
    """The top connecting rank rho_1 of the conormal sequence
    0 -> O_X(t - d) -> Omega_P3|_X(t) -> Omega^1_X(t) -> 0 of a smooth
    degree-d surface X = V(f) in P^3; a rule of that sequence.

    By Serre duality rho_1 is the corank of H^0(T_P3|_X(s)) -> H^0(O_X(d + s))
    with s = d - 4 - t, and that cokernel is the degree-(d + s) part of the
    Jacobian ring R = S/(df) (Griffiths, "On the periods of certain rational
    integrals", Ann. of Math. 90, 1969).  The four partials of f form a
    regular sequence of degree d - 1, so R has the Koszul count."""
    d = x.param
    return None, [None, iv(koszul_count(3, (d - 1,) * 4, 2 * d - 4 - tw[0]))]


def _surface_p3_cotangent(x: VarietyModel) -> Expr:
    """Omega^1 via the ambient restriction and conormal sequences, with the
    Jacobian ring fixing the conormal sequence's top connecting rank."""
    d = x.param
    restricted = SeqE(x, BottE(x, 1, shift=-d, n=3), BottE(x, 1, n=3), None, 2, name=f"Omega_P3|X{d}", amb=3)
    return SeqE(x, LineE(x, (-d,)), restricted, None, 2, name=f"conormal X{d}", amb=2, rule=_jacobian_rank)


SIDES = ("cot", "tan")  # Omega^1_X(log D), T_X(-log D)


def check_side(side: str) -> str:
    if side not in SIDES:
        raise InputError(f"side must be one of {SIDES}, not {side!r}")
    return side


@dataclass(frozen=True)
class LogPair:
    variety: VarietyModel
    arrangement: Arrangement
    cotangent_log: Expr
    tangent_log: Expr
    notes: tuple  # shared by every caller of the evaluator's memo

    def for_side(self, side: str) -> Expr:
        return self.cotangent_log if check_side(side) == "cot" else self.tangent_log


def structure_leaves(x: VarietyModel, arr: Arrangement, ev: Evaluator) -> list[Expr]:
    """The O_{D_i}, the residue sequence's right term.

    Each leaf is built once per evaluator, kept in ``ev.cache`` under
    ("leaf", x, component), so arrangements that share a component share its
    leaf and the leaf's cache entries."""
    cache = ev.cache
    leaves = []
    for c in arr.components:
        key = ("leaf", x, c)
        leaf = cache.get(key)
        if leaf is None:
            leaf = cache[key] = _leaf(x, c)
        leaves.append(leaf)
    return leaves


def _leaf(x: VarietyModel, c) -> Expr:
    if x.kind == KIND_PN:
        return HyperE(x, c.klass[0])
    return CurveE(x, c.genus, 0, klass=c.klass, deg_h=c.deg_h, structure=True)


def is_hyperplane_arrangement(x: VarietyModel, arr: Arrangement) -> bool:
    return x.kind == KIND_PN and arr.size > 0 and all(c.klass == (1,) for c in arr.components)


def ruling_counts(x: VarietyModel, arr: Arrangement) -> tuple[int, int] | None:
    two_rulings = x.kind == KIND_QUADRIC or (x.kind == KIND_HIRZEBRUCH and x.param == 0)
    if not two_rulings:
        return None
    a = sum(1 for c in arr.components if c.klass == (1, 0))
    b = sum(1 for c in arr.components if c.klass == (0, 1))
    if a + b != arr.size:
        return None
    return a, b


def ruling_fit(x: VarietyModel, arr: Arrangement) -> tuple | None:
    """(fibre class, section classes, fibre count) for the first ruling of F_e
    (either one on F_0) whose fibres and pairwise disjoint sections make up D,
    or None.  A curve C with C.f = 1 maps isomorphically onto P^1: a section."""
    if x.kind != KIND_HIRZEBRUCH:
        return None
    for fibre in ((0, 1), (1, 0))[: 2 if x.param == 0 else 1]:
        sections = [c.klass for c in arr.components if c.klass != fibre]
        if all(x._intersect(s, fibre) == 1 for s in sections):
            if not any(x._intersect(a, b) for a, b in combinations(sections, 2)):
                return fibre, tuple(sections), arr.size - len(sections)
    return None


def _ruling_split(x: VarietyModel, a: int, b: int) -> Expr:
    if a < 0 or b < 0 or a + b < 1:
        raise NotRulingArrangement("need a, b >= 0 with a+b >= 1 ruling lines")
    return SumE([LineE(x, (a - 2, 0)), LineE(x, (0, b - 2))])


def dk_split_model(x: VarietyModel, m: int) -> Expr:
    """Omega^1(log H) for m <= n+1 hyperplanes with normal crossings."""
    n = x.dim
    parts = [LineE(x, (0,))] * (m - 1) + [LineE(x, (-1,))] * (n - m + 1)
    return SumE(parts)


def steiner_model(x: VarietyModel, m: int) -> Expr:
    """Omega^1(log H) for m >= n+2 generic hyperplanes, as the cokernel of
    the Steiner matrix O(-1)^(m-n-1) -> O^(m-1)."""
    n = x.dim
    left, middle = SumE([LineE(x, (-1,))] * (m - n - 1)), SumE([LineE(x, (0,))] * (m - 1))
    return SeqE(x, left, middle, None, n, name=f"steiner m={m}")


def repeated_rigid_class(x: VarietyModel, classes) -> tuple | None:
    """(class, copies) for the first class listed more than once although it
    has a single section, hence a unique divisor; None if there is none."""
    for klass, copies in Counter(classes).items():
        if copies > 1 and line_cohom(x, klass)[0] < 2:
            return klass, copies
    return None


def log_pair(x: VarietyModel, arr: Arrangement, ev: Evaluator | None = None) -> LogPair:
    """The residue sequence model of Omega^1(log D) and its dual view
    T(-log D), for (X, D).

    Built once per evaluator: ``ev.cache`` keeps each pair built under
    ("log_pair", x, arr), and a later call returns it, until the cache is
    cleared.  Every call registers the Omega^1/T pair on ``ev`` (a no-op
    once recorded), so a cleared partner record is filled again as a fresh
    build would fill it.  An invalid arrangement raises on every call and
    leaves nothing in the cache."""
    ev = ev or default_evaluator()
    cot, tan = cotangent_tangent_pair(x)
    key = ("log_pair", x, arr)
    pair = ev.cache.get(key)
    if pair is None:
        pair = ev.cache.setdefault(key, _build_log_pair(x, arr, cot, tan, ev))
    ev.register_dual(cot, tan)  # the Omega^1/T pair, on the caller's evaluator
    return pair


def _build_log_pair(x: VarietyModel, arr: Arrangement, cot: Expr, tan: Expr, ev: Evaluator) -> LogPair:
    notes = []
    if not arr.snc:
        raise InputError("arrangement must assert simple normal crossings")
    for c in arr.components:
        if c.klass is not None and not x.is_effective(c.klass):
            raise InputError(f"component class {c.klass} is not effective")
        if c.genus < 0:
            raise InputError("component genus must be nonnegative")

    rigid = repeated_rigid_class(x, [c.klass for c in arr.components if c.klass is not None])
    if rigid is not None:
        raise InputError(f"class {rigid[0]} is rigid; {rigid[1]} distinct members impossible")

    n = x.dim
    if arr.size == 0:
        return LogPair(x, arr, cot, tan, ("trivial arrangement: log sheaf is Omega^1",))

    if arr.span_asserted:
        span_hint = iv(arr.span_rank)
    else:
        span_hint = Iv(1, min(arr.size, x.h11))  # span not pinned by the input
        notes.append("span rank not asserted: coboundary rank left as an interval")
    zero = (0,) * x.lattice_rank

    def span_rule(_x, tw):  # the coboundary at twist 0 spans the component classes
        return (None, (span_hint,)) if tw == zero else (None, None)

    right = SumE(structure_leaves(x, arr, ev))
    cot_log: Expr = SeqE(x, cot, None, right, n, name="residue", rule=span_rule)

    if is_hyperplane_arrangement(x, arr):
        m = arr.size
        model = dk_split_model(x, m) if m <= n + 1 else steiner_model(x, m)
        notes.append("hyperplane arrangement: split/Steiner model installed")
        cot_log = MeetE([model, cot_log])
    fit = ruling_fit(x, arr)
    if fit is not None:  # a conflict between the two models raises InconsistentHints
        cot_log = MeetE([cot_log, DualE(ruling_log_tangent(x, *fit))])
    rc = ruling_counts(x, arr)
    if rc is not None:
        notes.append(f"quadric ruling arrangement ({rc[0]},{rc[1]}): split model installed")
        cot_log = MeetE([_ruling_split(x, *rc), cot_log])

    return LogPair(x, arr, cot_log, DualE(cot_log), tuple(notes))


# -- fixed numeric ledger chains ---------------------------------------------


@dataclass
class LedgerReport:
    name: str
    values: tuple
    contradiction: bool
    lines: list


# contradiction chains on a complete intersection X in P^N: (N, defining degrees)
_CI_LEDGERS = {"cubic_surface": (3, (3,)), "dp4": (4, (2, 2))}


def _ci_ledger(name: str, N: int, degrees: tuple) -> LedgerReport:
    """h^0(TX(1)) from the restricted Euler and normal bundle sequences
    against chi(TX(1)) through an elliptic curve section C."""

    def h0(t):
        return cohom_ci(N, degrees, t)[0]

    h_amb = (N + 1) * h0(2) - h0(1)  # restricted Euler sequence
    normal = Counter(degrees)  # the normal bundle is the sum of the O_X(d)
    h_sections = h_amb - sum(c * h0(d + 1) for d, c in normal.items())
    quotient = " - ".join((f"{c}*" if c > 1 else "") + str(h0(d + 1)) for d, c in normal.items())
    chi_route = (N + 3 - sum(degrees)) * prod(degrees)  # deg det(TX(1)) on C, as -K = (N + 1 - sum d)H
    lines = [
        f"h^0(TP^{N}(1)|_X) = {N + 1}*{h0(2)} - {h0(1)} = {h_amb}",
        f"h^0(TX(1)) = {h_amb} - {quotient} = {h_sections}",
        f"chi(TX(1)) = chi(TX) + deg TX(1)|_C = 0 + {chi_route}",
    ]
    return LedgerReport(name, (h_amb, h_sections, chi_route), h_sections != chi_route, lines)


def ledger_checks(name: str, n: int | None = None, d: int | None = None) -> LedgerReport:
    """Recompute the fixed contradiction/reduction chains from line-bundle
    primitives and restriction sequences."""
    if name in _CI_LEDGERS:
        return _ci_ledger(name, *_CI_LEDGERS[name])
    if name == "thm_pn_reduction":
        if n is None or d is None:
            raise InputError("thm_pn_reduction needs n and d")
        lhs = cohom_ci(n, (), 1 - n - d)[n] - cohom_ci(n, (), 1 - n)[n]  # h^{n-1}(O_D(1-n))
        rhs = binom(n + d - 2, n) - binom(n - 2, n)  # h^0(O_D(d-2))
        lines = [f"h^(n-1)(O_D(1-n)) = {lhs}", f"h^0(O_D(d-2)) = {rhs}"]
        if lhs != rhs:
            raise InputError("duality cross-check failed")
        return LedgerReport(name, (lhs, rhs), lhs > 0, lines)
    raise InputError(f"unknown ledger chain {name!r}")
