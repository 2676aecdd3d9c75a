"""Graded exact-sequence interval solver.

Sheaf expressions are immutable nodes whose leaves have exact backends.
One node, ``SeqE``, holds a short exact sequence with its unknown term and
one per-twist rule: the facts known at a twist, as value pins on the
unknown and bounds on connecting ranks.  The unknown is evaluated from the
long exact sequence at the given twist.  In an exact sequence each term's
dimension is the sum of the ranks of the maps into and out of it, so the
terms A_0, B_0, C_0, A_1, ..., C_amb form a path of ranks r_k (the map out
of term k) with r_{-1} = r_last = 0: each term's interval (a known value,
or the unknown's pins) bounds r_{k-1} + r_k, and each connecting rank
C_i -> A_{i+1} lies in its rank bound.  The constraint matrix has
consecutive ones, so it is totally unimodular (Fulkerson and Gross,
Pacific J. Math. 15(3), 1965): every reachable rank set is an integer
interval, and a forward and a backward pass of rank intervals give each
degree's exact min/max over the feasible set.  The cost does not depend on
the rank ranges, and an open end (which in the engine comes only from a
rule pin with no upper bound, and in the tests from open leaves) passes
through as infinity, so bounded and half-open sequences take the same pass.
A ``MeetE`` of agreeing models is their common vector, with no meet taken,
and models that conflict raise ``InconsistentHints``.
Serre duality is an expression, ``DualE``, like any other.
``ToricOmegaE`` is Omega^1 of a smooth projective toric surface: at an
ample L, h^p(Omega^1(L)) = 0 for p > 0 (Bott-Steenbrink-Danilov vanishing;
Cox, Little and Schenck, *Toric Varieties*, 2011, Thm 9.3.2), so
Omega^1(L) = (chi(Omega^1(L)), 0, 0), and Serre duality ((Omega^1)^v
tensor K = Omega^1) gives (0, 0, chi) at an anti-ample L; at every other
twist it evaluates the model it wraps.  A node refers only to nodes built
before it, so expressions form a DAG: no evaluation asks for an
(expression, twist) it is still computing, and every value is cached when
it is first computed.
Twists are checked once, where they enter: ``Evaluator.cohom``,
``cm_regularity_certify`` and ``vanishing_window`` check a class against
the lattice, and every twist built inside the evaluator from checked
classes (``vadd``, ``vsub``, ``vscale``) goes to the unchecked step
``Evaluator._cohom``.  An evaluator's ``cache`` is its session: every
result it can reuse, from a cohomology vector to a verdict, is kept there
keyed by what it was computed from (``Evaluator``), so clearing it makes
the session cold.
Vanishing outside finite twist windows is certified via
Castelnuovo-Mumford regularity (Mumford, *Lectures on Curves on an
Algebraic Surface*, Lecture 14), by an upward scan over r for the first
r-regular twist.  The scan skips the r that the top-degree lemma rules
out.  For a coherent F on a smooth projective X of dimension n and an
effective B, Serre duality gives h^n(F(sB)) = dim Hom(F, omega(-sB)), and
a nonzero section of O(B) embeds that space into the one at s - 1.  So
h^n(F(sB)) is non-increasing in s.  Once h^n is certified nonzero at sB,
h^n is positive at every twist below, and no r <= s + n is regular.  A
sound engine never reports an exact 0 where the true value is positive.
So the scan that starts above s + n finds the same first r as a scan from
-cap.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import zip_longest

from .errors import InconsistentHints, InputError, WindowNotFound
from .intervals import (
    TOP,
    ZERO,
    Iv,
    exact_vec,
    iv,
    iv_meet,
    meet_vecs,
    pad_vec,
    sum_vecs,
    transpose_vec,
)
from .linebundles import cohom_bott, cohom_ci, cohom_line_curve, line_cohom
from .varieties import VarietyModel, vadd, vneg, vscale, vsub

LEFT, MIDDLE, RIGHT = "left", "middle", "right"

_INF = float("inf")  # an open end of a term interval or rank box


class Expr:
    """Base class of sheaf expressions: every node is a dataclass whose
    fields are what it was built from, and it is immutable after
    construction.  Attributes derived from the fields (``cdim``, and
    ``variety`` on composite nodes) are set in ``__post_init__``.

    Nodes compare and hash by identity (``eq=False``), so a node is its own
    cache key: a rebuilt node is a new key, and builders that reuse nodes
    memoize them.
    """

    variety: VarietyModel
    cdim: int  # top cohomological degree of the support


@dataclass(eq=False)
class LineE(Expr):
    variety: VarietyModel
    klass: tuple

    def __post_init__(self):
        self.klass = self.variety.check_class(self.klass)
        self.cdim = self.variety.dim

    def __repr__(self):
        return f"O{self.klass}"


@dataclass(eq=False)
class CurveE(Expr):
    """Pushforward of a line bundle from a smooth curve on a surface.

    Degree at twist T is base_deg + D.T (lattice form) or base_deg +
    deg_h * t (rank-one form).  ``structure`` marks O_C itself: at twist 0
    it reads h = (1, genus) exactly, not a degree-0 interval."""

    variety: VarietyModel
    genus: int
    base_deg: int
    klass: tuple | None = None
    deg_h: int | None = None
    structure: bool = False

    def __post_init__(self):
        if self.klass is not None:
            self.klass = self.variety.check_class(self.klass)
        self.cdim = 1

    def degree_at(self, twist) -> int:
        """The degree at a twist already checked against the lattice."""
        if self.klass is not None:
            return self.base_deg + self.variety._intersect(self.klass, twist)
        return self.base_deg + self.deg_h * twist[0]

    def __repr__(self):
        return f"O_C(g={self.genus},d0={self.base_deg})"


@dataclass(eq=False)
class HyperE(Expr):
    """Structure sheaf of a degree-d hypersurface in P^n."""

    variety: VarietyModel
    d: int

    def __post_init__(self):
        self.cdim = self.variety.dim - 1

    def __repr__(self):
        return f"O_D(deg {self.d})"


@dataclass(eq=False)
class BottE(Expr):
    """Omega^p on P^n, twisted by `shift`; n defaults to the variety's
    dimension.

    A larger `n` lets a rank-one surface chain drive P^3 sheaves by its
    integer twist (ambient restriction sequences)."""

    variety: VarietyModel
    p: int
    shift: int = 0
    n: int | None = None

    def __post_init__(self):
        if self.n is None:
            self.n = self.variety.dim
        self.cdim = self.n

    def __repr__(self):
        return f"Omega^{self.p}_P{self.n}({self.shift:+d})"


@dataclass(eq=False)
class SumE(Expr):
    parts: tuple

    def __post_init__(self):
        self.parts = tuple(self.parts)
        if not self.parts:
            raise InputError("empty sum")
        self.variety = self.parts[0].variety
        self.cdim = max(p.cdim for p in self.parts)

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.parts)) + ")"


@dataclass(eq=False)
class TwistE(Expr):
    inner: Expr
    by: tuple

    def __post_init__(self):
        by = self.inner.variety.check_class(self.by)
        if isinstance(self.inner, TwistE):  # normalize nested twists
            by = vadd(by, self.inner.by)
            self.inner = self.inner.inner
        self.by = by
        self.variety = self.inner.variety
        self.cdim = self.inner.cdim

    def __repr__(self):
        return f"{self.inner!r}({self.by})"


@dataclass(eq=False)
class DualE(Expr):
    inner: Expr

    def __post_init__(self):
        if isinstance(self.inner, DualE):
            raise InputError("normalize Dual(Dual(E)) to E before wrapping")
        self.variety = self.inner.variety
        self.cdim = self.inner.cdim

    def __repr__(self):
        return f"({self.inner!r})^v"


@dataclass(eq=False)
class MeetE(Expr):
    """Several certified models of the same sheaf; evaluation intersects."""

    parts: tuple

    def __post_init__(self):
        self.parts = tuple(self.parts)
        self.variety = self.parts[0].variety
        self.cdim = self.parts[0].cdim

    def __repr__(self):
        return " == ".join(map(repr, self.parts))


@dataclass(eq=False)
class ToricOmegaE(Expr):
    """Omega^1 of a smooth projective toric surface: in closed form where the
    twist or its negative is ample (``VarietyModel.is_ample``, Kleiman's
    test on the Mori generators; module docstring), and the model's value
    at every other twist.  It prints as its model."""

    model: Expr

    def __post_init__(self):
        self.variety = self.model.variety
        self.cdim = self.model.cdim

    def __repr__(self):
        return repr(self.model)


@dataclass(eq=False)
class SeqE(Expr):
    """The unknown term of 0 -> left -> middle -> right -> 0, where exactly
    one of the three terms is None.

    ``amb`` is the top degree of the long exact sequence (by default the
    largest known term's).  ``rule`` holds what else is known: a callable
    of (variety, twist) returning (pins, ranks), a per-degree list of Iv
    constraints on the unknown and a per-connecting-degree list of rank
    bounds, each None (or an entry None) where nothing is known.  Both take
    part in the rank solve, so a pinned slot can force connecting ranks at
    the same twist.
    """

    variety: VarietyModel
    left: Expr | None
    middle: Expr | None
    right: Expr | None
    cdim: int
    name: str = "seq"
    amb: int | None = None
    rule: Callable | None = None

    def __post_init__(self):
        terms = (self.left, self.middle, self.right)
        if sum(t is None for t in terms) != 1:
            raise InputError("a sequence has exactly one unknown slot")
        self.unknown_slot = (LEFT, MIDDLE, RIGHT)[terms.index(None)]
        if self.amb is None:
            self.amb = max(t.cdim for t in terms if t is not None)
        n = self.amb
        # built once, read by every solve: the unknown vanishes above cdim
        self._support = tuple(iv(0) if i > self.cdim else None for i in range(n + 1))
        self._no_ranks = (None,) * n
        # the unknown's terms among A_0, B_0, C_0, A_1, ..., C_n (``_solve``)
        self._out = range(terms.index(None), 3 * (n + 1), 3)[: self.cdim + 1]

    def constraints_at(self, twist) -> tuple[tuple, tuple]:
        """(constraint on the unknown for each degree 0..amb, rank bound for
        each connecting degree 0..amb-1) at twist; None = unconstrained."""
        cons, bounds = self._support, self._no_ranks
        if self.rule is not None:
            pins, ranks = self.rule(self.variety, twist)
            if pins:
                cons = _meet_each(cons, pins)
            if ranks:
                bounds = _meet_each(bounds, ranks)
        return cons, bounds

    def __repr__(self):
        return f"{self.name}[{self.unknown_slot}]"


def _meet_each(cons: tuple, given) -> tuple:
    """cons met entry by entry with the constraints in given (None =
    unconstrained); entries of given past the end of cons are dropped."""
    return tuple(
        c if g is None else (g if c is None else iv_meet(c, g)) for c, g in zip_longest(cons, given[: len(cons)])
    )


def _meet(a: tuple, b: tuple, expr: Expr, twist) -> tuple:
    """``meet_vecs`` of two models of expr at twist; expr and twist are
    named in the message of an empty meet, and formatted only then."""
    try:
        return meet_vecs(a, b)
    except InconsistentHints as exc:
        raise InconsistentHints(f"{exc} at {expr!r}@{twist}") from None


class Evaluator:
    """Memoizing evaluator, for one thread: its cache and partner record
    are plain attributes, so each thread takes its own evaluator.

    ``cache`` is the session memo, and the only one: every result the
    evaluator can reuse is kept there, keyed by what it was computed from,
    so ``cache.clear()`` makes the session cold.  Expressions are keys by
    identity, so a rebuilt node is a new entry.  A key is
    (expression, twist) for a cohomology vector; every other key is a
    tuple that starts with a tag string, so it cannot collide with one:

    * ("log_pair", variety, arrangement): ``logbundles.log_pair``'s pair;
    * ("leaf", variety, component): a component's leaf of
      ``logbundles.structure_leaves``, shared by every arrangement on it;
    * ("orbits", variety): ``classify._orbit_rep``'s simple reflections,
      orbit memo and kept representatives;
    * ("candidates", variety, class_bound, m_bound): ``classify.search``'s
      (combo, arrangement) pairs, kept once a search on them has returned;
    * ("verdict", variety, H, arrangement, side, cap) and ("deficiency",
      variety, H, arrangement, side, cap): snapshots of the verdicts of
      ``classify._classify`` and ``deficiency_concentrated_at_zero``.

    ``partners`` maps each side of an Omega^1/T pair that ``log_pair``
    applied here to the other side, and ``partner_names`` lists each pair
    once.  They are a record only: evaluation never reads them, since the
    duality is in the expressions (``DualE``).  Only ``cohom`` checks its
    twist; the steps inside (``_cohom``) take checked classes.
    """

    def __init__(self):
        self.cache: dict = {}  # the session memo: keys in the class docstring
        self.partners: dict[Expr, Expr] = {}  # expression -> partner
        self.partner_names: list[tuple[str, str]] = []

    # -- duality record -----------------------------------------------------

    def register_dual(self, a: Expr, b: Expr):
        """Record a and b as a Serre-dual pair here, once."""
        if a not in self.partners:
            self.partner_names.append((repr(a), repr(b)))
        self.partners[a] = b
        self.partners[b] = a

    def serre_dual_pairs(self) -> list[tuple[str, str]]:
        return list(self.partner_names)

    # -- evaluation ---------------------------------------------------------

    def cohom(self, expr: Expr, twist) -> tuple[Iv, ...]:
        """Dimension intervals of expr twisted by O(twist), degrees 0..cdim."""
        return self._cohom(expr, expr.variety.check_class(twist))

    def _cohom(self, expr: Expr, twist) -> tuple[Iv, ...]:
        """``cohom`` at a twist already checked against the lattice, cached
        when first computed (expressions form a DAG: module docstring)."""
        key = (expr, twist)
        v = self.cache.get(key)
        if v is None:
            v = self.cache[key] = self._raw(expr, twist)
        return v

    def _raw(self, expr: Expr, twist) -> tuple[Iv, ...]:
        rule = _RAW.get(type(expr))
        if rule is None:
            raise InputError(f"cannot evaluate {expr!r}")
        return rule(self, expr, twist)

    # -- the long-exact-sequence solve --------------------------------------

    def _solve(self, node: SeqE, twist) -> tuple[Iv, ...]:
        n = node.amb
        # the known terms' values, read by index; a degree past the end is an exact zero
        a, b, c = [None if t is None else self._cohom(t, twist) for t in (node.left, node.middle, node.right)]
        la, lb, lc = len(a or ()), len(b or ()), len(c or ())
        cons, hints = node.constraints_at(twist)
        apply = self._apply_relation
        # the terms A_0, B_0, C_0, A_1, ..., C_n of the long exact sequence,
        # as flat lists of their ends (his[k] = _INF for an open end); term k
        # has dimension r_{k-1} + r_k, r_k the rank of the map out of it,
        # with r_{-1} = r_last = 0, so the constraints form a path
        los, his = [], []
        for i in range(n + 1):
            for v in apply(
                a and (a[i] if i < la else ZERO),
                b and (b[i] if i < lb else ZERO),
                c and (c[i] if i < lc else ZERO),
                cons[i],
            ):
                los.append(v.lo)
                his.append(_INF if v.hi is None else v.hi)
        m = len(los)
        blo, bhi = [0] * m, [_INF] * m  # the box of each rank r_k
        bhi[-1] = 0
        for i, h in enumerate(hints):
            if h is not None:  # the connecting rank C_i -> A_{i+1}
                blo[3 * i + 2], bhi[3 * i + 2] = h.lo, _INF if h.hi is None else h.hi

        # A forward pass keeps the r_k consistent with terms 0..k, a backward
        # pass narrows them to those consistent with every term; each such
        # set is an integer interval (module docstring).
        rlo, rhi = [0] * m, [0] * m  # the reachable interval of each r_k
        xlo = xhi = 0
        for k in range(m):
            lo, hi = los[k] - xhi, his[k] - xlo
            if lo < blo[k]:
                lo = blo[k]
            if hi > bhi[k]:
                hi = bhi[k]
            if lo > hi:
                raise InconsistentHints(f"{node.name}@{twist}: no admissible rank assignment")
            rlo[k] = xlo = lo
            rhi[k] = xhi = hi
        for k in range(m - 1, 0, -1):
            lo, hi = los[k] - xhi, his[k] - xlo  # (xlo, xhi): r_k's interval
            xlo, xhi = rlo[k - 1], rhi[k - 1]
            if lo > xlo:
                rlo[k - 1] = xlo = lo
            if hi < xhi:
                rhi[k - 1] = xhi = hi

        # the unknown at degree i: its interval met with the sums of a
        # reachable rank into it and a reachable rank out of it
        out = []
        for k in node._out:
            lo, hi = los[k], his[k]
            if k:
                xlo, xhi = rlo[k - 1], rhi[k - 1]
            else:
                xlo = xhi = 0
            if xlo + rlo[k] > lo:
                lo = xlo + rlo[k]
            if xhi + rhi[k] < hi:
                hi = xhi + rhi[k]
            out.append(Iv(lo, None) if hi == _INF else iv(lo, hi))
        return tuple(out)

    @staticmethod
    def _apply_relation(a, b, c, con):
        """The intervals of the terms A_i, B_i, C_i of the long exact
        sequence at one degree.  a, b and c are the known terms' values and
        None for the unknown, whose interval is its constraint ``con``, or
        [0, ?) without one."""
        free = TOP if con is None else con
        return (free if a is None else a, free if b is None else b, free if c is None else c)

    # Nothing calls this: every solve takes the one pass above.  The
    # benchmark's tracer (bench/tracing.py) wraps it by name, so it stays
    # until the benchmark revision of ROADMAP item 7 deletes it.
    _solve_coarse = None


def _curve(ev: Evaluator, expr: CurveE, twist) -> tuple[Iv, ...]:
    if expr.structure and not any(twist):
        return iv(1), iv(expr.genus)
    return cohom_line_curve(expr.genus, expr.degree_at(twist))


def _sum(ev: Evaluator, expr: SumE, twist) -> tuple[Iv, ...]:
    return sum_vecs([ev._cohom(p, twist) for p in expr.parts], expr.cdim + 1)


def _meet_parts(ev: Evaluator, expr: MeetE, twist) -> tuple[Iv, ...]:
    n = expr.cdim + 1
    v = pad_vec(ev._cohom(expr.parts[0], twist), n)
    for p in expr.parts[1:]:
        w = pad_vec(ev._cohom(p, twist), n)
        if w != v:
            v = _meet(v, w, expr, twist)
    return v


def _toric_omega(ev: Evaluator, expr: ToricOmegaE, twist) -> tuple[Iv, ...]:
    x = expr.variety
    if x.is_ample(twist):
        return iv(x.chi_cotangent_twist(twist)), ZERO, ZERO
    if x.is_ample(vneg(twist)):
        return ZERO, ZERO, iv(x.chi_cotangent_twist(twist))
    return ev._cohom(expr.model, twist)


# node type -> rule of (evaluator, node, twist); a rule reads the evaluator's
# steps at call time, so a replaced ``_cohom`` or ``_solve`` is the one it
# calls
_RAW = {
    LineE: lambda ev, e, t: tuple(map(iv, line_cohom(e.variety, vadd(e.klass, t)))),
    CurveE: _curve,
    HyperE: lambda ev, e, t: exact_vec(cohom_ci(e.variety.dim, (e.d,), t[0])),
    BottE: lambda ev, e, t: exact_vec(cohom_bott(e.n, e.p, e.shift + t[0])),
    SumE: _sum,
    TwistE: lambda ev, e, t: ev._cohom(e.inner, vadd(t, e.by)),
    DualE: lambda ev, e, t: transpose_vec(
        pad_vec(ev._cohom(e.inner, vsub(e.variety.canonical_class, t)), e.cdim + 1)
    ),
    MeetE: _meet_parts,
    ToricOmegaE: _toric_omega,
    SeqE: lambda ev, e, t: ev._solve(e, t),
}

_DEFAULT = Evaluator()


def default_evaluator() -> Evaluator:
    return _DEFAULT


def cohom(expr: Expr, twist) -> tuple[Iv, ...]:
    return _DEFAULT.cohom(expr, twist)


def serre_dual_pairs() -> list[tuple[str, str]]:
    return _DEFAULT.serre_dual_pairs()


# -- Castelnuovo-Mumford regularity and vanishing windows --------------------


def cm_regularity_certify(expr: Expr, r: int, h, ev: Evaluator | None = None) -> bool:
    """True iff h^i(expr((r-i)H)) = 0 exactly for all i = 1..dim.

    H must pass the catalog very-ampleness rule; r-regularity then implies
    h^i(expr(t)) = 0 for all t >= r - i by the regularity lemma.
    """
    hh = expr.variety.check_class(h)
    expr.variety.very_ample_multiple(hh)  # raises NotVeryAmple
    return _is_regular(expr, False, 0, 1, r, hh, ev or _DEFAULT)


def _slot(ev: Evaluator, expr: Expr, dual: bool, t: int, h, i: int) -> Iv:
    """h^i at twist tH of expr, or with ``dual`` of its Serre transform
    E^v tensor omega, without building the transform: (E^v tensor
    omega)(s) has h^i = h^{c-i}(E(-s)), c = cdim, as ``DualE`` reads it.
    A degree outside the value is an exact zero."""
    if dual:
        v = ev._cohom(expr, vscale(-t, h))
        i = expr.cdim - i
    else:
        v = ev._cohom(expr, vscale(t, h))
    return v[i] if 0 <= i < len(v) else ZERO


def _is_regular(expr: Expr, dual: bool, t0: int, nu: int, r: int, h, ev: Evaluator) -> bool:
    """``cm_regularity_certify`` along B = nu*H of the sheaf ``_slot``
    reads, twisted by t0*H, for a checked H with B certified very ample:
    h^i vanishes at (t0 + nu(r - i))H for i = 1..dim."""
    for i in range(1, expr.variety.dim + 1):
        if not _slot(ev, expr, dual, t0 + nu * (r - i), h, i).is_zero:
            return False
    return True


@dataclass
class WindowCert:
    """Certified vanishing bounds per cohomological degree along H-twists."""

    upper_from: dict[int, int]  # h^i(E(t)) = 0 for all t >= upper_from[i]
    lower_upto: dict[int, int]  # h^i(E(t)) = 0 for all t <= lower_upto[i]
    certificates: list[str] = field(default_factory=list)

    def residual(self, i: int) -> range:
        return range(self.lower_upto[i] + 1, self.upper_from[i])


def _top_degree_start(expr: Expr, dual: bool, t0: int, nu: int, h, cap: int, ev: Evaluator) -> int:
    """Where the regularity scan along B = nu*H of the sheaf ``_slot``
    reads, twisted by t0*H, starts: -cap, or above every r the top-degree
    lemma rules out.

    h^n(F(sB)) is non-increasing in s, so once h^n is certified nonzero at
    sB, every r <= s + n fails the degree-n condition of
    ``cm_regularity_certify``.  The probe walks s = -1, -2, ..., -cap and
    stops at the first such s.  The lemma is about degree n of a sheaf on
    X, so the probe runs only when cdim == dim.  The start may exceed cap,
    and then the scan is empty."""
    n = expr.variety.dim
    if expr.cdim == n:
        for s in range(-1, -cap - 1, -1):
            if _slot(ev, expr, dual, t0 + nu * s, h, n).lo > 0:
                return max(-cap, s + n + 1)
    return -cap


def _one_sided_regularity(expr: Expr, dual: bool, h, cap: int, nu: int, ev: Evaluator) -> dict[int, int]:
    """Thresholds U_i with h^i(F(tH)) = 0 for t >= U_i, F = expr or with
    ``dual`` its Serre transform, via nu residue classes when only nu*H is
    very ample; H is checked and nu comes from the caller's
    ``very_ample_multiple``, so no scan step checks H again.

    Each class scans r upward from ``_top_degree_start``, which skips only
    r that the top-degree lemma shows cannot be regular; the first certified
    r is the one a scan from -cap would find."""
    n = expr.variety.dim
    thresholds = {i: None for i in range(1, n + 1)}
    for t0 in range(nu):
        found = None
        for r in range(_top_degree_start(expr, dual, t0, nu, h, cap, ev), cap + 1):
            if _is_regular(expr, dual, t0, nu, r, h, ev):
                found = r
                break
        if found is None:
            side = expr
            if dual:  # named as the Serre transform's expression prints
                side = TwistE(expr.inner if isinstance(expr, DualE) else DualE(expr), expr.variety.canonical_class)
            raise WindowNotFound(cap, f"{side!r} residue class {t0}")
        for i in range(1, n + 1):
            bound = t0 + nu * (found - i)
            if thresholds[i] is None or bound > thresholds[i]:
                thresholds[i] = bound
    return thresholds


def vanishing_window(expr: Expr, h, cap: int = 8, ev: Evaluator | None = None) -> WindowCert:
    """Two-sided certified window for the intermediate degrees 1..dim-1.

    The upper tail comes from regularity of expr itself, the lower tail from
    regularity of its Serre transform Dual(expr) tensor omega, transported
    through h^i(E(t)) = h^{n-i}((E^v tensor omega)(-t)).  Each side's scan
    starts above the twists where h^n is certified nonzero (top-degree
    lemma, module docstring); the thresholds are those of a scan from -cap.
    Both sides read the values of expr itself (``_slot``).  It raises
    ``NotVeryAmple`` before any scan, and a failing upper tail's
    ``WindowNotFound`` before the lower tail is scanned.
    """
    ev = ev or _DEFAULT
    x = expr.variety
    n = x.dim
    hh = x.check_class(h)
    nu = x.very_ample_multiple(hh)
    upper = _one_sided_regularity(expr, False, hh, cap, nu, ev)
    lower = _one_sided_regularity(expr, True, hh, cap, nu, ev)
    above = f"upper tail: h^i vanishes for t >= r-i, thresholds {upper}"
    below = f"lower tail via Serre transform, thresholds {lower}"
    return WindowCert({i: upper[i] for i in range(1, n)}, {i: -lower[n - i] for i in range(1, n)}, [above, below])
