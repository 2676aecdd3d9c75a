"""Graded exact-sequence interval solver.

Sheaf expressions form immutable trees whose leaves have exact backends.
Each node is a dataclass, and its fields are its structure: ``Expr.key``
hash-conses the node type and field values (a child by its key) into a
small integer, so every rebuild of the same sheaf shares one cache entry in
every evaluator.  One node, ``SeqE``, holds a short exact sequence with its
unknown term, rank hints, value pins and one per-twist rule that returns
more of both.  The unknown is evaluated from the
long exact sequence at the given twist.  In an exact sequence each term's
dimension is the sum of the ranks of the maps into and out of it, so the
terms A_0, B_0, C_0, A_1, ..., C_amb form a path of ranks r_k (the map out
of term k) with r_{-1} = r_last = 0: each term's interval (a known value,
or the unknown's pins) bounds r_{k-1} + r_k, and each connecting rank
C_i -> A_{i+1} lies in its hint box.  The constraint matrix has
consecutive ones, so it is totally unimodular (Fulkerson and Gross,
Pacific J. Math. 15(3), 1965): every reachable rank set is an integer
interval, and a forward and a backward pass of rank intervals give each
degree's exact min/max over the feasible set.  The cost does not depend on
the rank ranges, and an open end (a Serre-cycle cut, or a rule without an
upper bound such as ``BlowupCotE``) passes through as infinity, so bounded
and half-open sequences take the same pass.  Serre
duality is applied at expression level: a Serre partner is data on the
expression (``serre_pair``), part of its key, and read by every evaluator.
Twists are checked once, where they enter: ``Evaluator.cohom``,
``cm_regularity_certify`` and ``vanishing_window`` check a class against
the lattice, and every twist built inside the evaluator from checked
classes (``vadd``, ``vsub``, ``vscale``) goes to the unchecked step
``Evaluator._cohom``.  An evaluator also keeps the log pairs that
``logbundles.log_pair`` built on it (per-evaluator state, like its cache).
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

Serre partners make evaluation cyclic.  A call that meets a (key, twist)
already being evaluated on its thread contributes no information (a cut),
and each frame keeps a low mark: the lowest depth any cut below it reached,
as in Tarjan's lowlink.  A frame whose mark is not below its own depth is
the root of every cycle it saw, and sees exactly the cuts it would see as
the outermost call, so its value is cached; a frame inside a cycle rooted
further down is not cached, and passes its mark to its parent.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import zip_longest

from .errors import InconsistentHints, InputError, WindowNotFound
from .intervals import (
    Iv,
    add_vecs,
    exact_vec,
    iv,
    iv_meet,
    meet_vecs,
    pad_vec,
    top_vec,
    transpose_vec,
)
from .linebundles import cohom_bott, cohom_ci, cohom_line_curve, line_cohom
from .varieties import VarietyModel, vadd, vneg, vscale, vsub

LEFT, MIDDLE, RIGHT = "left", "middle", "right"

_INF = float("inf")  # an open end of a term interval or rank box

# hash-cons table: structural tuple -> key; a key is never given to two
# structures, so inserts take the lock (check-then-insert on a shared table)
_KEYS: dict[tuple, int] = {}
_KEYS_LOCK = threading.Lock()

# stands for the Serre partner inside its partner's structural tuple
_PARTNER = ("partner",)


def _intern(shape: tuple) -> int:
    k = _KEYS.get(shape)
    if k is None:
        with _KEYS_LOCK:
            k = _KEYS.setdefault(shape, len(_KEYS))
    return k


class Expr:
    """Base class of sheaf expressions: every node is a dataclass whose
    fields are what it was built from, and it is immutable after
    construction except for ``partner``, which ``serre_pair`` sets before the
    first key.  Attributes derived from the fields (``cdim``, and
    ``variety`` on composite nodes) are set in ``__post_init__``.

    The fields are the structure: ``key`` interns the node type and each
    field value, so two nodes with the same fields have the same key.  A
    child enters by its key, the Serre partner by a marker (a pair whose
    sides refer to each other keys without recursion), and a dict by its
    sorted items.  A Serre partner is part of the structure: the two sides
    of a pair are keyed jointly, by (own shape, partner shape), because each
    side's value is met with the other's.
    """

    variety: VarietyModel
    cdim: int  # top cohomological degree of the support
    partner: Expr | None = None  # Serre partner, set once by serre_pair
    _key: int | None = None

    def _shape(self) -> tuple:
        shape = [type(self)]
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, Expr):
                value = self._ref(value)
            elif type(value) is tuple and value and isinstance(value[0], Expr):
                value = tuple(map(self._ref, value))
            elif type(value) is dict:
                value = tuple(sorted(value.items()))
            shape.append(value)
        return tuple(shape)

    def _ref(self, child: Expr):
        return _PARTNER if child is self.partner else child.key()

    def key(self) -> int:
        k = self._key
        if k is None:
            shape, partner = self._shape(), self.partner
            if partner is None:
                k = self._key = _intern(shape)
            else:  # key both sides from the two shapes
                other = partner._shape()
                k = self._key = _intern((serre_pair, shape, other))
                partner._key = _intern((serre_pair, other, shape))
        return k


def serre_pair(a: Expr, b: Expr) -> None:
    """Make a and b Serre-dual partners: h^i(a(t)) = h^{n-i}(b(K - t)).

    Each side may contain the other only as a direct child.  Pairing again
    with the same partner is a no-op; any other re-pairing, or pairing an
    expression already keyed, would change a key in use and is refused.
    """
    if a.partner is b and b.partner is a:
        return
    if a.partner is not None or b.partner is not None or a._key is not None or b._key is not None:
        raise InputError("an expression gets its Serre partner once, before it is keyed")
    a.partner = b
    b.partner = a


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
    deg_h * t (rank-one form)."""

    variety: VarietyModel
    genus: int
    base_deg: int
    klass: tuple | None = None
    deg_h: int | None = None

    def __post_init__(self):
        if self.klass is not None:
            self.klass = self.variety.check_class(self.klass)
        self.cdim = 1

    def degree_at(self, twist) -> int:
        if self.klass is not None:
            return self.base_deg + self.variety.intersect(self.klass, twist)
        return self.base_deg + self.deg_h * twist[0]

    def __repr__(self):
        return f"O_C(g={self.genus},d0={self.base_deg})"


@dataclass(eq=False)
class HyperE(Expr):
    """Structure sheaf of a degree-d hypersurface in P^n, shifted by `shift`."""

    variety: VarietyModel
    d: int
    shift: int = 0

    def __post_init__(self):
        self.cdim = self.variety.dim - 1

    def __repr__(self):
        return f"O_D(deg {self.d};{self.shift:+d})"


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
class BlowupCotE(Expr):
    """Rule-based cotangent leaf on Bl_k P^2 (k <= 4).

    Away from the multiples of -K its rules leave h^0, h^1 and h^2
    unbounded; the catalog cotangent (``cotangent_tangent_pair``) meets it
    with the blow-up sequence, whose terms are all bounded."""

    variety: VarietyModel

    def __post_init__(self):
        self.cdim = 2

    def __repr__(self):
        return f"Omega^1_Bl{self.variety.param}"


@dataclass(frozen=True)
class RankHint:
    twist: tuple
    degree: int
    rank: Iv
    provenance: str


@dataclass(eq=False)
class SeqE(Expr):
    """The unknown term of 0 -> left -> middle -> right -> 0, where exactly
    one of the three terms is None.

    ``amb`` is the top degree of the long exact sequence (by default the
    largest known term's).  ``hints`` bound connecting ranks at given
    twists.  ``pins`` maps a twist class to a per-degree list of Iv
    constraints on the unknown (None = unconstrained); they take part in the
    rank solve, so a pinned slot can force connecting ranks at the same
    twist.  ``rule`` computes both kinds from the twist: a module-level
    function of (variety, twist), so that it is part of the structure by
    identity, returning (pins, ranks): a per-degree list of constraints on
    the unknown and a per-connecting-degree list of rank bounds, each None
    when it has none.
    """

    variety: VarietyModel
    left: Expr | None
    middle: Expr | None
    right: Expr | None
    cdim: int
    name: str = "seq"
    amb: int | None = None
    hints: tuple[RankHint, ...] = ()
    pins: dict | None = None
    rule: Callable | None = None

    def __post_init__(self):
        terms = (self.left, self.middle, self.right)
        if sum(t is None for t in terms) != 1:
            raise InputError("a sequence has exactly one unknown slot")
        self.unknown_slot = (LEFT, MIDDLE, RIGHT)[terms.index(None)]
        if self.amb is None:
            self.amb = max(t.cdim for t in terms if t is not None)
        self.pins = {tuple(tw): tuple(con) for tw, con in (self.pins or {}).items()}
        n = self.amb
        # built once, read by every solve: the unknown vanishes above cdim
        self._support = tuple(iv(0) if i > self.cdim else None for i in range(n + 1))
        self._no_hints = (None,) * n
        self._hints_at: dict[tuple, list[RankHint]] = {}
        for h in self.hints:
            if 0 <= h.degree < n:
                self._hints_at.setdefault(tuple(h.twist), []).append(h)

    def constraints_at(self, twist) -> tuple[tuple, tuple]:
        """(constraint on the unknown for each degree 0..amb, rank bound for
        each connecting degree 0..amb-1) at twist; None = unconstrained."""
        pins, ranks = self.rule(self.variety, twist) if self.rule is not None else (None, None)
        cons, bounds = self._support, self._no_hints
        for given in (self.pins.get(twist), pins):
            if given:
                cons = _meet_each(cons, given)
        for h in self._hints_at.get(twist, ()):
            bounds = _meet_each(bounds, (None,) * h.degree + (h.rank,))
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


def _ends(v: Iv) -> tuple:
    """v as a (lo, hi) pair, with hi = _INF for an open end."""
    return (v.lo, _INF if v.hi is None else v.hi)


class _Frames:
    """One thread's evaluation stack: the depth of each (key, twist) being
    evaluated, and per frame the lowest depth a cycle cut below it reached."""

    __slots__ = ("depth", "low")

    def __init__(self):
        self.depth: dict = {}
        self.low: list[int] = []


class Evaluator:
    """Memoizing evaluator; cache writes are idempotent, reads concurrent-safe.

    Cache keys are (expression key, twist), so the cache is shared by every
    rebuild of a structure.  ``partners`` and ``partner_names`` record the
    Serre pairs registered here, once each; evaluation reads partners from
    the expressions themselves, so every evaluator sees the same duality.
    ``log_pairs`` is ``logbundles.log_pair``'s memo of the pairs built
    here, keyed by (variety, arrangement): per-evaluator state, so a fresh
    evaluator builds its pairs again.  Only ``cohom`` checks its twist; the
    steps inside (``_cohom``) take checked classes.
    """

    def __init__(self):
        self.cache: dict = {}  # idempotent writes; safe to share across threads
        self.partners: dict[int, Expr] = {}  # expression key -> partner
        self.partner_names: list[tuple[str, str]] = []
        self.log_pairs: dict = {}  # (variety, arrangement) -> LogPair
        self._lock = threading.Lock()  # guards the partner record
        self._local = threading.local()

    @property
    def _frames(self) -> _Frames:
        """This thread's table of the (key, twist) pairs being evaluated."""
        try:
            return self._local.frames
        except AttributeError:
            frames = self._local.frames = _Frames()
            return frames

    # -- duality record -----------------------------------------------------

    def register_dual(self, a: Expr, b: Expr):
        """Pair a and b (``serre_pair``) and record the pair here once."""
        serre_pair(a, b)
        with self._lock:
            if a.key() not in self.partners:
                self.partner_names.append((repr(a), repr(b)))
            self.partners[a.key()] = b
            self.partners[b.key()] = a

    def serre_dual_pairs(self) -> list[tuple[str, str]]:
        return list(self.partner_names)

    # -- evaluation ---------------------------------------------------------

    def cohom(self, expr: Expr, twist) -> tuple[Iv, ...]:
        """Dimension intervals of expr twisted by O(twist), degrees 0..cdim."""
        return self._cohom(expr, expr.variety.check_class(twist))

    def _cohom(self, expr: Expr, twist) -> tuple[Iv, ...]:
        """``cohom`` at a twist already checked against the lattice."""
        key = (expr.key(), twist)
        v = self.cache.get(key)
        if v is not None:
            return v
        frames = self._frames
        depth, low = frames.depth, frames.low
        d = depth.get(key)
        if d is not None:
            # Serre-duality cycle: contribute no information here, and mark
            # the asking frame as reaching depth d.  Frames above d hold
            # degraded intervals that a fresh evaluation can sharpen, so they
            # must not be cached; the frame at d is the cycle's root.
            if d < low[-1]:
                low[-1] = d
            return top_vec(expr.cdim + 1)
        d = len(low)
        depth[key] = d
        low.append(d)
        try:
            v = self._raw(expr, twist)
            partner = expr.partner
            if partner is not None:
                k = expr.variety.canonical_class
                w = self._cohom(partner, vsub(k, twist))
                v = meet_vecs(v, transpose_vec(pad_vec(w, expr.cdim + 1)), f"{expr!r}@{twist}")
        finally:
            del depth[key]
            mark = low.pop()
            if mark < d and mark < low[-1]:
                low[-1] = mark  # inside a cycle rooted below: so is the parent
        if mark >= d:
            self.cache[key] = v  # root of every cycle it met: a stable fixpoint
        return v

    def _raw(self, expr: Expr, twist) -> tuple[Iv, ...]:
        if isinstance(expr, LineE):
            return exact_vec(line_cohom(expr.variety, vadd(expr.klass, twist)))
        if isinstance(expr, CurveE):
            h0, h1 = cohom_line_curve(expr.genus, expr.degree_at(twist))
            return (h0, h1)
        if isinstance(expr, HyperE):
            return exact_vec(cohom_ci(expr.variety.dim, (expr.d,), expr.shift + twist[0]))
        if isinstance(expr, BottE):
            return exact_vec(cohom_bott(expr.n, expr.p, expr.shift + twist[0]))
        if isinstance(expr, SumE):
            total = (iv(0),) * (expr.cdim + 1)
            for p in expr.parts:
                total = add_vecs(total, pad_vec(self._cohom(p, twist), expr.cdim + 1))
            return total
        if isinstance(expr, TwistE):
            return self._cohom(expr.inner, vadd(twist, expr.by))
        if isinstance(expr, DualE):
            k = expr.variety.canonical_class
            w = self._cohom(expr.inner, vsub(k, twist))
            return transpose_vec(pad_vec(w, expr.cdim + 1))
        if isinstance(expr, MeetE):
            v = top_vec(expr.cdim + 1)
            for p in expr.parts:
                v = meet_vecs(v, pad_vec(self._cohom(p, twist), expr.cdim + 1), f"{expr!r}@{twist}")
            return v
        if isinstance(expr, BlowupCotE):
            return self._blowup_cotangent(expr.variety, twist)
        if isinstance(expr, SeqE):
            return self._solve(expr, twist)
        raise InputError(f"cannot evaluate {expr!r}")

    def _blowup_cotangent(self, x: VarietyModel, twist) -> tuple[Iv, ...]:
        h0 = self._blowup_cot_h0(x, twist)
        h2 = self._blowup_cot_h0(x, vneg(twist))
        chi = x.chi_cotangent_twist(twist)
        lo = max(0, h0.lo + h2.lo - chi)
        hi = None if h0.hi is None or h2.hi is None else max(lo, h0.hi + h2.hi - chi)
        return (h0, Iv(lo, hi), h2)

    def _blowup_cot_h0(self, x: VarietyModel, t) -> Iv:
        """h^0(Omega^1 (t)) rules on a del Pezzo blow-up."""
        mk = vneg(x.canonical_class)
        if x.is_effective(vneg(t)):
            return iv(0)  # h^0 <= h^0(Omega^1) = q = 0
        if t == mk:
            return iv(x.h0_tangent)  # Omega^1(-K) = TX
        if x.is_effective(vsub(mk, t)):
            return Iv(0, x.h0_tangent)  # Omega^1(t) embeds in TX after an effective twist
        return Iv(0, None)

    # -- the long-exact-sequence solve --------------------------------------

    def _solve(self, node: SeqE, twist) -> tuple[Iv, ...]:
        n = node.amb
        seq = (node.left, node.middle, node.right)
        known = [None if t is None else pad_vec(self._cohom(t, twist), n + 1) for t in seq]
        cons, hints = node.constraints_at(twist)
        apply = self._apply_relation
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

    @staticmethod
    def _apply_relation(a, b, c, con):
        """The intervals of the terms A_i, B_i, C_i of the long exact
        sequence at one degree, as (lo, hi) pairs with hi = _INF for an open
        end.  a, b and c are the known terms' values and None for the
        unknown, whose interval is its constraint ``con``, or [0, _INF)
        without one."""
        free = (0, _INF) if con is None else _ends(con)
        return tuple(free if v is None else _ends(v) for v in (a, b, c))

    # Nothing calls this: every solve takes the one pass above.  The
    # benchmark's tracer (bench/tracing.py) wraps it by name, so it stays
    # until the benchmark revision of ROADMAP item 7 deletes it.
    _solve_coarse = None


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
    return _is_regular(expr, r, hh, ev or _DEFAULT)


def _is_regular(expr: Expr, r: int, h, ev: Evaluator) -> bool:
    """``cm_regularity_certify`` for a checked H already certified very
    ample."""
    n = expr.variety.dim
    for i in range(1, n + 1):
        v = pad_vec(ev._cohom(expr, vscale(r - i, h)), n + 1)
        if not v[i].is_zero:
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


def _top_degree_start(shifted: Expr, big, cap: int, ev: Evaluator) -> int:
    """Where the regularity scan of `shifted` along B = `big` starts: -cap,
    or above every r the top-degree lemma rules out.

    h^n(F(sB)) is non-increasing in s, so once h^n is certified nonzero at
    sB, every r <= s + n fails the degree-n condition of
    ``cm_regularity_certify``.  The probe walks s = -1, -2, ..., -cap and
    stops at the first such s.  The lemma is about degree n of a sheaf on
    X, so the probe runs only when cdim == dim.  The start may exceed cap,
    and then the scan is empty."""
    n = shifted.variety.dim
    if shifted.cdim == n:
        for s in range(-1, -cap - 1, -1):
            if pad_vec(ev._cohom(shifted, vscale(s, big)), n + 1)[n].lo > 0:
                return max(-cap, s + n + 1)
    return -cap


def _one_sided_regularity(expr: Expr, h, cap: int, nu: int, ev: Evaluator) -> dict[int, int]:
    """Thresholds U_i with h^i(expr(tH)) = 0 for t >= U_i, via nu residue
    classes when only nu*H is very ample; H is checked and nu comes from
    the caller's ``very_ample_multiple``, so no scan step checks H again.

    Each class scans r upward from ``_top_degree_start``, which skips only
    r that the top-degree lemma shows cannot be regular; the first certified
    r is the one a scan from -cap would find."""
    n = expr.variety.dim
    big = vscale(nu, h)
    thresholds = {i: None for i in range(1, n + 1)}
    for t0 in range(nu):
        shifted = TwistE(expr, vscale(t0, h)) if t0 else expr
        found = None
        for r in range(_top_degree_start(shifted, big, cap, ev), cap + 1):
            if _is_regular(shifted, r, big, ev):
                found = r
                break
        if found is None:
            raise WindowNotFound(cap, f"{expr!r} residue class {t0}")
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
    """
    ev = ev or _DEFAULT
    x = expr.variety
    hh = x.check_class(h)
    nu = x.very_ample_multiple(hh)
    n = x.dim
    upper = _one_sided_regularity(expr, hh, cap, nu, ev)
    dual = expr.inner if isinstance(expr, DualE) else DualE(expr)  # E^vv = E
    dual_side = TwistE(dual, x.canonical_class)
    lower_raw = _one_sided_regularity(dual_side, hh, cap, nu, ev)
    return WindowCert(
        {i: upper[i] for i in range(1, n)},
        {i: -lower_raw[n - i] for i in range(1, n)},
        [
            f"upper tail: h^i vanishes for t >= r-i, thresholds {upper}",
            f"lower tail via Serre transform, thresholds {lower_raw}",
        ],
    )
