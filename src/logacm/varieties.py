"""Variety models, Picard-lattice arithmetic and numeric invariants.

Divisor classes are plain integer tuples in the variety's fixed lattice
basis; all arithmetic is exact.  The catalog's constructors and what each
kind means to the engine are in ``catalog``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import add, attrgetter, mul, neg, sub
from typing import TYPE_CHECKING

from .errors import InputError, NotAmple, NotVeryAmple

if TYPE_CHECKING:
    from .catalog import Kind

Cls = tuple[int, ...]


def cls(*coords) -> Cls:
    if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
        coords = tuple(coords[0])
    return tuple(map(int, coords))


def vadd(x: Cls, y: Cls) -> Cls:
    return tuple(map(add, x, y))


def vsub(x: Cls, y: Cls) -> Cls:
    return tuple(map(sub, x, y))


def vneg(x: Cls) -> Cls:
    return tuple(map(neg, x))


def vscale(t: int, x: Cls) -> Cls:
    return tuple([t * a for a in x])


def is_zero_cls(x: Cls) -> bool:
    return all(a == 0 for a in x)


def matrix_rank(rows) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination: after k pivots
    every entry below them is a (k+1)-minor of the input, so each division
    by the previous pivot is exact."""
    m = [list(map(int, row)) for row in rows]
    rank, prev = 0, 1
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
        rank += 1
    return rank


def _compared_fields(cls):
    """Keep on a frozen dataclass the getter of its compared fields, named
    once per class; a model, component or arrangement keeps the hash of
    their tuple from construction (valid within one process: string hashes
    are seeded)."""
    cls._compared = attrgetter(*(f.name for f in fields(cls) if f.compare))
    return cls


def _kept_hash(obj) -> int:
    return obj._hash


KIND_PN = "projective_space"
KIND_QUADRIC = "quadric"
KIND_HIRZEBRUCH = "hirzebruch"
KIND_BLOWUP = "blowup_p2"
KIND_SURFACE_P3 = "surface_p3"
KIND_ABELIAN = "abelian"


@_compared_fields
@dataclass(frozen=True)
class VarietyModel:
    kind: str
    dim: int
    lattice_rank: int
    intersection_matrix: tuple[tuple[int, ...], ...]
    canonical_class: Cls
    chi_structure_sheaf: int
    c2: int
    q: int
    h11: int
    h0_tangent: int
    negative_curves: tuple[Cls, ...] = ()
    mori_generators: tuple[Cls, ...] = ()
    # kind parameters: n for P^n, e for F_e, k for Bl_k P^2, degree for
    # surfaces in P^3, half the polarization square for abelian surfaces
    param: int = 0
    # the catalog record of the kind, set by its constructor; a hand-built
    # model has none, so the engine has no backend for it
    record: Kind | None = field(default=None, compare=False, repr=False)
    # (i, j, m_ij) for the nonzero entries of the intersection matrix, and
    # the row M g of each Mori generator g (so L.g is a dot product); derived,
    # so they take no part in equality, hashing or repr
    _pairing: tuple[tuple[int, int, int], ...] = field(init=False, compare=False, repr=False)
    _mori_rows: tuple[Cls, ...] = field(init=False, compare=False, repr=False)
    __hash__ = _kept_hash

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._compared(self)))
        m = self.intersection_matrix
        pairing = tuple((i, j, v) for i, row in enumerate(m) for j, v in enumerate(row) if v)
        object.__setattr__(self, "_pairing", pairing)
        rows = tuple(tuple(sum(a * b for a, b in zip(row, g)) for row in m) for g in self.mori_generators)
        object.__setattr__(self, "_mori_rows", rows)
        if self.dim == 2:
            if len(m) != self.lattice_rank or any(len(r) != self.lattice_rank for r in m):
                raise InputError("intersection matrix shape mismatch")
            for i in range(self.lattice_rank):
                for j in range(self.lattice_rank):
                    if m[i][j] != m[j][i]:
                        raise InputError("intersection matrix not symmetric")
            if 12 * self.chi_structure_sheaf != self.intersect(self.canonical_class, self.canonical_class) + self.c2:
                raise InputError("Noether identity fails for catalog entry")

    # -- lattice arithmetic -------------------------------------------------

    def check_class(self, x) -> Cls:
        if type(x) is tuple:  # a tuple of ints is already a class
            for v in x:
                if type(v) is not int:
                    x = cls(x)
                    break
        else:
            x = cls(x)
        if len(x) != self.lattice_rank:
            raise InputError(f"class {x} has length {len(x)}, lattice rank is {self.lattice_rank}")
        return x

    def intersect(self, x: Cls, y: Cls) -> int:
        return self._intersect(self.check_class(x), self.check_class(y))

    def _intersect(self, x: Cls, y: Cls) -> int:
        """``intersect`` of two classes already checked against the lattice."""
        if self.dim != 2:
            raise InputError(f"intersection pairing is defined for surfaces, not in dimension {self.dim}")
        return sum(x[i] * v * y[j] for i, j, v in self._pairing)

    def adjunction_genus(self, d: Cls) -> int:
        d = self.check_class(d)
        num = self._intersect(d, d) + self._intersect(self.canonical_class, d)
        if num % 2 != 0:
            raise InputError(f"class {d} has odd D.(D+K); not a curve class on this lattice")
        return num // 2 + 1

    def riemann_roch_chi(self, l: Cls) -> int:
        if self.dim != 2:
            raise InputError("surface Riemann-Roch only")
        num = self.intersect(l, vsub(l, self.canonical_class))
        if num % 2 != 0:
            raise InputError(f"L.(L-K) is odd for L = {l}: the canonical class does not fit this lattice")
        return self.chi_structure_sheaf + num // 2

    def chi_tangent(self) -> int:
        k2 = self.intersect(self.canonical_class, self.canonical_class)
        return k2 + 2 * self.chi_structure_sheaf - self.c2

    def chi_cotangent_twist(self, l: Cls) -> int:
        """chi(Omega^1 tensor O(L)) = 2 chi(O) - c2 + L^2 on a surface."""
        return 2 * self.chi_structure_sheaf - self.c2 + self.intersect(l, l)

    # -- positivity ---------------------------------------------------------

    def is_ample(self, l) -> bool:
        """Kleiman's criterion: L.g > 0 for every generator g of the cone of
        curves.  On P^n, n >= 3, g is a line and the matrix (1) gives
        L.g = deg L."""
        l = self.check_class(l)
        return all(sum(map(mul, l, row)) > 0 for row in self._mori_rows)

    def check_ample(self, l) -> Cls:
        """l as a checked class, or raise NotAmple."""
        l = self.check_class(l)
        if not self.is_ample(l):
            raise NotAmple(f"{l} is not ample on {self.kind}")
        return l

    def very_ample_multiple(self, l) -> int:
        """Smallest nu with nu*L very ample under the catalog rule, or raise.

        An ample class is very ample on every catalog kind but two: on a
        blow-up the rule certifies only the positive multiples of -K (-K is
        very ample on these del Pezzo surfaces, k <= 4), and on an abelian
        surface only tH with t >= 3 (Lefschetz), so nu = 3 below."""
        l = self.check_class(l)
        if self.kind == KIND_BLOWUP:
            mk = vneg(self.canonical_class)
            t = l[0] // mk[0]  # -K = 3H - E_1 - ... - E_k
            certified = t >= 1 and l == vscale(t, mk)
        else:
            certified = self.is_ample(l)
        if not certified:
            raise NotVeryAmple(f"{self.kind}: {l} is not certified very ample by the catalog rule")
        return 3 if self.kind == KIND_ABELIAN and l[0] < 3 else 1

    def is_effective(self, l) -> bool:
        from .linebundles import line_cohom

        l = self.check_class(l)
        return line_cohom(self, l)[0] > 0

    def is_subcanonical(self, h) -> int | None:
        """Return e with K = e*H if the canonical class is a multiple of H."""
        h = self.check_class(h)
        k = self.canonical_class
        if is_zero_cls(k):
            return 0
        j = next((j for j, b in enumerate(h) if b), None)
        if j is None:
            return None
        e = k[j] // h[j]  # K = e*H is checked below, at j too
        return e if all(a == e * b for a, b in zip(k, h)) else None


# -- arrangements -----------------------------------------------------------


@_compared_fields
@dataclass(frozen=True)
class Component:
    """One smooth irreducible member of an arrangement.

    Either a full lattice class is given, or (for rank-one polarization
    lattices with unmodelled Picard groups) a polarization degree plus
    genus, from which the self-intersection follows by adjunction.
    """

    klass: Cls | None
    genus: int
    rational: bool
    deg_h: int | None = None
    self_int: int | None = None
    __hash__ = _kept_hash

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._compared(self)))

    def degree_along(self, x: VarietyModel, twist: Cls) -> int:
        """D.twist on the surface x, for a twist already checked against
        its lattice."""
        if self.klass is not None:
            return x._intersect(self.klass, twist)
        return self.deg_h * twist[0]

    def normal_degree(self, x: VarietyModel) -> int:
        if self.klass is not None:
            return x._intersect(self.klass, self.klass)
        return self.self_int


@_compared_fields
@dataclass(frozen=True)
class Arrangement:
    components: tuple[Component, ...]
    span_rank: int
    snc: bool = True
    span_asserted: bool = True  # False: span_rank is a default, not data
    __hash__ = _kept_hash

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._compared(self)))

    @property
    def size(self) -> int:
        return len(self.components)


def component_from_class(x: VarietyModel, klass) -> Component:
    klass = x.check_class(klass)
    if is_zero_cls(klass):
        raise InputError(f"component class {klass} is zero: an empty divisor is not a component")
    if x.dim > 2:
        if klass[0] < 1:
            raise InputError("hypersurface components have positive degree")
        return Component(klass, 0, True)  # genus is a surface notion
    g = x.adjunction_genus(klass)
    if g < 0:
        raise InputError(f"class {klass} has negative adjunction genus; not an irreducible curve")
    return Component(klass, g, g == 0)


def component_from_degree(x: VarietyModel, deg_h: int, genus: int) -> Component:
    if x.lattice_rank != 1:
        raise InputError("degree/genus components require a rank-one polarization lattice")
    if x.kind == KIND_PN:
        raise InputError("a component on P^n is given by its class, not by degree and genus")
    if deg_h <= 0 or genus < 0:
        raise InputError("component degree must be positive, genus nonnegative")
    kd = x.canonical_class[0] * deg_h
    self_int = 2 * genus - 2 - kd
    return Component(None, genus, genus == 0, deg_h, self_int)


def arrangement(x: VarietyModel, components, span_rank: int | None = None, snc: bool = True) -> Arrangement:
    comps = tuple(components)
    asserted = True
    if all(c.klass is not None for c in comps):
        # the classes determine the span, so an asserted one must agree
        span = matrix_rank([list(c.klass) for c in comps]) if comps else 0
        if span_rank is not None and span_rank != span:
            raise InputError(f"span_rank {span_rank} contradicts the component classes, which span rank {span}")
        span_rank = span
    elif span_rank is None:
        # degree/genus components do not determine their span; record a
        # safe default and remember that it was not asserted
        span_rank = min(1, len(comps))
        asserted = False
    if span_rank > min(len(comps), x.h11) and comps:
        raise InputError(f"span_rank {span_rank} exceeds min(m={len(comps)}, h11={x.h11})")
    if comps and span_rank < 1:
        raise InputError("nonempty arrangement spans at least one class")
    return Arrangement(comps, span_rank, snc, span_asserted=asserted)


def hyperplane_arrangement(x: VarietyModel, m: int) -> Arrangement:
    """m hyperplanes in general position on P^n."""
    if x.kind != KIND_PN:
        raise InputError("hyperplane arrangements live on P^n")
    if m < 0:
        raise InputError(f"the number of hyperplanes m must be non-negative, got m = {m}")
    return arrangement(x, [component_from_class(x, (1,))] * m)


def rational_classes_on_Fe(e: int, bound: int) -> list[Cls]:
    """Effective, irreducible-admissible classes a*h+b*f with 0<=a,b<=bound
    whose smooth members are rational: (a-1)(a*e-2b+2) = 0."""
    if e < 0 or bound < 0:
        raise InputError("need e >= 0 and bound >= 0")
    out = []
    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            if (a, b) == (0, 0):
                continue
            if a == 0:
                admissible = b == 1  # the fiber
            elif (a, b) == (1, 0):
                admissible = True  # the section h
            else:
                admissible = b >= a * e and (e > 0 or min(a, b) >= 1)
            if not admissible:
                continue
            if (a - 1) * (a * e - 2 * b + 2) == 0:
                out.append((a, b))
    return out
