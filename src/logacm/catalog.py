"""The variety catalog: one record per kind.

A ``Kind`` holds what the engine needs to know of one kind of catalog
variety: its constructor and the problem-document key of the constructor's
parameter, its exact line-bundle backend, its (Omega^1, TX) expressions and
the classes ``search`` draws components from.  Each constructor is
``lru_cache``d, so every caller shares one model per parameter, and each
model carries its kind's record (``VarietyModel.record``): ``line_cohom``,
``cotangent_tangent_pair``, ``search`` and the command line call through
it.  A model's ``kind`` is its record's ``name``.

The Omega^1 models: the split and Bott models are exact, and TP^n is the
dual of Omega^1; a surface whose Omega^1 model is a sequence meets it with
its Serre-dual reading (``serre_met_pair``).  On the smooth projective
toric surfaces among them, F_e and Bl_k P^2 for k <= 3, Omega^1 is in
closed form at every ample and anti-ample twist (Bott-Steenbrink-Danilov
vanishing, ``exactseq.ToricOmegaE``), and the met model runs only at the
other twists, 0 among them, where the rules pin the Hodge numbers.  Bl_4
is not toric and keeps its model at every twist.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import InputError, NonGeneralConfig
from .exactseq import BottE, CurveE, DualE, Expr, LineE, SeqE, SumE, TwistE
from .linebundles import cohom_ci, cohom_line_abelian, cohom_line_blowup, cohom_line_hirzebruch, cohom_line_quadric
from .logbundles import _blowup_cotangent_rule, _fe_tangent_rule, _surface_p3_cotangent, ruling_log_tangent, serre_met_pair
from .varieties import (
    KIND_ABELIAN,
    KIND_BLOWUP,
    KIND_HIRZEBRUCH,
    KIND_PN,
    KIND_QUADRIC,
    KIND_SURFACE_P3,
    Cls,
    VarietyModel,
    cls,
    rational_classes_on_Fe,
)


@dataclass(frozen=True)
class Kind:
    """What one catalog kind means to the engine (module docstring)."""

    name: str
    make: Callable[..., VarietyModel]
    key: str | None  # the document key of make's integer parameter; None: make takes none
    line: Callable[[VarietyModel, Cls], tuple[int, ...]]  # h^i(O(L)), L a checked class
    cotangent_tangent: Callable[[VarietyModel], tuple[Expr, Expr]]
    candidates: Callable[[VarietyModel, int], list] | None = None  # search's classes, given a class bound


@lru_cache(maxsize=None)
def projective_space(n: int) -> VarietyModel:
    if n < 2:
        raise InputError("catalog starts at P^2")
    if n == 2:
        return VarietyModel(KIND_PN, 2, 1, ((1,),), (-3,), 1, 3, 0, 1, 8, (), ((1,),), 2, record=PROJECTIVE_SPACE)
    return VarietyModel(KIND_PN, n, 1, ((1,),), (-(n + 1),), 1, 0, 0, 1, (n + 1) ** 2 - 1, (), ((1,),), n, record=PROJECTIVE_SPACE)


def _pn_pair(x: VarietyModel) -> tuple[Expr, Expr]:
    cot = BottE(x, 1)
    return cot, DualE(cot)


PROJECTIVE_SPACE = Kind(
    KIND_PN, projective_space, "n", lambda x, l: cohom_ci(x.dim, (), l[0]), _pn_pair, lambda x, bound: [(1,)]
)


@lru_cache(maxsize=None)
def quadric_surface() -> VarietyModel:
    m = ((0, 1), (1, 0))
    return VarietyModel(KIND_QUADRIC, 2, 2, m, (-2, -2), 1, 4, 0, 2, 6, (), ((1, 0), (0, 1)), 0, record=QUADRIC)


def _quadric_pair(x: VarietyModel) -> tuple[Expr, Expr]:
    return SumE([LineE(x, (-2, 0)), LineE(x, (0, -2))]), SumE([LineE(x, (2, 0)), LineE(x, (0, 2))])


QUADRIC = Kind(
    KIND_QUADRIC, quadric_surface, None, lambda x, l: cohom_line_quadric(*l), _quadric_pair, lambda x, bound: [(1, 0), (0, 1)]
)


@lru_cache(maxsize=None)
def hirzebruch(e: int) -> VarietyModel:
    if e < 0:
        raise InputError("Hirzebruch parameter must be >= 0")
    m = ((-e, 1), (1, 0))
    h0t = 6 if e <= 1 else e + 5
    neg = ((1, 0),) if e > 0 else ()
    return VarietyModel(KIND_HIRZEBRUCH, 2, 2, m, (-2, -(e + 2)), 1, 4, 0, 2, h0t, neg, ((1, 0), (0, 1)), e, record=HIRZEBRUCH)


def _hirzebruch_pair(x: VarietyModel) -> tuple[Expr, Expr]:
    tan = ruling_log_tangent(x, (0, 1), name=f"T_F{x.param}", rule=_fe_tangent_rule)
    return serre_met_pair(TwistE(tan, x.canonical_class), bott=True)


HIRZEBRUCH = Kind(
    KIND_HIRZEBRUCH,
    hirzebruch,
    "e",
    lambda x, l: cohom_line_hirzebruch(x.param, l[0], l[1]),
    _hirzebruch_pair,
    lambda x, bound: rational_classes_on_Fe(x.param, bound),
)


@lru_cache(maxsize=None)
def blowup_p2(k: int) -> VarietyModel:
    if not 1 <= k <= 4:
        raise NonGeneralConfig("catalog supports blow-ups of P^2 at 1..4 general points")
    rank = k + 1
    m = tuple(tuple((1 if i == j == 0 else -1 if i == j else 0) for j in range(rank)) for i in range(rank))
    canonical = (-3,) + (1,) * k
    neg = [cls([0] + [1 if j == i else 0 for j in range(k)]) for i in range(k)]
    neg += [cls([1] + [-1 if j in (i, l) else 0 for j in range(k)]) for i, l in combinations(range(k), 2)]
    if k == 1:
        mori = (neg[0], (1, -1))
    else:
        mori = tuple(neg)
    h0t = {1: 6, 2: 4, 3: 2, 4: 0}[k]
    return VarietyModel(KIND_BLOWUP, 2, rank, m, canonical, 1, 3 + k, 0, 1 + k, h0t, tuple(neg), mori, k, record=BLOWUP_P2)


def _blowup_pair(x: VarietyModel) -> tuple[Expr, Expr]:
    # 0 -> pi^*Omega_{P^2} -> Omega^1 -> (+) O_{E_i}(-2) -> 0 for the
    # point blow-up pi, with pi^*Omega_{P^2} the kernel of the pulled-back
    # Euler map O(-H)^3 -> O (it bounds h^0 at sH below by the Bott count
    # s^2 - 1), pinned by the del Pezzo section-count rules
    origin = (0,) * x.lattice_rank
    minus_h = (-1,) + origin[1:]
    pulled = SeqE(x, None, SumE([LineE(x, minus_h)] * 3), LineE(x, origin), 2, name="pi^*Omega_P2")
    quotient = SumE([CurveE(x, 0, -2, klass=e) for e in x.negative_curves[: x.param]])
    model = SeqE(x, pulled, None, quotient, 2, name=f"Omega_Bl{x.param}", rule=_blowup_cotangent_rule)
    return serre_met_pair(model, bott=x.param <= 3)  # Bl_4 is not toric


BLOWUP_P2 = Kind(KIND_BLOWUP, blowup_p2, "points", cohom_line_blowup, _blowup_pair, lambda x, bound: list(x.negative_curves))


@lru_cache(maxsize=None)
def surface_in_p3(d: int) -> VarietyModel:
    if d < 2:
        raise InputError("surface degree must be >= 2")
    pg = max(0, (d - 1) * (d - 2) * (d - 3) // 6)
    chi_o = 1 + pg
    c2 = d ** 3 - 4 * d ** 2 + 6 * d
    h11 = c2 - 2 - 2 * pg
    h0t = 6 if d == 2 else 0
    return VarietyModel(KIND_SURFACE_P3, 2, 1, ((d,),), (d - 4,), chi_o, c2, 0, h11, h0t, (), ((1,),), d, record=SURFACE_P3)


SURFACE_P3 = Kind(
    KIND_SURFACE_P3,
    surface_in_p3,
    "degree",
    lambda x, l: cohom_ci(3, (x.param,), l[0]),
    lambda x: serre_met_pair(_surface_p3_cotangent(x)),
)


@lru_cache(maxsize=None)
def abelian_surface(polarization_square: int) -> VarietyModel:
    if polarization_square <= 0 or polarization_square % 2 != 0:
        raise InputError("abelian polarization square must be a positive even integer")
    d = polarization_square // 2
    return VarietyModel(KIND_ABELIAN, 2, 1, ((2 * d,),), (0,), 0, 0, 2, 4, 2, (), ((1,),), d, record=ABELIAN)


def _abelian_pair(x: VarietyModel) -> tuple[Expr, Expr]:
    cot = SumE([LineE(x, (0,)), LineE(x, (0,))])
    return cot, cot


ABELIAN = Kind(KIND_ABELIAN, abelian_surface, "polarization_square", lambda x, l: cohom_line_abelian(x.param, l[0]), _abelian_pair)

KINDS = (PROJECTIVE_SPACE, QUADRIC, HIRZEBRUCH, BLOWUP_P2, SURFACE_P3, ABELIAN)
