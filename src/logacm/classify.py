"""Verdict-level aCM / T-aCM classification, necessary-condition filters,
arrangement search, deficiency tables and the one-degree Buchsbaum rule.

A verdict is never an uncertified Yes or No: Yes carries a regularity
window covering all twists, No carries a slot whose dimension is exactly
computed and positive, and anything blocked by a genuine interval is
Unknown with the blocking slot reported.

A verdict first probes h^1 at t = 0, -1, 1 and answers No at the first
exactly positive slot, without a window; only then does it certify one
and scan its residual slots.  The probe reports the witness the scan
would: a positive slot lies inside every certified window, and the scan
takes degree 1 first, in the same (|t|, t) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .errors import EngineError, InputError, IntervalPresent, NotVeryAmple, OutOfScope, WindowNotFound
from .exactseq import Evaluator, Expr, default_evaluator, vanishing_window
from .intervals import Iv, iv, pad_vec
from .linebundles import cohom_ci, cohom_line_curve, cohom_line_quadric, line_cohom
from .logbundles import check_side, cotangent_tangent_pair, log_pair, repeated_rigid_class
from .varieties import (
    KIND_BLOWUP,
    KIND_HIRZEBRUCH,
    KIND_PN,
    KIND_QUADRIC,
    Arrangement,
    VarietyModel,
    arrangement,
    component_from_class,
    hirzebruch,
    rational_classes_on_Fe,
    vadd,
    vneg,
    vscale,
    vsub,
)

YES, NO, UNKNOWN = "Yes", "No", "Unknown"


@dataclass
class Verdict:
    status: str
    witness: tuple | None = None  # (degree, twist multiple t, Iv)
    certificates: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.status == YES


@dataclass
class Violation:
    rule: str
    detail: str
    witness: tuple | None = None


def _component_h0_normal(x: VarietyModel, comp) -> Iv:
    """h^0 of the normal bundle O_D(D) of a component."""
    if x.kind == KIND_PN and x.dim >= 3:
        d = comp.klass[0]
        return iv(cohom_ci(x.dim, (d,), d)[0])
    h0, _ = cohom_line_curve(comp.genus, comp.normal_degree(x))
    return h0


def necessary_conditions(x: VarietyModel, h, arr: Arrangement, side: str = "cot", ev: Evaluator | None = None):
    """Ordered numeric filters; returns (violations, skipped-slot log).

    Rules derived from the residue sequence apply to the cotangent side,
    the normal-bundle bound to the tangent side; on a subcanonical pair
    both rule groups fire for either verdict.
    """
    check_side(side)
    ev = ev or default_evaluator()
    h = x.check_ample(h)
    e_sub = x.is_subcanonical(h)
    sub = e_sub is not None
    cot_side = side == "cot" or sub
    tan_side = side == "tan" or sub

    def slot(native_side, i, t, val):
        # express a witness on the classified side; cross-side rules only
        # fire on subcanonical pairs, where Serre duality transports slots
        if native_side == side:
            return (i, t, val)
        return (x.dim - i, e_sub - t, val)

    violations: list[Violation] = []
    skipped: list[str] = []
    m = arr.size

    if cot_side and m < x.h11:
        violations.append(
            Violation(
                "components-vs-h11",
                f"m = {m} < h^(1,1) = {x.h11}",
                slot("cot", 1, 0, Iv(x.h11 - m, None)),
            )
        )
    genus_sum = sum(c.genus for c in arr.components)
    if cot_side and genus_sum > x.q:
        violations.append(
            Violation(
                "genus-vs-irregularity",
                f"sum p_a = {genus_sum} > q = {x.q}",
                slot("cot", 1, 0, Iv(genus_sum - x.q, None)),
            )
        )
    if m and x.q == 0 and any(not c.rational for c in arr.components):
        # on a ruled surface rationality is forced for the tangent side with
        # respect to any polarization, not only subcanonical ones
        if cot_side or (x.kind == KIND_HIRZEBRUCH and side == "tan"):
            violations.append(Violation("rationality", "q = 0 forces every component rational", None))

    if tan_side:
        total = iv(0)
        exact = True
        for c in arr.components:
            piece = _component_h0_normal(x, c)
            if not piece.exact:
                exact = False
                skipped.append(f"normal-section count of genus-{c.genus} component is an interval")
                break
            total = iv(total.lo + piece.lo)
        if exact and total.lo > x.h0_tangent:
            violations.append(
                Violation(
                    "normal-sections-vs-tangent",
                    f"sum h^0(O_D(D)) = {total.lo} > h^0(TX) = {x.h0_tangent}",
                    slot("tan", 1, 0, Iv(total.lo - x.h0_tangent, None)),
                )
            )

    # the rank-one rule needs the whole Picard group generated by the
    # polarization itself: H must be the lattice generator, the span must
    # not assert anything larger, and every component degree must be
    # divisible by H^2 (so the component can be of the form tH); a very
    # positive polarization may well make arrangements aCM, so rejecting
    # there would be unsound
    rank_one_plausible = (
        x.lattice_rank == 1
        and h == (1,)
        and arr.span_rank <= 1
        and all(c.deg_h is None or c.deg_h % x.intersection_matrix[0][0] == 0 for c in arr.components)
    )
    if m and rank_one_plausible and x.kind != KIND_PN:
        h0_pol = line_cohom(x, (1,))[0]
        if h0_pol >= x.h0_tangent + 2:
            violations.append(
                Violation(
                    "rank-one",
                    f"Pic rank one with h^0(O(1)) = {h0_pol} >= h^0(TX) + 2",
                    slot("tan", 1, 0, Iv(1, None)),
                )
            )

    if x.kind == KIND_PN and cot_side:
        n = x.dim
        bad = [c for c in arr.components if c.klass[0] >= 2]
        if bad:
            lo = sum(cohom_ci(n, (c.klass[0],), 1 - n)[n - 1] for c in bad)
            violations.append(
                Violation(
                    "pn-degree-reduction",
                    f"{len(bad)} component(s) of degree >= 2",
                    slot("cot", n - 1, 1 - n, Iv(lo, None)),
                )
            )

    if cot_side and m and x.dim == 2 and not violations:
        cot, _ = cotangent_tangent_pair(x)
        for t in range(1, 7):
            tw = vscale(-t, h)
            v = pad_vec(ev._cohom(cot, tw), 3)  # tw is a multiple of the checked H
            if not v[1].is_zero:
                if not v[1].exact:
                    skipped.append(f"h^1(Omega^1({-t}H)) not exactly known; residue-injectivity test skipped")
                continue
            if not v[2].exact:
                skipped.append(f"h^2(Omega^1({-t}H)) not exactly known at t={-t}")
                continue
            lhs = 0
            all_exact = True
            for c in arr.components:
                _, h1 = cohom_line_curve(c.genus, c.degree_along(x, tw))
                if not h1.exact:
                    all_exact = False
                    break
                lhs += h1.lo
            if not all_exact:
                skipped.append(f"curve h^1 at t={-t} inexact; test skipped")
                continue
            if lhs > v[2].lo:
                violations.append(
                    Violation(
                        "residue-injectivity",
                        f"t={t}: sum h^1(O_D(-tH)) = {lhs} > h^2(Omega^1(-tH)) = {v[2].lo}",
                        slot("cot", 1, -t, Iv(lhs - v[2].lo, None)),
                    )
                )
                break
    return violations, skipped


def _first_positive(ev: Evaluator, expr: Expr, h, n: int, i: int, twists):
    """(witness, blocking) for degree i over `twists`, in the order given:
    witness is the first slot whose h^i is exactly positive, blocking the
    first undecided interval slot before it.  H is a checked class."""
    blocking = None
    for t in twists:
        val = pad_vec(ev._cohom(expr, vscale(t, h)), n + 1)[i]
        if val.lo >= 1:
            return (i, t, val), blocking
        if blocking is None and not val.is_zero:
            blocking = (i, t, val)
    return None, blocking


def _scan_slots(ev: Evaluator, expr: Expr, h, n: int, window, cap: int):
    """Evaluate residual (or fallback-range) slots for degrees 1..n-1.

    Returns (witness, blocking) where witness is an exactly positive slot
    and blocking an undecided interval slot."""
    blocking = None
    for i in range(1, n):
        twists = window.residual(i) if window is not None else range(-cap, cap + 1)
        witness, first = _first_positive(ev, expr, h, n, i, sorted(twists, key=lambda t: (abs(t), t)))
        if witness is not None:
            return witness, None
        blocking = blocking or first
    return None, blocking


_WITNESS_NOTE = "nonzero intermediate cohomology at the witness slot"


def _classify_expr(x: VarietyModel, h, expr: Expr, cap: int, ev: Evaluator) -> Verdict:
    n = x.dim
    h = x.check_class(h)
    # the witness probe (module docstring); only degree 1, since the scan
    # below takes the degrees in order
    probe = [t for t in (0, -1, 1) if abs(t) <= cap]
    witness, _ = _first_positive(ev, expr, h, n, 1, probe)
    if witness is not None:
        return Verdict(NO, witness, [_WITNESS_NOTE])
    window_note = ""
    try:
        window = vanishing_window(expr, h, cap=cap, ev=ev)
    except (WindowNotFound, NotVeryAmple) as exc:
        window = None
        window_note = f"window uncertified ({exc})"
    witness, blocking = _scan_slots(ev, expr, h, n, window, cap)
    if witness is not None:
        return Verdict(NO, witness, [_WITNESS_NOTE])
    if window is None:
        return Verdict(UNKNOWN, None, [window_note, "no exact nonzero slot found in the scanned range"])
    if blocking is not None:
        return Verdict(UNKNOWN, blocking, window.certificates + ["undecided interval at the reported slot"])
    certs = window.certificates + [
        f"all residual slots vanish: " + ", ".join(f"h^{i} on {list(window.residual(i))}" for i in range(1, n))
    ]
    return Verdict(YES, None, certs)


def is_acm(x: VarietyModel, h, arr: Arrangement, cap: int = 8, ev: Evaluator | None = None) -> Verdict:
    """Is Omega^1(log D) without intermediate cohomology in every H-twist?"""
    return _classify(x, h, arr, "cot", cap, ev)[0]


def is_tacm(x: VarietyModel, h, arr: Arrangement, cap: int = 8, ev: Evaluator | None = None) -> Verdict:
    """Same for the logarithmic tangent sheaf TX(-log D)."""
    return _classify(x, h, arr, "tan", cap, ev)[0]


def _remembered(ev: Evaluator, key: tuple, compute) -> tuple[Verdict, str]:
    """compute()'s (verdict, first rule), kept in ``ev.cache`` under key as
    an immutable snapshot.  Every call returns a fresh ``Verdict``, since
    callers extend its certificates.  An exception is not kept: it raises
    again on every call."""
    snap = ev.cache.get(key)
    if snap is None:
        verdict, first = compute()
        snap = ev.cache[key] = (verdict.status, verdict.witness, tuple(verdict.certificates), first)
    status, witness, certificates, first = snap
    return Verdict(status, witness, list(certificates)), first


def _classify(x: VarietyModel, h, arr: Arrangement, side: str, cap: int, ev: Evaluator | None) -> tuple[Verdict, str]:
    """(verdict, first failing rule): the rule is the first filter that
    fails, else the first certificate of a No, else "".  Each verdict is
    computed once per evaluator, for the Weyl-orbit representative of arr
    (``_remembered``)."""
    ev = ev or default_evaluator()
    h = x.check_class(h)
    arr = _orbit_rep(x, h, arr, ev)
    return _remembered(ev, ("verdict", x, h, arr, side, cap), lambda: _decide(x, h, arr, side, cap, ev))


def _decide(x: VarietyModel, h, arr: Arrangement, side: str, cap: int, ev: Evaluator) -> tuple[Verdict, str]:
    """``_classify``'s verdict, computed."""
    violations, skipped = necessary_conditions(x, h, arr, side, ev)
    if violations:
        # the first witness any violation carries, every rule with its
        # detail, then the skipped-slot log
        witness = next((w.witness for w in violations if w.witness is not None), None)
        certificates = [f"{w.rule}: {w.detail}" for w in violations] + skipped
        return Verdict(NO, witness, certificates), violations[0].rule

    pair = log_pair(x, arr, ev)
    verdict = _classify_expr(x, h, pair.for_side(side), cap, ev)
    verdict.certificates = [*pair.notes, *verdict.certificates]
    if x.is_subcanonical(h) is not None:
        other = pair.for_side("tan" if side == "cot" else "cot")
        cross = _classify_expr(x, h, other, cap, ev)
        if {verdict.status, cross.status} == {YES, NO}:
            raise EngineError("subcanonical cross-check failed: aCM and T-aCM verdicts disagree")
        if verdict.status == UNKNOWN and cross.status != UNKNOWN:
            cross.certificates.append("decided on the Serre-dual side (subcanonical pair)")
            verdict = cross
    first = verdict.certificates[0] if verdict.status == NO and verdict.certificates else ""
    return verdict, first


# -- Weyl-group orbits of (-1)-curve arrangements on Bl_k P^2 ----------------


class _WeylOrbits:
    """The Weyl group of Bl_k P^2 as permutations of its (-1)-curves, and
    the orbit memo of ``_orbit_rep``: one per variety in an evaluator's
    cache.

    W is generated by the reflections v -> v + (v.a)a in the simple roots
    a = E_i - E_{i+1} and, for k >= 3, a = H - E_1 - E_2 - E_3.  An
    arrangement of distinct (-1)-curves is a bitmask over
    ``negative_curves``, and ``least`` maps each mask met so far to the
    least mask of its orbit."""

    def __init__(self, x: VarietyModel):
        curves = x.negative_curves
        index = {c: i for i, c in enumerate(curves)}
        k = x.param
        unit = [tuple(int(j == i) for j in range(k + 1)) for i in range(k + 1)]
        roots = [vsub(unit[i], unit[i + 1]) for i in range(1, k)]
        if k >= 3:
            roots.append((1, -1, -1, -1) + (0,) * (k - 3))
        gens = [tuple(index[vadd(c, vscale(x.intersect(c, a), a))] for c in curves) for a in roots]
        perms, frontier = {tuple(range(len(curves)))}, [tuple(range(len(curves)))]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = tuple(g[j] for j in p)
                if q not in perms:
                    perms.add(q)
                    frontier.append(q)
        self.perms = tuple(perms)
        self.comps = tuple(component_from_class(x, c) for c in curves)
        self.index = {c: i for i, c in enumerate(self.comps)}
        self.least: dict[int, int] = {}


def _orbit_rep(x: VarietyModel, h, arr: Arrangement, ev: Evaluator) -> Arrangement:
    """The least member of arr's Weyl-group orbit, when arr is a set of
    distinct (-1)-curves on Bl_k P^2 (k >= 2) and H a positive multiple of
    -K; arr itself otherwise.

    For k <= 4 general points every element of the Weyl group W is induced
    by an automorphism of Bl_k P^2, which fixes K and permutes the
    (-1)-curves (Dolgachev, *Classical Algebraic Geometry*, Cambridge
    2012, Ch. 8).  An automorphism s with s(D) = D' carries the log pair
    of D to that of D' and the twist tH to itself when H is a multiple of
    -K, so D and D' have the same cohomology at every tH: the same verdict,
    witness and certificates.  Classifying the representative lets the
    evaluator's cache (its log pairs, values and verdicts) serve the whole
    orbit.  H is never moved, so nothing needs transport back.  The members
    are compared as bitmasks over ``negative_curves`` (``_WeylOrbits``,
    kept in ``ev.cache`` under ("orbits", x), so a cleared cache builds it
    again); an orbit's images are computed on its first member and recorded
    for every member."""
    if x.kind != KIND_BLOWUP or x.param < 2:
        return arr
    h = x.check_class(h)
    mk = vneg(x.canonical_class)
    c = h[0] // mk[0]
    if c < 1 or h != vscale(c, mk):
        return arr
    key = ("orbits", x)
    table = ev.cache.get(key)
    if table is None:
        table = ev.cache.setdefault(key, _WeylOrbits(x))
    mask = 0
    for comp in arr.components:
        i = table.index.get(comp)
        if i is None or mask >> i & 1:
            return arr  # not a (-1)-curve, or a repeated one
        mask |= 1 << i
    least = table.least.get(mask)
    if least is None:
        bits = [i for i in range(len(table.comps)) if mask >> i & 1]
        images = {sum(1 << p[i] for i in bits) for p in table.perms}
        least = min(images)
        for image in images:
            table.least[image] = least
    comps = tuple(comp for i, comp in enumerate(table.comps) if least >> i & 1)
    return Arrangement(comps, arr.span_rank, arr.snc, arr.span_asserted)


# -- polarization-free degree-0 notions --------------------------------------


def _degree0(x: VarietyModel, arr: Arrangement, side: str, weak: bool, ev: Evaluator | None) -> Verdict:
    ev = ev or default_evaluator()
    expr = log_pair(x, arr, ev).for_side(side)
    zero = (0,) * x.lattice_rank
    v = pad_vec(ev.cohom(expr, zero), x.dim + 1)
    degrees = [1] if weak else list(range(1, x.dim))
    for i in degrees:
        if v[i].lo >= 1:
            return Verdict(NO, (i, 0, v[i]), ["nonzero cohomology at twist zero"])
        if not v[i].is_zero:
            return Verdict(UNKNOWN, (i, 0, v[i]), ["undecided slot at twist zero"])
    return Verdict(YES, None, [f"h^i = 0 at twist zero for i in {degrees}"])


def acm_in_degree0(x: VarietyModel, arr: Arrangement, ev: Evaluator | None = None) -> Verdict:
    return _degree0(x, arr, "cot", weak=False, ev=ev)


def weakly_acm_in_degree0(x: VarietyModel, arr: Arrangement, ev: Evaluator | None = None) -> Verdict:
    return _degree0(x, arr, "cot", weak=True, ev=ev)


def tacm_in_degree0(x: VarietyModel, arr: Arrangement, ev: Evaluator | None = None) -> Verdict:
    return _degree0(x, arr, "tan", weak=False, ev=ev)


def weakly_tacm_in_degree0(x: VarietyModel, arr: Arrangement, ev: Evaluator | None = None) -> Verdict:
    return _degree0(x, arr, "tan", weak=True, ev=ev)


# -- deficiency modules -------------------------------------------------------


@dataclass
class DeficiencyTable:
    degree: int
    entries: dict  # twist t -> Iv, over the certified residual window
    window: object
    certificates: list[str]

    def nonzero_twists(self):
        return sorted(t for t, v in self.entries.items() if not v.is_zero)


def deficiency_table(
    x: VarietyModel,
    h,
    arr: Arrangement,
    degree: int = 1,
    cap: int = 8,
    side: str = "cot",
    ev: Evaluator | None = None,
) -> DeficiencyTable:
    """Graded dimensions of H^i_* over the certified window; entries outside
    the window are zero by the regularity certificates; a non-ample H
    raises ``NotAmple`` first."""
    ev = ev or default_evaluator()
    if not 1 <= degree <= x.dim - 1:
        raise InputError(f"deficiency degree must be in 1..{x.dim - 1}")
    h = x.check_ample(h)
    arr = _orbit_rep(x, h, arr, ev)
    expr = log_pair(x, arr, ev).for_side(side)
    window = vanishing_window(expr, h, cap=cap, ev=ev)
    entries = {}
    for t in window.residual(degree):
        entries[t] = pad_vec(ev.cohom(expr, vscale(t, h)), x.dim + 1)[degree]
    return DeficiencyTable(degree, entries, window, window.certificates)


def one_degree_buchsbaum(table: DeficiencyTable) -> bool:
    """Sufficient certificate: at most one twist supports the module, so the
    coordinate ring acts trivially (1-Buchsbaum, very strong Lefschetz)."""
    for t, v in table.entries.items():
        if not v.exact:
            raise IntervalPresent(f"entry at t={t} is {v}")
    return len(table.nonzero_twists()) <= 1


def deficiency_concentrated_at_zero(
    x: VarietyModel, h, arr: Arrangement, cap: int = 8, side: str = "cot", ev: Evaluator | None = None
) -> Verdict:
    """All intermediate deficiency modules vanish away from twist zero.

    This is the polarization-dependent sense in which exceptional-curve
    sub-arrangements on small blow-ups are trivial: the only surviving
    graded piece sits at t = 0, so the one-degree Buchsbaum rule applies.
    Each verdict is computed once per evaluator, for the Weyl-orbit
    representative of arr, as ``_classify``'s are; a non-ample H raises
    ``NotAmple`` before anything is built (``deficiency_table``), as in
    ``is_acm``.
    """
    ev = ev or default_evaluator()
    h = x.check_class(h)
    arr = _orbit_rep(x, h, arr, ev)
    key = ("deficiency", x, h, arr, side, cap)
    return _remembered(ev, key, lambda: (_concentration(x, h, arr, cap, side, ev), ""))[0]


def _concentration(x: VarietyModel, h, arr: Arrangement, cap: int, side: str, ev: Evaluator) -> Verdict:
    """``deficiency_concentrated_at_zero``'s verdict, computed."""
    certs = []
    for i in range(1, x.dim):
        table = deficiency_table(x, h, arr, i, cap, side, ev)
        for t, v in table.entries.items():
            if t == 0:
                continue
            if v.lo >= 1:
                return Verdict(NO, (i, t, v), ["nonzero graded piece away from twist zero"])
            if not v.is_zero:
                return Verdict(UNKNOWN, (i, t, v), ["undecided slot away from twist zero"])
        certs.extend(table.certificates)
        certs.append(f"degree {i}: support inside {{0}}, table {table.entries}")
    return Verdict(YES, None, certs)


# -- closed-form reproductions ------------------------------------------------


def trivial_tacm_hirzebruch(e: int, a: int, b: int, cap: int = 8, ev: Evaluator | None = None) -> Verdict:
    """Full T-aCM verdict for the empty arrangement on F_1 with H = ah+bf."""
    if e != 1:
        raise OutOfScope("the closed-form criterion is stated for F_1 only")
    x = hirzebruch(1)
    arr = arrangement(x, [])
    return is_tacm(x, (a, b), arr, cap=cap, ev=ev)


# -- arrangement search -------------------------------------------------------


def _candidate_classes(x: VarietyModel, class_bound: int) -> list:
    if x.kind == KIND_QUADRIC:
        return [(1, 0), (0, 1)]
    if x.kind == KIND_HIRZEBRUCH:
        return rational_classes_on_Fe(x.param, class_bound)
    if x.kind == KIND_PN:
        return [(1,)]
    if x.kind == KIND_BLOWUP:
        return list(x.negative_curves)
    raise OutOfScope(f"search is not defined for kind {x.kind}")


def _candidates(x: VarietyModel, class_bound: int, m_bound: int) -> tuple:
    """``search``'s (combo, arrangement) pairs: the admissible component
    multisets of 1..m_bound classes, in (size, sorted class tuples) order,
    without a rigid class listed twice."""
    classes = sorted(_candidate_classes(x, class_bound))
    return tuple(
        (combo, arrangement(x, [component_from_class(x, c) for c in combo]))
        for m in range(1, m_bound + 1)
        for combo in combinations_with_replacement(classes, m)
        if repeated_rigid_class(x, combo) is None
    )


def search(x: VarietyModel, h, class_bound: int, m_bound: int, side: str = "cot", cap: int = 8, ev: Evaluator | None = None):
    """Enumerate admissible component multisets, filter, classify survivors:
    a fresh list of (combo, verdict, first failing rule).

    Deterministic ordering by (size, sorted class tuples).  The candidates
    depend only on (x, class_bound, m_bound), so each evaluator builds them
    once: ``ev.cache`` keeps them under ("candidates", x, class_bound,
    m_bound), shared by every polarization and side, once a search on them
    has returned.  A search that raises keeps nothing."""
    check_side(side)
    ev = ev or default_evaluator()
    key = ("candidates", x, class_bound, m_bound)
    cands = ev.cache.get(key)
    if cands is None:
        cands = _candidates(x, class_bound, m_bound)
    results = [(combo, *_classify(x, h, arr, side, cap, ev)) for combo, arr in cands]
    ev.cache[key] = cands
    return results


# -- the F_0 polarization (2,1) oracle ----------------------------------------


@dataclass
class SplitOracleReport:
    polarization: tuple
    grid: dict  # (k1, k2) -> bool
    yes_set: list
    stated_range: tuple
    agrees_with_stated: bool
    lines: list


def f0_split_acm_oracle(k_bound: int = 8, window: int = 12) -> SplitOracleReport:
    """Brute-force Kunneth decision for O(k1-2,0)+O(0,k2-2) being aCM with
    respect to O(2,1), with duality-certified tails outside the window.

    The report records both the oracle's exact Yes-set and the previously
    stated range (1<=k1<=3, 1<=k2<=2) so golden files stay untouched.
    """
    pol = (2, 1)
    # tail certificate: h^1 of either summand at twist t needs a factor with
    # h^0 > 0 against one with h^1 > 0, which forces |t| <= k_bound - 2; the
    # scan window must cover that range for the tails to vanish identically
    if window < max(2, k_bound - 2):
        raise InputError(f"window {window} too small to certify tails for k <= {k_bound}")
    grid = {}
    for k1 in range(0, k_bound + 1):
        for k2 in range(0, k_bound + 1):
            ok = True
            for t in range(-window, window + 1):
                h1a = cohom_line_quadric(k1 - 2 + pol[0] * t, pol[1] * t)[1]
                h1b = cohom_line_quadric(pol[0] * t, k2 - 2 + pol[1] * t)[1]
                if h1a or h1b:
                    ok = False
                    break
            grid[(k1, k2)] = ok
    yes = sorted(k for k, v in grid.items() if v)
    stated = ((1, 3), (1, 2))
    stated_set = sorted((i, j) for i in range(stated[0][0], stated[0][1] + 1) for j in range(stated[1][0], stated[1][1] + 1))
    agrees = yes == stated_set
    lines = [
        f"oracle yes-set: {yes}",
        f"stated range yes-set: {stated_set}",
        "AGREES" if agrees else f"DISAGREES at {sorted(set(yes) ^ set(stated_set))}",
        f"tails certified: |t| > {window} slots vanish identically for k <= {k_bound}",
    ]
    return SplitOracleReport(pol, grid, yes, stated, agrees, lines)
