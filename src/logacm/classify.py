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
takes degree 1 first, in the same (|t|, t) order.  The window is
``exactseq.vanishing_window``, the one ``deficiency_table`` reads; when it
fails, the scan covers all of [-cap, cap].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .errors import EngineError, InputError, IntervalPresent, NotVeryAmple, OutOfScope, WindowNotFound
from .exactseq import Evaluator, Expr, default_evaluator, vanishing_window
from .intervals import Iv, iv, pad_vec
from .linebundles import cohom_ci, cohom_line_curve, line_cohom
from .logbundles import check_side, cotangent_tangent_pair, log_pair, repeated_rigid_class
from .varieties import (
    KIND_BLOWUP,
    KIND_HIRZEBRUCH,
    KIND_PN,
    Arrangement,
    VarietyModel,
    arrangement,
    component_from_class,
    vadd,
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
        dh = [c.degree_along(x, h) for c in arr.components]  # D.(-tH) = -t(D.H)
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
            for c, d in zip(arr.components, dh):
                _, h1 = cohom_line_curve(c.genus, -t * d)
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


def _scan_slots(ev: Evaluator, expr: Expr, h, n: int, twists):
    """Evaluate the slots at ``twists(i)`` for degrees 1..n-1: a window's
    residual slots, or all of [-cap, cap] when no window is certified.

    Returns (witness, blocking) where witness is an exactly positive slot
    and blocking an undecided interval slot."""
    blocking = None
    for i in range(1, n):
        witness, first = _first_positive(ev, expr, h, n, i, sorted(twists(i), key=lambda t: (abs(t), t)))
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
    try:
        window = vanishing_window(expr, h, cap=cap, ev=ev)
    except (NotVeryAmple, WindowNotFound) as exc:
        window, failure = None, exc
    twists = window.residual if window is not None else lambda i: range(-cap, cap + 1)
    witness, blocking = _scan_slots(ev, expr, h, n, twists)
    if witness is not None:
        return Verdict(NO, witness, [_WITNESS_NOTE])
    if window is None:
        return Verdict(UNKNOWN, None, [f"window uncertified ({failure})", "no exact nonzero slot found in the scanned range"])
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
    """The simple reflections of Bl_k P^2 on (-1)-curve masks, the orbit
    memo and the kept representatives of ``_orbit_rep``: one per variety in
    an evaluator's cache.

    W is generated by the reflections v -> v + (v.a)a in the simple roots
    a = E_i - E_{i+1} and, for k >= 3, a = H - E_1 - E_2 - E_3.  An
    arrangement of distinct (-1)-curves is a bitmask over
    ``negative_curves``; ``gens`` maps mask m to lo[m & (2^half - 1)] |
    hi[m >> half], each (lo, hi) a reflection's images of the masks of the
    first ``half`` curves and of the rest.  ``least`` maps each mask met so
    far to the least mask of its orbit, and ``reps`` keeps the
    ``Arrangement`` of each (least mask, span_rank, snc, span_asserted)."""

    def __init__(self, x: VarietyModel):
        curves = x.negative_curves
        index = {c: i for i, c in enumerate(curves)}
        k = x.param
        unit = [tuple(int(j == i) for j in range(k + 1)) for i in range(k + 1)]
        roots = [vsub(unit[i], unit[i + 1]) for i in range(1, k)]
        if k >= 3:
            roots.append((1, -1, -1, -1) + (0,) * (k - 3))
        self.half = half = len(curves) // 2
        self.gens = []
        for a in roots:
            lo, hi = [0], [0]
            for i, c in enumerate(curves):
                part = lo if i < half else hi
                bit = 1 << index[vadd(c, vscale(x._intersect(c, a), a))]
                part += [m | bit for m in part]
            self.gens.append((lo, hi))
        self.comps = tuple(component_from_class(x, c) for c in curves)
        self.index = {c: i for i, c in enumerate(self.comps)}
        self.least: dict[int, int] = {}
        self.reps: dict[tuple, Arrangement] = {}


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
    are compared as bitmasks (``_WeylOrbits``, kept in ``ev.cache`` under
    ("orbits", x), so a cleared cache builds it again).  An orbit is walked
    by the simple reflections on its first member and its least mask
    recorded for every member, which then all get one kept representative.
    H comes checked."""
    if x.kind != KIND_BLOWUP or x.param < 2:
        return arr
    canon = x.canonical_class
    c = h[0] // -canon[0]
    if c < 1 or h != vscale(-c, canon):
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
        orbit, frontier, low = {mask}, [mask], (1 << table.half) - 1
        while frontier:
            m = frontier.pop()
            for lo, hi in table.gens:
                image = lo[m & low] | hi[m >> table.half]
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        least = min(orbit)
        table.least.update(dict.fromkeys(orbit, least))
    rep_key = (least, arr.span_rank, arr.snc, arr.span_asserted)
    rep = table.reps.get(rep_key)
    if rep is None:
        comps = tuple(comp for i, comp in enumerate(table.comps) if least >> i & 1)
        rep = table.reps[rep_key] = Arrangement(comps, arr.span_rank, arr.snc, arr.span_asserted)
    return rep


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


# -- arrangement search -------------------------------------------------------


def _candidate_classes(x: VarietyModel, class_bound: int) -> list:
    if x.record is None or x.record.candidates is None:
        raise OutOfScope(f"search is not defined for kind {x.kind}")
    return x.record.candidates(x, class_bound)


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
