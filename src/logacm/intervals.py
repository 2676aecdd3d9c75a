"""Closed integer intervals for cohomology dimensions.

Every dimension the engine reports is an ``Iv``.  Exact values are
degenerate intervals (``lo == hi``); ``hi = None`` means the engine has no
certified upper bound for the slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentHints


@dataclass(frozen=True, slots=True)
class Iv:
    lo: int
    hi: int | None  # None: no certified upper bound

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"negative dimension bound: {self}")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"empty interval: {self}")

    @property
    def exact(self) -> bool:
        return self.hi == self.lo

    @property
    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def __str__(self) -> str:
        if self.exact:
            return str(self.lo)
        if self.hi is None:
            return f"{self.lo}..?"
        return f"{self.lo}..{self.hi}"


# exact values below 512, built once: most dimensions the engine meets are
# small and exact, and an Iv is immutable, so one instance serves them all
_EXACT = tuple(Iv(k, k) for k in range(512))


def iv(lo: int, hi: int | None = None) -> Iv:
    """Exact interval [lo, lo], or [lo, hi] when hi is given."""
    if hi is None or hi == lo:
        return _EXACT[lo] if 0 <= lo < 512 else Iv(lo, lo)
    return Iv(lo, hi)


TOP = Iv(0, None)  # no information
ZERO = iv(0)


def iv_meet(a: Iv, b: Iv) -> Iv:
    """Intersection of two enclosures of the same value; an operand when the
    intersection equals it."""
    lo, hi = a.lo, a.hi
    if b.lo > lo:
        lo = b.lo
    if hi is None or (b.hi is not None and b.hi < hi):
        hi = b.hi
    if hi is not None and hi < lo:
        raise InconsistentHints(f"empty meet {a} & {b}")
    if lo == a.lo and hi == a.hi:
        return a
    if lo == b.lo and hi == b.hi:
        return b
    return iv(lo, hi)  # both ends bounded: an open meet equals an operand


# An IVec is a tuple of Iv indexed by cohomological degree 0..n.

def exact_vec(values) -> tuple[Iv, ...]:
    return tuple([iv(int(v)) for v in values])


def top_vec(length: int) -> tuple[Iv, ...]:
    return (TOP,) * length


def pad_vec(v: tuple[Iv, ...], length: int) -> tuple[Iv, ...]:
    """Extend with exact zeros: degrees above the support dimension vanish."""
    if len(v) >= length:
        return v[:length]
    return v + (ZERO,) * (length - len(v))


def sum_vecs(vecs, length: int) -> tuple[Iv, ...]:
    """Degree-wise sum of vectors of at most ``length`` entries, a missing
    degree an exact zero: one pass over the ends, an open upper end (None)
    absorbing."""
    los, his = [0] * length, [0] * length
    for v in vecs:
        for i, x in enumerate(v):
            los[i] += x.lo
            if his[i] is not None:
                his[i] = None if x.hi is None else his[i] + x.hi
    return tuple([Iv(lo, None) if hi is None else iv(lo, hi) for lo, hi in zip(los, his)])


def meet_vecs(a: tuple[Iv, ...], b: tuple[Iv, ...]) -> tuple[Iv, ...]:
    n = max(len(a), len(b))
    a, b = pad_vec(a, n), pad_vec(b, n)
    return tuple(iv_meet(x, y) for x, y in zip(a, b))


def transpose_vec(v: tuple[Iv, ...]) -> tuple[Iv, ...]:
    """Serre-dual reading of a dimension vector: degree i <-> n-i."""
    return tuple(reversed(v))
