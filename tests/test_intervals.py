import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logacm.errors import InconsistentHints
from logacm.intervals import Iv, iv, iv_meet, meet_vecs, pad_vec, sum_vecs


def test_small_exact_values_are_shared():
    for k in range(512):
        assert iv(k) is iv(k) is iv(k, k)
        assert iv(k) == Iv(k, k)
    for k in (512, 513, 10**6):
        assert iv(k) == Iv(k, k) and iv(k).exact


@pytest.mark.parametrize("build", [lambda: iv(-1), lambda: iv(3, 2), lambda: Iv(2, 1), lambda: Iv(-1, None)])
def test_invalid_bounds_raise(build):
    with pytest.raises(ValueError):
        build()


def test_disjoint_meet_names_both_operands():
    with pytest.raises(InconsistentHints, match=r"^empty meet 0\.\.1 & 3\.\.\?$"):
        iv_meet(Iv(0, 1), Iv(3, None))
    with pytest.raises(InconsistentHints, match=r"^empty meet 5 & 2\.\.4$"):
        iv_meet(iv(5), Iv(2, 4))


def test_meet_returns_an_operand_it_equals():
    a, b = Iv(2, 5), Iv(0, None)
    assert iv_meet(a, b) is a and iv_meet(b, a) is a
    assert iv_meet(Iv(1, 3), Iv(3, 7)) is iv(3)


# A plain (lo, hi) reference, hi = None for an open end.

def ref_add(a, b):
    return (a[0] + b[0], None if a[1] is None or b[1] is None else a[1] + b[1])


def ref_meet(a, b):
    his = [h for h in (a[1], b[1]) if h is not None]
    lo, hi = max(a[0], b[0]), min(his) if his else None
    return None if hi is not None and hi < lo else (lo, hi)


def ref_pad(v, length):
    return (list(v) + [(0, 0)] * length)[:length]


# lower ends on both sides of the shared exact values (below 512)
lows = st.one_of(st.integers(0, 6), st.integers(505, 520))
ends = st.tuples(lows, st.one_of(st.none(), st.integers(0, 4))).map(
    lambda p: (p[0], None if p[1] is None else p[0] + p[1])
)
vecs = st.lists(ends, max_size=4)


def as_iv(p):
    return Iv(*p)


def as_ends(v):
    return [(x.lo, x.hi) for x in v]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(vecs, vecs, st.integers(0, 5))
def test_vector_operations_match_the_pair_reference(a, b, length):
    va, vb = tuple(map(as_iv, a)), tuple(map(as_iv, b))
    assert as_ends(pad_vec(va, length)) == ref_pad(a, length)
    n = max(len(a), len(b))
    pa, pb = ref_pad(a, n), ref_pad(b, n)
    assert as_ends(sum_vecs((va, vb), n)) == [ref_add(x, y) for x, y in zip(pa, pb)]
    longer = zip(ref_pad(a, n + 1), ref_pad(b, n + 1))  # one degree past both vectors
    assert as_ends(sum_vecs((va, vb, va), n + 1)) == [ref_add(ref_add(x, y), x) for x, y in longer]
    met = [ref_meet(x, y) for x, y in zip(pa, pb)]
    if None in met:
        with pytest.raises(InconsistentHints, match="^empty meet "):
            meet_vecs(va, vb)
    else:
        assert as_ends(meet_vecs(va, vb)) == met
