"""Integer kernel tests against the definitions and sympy oracles."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from shadowlab import kernels
from shadowlab.errors import DimensionError
from oracles import (
    oracle_det,
    oracle_det_int,
    oracle_hull_2d,
    oracle_rank,
    oracle_rank_int,
    oracle_rref_int,
)

small_int = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(
        st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_det_identity():
    assert kernels.det_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_repeated_row_is_zero():
    assert kernels.det_int([[1, 2, 3], [1, 2, 3], [0, 1, 0]]) == 0


def test_det_quarter_turn():
    assert kernels.det_int([[0, 1], [-1, 0]]) == 1


def test_det_empty_matrix():
    assert kernels.det_int([]) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        kernels.det_int([[1, 2, 3], [4, 5, 6]])


def test_rank_zero_matrix():
    assert kernels.rank_int([[0, 0, 0], [0, 0, 0]]) == 0


def test_rank_identity():
    assert kernels.rank_int([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 4


def test_rank_proportional_rows():
    assert kernels.rank_int([[2, 4, 6], [1, 2, 3]]) == 1


def test_rank_empty():
    assert kernels.rank_int([]) == 0


def test_sign_range_split():
    pts = [(1, 0), (-1, 0), (0, 5)]
    assert kernels.sign_range(pts, (1, 0), 0) == (-1, 1)


def test_sign_range_supporting():
    pts = [(0, 0), (1, 0), (1, 1)]
    lo, hi = kernels.sign_range(pts, (0, 1), 1)
    assert (lo, hi) == (-1, 0)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(square))
def test_det_matches_oracle(m):
    assert kernels.det_int(m) == oracle_det(m)


@settings(deadline=None)
@given(
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=6)
)
def test_rank_matches_oracle(m):
    assert kernels.rank_int(m) == oracle_rank(m)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(square), st.data())
def test_det_row_swap_flips_sign(m, data):
    n = len(m)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    if i == j:
        return
    swapped = [list(r) for r in m]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert kernels.det_int(swapped) == -kernels.det_int(m)


def test_dispatch_handles_huge_entries():
    # far beyond 2**62: arbitrary-precision arithmetic stays exact
    big = 10**40
    m = [[big, 1], [1, big]]
    assert kernels.det_int(m) == big * big - 1
    assert kernels.rank_int(m) == 2


@settings(deadline=None)
@given(
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=10),
    st.lists(small_int, min_size=3, max_size=3),
    small_int,
)
def test_sign_range_matches_definition(pts, normal, offset):
    lo, hi = kernels.sign_range(pts, normal, offset)
    signs = set()
    for p in pts:
        s = sum(a * b for a, b in zip(p, normal)) - offset
        signs.add(0 if s == 0 else (1 if s > 0 else -1))
    # early exit may under-report zeros but never strict signs
    assert (-1 in signs) == (lo == -1)
    assert (1 in signs) == (hi == 1)


def test_rref_int_examples():
    assert kernels.rref_int([]) == ((), (), 1)
    assert kernels.rref_int([[0, 0], [0, 0]]) == ((), (), 1)
    # rows / den is the reduced form; every pivot entry equals den
    reduced, pivots, den = kernels.rref_int([[2, 4, 1], [1, 3, 0], [3, 7, 1]])
    assert pivots == (0, 1)
    assert [[Fraction(x, den) for x in r] for r in reduced] == [
        [1, 0, Fraction(3, 2)],
        [0, 1, Fraction(-1, 2)],
    ]
    assert all(reduced[i][p] == den for i, p in enumerate(pivots))


def test_rref_int_rejects_ragged():
    with pytest.raises(ValueError):
        kernels.rref_int([[1, 0], [0, 1, 3]])


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(small_int, min_size=c, max_size=c), min_size=1, max_size=4
        )
    )
)
def test_rref_int_rank_and_pivots(m):
    reduced, pivots, den = kernels.rref_int(m)
    assert den > 0
    assert len(reduced) == len(pivots) == oracle_rank(m)
    for i, p in enumerate(pivots):
        assert [r[p] for r in reduced] == [den if k == i else 0 for k in range(len(reduced))]


def test_generalized_cross_is_orthogonal():
    rows = [(1, 2, 0, 0), (0, 1, 1, 0), (3, 0, 0, 1)]
    n = kernels.generalized_cross(rows)
    assert all(isinstance(x, int) for x in n)
    assert any(n)
    assert all(kernels.dot(n, r) == 0 for r in rows)


def test_generalized_cross_dependent_gives_zero():
    rows = [(1, 2, 0), (2, 4, 0)]
    assert kernels.generalized_cross(rows) == (0, 0, 0)


def test_generalized_cross_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        kernels.generalized_cross([(1, 0, 0), (0, 1, 0, 5)])


@st.composite
def plane_and_vector(draw):
    """Two independent integer rows of width 3..6 and a vector that is
    half the time a combination of them."""
    d = draw(st.integers(3, 6))
    row = st.tuples(*[small_int] * d)
    a, b = draw(row), draw(row)
    assume(oracle_rank_int([a, b]) == 2)
    if draw(st.booleans()):
        s, t = draw(small_int), draw(small_int)
        u = tuple(s * x + t * y for x, y in zip(a, b))
    else:
        u = draw(row)
    return a, b, u


@settings(max_examples=400, deadline=None)
@given(plane_and_vector())
def test_in_plane_matches_rank_int(case):
    a, b, u = case
    got = kernels.in_plane(u, kernels.plane_minors(a, b))
    assert got == (kernels.rank_int([a, b, u]) == 2)


def test_minors_of_small_widths():
    # width 2: no rows, det(a; b) is the one plane minor
    assert kernels.complementary_minors([], 2) == (1,)
    assert kernels.plane_minors((3, 5), (7, 11)) == (3 * 11 - 5 * 7,)
    # width 3: one row r, and the dot product is the triple product
    # r . (a x b); pairs (0, 1), (0, 2), (1, 2) leave columns 2, 1, 0
    assert kernels.complementary_minors([(2, 3, 5)], 3) == (5, -3, 2)
    assert kernels.plane_minors((1, 0, 0), (0, 1, 0)) == (1, 0, 0)


def test_complementary_minors_reject_bad_shapes():
    with pytest.raises(ValueError):
        kernels.complementary_minors([(1, 0, 0, 0)], 4)
    with pytest.raises(ValueError):
        kernels.complementary_minors([(1, 0, 0), (0, 1, 0)], 4)


BIG = st.integers(min_value=-(10**30), max_value=10**30)


@st.composite
def stacks(draw):
    """d - 2 rows R and a plane (a, b) of big integers, d = 3..6; half
    the draws make the stack singular through dependent rows of R, a
    plane row inside span(R), or a degenerate plane."""
    d = draw(st.integers(min_value=3, max_value=6))
    row = st.lists(BIG, min_size=d, max_size=d)
    rows = [draw(row) for _ in range(d - 2)]
    a, b = draw(row), draw(row)
    kind = draw(st.sampled_from(("free", "free", "free", "rows", "in-span", "plane")))
    coef = st.integers(min_value=-3, max_value=3)

    def combo(vectors):
        out = [0] * d
        for v in vectors:
            c = draw(coef)
            out = [x + c * y for x, y in zip(out, v)]
        return out

    if kind == "rows":
        rows[-1] = combo(rows[:-1])
    elif kind == "in-span":
        a = combo(rows)
    elif kind == "plane":
        b = combo([a])
    return rows, a, b


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_minors_identity_matches_det_int(case):
    rows, a, b = case
    d = len(a)
    comp = kernels.complementary_minors(rows, d)
    plane = kernels.plane_minors(a, b)
    assert len(comp) == len(plane) == d * (d - 1) // 2
    assert sum(x * y for x, y in zip(comp, plane)) == kernels.det_int(rows + [a, b])


@st.composite
def int_matrices(draw):
    """0-6 integer rows of width 0-7, small or up to 10^30, with zero
    rows and rows that repeat or sum earlier ones."""
    ncols = draw(st.integers(min_value=0, max_value=7))
    row = st.lists(st.one_of(small_int, BIG), min_size=ncols, max_size=ncols)
    m = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("free", "free", "zero", "repeat", "sum")))
        if kind == "zero":
            m.append([0] * ncols)
        elif kind == "repeat" and m:
            m.append(list(draw(st.sampled_from(m))))
        elif kind == "sum" and m:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            c = draw(small_int)
            m.append([x + c * y for x, y in zip(a, b)])
        else:
            m.append(draw(row))
    return m


def outcome(fn, m):
    """fn(m), or the ValueError text it raised."""
    try:
        return fn(m)
    except ValueError as e:
        return ("ValueError", str(e))


@settings(max_examples=400, deadline=None)
@given(int_matrices())
def test_bareiss_loop_matches_the_two_old_loops(m):
    # the old loop's den has the sign of its last pivot; rref_int makes
    # it positive by negating the rows with it
    red, pivots, den = oracle_rref_int(m)
    s = -1 if den < 0 else 1
    got = kernels.rref_int(m)
    assert got == (tuple(tuple(s * x for x in r) for r in red), pivots, s * den)
    assert got[2] > 0
    assert kernels.rank_int(m) == oracle_rank_int(m)
    # non-square matrices raise on both sides
    assert outcome(kernels.det_int, m) == outcome(oracle_det_int, m)


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.data())
def test_bareiss_loop_rejects_ragged_rows_like_the_old_loops(m, data):
    if not m:
        return
    i = data.draw(st.integers(min_value=0, max_value=len(m) - 1))
    m[i] = m[i] + [data.draw(small_int)] * data.draw(st.sampled_from((1, 2)))
    if len(m) == 1:
        m.append([])
    for new, old in (
        (kernels.rref_int, oracle_rref_int),
        (kernels.rank_int, oracle_rank_int),
        (kernels.det_int, oracle_det_int),
    ):
        got = outcome(new, m)
        assert got == outcome(old, m)
        assert got[0] == "ValueError"


@st.composite
def clouds(draw):
    """Integer points in few columns, so x repeats, plus collinear runs
    along random integer directions."""
    pts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-12, 12)), max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        ox, oy = draw(st.tuples(small_int, small_int))
        dx, dy = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        pts += [(ox + t * dx, oy + t * dy) for t in range(draw(st.integers(2, 5)))]
    return set(pts)


@st.composite
def split_clouds(draw):
    """Sets that strain the split by the line through the first and last
    sorted points: a scaled cloud with lattice points added on that
    line, a collinear set, or two points or fewer."""
    kind = draw(st.sampled_from(("on-line", "collinear", "few")))
    if kind == "few":
        return set(draw(st.lists(st.tuples(small_int, small_int), max_size=2)))
    if kind == "collinear":
        ox, oy = draw(st.tuples(small_int, small_int))
        dx, dy = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        assume(dx or dy)
        ts = draw(st.sets(st.integers(-5, 5), min_size=1, max_size=8))
        return {(ox + t * dx, oy + t * dy) for t in ts}
    m = draw(st.integers(2, 4))
    pts = {(m * x, m * y) for x, y in draw(clouds())}
    assume(len(pts) >= 2)
    (ax, ay), (bx, by) = min(pts), max(pts)
    g = gcd(bx - ax, by - ay)
    ts = draw(st.sets(st.integers(1, g - 1), min_size=1))
    return pts | {(ax + t * (bx - ax) // g, ay + t * (by - ay) // g) for t in ts}


def oracle_cycle(pts):
    """oracle_hull_2d as integer points, from the smallest."""
    want = [tuple(int(x) for x in q) for q in oracle_hull_2d(pts)]
    if len(want) > 2:
        # the same ccw cycle, started at the smallest point
        s = want.index(min(want))
        want = want[s:] + want[:s]
    return want


@settings(max_examples=150, deadline=None)
@given(st.one_of(clouds(), split_clouds()))
def test_strict_hull_2d_matches_the_extreme_point_oracle(pts):
    assert kernels.strict_hull_2d(pts) == oracle_cycle(pts)


@settings(max_examples=100, deadline=None)
@given(st.one_of(clouds(), split_clouds()), st.tuples(small_int, small_int))
def test_strict_hull_2d_reflects_a_symmetric_set_given_its_centre(pts, centre_sum):
    sx, sy = centre_sum
    sym = pts | {(sx - x, sy - y) for x, y in pts}
    got = kernels.strict_hull_2d(sym, centre_sum)
    assert got == kernels.strict_hull_2d(sym) == oracle_cycle(sym)
