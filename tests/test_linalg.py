"""Exact linear algebra tests against the sympy-based oracles."""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings, strategies as st

from shadowlab import linalg as la
from shadowlab.errors import DegenerateBasisError, DimensionError, ParameterError
from oracles import (
    OracleSubspace,
    oracle_cayley_rotation,
    oracle_det,
    oracle_rank,
    oracle_rref,
    oracle_sympy_rref,
    rref,
)

rat = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
small_int = st.integers(min_value=-9, max_value=9)


def vec_st(d):
    return st.lists(rat, min_size=d, max_size=d).map(tuple)


def mat_st(rows, cols):
    return st.lists(vec_st(cols), min_size=rows, max_size=rows).map(tuple)


def test_det_identity():
    assert la.det(la.identity(3)) == 1


def test_det_repeated_row():
    m = la.as_mat([[1, 2], [1, 2]])
    assert la.det(m) == 0


def test_det_non_square_raises():
    with pytest.raises(DimensionError):
        la.det(la.as_mat([[1, 2, 3], [4, 5, 6]]))


def test_det_rational_entries():
    m = la.as_mat([[Fr(1, 2), Fr(1, 3)], [Fr(1, 5), Fr(1, 7)]])
    assert la.det(m) == Fr(1, 2) * Fr(1, 7) - Fr(1, 3) * Fr(1, 5)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: mat_st(n, n)))
def test_det_matches_oracle(m):
    assert la.det(m) == oracle_det(m)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(mat_st(n, n), st.just(n))
    ),
    st.data(),
)
def test_det_alternating(pair, data):
    m, n = pair
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    assume(i != j)
    rows = list(m)
    rows[i], rows[j] = rows[j], rows[i]
    assert la.det(tuple(rows)) == -la.det(m)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: mat_st(n, n)), rat, st.data())
def test_det_multilinear_in_a_row(m, c, data):
    i = data.draw(st.integers(min_value=0, max_value=len(m) - 1))
    scaled = tuple(la.scale(r, c) if k == i else r for k, r in enumerate(m))
    assert la.det(scaled) == c * la.det(m)


def test_rank_examples():
    assert la.rank(la.as_mat([[0, 0, 0], [0, 0, 0]])) == 0
    assert la.rank(la.identity(4)) == 4
    assert la.rank(la.as_mat([[1, 2, 3], [2, 4, 6]])) == 1


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.integers(min_value=1, max_value=4).flatmap(
            lambda c: mat_st(r, c)
        )
    )
)
def test_rank_matches_oracle(m):
    assert la.rank(m) == oracle_rank(m)


def test_intersect_shared_axis():
    a = la.Subspace([la.unit(3, 0), la.unit(3, 1)])
    b = la.Subspace([la.unit(3, 1), la.unit(3, 2)])
    got = la.intersect(a, b)
    assert got.dim == 1 and got.contains(la.unit(3, 1))


def test_intersect_transverse_lines():
    a = la.Subspace([la.unit(2, 0)])
    b = la.Subspace([la.unit(2, 1)])
    assert la.intersect(a, b).dim == 0


def test_intersect_derived_example():
    # two planes in d=4 sharing the line through e1+e2
    a = la.Subspace([(1, 1, 0, 0), (0, 0, 1, 0)])
    b = la.Subspace([(1, 1, 0, 0), (0, 0, 0, 1)])
    got = la.intersect(a, b)
    assert got.dim == 1
    assert got.contains((1, 1, 0, 0))


@settings(deadline=None)
@given(
    st.lists(vec_st(4), min_size=0, max_size=3),
    st.lists(vec_st(4), min_size=0, max_size=3),
)
def test_intersect_grassmann_formula(va, vb):
    a = la.span_of(va, ambient=4)
    b = la.span_of(vb, ambient=4)
    inter = la.intersect(a, b)
    total = la.span_of(a.basis + b.basis, ambient=4)
    assert inter.dim == a.dim + b.dim - total.dim
    for v in inter.basis:
        assert a.contains(v) and b.contains(v)


def test_cayley_zero_is_identity():
    assert la.plane_rotation(2, 0, 1, 0) == la.identity(2)


def test_cayley_quarter_turn_example():
    got = la.plane_rotation(2, 0, 1, 1)
    assert got == la.as_mat([[0, 1], [-1, 0]])


def test_cayley_half_parameter_example():
    got = la.plane_rotation(2, 0, 1, Fr(1, 2))
    assert got == la.as_mat([[Fr(3, 5), Fr(4, 5)], [Fr(-4, 5), Fr(3, 5)]])


def test_plane_rotation_rejects_bad_plane():
    for i, j in ((0, 0), (-1, 1), (0, 3)):
        with pytest.raises(ParameterError):
            la.plane_rotation(3, i, j, 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_plane_rotation_is_the_cayley_transform(d):
    ts = [Fr(0), Fr(1), Fr(-1), Fr(1, 2), Fr(-2, 3), Fr(7, 3), Fr(-5)]
    for i in range(d):
        for j in range(d):
            if i != j:
                for t in ts:
                    assert la.plane_rotation(d, i, j, t) == oracle_cayley_rotation(d, i, j, t)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_cayley_orthogonality(d, data):
    i, j = data.draw(
        st.lists(st.integers(min_value=0, max_value=d - 1), min_size=2, max_size=2, unique=True)
    )
    q = la.plane_rotation(d, i, j, data.draw(rat))
    assert la.matmul(la.transpose(q), q) == la.identity(d)
    assert la.det(q) == 1
    # inner products preserved exactly
    u = data.draw(vec_st(d))
    v = data.draw(vec_st(d))
    assert la.dot(la.matvec(q, u), la.matvec(q, v)) == la.dot(u, v)


def test_plane_rotation_touches_two_coords():
    r = la.plane_rotation(4, 0, 3, Fr(1, 7))
    assert la.matmul(la.transpose(r), r) == la.identity(4)
    # coordinates 1 and 2 are untouched
    assert la.matvec(r, la.unit(4, 1)) == la.unit(4, 1)
    assert la.matvec(r, la.unit(4, 2)) == la.unit(4, 2)


def test_primitive_canonical_form():
    assert la.primitive((Fr(-2, 3), Fr(4, 3))) == (1, -2)
    assert la.primitive((0, Fr(5, 7))) == (0, 1)
    with pytest.raises(ParameterError):
        la.primitive((0, 0))


@settings(deadline=None)
@given(vec_st(3), st.fractions(min_value=Fr(1, 8), max_value=8, max_denominator=8))
def test_primitive_scale_invariant(v, c):
    assume(not la.is_zero_vec(v))
    assert la.primitive(v) == la.primitive(la.scale(v, c))


def test_subspace_rejects_dependent_basis():
    with pytest.raises(DegenerateBasisError):
        la.Subspace([(1, 0), (2, 0)])


def test_subspace_span_keys_agree_up_to_basis_change():
    a = la.Subspace([(1, 0, 1), (0, 1, 0)])
    b = la.Subspace([(1, 1, 1), (1, -1, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_kernel_basis_matches_rank():
    m = la.as_mat([[1, 2, 3], [2, 4, 6]])
    ker = la.kernel_basis(m)
    assert len(ker) == 3 - la.rank(m)
    for v in ker:
        assert la.is_zero_vec(la.matvec(m, v))


@pytest.mark.parametrize(
    "call",
    [
        lambda: la.kernel_basis([(1, 0), (0, 1, 3)]),
        lambda: la.Subspace([(1, 0, 0)], ambient=5),
    ],
    ids=["kernel_basis", "subspace"],
)
def test_ragged_input_raises(call):
    with pytest.raises(DimensionError):
        call()


# entries for the differential tests: small rationals, and integers and
# fractions large enough that the fraction-free steps grow long
wide = st.one_of(
    rat,
    st.integers(min_value=-(10**30), max_value=10**30).map(Fr),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
)


@st.composite
def matrices(draw):
    """1-5 rows; half the time one row becomes an integer combination of
    the others, so dependent rows come up often."""
    n = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = [draw(st.lists(wide, min_size=ncols, max_size=ncols)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        coeffs = draw(st.lists(small_int, min_size=n, max_size=n))
        rows[i] = [
            sum(c * r[j] for k, (c, r) in enumerate(zip(coeffs, rows)) if k != i)
            for j in range(ncols)
        ]
    return tuple(tuple(Fr(x) for x in r) for r in rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_kernel_and_key_match_oracles(m):
    got = rref(m)
    assert got == oracle_rref(m) == oracle_sympy_rref(m)
    rows, pivots = got
    ncols = len(m[0])
    want = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fr(0)] * ncols
        v[free] = Fr(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        want.append(tuple(v))
    assert la.kernel_basis(m) == want
    assert all(la.is_zero_vec(la.matvec(m, v)) for v in want)
    assert la.span_of(m).canonical_key() == rows
    if len(rows) == len(m):
        assert la.Subspace(m).canonical_key() == rows


@st.composite
def families(draw):
    """matrices(), with a zero row inserted and one row negated (so
    that its leading entry, a pivot, turns negative) each half the
    time."""
    rows = list(draw(matrices()))
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[i] = la.neg(rows[i])
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(rows)))
        rows.insert(i, tuple(Fr(0) for _ in rows[0]))
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(families())
def test_span_of_matches_the_validating_constructor(m):
    # span_of fills its Subspace in from the reduced rows directly; the
    # constructor scales the same rows and re-checks their rank
    got = la.span_of(m)
    want = la.Subspace(rref(m)[0], ambient=len(m[0]))
    assert got.basis == want.basis == oracle_rref(m)[0]
    assert got.int_rows == want.int_rows
    assert got.int_scale == want.int_scale
    assert got.ambient == want.ambient
    assert got.canonical_key() == want.canonical_key()
    assert got == want and hash(got) == hash(want)


def test_span_of_one_vector_is_its_primitive_over_its_lead():
    # the span of one nonzero vector is primitive(v) over that row's
    # first nonzero entry, with no elimination: the form an edge span
    # could take without rref_int, checked on integer and Fraction rows
    rng = random.Random(11)
    for i in range(3000):
        d = rng.randint(1, 6)
        if i % 2:
            v = tuple(Fr(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(d))
        else:
            v = tuple(rng.choice((0, 0, rng.randint(-60, 60))) for _ in range(d))
        got = la.span_of([v])
        if not any(v):
            assert got.dim == 0
            continue
        row = la.primitive(v)
        want = la.Subspace._of((row,), next(x for x in row if x), d)
        assert (got.int_rows, got.int_mults) == (want.int_rows, want.int_mults)
        assert got.canonical_key() == want.canonical_key()


@st.composite
def row_families(draw):
    """One to four rows of integer, Fraction or mixed entries, made
    dependent (a multiple of the next row, possibly zero) half the
    time."""
    entry = draw(st.sampled_from([small_int, rat, st.one_of(small_int, rat)]))
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(small_int)
        rows[i] = [c * x for x in rows[(i + 1) % n]]
    return tuple(tuple(r) for r in rows)


def assert_matches_eager(got, want):
    # integer rows, multipliers and keys answer with no Fraction basis
    assert all(type(x) is int for r in got.int_rows for x in r)
    assert got.int_rows == want.int_rows
    assert got.int_scale == want.int_scale
    assert got.dim == want.dim and got.ambient == want.ambient
    assert got._basis is None
    assert got.canonical_key() == want.canonical_key()
    assert hash(got) == hash(want)
    assert got.basis == want.basis
    assert all(type(x) is Fr for r in got.basis for x in r)


@settings(max_examples=300, deadline=None)
@given(row_families())
def test_subspace_matches_the_eager_oracle(rows):
    d = len(rows[0])
    # the trusted constructor, through span_of, on any family
    assert_matches_eager(la.span_of(rows), OracleSubspace(oracle_rref(rows)[0], ambient=d))
    try:
        want = OracleSubspace(rows)
    except DegenerateBasisError:
        with pytest.raises(DegenerateBasisError):
            la.Subspace(rows)
        return
    assert_matches_eager(la.Subspace(rows), want)
