"""A projection plane's complement, built from rref_int's kernel
integers without a second validation, against the validating route."""

from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings, strategies as st

import shadowlab.linalg as la
import shadowlab.shadow as sh
from shadowlab.errors import DegenerateBasisError

entry = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


def rows_st(nrows, width):
    return st.lists(
        st.tuples(*[entry] * width), min_size=nrows, max_size=nrows
    ).map(lambda rs: tuple(tuple(Fr(x) for x in r) for r in rs))


def same_subspace(got, want):
    assert got.basis == want.basis
    assert got.int_rows == want.int_rows
    assert got.int_scale == want.int_scale
    assert got.ambient == want.ambient
    assert got.canonical_key() == want.canonical_key()
    assert got == want and hash(got) == hash(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: rows_st(2, d)))
def test_plane_complement_matches_the_validating_constructor(basis):
    try:
        w = sh.ProjectionPlane(basis)
    except DegenerateBasisError:
        assume(False)
    d = len(basis[0])
    want = la.Subspace(la.kernel_basis(w.basis.int_rows), ambient=d)
    same_subspace(w.complement, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 6).flatmap(lambda d: rows_st(d - 2, d)))
def test_from_orthogonal_basis_matches_the_validating_constructor(rows):
    try:
        s = la.Subspace(rows)
    except DegenerateBasisError:
        assume(False)
    w = sh.ProjectionPlane.from_orthogonal(s)
    same_subspace(w.basis, la.Subspace(la.kernel_basis(s.int_rows)))
    assert w.complement is s


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.integers(1, 6).flatmap(lambda d: rows_st(n, d))
    )
)
def test_kernel_space_matches_kernel_basis(m):
    d = len(m[0])
    same_subspace(la.kernel_space(m), la.Subspace(la.kernel_basis(m), ambient=d))


def test_dependent_basis_still_raises():
    with pytest.raises(DegenerateBasisError):
        sh.ProjectionPlane(((1, 2, 3), (2, 4, 6)))
    with pytest.raises(DegenerateBasisError):
        sh.ProjectionPlane(((0, 0, 0, 0), (1, 0, 0, 0)))
