"""Input checks of the library's public functions, each reached with a
planted bad argument: the error type and its message, and the plain
repr of the value types."""

import re

import pytest

import shadowlab.families as fam
import shadowlab.kernels as kernels
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import DimensionError, ParameterError, PolytopeError

CUBE = fam.hypercube(3)
PLANE = sh.ProjectionPlane(((1, 2, 0), (0, 1, 3)))
SEGMENT = wk.WalkSegment(((1, 2, 0),), ((0, 1, 0),), (0, 1))

REJECTIONS = [
    (lambda: la.dot((1, 2), (1,)), DimensionError, "dot product needs equal lengths"),
    (lambda: la.kernel_basis([]), DimensionError, "kernel of an empty system needs ncols"),
    (lambda: la.kernel_space([]), DimensionError, "kernel of an empty system needs a width"),
    (lambda: la.Subspace([(1, 0), (0, 1, 0)]), DimensionError, "basis vectors of mixed lengths"),
    (lambda: la.Subspace([]), DimensionError, "zero subspace needs an ambient dimension"),
    (lambda: la.span_of([(1, 0, 0)]).contains((1, 0)), DimensionError,
     "vector has wrong ambient dimension"),
    (lambda: la.intersect([(1, 0)], [(1, 0, 0)]), DimensionError,
     "subspaces live in different ambient spaces"),
    (lambda: la.parse_rat("1/x"), ParameterError, "bad rational literal '1/x'"),
    (lambda: kernels.generalized_cross([(1, 0, 0)]), DimensionError,
     "need d-1 vectors in dimension d"),
    (lambda: pt.hull([]), PolytopeError, "no vertices given"),
    (lambda: pt.hull([(0, 0), (1, 0, 0)]), DimensionError, "vertices of mixed dimensions"),
    (lambda: pt.face_cycle(CUBE, pt.k_faces(CUBE, 1)[0]), ParameterError,
     "face_cycle needs a 2-face"),
    (lambda: PLANE.image((1, 2)), DimensionError, "vector has wrong ambient dimension"),
    (lambda: next(sh.degenerate_classes(CUBE, [(1, 0, 0), (0, 1, 0)])), DimensionError,
     "stacked family is not square"),
    (lambda: SEGMENT.rescaled(1, 1), ParameterError, "segment range is empty"),
    (lambda: wk.elementary_transformation(CUBE, 0, None, la.span_of([(1, 2, 0, 0)])),
     DimensionError, "span lives in the wrong ambient dimension"),
    (lambda: wk.boundary_chains(CUBE, 99, PLANE), ParameterError, "no 2-face with id 99"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_bad_argument_is_rejected_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_value_types_have_a_plain_repr():
    assert repr(la.span_of([(1, 0, 0)])) == "Subspace(dim=1, ambient=3)"
    assert la.span_of([(1, 0, 0)]).__eq__((1, 0, 0)) is NotImplemented
    assert repr(SEGMENT) == "WalkSegment(rows=1, range=[0, 1])"
    assert repr(pt.k_faces(CUBE, 1)[0]).startswith("Face(dim=1, vertices=(")
    assert repr(pt.parallel_classes(CUBE)[0]).startswith("ParallelClass(members=(")
    assert repr(pt.proscribed_directions(CUBE)[0]).startswith("ProscribedDirection(line=(")


def test_kernel_of_an_empty_system_is_the_whole_space():
    assert la.kernel_basis([], 2) == [la.unit(2, 0), la.unit(2, 1)]
