"""The gift wrap with mirrored facets and ridge seeds against the plain one.

When int_facets' points are centrally symmetric (sorted, point n - 1 - i
is twice the centre minus point i: every sorted difference body of
equiproj, every cube and zonotope), the wrap runs on the points sorted
and centred at the origin: each facet found brings its mirror and the
mirror's memo sub-lattice, the planar hull scans half its edges and the
vertex test half the points, and the ids and offsets map back to the
input. Every facet popped seeds its own points' wrap with the ridge it
was entered by. The plain wrap (oracles.oracle_int_facets) pops every
facet, starts every sub-wrap from an axis hyperplane and pivots every
ridge. Both must give the same vertices, the same facets with their
planes and the same faces of every dimension: on every class body of
the zoo, on the family builds, and on random clouds closed under
negation, symmetric about another centre, shuffled, and not symmetric
at all.
"""

from operator import sub

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import shadowlab.families as fam
import shadowlab.kernels as kernels
import shadowlab.polytope as pt
from oracles import oracle_int_facets
from shadowlab.errors import PolytopeError
from test_difference_body import POLYTOPES, body_points, clouds


def check_against_the_plain_wrap(pts):
    assert pt.int_facets(pts) == oracle_int_facets(pts)


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_class_bodies_match_the_plain_wrap(name):
    p = POLYTOPES[name]()
    for cid in range(len(pt.parallel_classes(p))):
        pts = body_points(p, cid)
        assert pts == [tuple(-x for x in q) for q in reversed(pts)]
        check_against_the_plain_wrap(pts)


@st.composite
def symmetric_clouds(draw):
    """Integer points in d = 2..5 closed under negation, sorted: on a
    small grid, so that points inside faces are common, and with the
    origin drawn in or left out."""
    d = draw(st.integers(2, 5))
    coord = st.integers(-3, 3)
    half = draw(st.lists(st.tuples(*[coord] * d), min_size=d, max_size=d + 4))
    pts = {q for q in half if any(q)}
    pts |= {tuple(-x for x in q) for q in pts}
    if draw(st.booleans()):
        pts.add((0,) * d)
    pts = sorted(pts)
    assume(len(pts) > d)
    assume(kernels.rank_int([tuple(map(sub, q, pts[0])) for q in pts]) == d)
    return pts


@settings(max_examples=80, deadline=None)
@given(symmetric_clouds())
def test_symmetric_clouds_match_the_plain_wrap(pts):
    check_against_the_plain_wrap(pts)


@settings(max_examples=40, deadline=None)
@given(clouds())
def test_other_clouds_match_the_plain_wrap(pts):
    check_against_the_plain_wrap(pts)


def plain(build, *args):
    """build(*args) with the plain wrap in place of int_facets."""
    with mock.patch.object(pt, "int_facets", oracle_int_facets):
        return build(*args)


def polytope_fields(p):
    return p.vertices, p.int_vertices(), p._face_ids, pt.facet_planes(p)


@st.composite
def centred_clouds(draw):
    """Points in d = 2..6 symmetric about a centre z off the origin, in
    shuffled order: a small grid and its image 2z - q, with z drawn on
    the half-integer grid, and z itself drawn in or left out. Returned
    as integers, or with every coordinate over a drawn denominator."""
    d = draw(st.integers(2, 6))
    coord = st.integers(-3, 3)
    half = draw(st.lists(st.tuples(*[coord] * d), min_size=d, max_size=d + 4))
    s = draw(st.tuples(*[st.integers(-5, 5)] * d))
    pts = set(half) | {tuple(a - x for a, x in zip(s, q)) for q in half}
    if draw(st.booleans()):
        # the centre, doubled so that it is an integer point
        pts = {tuple(2 * x for x in q) for q in pts} | {s}
    pts = draw(st.permutations(sorted(pts)))
    assume(len(pts) > d)
    assume(kernels.rank_int([tuple(map(sub, q, pts[0])) for q in pts]) == d)
    den = draw(st.integers(1, 3))
    if den > 1:
        return [tuple(Fraction(x, den) for x in q) for q in pts]
    return pts


@settings(max_examples=50, deadline=None)
@given(centred_clouds())
def test_centred_clouds_match_the_plain_wrap(pts):
    if all(isinstance(x, int) for q in pts for x in q):
        check_against_the_plain_wrap(pts)
    assert polytope_fields(pt.hull(pts)) == polytope_fields(plain(pt.hull, pts))


FAMILIES = {
    "cube3": (fam.hypercube, 3),
    "cube4": (fam.hypercube, 4),
    "cube5": (fam.hypercube, 5),
    "cube6": (fam.hypercube, 6),
    "zono4": (fam.zonotope, fam.random_generators(5, 4, 4)),
    "zono7": (fam.zonotope, fam.random_generators(6, 4, 7)),
    "zono8": (fam.zonotope, fam.random_generators(6, 5, 8)),
    "perturbed": (fam.perturbed_hypercube, Fraction(1, 100)),
    "pnd5": (lambda d: fam.hyperprism_pnd(2, d, 0), 5),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_builds_match_the_plain_wrap(name):
    build, arg = FAMILIES[name]
    assert polytope_fields(build(arg)) == polytope_fields(plain(build, arg))


@pytest.mark.parametrize(
    "pts",
    [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)],
    ],
    ids=["collinear-d2", "coplanar-d3"],
)
def test_both_wraps_reject_a_cloud_that_is_not_full_dimensional(pts):
    for wrap in (pt.int_facets, oracle_int_facets):
        with pytest.raises(PolytopeError, match="not full-dimensional"):
            wrap(pts)


def test_a_point_above_the_facet_stops_the_wrap():
    square = {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (2, 2)}
    with pytest.raises(PolytopeError):
        pt._below(square, (1, 0), 1)
    # a seed facing the wrong way raises as soon as its facet is popped
    cube = dict(enumerate(fam.hypercube(3).int_vertices()[0]))
    seed = (frozenset(i for i, q in cube.items() if q[0] == 0), (1, 0, 0), 0)
    with pytest.raises(PolytopeError):
        pt._hull_facets(cube, {}, seed=seed)
