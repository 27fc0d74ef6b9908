"""The gift wrap with mirrored facets against the plain one.

When int_facets' points are symmetric (point n - 1 - i is minus point
i, as for every sorted difference body of equiproj), each facet found
brings its mirror and the mirror's memo sub-lattice, the planar hull
scans half its edges and the vertex test half the points. The plain
wrap (oracles.oracle_int_facets) pops every facet and pivots every
ridge. Both must give the same vertices, the same facets with their
planes and the same faces of every dimension: on every class body of
the zoo, and on random clouds closed under negation and not.
"""

from operator import sub

import pytest
from hypothesis import assume, given, settings, strategies as st

import shadowlab.kernels as kernels
import shadowlab.polytope as pt
from oracles import oracle_int_facets
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
