"""The difference-body cells read off the integer gift wrap, the face
lattice the wrap returns, and the closed-form low-dimensional hull it
ends in.

equiproj._cells takes each class's difference body from pt.int_facets
without building a Polytope; it must yield exactly the cells, in the
same order, as the Polytope route (oracles.oracle_cells). The faces of
every dimension that int_facets reads off the wrap's memo must be the
closure of its facets under intersection (oracles.oracle_faces_by_dim),
on the zoo, on every class's difference body and on random clouds with
points inside faces. The gift wrap answers dimensions 1 and 2 in closed
form; there its facets must be the brute-force ones, tight sets with
collinear points included.
"""

from fractions import Fraction as Fr
from math import gcd
from operator import sub

import pytest
from hypothesis import assume, given, settings, strategies as st

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.kernels as kernels
import shadowlab.linalg as la
import shadowlab.polytope as pt
from shadowlab.errors import GeometryError
from oracles import (
    oracle_cells,
    oracle_faces_by_dim,
    oracle_facets,
    oracle_hull_2d,
    oracle_k_faces,
)

POLYTOPES = {
    "cube3": lambda: fam.hypercube(3),
    "prism": lambda: fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
    "tetrahedron": lambda: pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "cube4": lambda: fam.hypercube(4),
    "cube5": lambda: fam.hypercube(5),
    "perturbed": lambda: fam.perturbed_hypercube(Fr(1, 100)),
    "zono4": lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
    "zono7": lambda: fam.zonotope(fam.random_generators(6, 4, 7)),
    "zono8": lambda: fam.zonotope(fam.random_generators(6, 5, 8)),
    "pn4": lambda: fam.pn_polytope(4),
    "pnd5": lambda: fam.hyperprism_pnd(2, 5, 0),
}


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_cells_match_the_polytope_route(name):
    p = POLYTOPES[name]()
    for cid in range(len(pt.parallel_classes(p))):
        assert list(eq._cells(p, cid)) == list(oracle_cells(p, cid))


def test_inner_direction_stops_at_its_bound():
    # n1 + t n2 = (1, -t) is orthogonal to (1, 1) at t = 1 alone: one
    # span and two normals allow one failing t, and t = 2 is found
    assert eq._inner_direction([(1, 0), (0, -1)], [((1, 1), (0, 0))]) == (1, -2)
    # both normals lie in the span's complement, as in a cone _cells
    # filters out: no t clears it, and the search is refused
    with pytest.raises(GeometryError, match="cone data broken"):
        eq._inner_direction([(1, 0), (2, 0)], [((0, 1), (0, 3))])


def check_lattice(pts):
    """int_facets' faces equal the closure of its facets."""
    _keep, facets, faces = pt.int_facets(pts)
    assert faces == oracle_faces_by_dim(pts, [ids for ids, _n, _o in facets])


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_lattice_matches_the_closure_on_the_zoo(name):
    check_lattice(POLYTOPES[name]().int_vertices()[0])


def body_points(p, cid):
    """The points of a class's difference body, as equiproj._cells
    builds them: every difference of the vertex images under a
    primitive integer basis of the class plane's complement."""
    rows = pt.parallel_classes(p)[cid].direction_plane.int_rows
    basis = [la.primitive(b) for b in la.int_kernel(rows)]
    ys = {tuple(kernels.dot(b, v) for b in basis) for v in p.int_vertices()[0]}
    return sorted({tuple(map(sub, y, z)) for y in ys for z in ys})


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_lattice_matches_the_closure_on_the_difference_bodies(name):
    p = POLYTOPES[name]()
    for cid in range(len(pt.parallel_classes(p))):
        check_lattice(body_points(p, cid))


@st.composite
def clouds(draw):
    """Integer points in d = 3..5 that always hold a point the hull
    drops: even coordinates on a small grid (so that coplanar points are
    common), plus the midpoints of some pairs (points inside edges,
    inside 2-faces and inside the hull) and one midpoint of a midpoint
    and a point."""
    d = draw(st.integers(3, 5))
    coord = st.integers(-2, 2).map(lambda x: 2 * x)
    pts = draw(
        st.lists(
            st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 5, unique=True
        )
    )
    assume(kernels.rank_int([tuple(map(sub, q, pts[0])) for q in pts]) == d)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(pts), st.sampled_from(pts)).filter(
                lambda ab: ab[0] != ab[1]
            ),
            min_size=1,
            max_size=4,
        )
    )
    mids = [tuple((x + y) // 2 for x, y in zip(a, b)) for a, b in pairs]
    c, q = mids[0], draw(st.sampled_from(pts))
    quarter = tuple(x + y for x, y in zip(c, q))
    pts = [tuple(2 * x for x in r) for r in pts + mids] + [quarter]
    return list(dict.fromkeys(pts))


@settings(max_examples=60, deadline=None)
@given(clouds())
def test_lattice_matches_the_closure_on_clouds(pts):
    check_lattice(pts)


@settings(max_examples=30, deadline=None)
@given(clouds())
def test_hull_of_a_cloud_renumbers_every_face(pts):
    poly = pt.hull(pts)
    assert len(poly.vertices) < len(pts)
    for k in range(poly.dim):
        got = {frozenset(f.vertex_ids) for f in pt.k_faces(poly, k)}
        assert got == oracle_k_faces(poly.vertices, k)


def check_planes(pts, found):
    """Every (normal, offset) of found is primitive together, holds as
    <= on every point and is tight exactly on its id set."""
    for tight, (normal, offset) in found.items():
        assert isinstance(normal, tuple)
        assert gcd(*normal, offset) == 1
        vals = [kernels.dot(normal, q) for q in pts]
        assert all(v <= offset for v in vals)
        assert tight == frozenset(i for i, v in enumerate(vals) if v == offset)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=-20, max_value=20), min_size=2, max_size=12))
def test_one_dimensional_facets_are_the_extremes(xs):
    pts = [(x,) for x in xs]
    found = pt._hull_facets(dict(enumerate(pts)), {})
    lo, hi = pts.index((min(xs),)), pts.index((max(xs),))
    assert set(found) == {frozenset({lo}), frozenset({hi})}
    check_planes(pts, found)
    keep, facets, _faces = pt.int_facets(pts)
    assert keep == sorted((lo, hi))
    assert [ids for ids, _n, _o in facets] == sorted([(lo,), (hi,)])
    poly = pt.hull(pts)
    assert sorted(poly.vertices) == [(Fr(min(xs)),), (Fr(max(xs)),)]
    assert sorted(poly._facet_planes) == [((-1,), -min(xs)), ((1,), max(xs))]


@st.composite
def clouds_2d(draw):
    """Distinct integer points, full-dimensional, on a small grid (so
    that collinear and interior points are common), with the integer
    midpoints of some pairs added: points inside edges and inside the
    hull."""
    pts = draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=3,
            max_size=10,
            unique=True,
        )
    )
    for a, b in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=6)):
        m = (a[0] + b[0], a[1] + b[1])
        if m[0] % 2 == 0 and m[1] % 2 == 0:
            pts.append((m[0] // 2, m[1] // 2))
    pts = list(dict.fromkeys(pts))
    assume(len(oracle_hull_2d(pts)) >= 3)
    return pts


@settings(max_examples=150, deadline=None)
@given(clouds_2d())
def test_two_dimensional_facets_match_the_brute_force(pts):
    want = oracle_facets(pts)
    found = pt._hull_facets(dict(enumerate(pts)), {})
    assert set(found) == want
    check_planes(pts, found)

    # the hull keeps the oracle's vertices; its facets are the oracle's
    # tight sets without the points inside edges
    verts = {tuple(int(x) for x in q) for q in oracle_hull_2d(pts)}
    keep, facets, _faces = pt.int_facets(pts)
    assert keep == [i for i, q in enumerate(pts) if q in verts]
    assert [ids for ids, _n, _o in facets] == sorted(
        tuple(sorted(i for i in t if pts[i] in verts)) for t in want
    )
    assert {ids: (n, o) for ids, n, o in facets} == {
        tuple(sorted(i for i in t if pts[i] in verts)): found[t] for t in found
    }
    poly = pt.hull(pts)
    assert [tuple(int(x) for x in v) for v in poly.vertices] == [pts[i] for i in keep]
    assert list(poly._facet_planes) == [(n, o) for _ids, n, o in facets]


@settings(max_examples=100, deadline=None)
@given(clouds_2d())
def test_closure_groups_the_faces_of_a_polygon(pts):
    keep, facets, faces = pt.int_facets(pts)
    assert faces[1] == [ids for ids, _n, _o in facets]
    assert faces[0] == [(i,) for i in keep]
    assert set(faces) == {0, 1}
    assert faces == oracle_faces_by_dim(pts, faces[1])
