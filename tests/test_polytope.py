"""Face enumeration tests, cross-checked against the brute oracles."""

import hashlib
from fractions import Fraction as Fr
from itertools import combinations, product
from math import comb, gcd
from operator import sub

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from shadowlab import families as fam
from shadowlab import kernels
from shadowlab import linalg as la
from shadowlab import polytope as pt
from shadowlab.errors import ParameterError, PolytopeError
from oracles import (
    oracle_face_cycle,
    oracle_face_edges,
    oracle_facets,
    oracle_k_faces,
    oracle_rank,
)


def cube_vertices(d=3):
    return [tuple(Fr(x) for x in p) for p in product((0, 1), repeat=d)]


def tetrahedron():
    return pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def triangular_prism():
    base = [(0, 0), (1, 0), (0, 1)]
    return pt.build([(x, y, z) for (x, y) in base for z in (0, 1)])


def simplex4():
    pts = [(0, 0, 0, 0)] + [tuple(la.unit(4, i)) for i in range(4)]
    return pt.build(pts)


def test_build_tetrahedron():
    p = tetrahedron()
    assert p.dim == 3 and len(p.vertices) == 4


def test_build_cube():
    p = pt.build(cube_vertices())
    assert len(p.vertices) == 8


def test_build_rejects_center_point():
    pts = cube_vertices() + [(Fr(1, 2), Fr(1, 2), Fr(1, 2))]
    with pytest.raises(PolytopeError, match="not a vertex"):
        pt.build(pts)


def test_build_rejects_edge_midpoint():
    pts = cube_vertices() + [(Fr(1, 2), 0, 0)]
    with pytest.raises(PolytopeError, match="not a vertex"):
        pt.build(pts)


def test_hull_keeps_the_vertices_of_a_cloud():
    cube = [tuple(2 * x for x in v) for v in product((0, 1), repeat=3)]
    centre, midpoint, inner = (1, 1, 1), (1, 0, 0), (Fr(1, 3), Fr(2, 5), Fr(3, 11))
    # the midpoint of edge 0-4 comes second, so dropping it reorders the
    # facets: x0 = 0 sorts after x1 = 0 and x2 = 0 by cloud ids, first by
    # vertex ids
    cloud = cube[:1] + [midpoint] + cube[1:3] + [centre] + cube[3:5] + [inner] + cube[5:]
    got, want = pt.hull(cloud), pt.build(cube)
    assert got.vertices == want.vertices
    assert [f.vertex_ids for f in pt.facets(got)] == [
        f.vertex_ids for f in pt.facets(want)
    ]
    assert [f.span.basis for f in pt.facets(got)] == [
        f.span.basis for f in pt.facets(want)
    ]
    # the planes and integer vertices are on the vertices' scale, not on
    # the cloud's (the inner point has denominators 3, 5 and 11)
    assert got._facet_planes == want._facet_planes
    assert got.int_vertices() == want.int_vertices() == (tuple(cube), 1)
    with pytest.raises(PolytopeError, match="^point 1 is not a vertex of the hull$"):
        pt.build(cloud)


def test_build_rejects_duplicates():
    with pytest.raises(PolytopeError, match="duplicate"):
        pt.build(cube_vertices() + [(0, 0, 0)])


def test_build_rejects_flat_input():
    square_in_3d = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(PolytopeError, match="full-dimensional"):
        pt.build(square_in_3d)


def test_build_rejects_too_few_points():
    with pytest.raises(PolytopeError):
        pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


@st.composite
def flat_clouds(draw):
    """Integer points on a random affine flat of R^d, d = 1..5: a base
    point plus integer combinations of at most d random rows, so the
    flat is often of lower dimension than d."""
    d = draw(st.integers(1, 5))
    coord = st.integers(-4, 4)
    rows = draw(st.lists(st.tuples(*[coord] * d), max_size=d))
    base = draw(st.tuples(*[coord] * d))
    combos = draw(st.lists(st.tuples(*[coord] * len(rows)), min_size=1, max_size=12))
    return [
        tuple(b + sum(c * r[j] for c, r in zip(cs, rows)) for j, b in enumerate(base))
        for cs in combos
    ]


@settings(max_examples=150, deadline=None)
@given(flat_clouds())
def test_affine_rank_matches_rank_int(points):
    diffs = [tuple(map(sub, q, points[0])) for q in points[1:]]
    assert pt._affine_rank(points) == (kernels.rank_int(diffs) if diffs else 0)


def test_cube_facets():
    p = pt.build(cube_vertices())
    fs = pt.facets(p)
    assert len(fs) == 6
    assert all(len(f.vertex_ids) == 4 for f in fs)
    assert all(f.dim == 2 for f in fs)


def test_hypercube_facets():
    p = pt.build(cube_vertices(4))
    fs = pt.facets(p)
    assert len(fs) == 8
    assert all(len(f.vertex_ids) == 8 for f in fs)


def test_tetrahedron_facets():
    fs = pt.facets(tetrahedron())
    assert len(fs) == 4
    assert all(len(f.vertex_ids) == 3 for f in fs)


def test_every_vertex_on_enough_facets():
    p = pt.build(cube_vertices(4))
    for i in range(len(p.vertices)):
        count = sum(1 for f in pt.facets(p) if i in f.vertex_ids)
        assert count >= 4


def test_cube_face_counts():
    p = pt.build(cube_vertices())
    assert (
        len(pt.k_faces(p, 0)),
        len(pt.k_faces(p, 1)),
        len(pt.k_faces(p, 2)),
    ) == (8, 12, 6)


def test_hypercube_face_counts():
    p = pt.build(cube_vertices(4))
    counts = tuple(len(pt.k_faces(p, k)) for k in range(4))
    assert counts == (16, 32, 24, 8)


def test_prism_edge_count():
    assert len(pt.k_faces(triangular_prism(), 1)) == 9


def test_k_faces_out_of_range():
    with pytest.raises(ParameterError):
        pt.k_faces(tetrahedron(), 3)


def test_cube_parallel_classes():
    p = pt.build(cube_vertices())
    classes = pt.parallel_classes(p)
    assert sorted(len(c.member_ids) for c in classes) == [2, 2, 2]


def test_hypercube_parallel_classes():
    p = pt.build(cube_vertices(4))
    classes = pt.parallel_classes(p)
    assert len(classes) == 6
    assert all(len(c.member_ids) == 4 for c in classes)


def test_prism_parallel_classes_against_span_comparison():
    p = triangular_prism()
    faces = pt.k_faces(p, 2)
    # independent partition: pairwise span equality via oracle rank
    fkeys = []
    for f in faces:
        verts = [p.vertices[i] for i in f.vertex_ids]
        rows = [la.sub(q, verts[0]) for q in verts[1:]]
        fkeys.append(rows)
    pairs = set()
    for i, j in combinations(range(len(faces)), 2):
        stacked = fkeys[i] + fkeys[j]
        if oracle_rank(stacked) == 2:
            pairs.add((i, j))
    classes = pt.parallel_classes(p)
    got_pairs = set()
    for c in classes:
        for i, j in combinations(c.member_ids, 2):
            got_pairs.add((i, j))
    assert got_pairs == pairs
    assert sorted(len(c.member_ids) for c in classes) == [1, 1, 1, 2]
    sizes = {len(f.vertex_ids) for c in classes if len(c.member_ids) == 2 for f in [faces[c.member_ids[0]]]}
    assert sizes == {3}


# sha256 of each class's member ids and canonical_key(), in class order;
# class ids are positions in this order, so the order is pinned
CLASS_ORDER = {
    "3-cube": (lambda: fam.hypercube(3), 3, "3fef029e8d6258ee5e449de4f70c77d78b9fa487c1612e6b78417084c5db11b4"),
    "4-cube": (lambda: fam.hypercube(4), 6, "181921c5b11ac6d0c01a36f8f239bba1ac88b9731e900ed172513c496bc5bf24"),
    "5-cube": (lambda: fam.hypercube(5), 10, "49ee5312d3ecd92810b63c6db32d40b398d16fffe75db0f9310586cf12a5a13d"),
    "zonotope-4": (
        lambda: fam.zonotope(fam.random_generators(5, 4, 4)), 10,
        "78b04d61ab9ed2e00c8449a7881b26ecebea4285652d74216535123d936db822",
    ),
    "zonotope-7": (
        lambda: fam.zonotope(fam.random_generators(6, 4, 7)), 15,
        "4a5bc80ab4e04b1d7b7dcf96d883b1614523f9b670b078e537d0d1a2e289877e",
    ),
    "zonotope-8": (
        lambda: fam.zonotope(fam.random_generators(6, 5, 8)), 15,
        "65877a7517a309ee4d40797423c14a1058789565e32dfb056e3a7f2a12ea3d47",
    ),
    "pn4": (lambda: fam.pn_polytope(4), 72, "1b7a204e0592b19fe69a4ecdfd94d2a7ecb69ebb3ee934fb3b86b420e6b9622c"),
    "perturbed-4-cube": (
        lambda: fam.perturbed_hypercube(Fr(1, 100)), 15,
        "63ff541ef7984f84c829a0ac2a796ec4bfa26b6193021f5827b7bd4d6a495008",
    ),
    "pnd-2-5-0": (
        lambda: fam.hyperprism_pnd(2, 5, 0), 30,
        "2b5a89210cf1dc8829c4a0af5f19804237ef1f2e3a37621cc43134ae64d2ac51",
    ),
}


@pytest.mark.parametrize("name", sorted(CLASS_ORDER))
def test_parallel_class_order_is_pinned(name):
    make, count, digest = CLASS_ORDER[name]
    classes = pt.parallel_classes(make())
    text = "\n".join(
        f"{c.member_ids} {[[str(x) for x in r] for r in c.direction_plane.canonical_key()]}"
        for c in classes
    )
    assert len(classes) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parallel_classes_partition():
    p = pt.build(cube_vertices(4))
    classes = pt.parallel_classes(p)
    seen = [i for c in classes for i in c.member_ids]
    assert sorted(seen) == list(range(len(pt.k_faces(p, 2))))


def oracle_proscribed_lines(p):
    """Brute force over all 2-face pairs plus edge directions."""
    faces = pt.k_faces(p, 2)
    lines = set()
    for fa, fb in combinations(faces, 2):
        inter = la.intersect(fa.span, fb.span)
        if inter.dim == 1:
            lines.add(la.primitive(inter.basis[0]))
    for e in pt.k_faces(p, 1):
        lines.add(la.primitive(e.span.basis[0]))
    return lines


def test_cube_proscribed_directions():
    p = pt.build(cube_vertices())
    got = pt.proscribed_directions(p)
    assert {d.line for d in got} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert {d.line for d in got} == oracle_proscribed_lines(p)


def test_hypercube_proscribed_directions():
    p = pt.build(cube_vertices(4))
    got = {d.line for d in pt.proscribed_directions(p)}
    assert got == {tuple(la.unit(4, i)) for i in range(4)}
    assert got == oracle_proscribed_lines(p)


def test_simplex_proscribed_directions():
    p = simplex4()
    got = {d.line for d in pt.proscribed_directions(p)}
    assert len(got) == 10
    assert got == oracle_proscribed_lines(p)
    edge_dirs = {la.primitive(e.span.basis[0]) for e in pt.k_faces(p, 1)}
    assert got == edge_dirs


def test_proscribed_witnesses_are_valid():
    p = triangular_prism()
    faces = pt.k_faces(p, 2)
    for d in pt.proscribed_directions(p):
        i, j = d.witness_pair
        inter = la.intersect(faces[i].span, faces[j].span)
        assert inter.dim == 1
        assert la.primitive(inter.basis[0]) == d.line


def test_every_two_face_span_holds_a_proscribed_line():
    for p in (pt.build(cube_vertices()), triangular_prism(), simplex4()):
        lines = [la.as_vec(d.line) for d in pt.proscribed_directions(p)]
        for f in pt.k_faces(p, 2):
            assert any(f.span.contains(line) for line in lines)


def test_facets_match_oracle_on_zoo():
    for pts in (cube_vertices(), cube_vertices(4)):
        p = pt.build(pts)
        got = {frozenset(f.vertex_ids) for f in pt.facets(p)}
        assert got == oracle_facets(p.vertices)


def test_k_faces_match_oracle_on_prism():
    p = triangular_prism()
    fsets = oracle_facets(p.vertices)
    for k in (1, 2):
        got = {frozenset(f.vertex_ids) for f in pt.k_faces(p, k)}
        assert got == oracle_k_faces(p.vertices, k, facets=fsets)


def test_face_cycle_of_cube_facet():
    p = pt.build(cube_vertices())
    f = pt.facets(p)[0]
    cycle = pt.face_cycle(p, f)
    assert sorted(cycle) == list(f.vertex_ids)
    edges = {frozenset(e.vertex_ids) for e in pt.face_edges(p, f)}
    cyc_edges = {
        frozenset((cycle[i], cycle[(i + 1) % 4])) for i in range(4)
    }
    assert cyc_edges == edges


EDGE_ZOO = [
    fam.hypercube(3),
    fam.hypercube(4),
    fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
    fam.perturbed_hypercube(Fr(1, 100)),
    fam.pn_polytope(2),
    fam.hyperprism_pnd(2, 5, 0),
    fam.zonotope(fam.random_generators(6, 4, 7)),
    simplex4(),
]


@pytest.mark.parametrize("p", EDGE_ZOO, ids=lambda p: p.label)
def test_face_span_keys_equal_the_recomputed_reduced_form(p, monkeypatch):
    # span_of sets each face span's key from its own reduced form, so
    # reading the key of a fresh span runs no second rref_int
    rref = kernels.rref_int
    for k in range(1, p.dim):
        for face in pt.k_faces(p, k):
            reduced, _pivots, den = rref(face.span.int_rows)
            want = tuple(tuple(Fr(x, den) for x in r) for r in reduced)
            assert face.span.canonical_key() == want
            fresh = la.span_of(face.span.int_rows, ambient=p.dim)
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "rref_int", None)
                assert fresh.canonical_key() == want


@pytest.mark.parametrize("p", EDGE_ZOO, ids=lambda p: p.label)
def test_face_edges_match_the_edge_scan(p):
    faces = pt.k_faces(p, 2) + list(pt.facets(p))
    for face in faces:
        got = pt.face_edges(p, face)
        assert got == oracle_face_edges(p, face)
        if face.dim == 2:
            # the cycle walks exactly those edges
            cycle = pt.face_cycle(p, face)
            assert cycle[0] == min(face.vertex_ids)
            assert pt.face_cycle(p, face) is cycle
            steps = zip(cycle, cycle[1:] + cycle[:1])
            assert {frozenset(s) for s in steps} == {frozenset(e.vertex_ids) for e in got}
    index = pt.edge_index(p)
    assert pt.edge_index(p) is index
    assert [pt.k_faces(p, 1)[i].vertex_ids for i in index.values()] == list(index)


@pytest.mark.parametrize("p", EDGE_ZOO, ids=lambda p: p.label)
def test_face_cycle_matches_the_adjacency_walk(p, monkeypatch):
    # a fresh copy, so that no cycle is cached; face_cycle reads each
    # polygon off its hull, with no edge lookup
    q = pt.build(p.vertices, p.label)
    faces = pt.k_faces(q, 2)
    monkeypatch.setattr(pt, "face_edges", None)
    monkeypatch.setattr(pt, "edge_index", None)
    for face in faces:
        assert pt.face_cycle(q, face) == oracle_face_cycle(q, face)


@st.composite
def small_hulls(draw):
    """The hull of d + 2 to d + 4 integer points in d = 3, 4 or 5."""
    d = draw(st.integers(3, 5))
    coord = st.integers(-2, 2)
    pts = draw(
        st.lists(st.tuples(*[coord] * d), min_size=d + 2, max_size=d + 4, unique=True)
    )
    assume(kernels.rank_int([tuple(map(sub, q, pts[0])) for q in pts]) == d)
    return pt.hull(pts)


@settings(max_examples=30, deadline=None)
@given(small_hulls())
def test_face_cycle_matches_the_adjacency_walk_on_small_hulls(p):
    for face in pt.k_faces(p, 2):
        assert pt.face_cycle(p, face) == oracle_face_cycle(p, face)


def test_face_cycle_refuses_a_face_off_its_plane():
    # a face that also names a vertex off its plane: that vertex shares
    # an image with a face vertex, so the hull keeps fewer ids
    p = pt.build(cube_vertices())
    f = pt.facets(p)[0]
    other = next(v for v in range(len(p.vertices)) if v not in f.vertex_ids)
    broken = pt.Face(f.vertex_ids + (other,), 2, f.span)
    with pytest.raises(PolytopeError, match="is not a convex polygon$"):
        pt.face_cycle(p, broken)


@pytest.mark.parametrize("p", EDGE_ZOO, ids=lambda p: p.label)
def test_proscribed_directions_match_the_brute_pairs(p):
    # the oracle adds every edge direction on its own, so a missing edge
    # line shows
    got = pt.proscribed_directions(p)
    assert {d.line for d in got} == oracle_proscribed_lines(p)
    faces = pt.k_faces(p, 2)
    for d in got:
        i, j = d.witness_pair
        inter = la.intersect(faces[i].span, faces[j].span)
        assert inter.dim == 1 and la.primitive(inter.basis[0]) == d.line


@pytest.mark.parametrize("p", EDGE_ZOO[:4], ids=lambda p: p.label)
def test_apply_isometry_carries_the_face_ids(p):
    d = p.dim
    pt.k_faces(p, 1)
    r = la.plane_rotation(d, 0, d - 1, Fr(1, 3))
    q = pt.apply_isometry(p, r)
    assert q._face_ids is p._face_ids
    rebuilt = pt.build(q.vertices)
    for k in range(d - 1):
        assert [f.vertex_ids for f in pt.k_faces(q, k)] == [
            f.vertex_ids for f in pt.k_faces(rebuilt, k)
        ]
    # classes are not carried: their order follows the moved spans
    assert [c.member_ids for c in pt.parallel_classes(q)] == [
        c.member_ids for c in pt.parallel_classes(rebuilt)
    ]


def test_apply_isometry_preserves_combinatorics():
    p = pt.build(cube_vertices())
    r = la.plane_rotation(3, 0, 2, Fr(1, 3))
    q = pt.apply_isometry(p, r)
    assert [f.vertex_ids for f in pt.facets(q)] == [
        f.vertex_ids for f in pt.facets(p)
    ]
    assert len(pt.k_faces(q, 1)) == 12
    # spans transform with the map
    for fp, fq in zip(pt.k_faces(p, 2), pt.k_faces(q, 2)):
        mapped = la.span_of(
            [la.matvec(r, b) for b in fp.span.basis], ambient=3
        )
        assert mapped == fq.span


point3 = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@settings(deadline=None, max_examples=40)
@given(st.lists(point3, min_size=4, max_size=7, unique=True))
def test_build_agrees_with_oracle_on_random_points(pts):
    base = pts[0]
    rows = [[q[j] - base[j] for j in range(3)] for q in pts[1:]]
    if oracle_rank(rows) < 3:
        with pytest.raises(PolytopeError):
            pt.build(pts)
        return
    fsets = oracle_facets(pts)
    extreme = []
    for i in range(len(pts)):
        # a point is a vertex iff the smallest face containing it (the
        # intersection of the facet tight sets through it) is the point
        # alone
        on = [fs for fs in fsets if i in fs]
        if not on:
            extreme.append(False)
            continue
        pins = frozenset.intersection(*on)
        members = [pts[q] for q in sorted(pins)]
        rows_p = [
            [q[j] - members[0][j] for j in range(3)] for q in members[1:]
        ]
        extreme.append(oracle_rank(rows_p) == 0)
    if all(extreme):
        p = pt.build(pts)
        got = {frozenset(f.vertex_ids) for f in pt.facets(p)}
        assert got == fsets
    else:
        with pytest.raises(PolytopeError):
            pt.build(pts)


# ------------------------------------------------- gift-wrapped facets

point4 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)


def oracle_all_extreme(pts, fsets):
    """Whether every point is a vertex: its smallest face is itself."""
    d = len(pts[0])
    for i in range(len(pts)):
        on = [fs for fs in fsets if i in fs]
        if not on:
            return False
        members = [pts[q] for q in sorted(frozenset.intersection(*on))]
        rows = [[q[j] - members[0][j] for j in range(d)] for q in members[1:]]
        if oracle_rank(rows) != 0:
            return False
    return True


@settings(deadline=None, max_examples=30)
@given(st.lists(point4, min_size=5, max_size=9, unique=True))
def test_build_agrees_with_oracle_on_random_points_4d(pts):
    # a 3x3x3x3 grid makes coplanar points and non-simplicial facets common
    rows = [[q[j] - pts[0][j] for j in range(4)] for q in pts[1:]]
    if oracle_rank(rows) < 4:
        with pytest.raises(PolytopeError):
            pt.build(pts)
        return
    fsets = oracle_facets(pts)
    if oracle_all_extreme(pts, fsets):
        got = {frozenset(f.vertex_ids) for f in pt.facets(pt.build(pts))}
        assert got == fsets
    else:
        with pytest.raises(PolytopeError):
            pt.build(pts)


def primitive_normal(rows):
    """The primitive integer normal of d-1 independent rows, by sympy."""
    (ns,) = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).nullspace()
    scale = sympy.ilcm(*(x.q for x in ns))
    ints = [int(x * scale) for x in ns]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def test_zonotope_facets_are_spanned_by_generators():
    # every facet of a zonotope is spanned by d-1 generators, and generic
    # generators give each (d-1)-subset two opposite facets
    for m, d, seed in ((5, 4, 4), (6, 4, 7), (6, 5, 8)):
        gens = fam.random_generators(m, d, seed)
        crosses = {primitive_normal(sub) for sub in combinations(gens, d - 1)}
        want = crosses | {tuple(-x for x in c) for c in crosses}
        assert len(want) == 2 * comb(m, d - 1)
        p = fam.zonotope(gens)
        assert sorted(n for n, _off in p._facet_planes) == sorted(want)


def test_gift_wrapping_matches_oracle_on_zoo():
    # hyperprism_pnd(2, 5, 0): 12 points in d=5, so 792 oracle fits
    for p in (
        fam.pn_polytope(4),
        fam.perturbed_hypercube(Fr(1, 100)),
        fam.hyperprism_pnd(2, 5, 0),
    ):
        got = {frozenset(f.vertex_ids) for f in pt.facets(pt.build(p.vertices))}
        assert got == oracle_facets(p.vertices)
    # oracle_facets would fit C(32, 5) hyperplanes here; the 5-cube's
    # facets are the ten sets x_j = b
    pts = cube_vertices(5)
    want = {
        frozenset(i for i, v in enumerate(pts) if v[j] == b)
        for j in range(5)
        for b in (0, 1)
    }
    assert {frozenset(f.vertex_ids) for f in pt.facets(pt.build(pts))} == want
