"""Shadow polygons, degeneration reports, admissibility, sampling."""

import random
from fractions import Fraction as Fr
from itertools import chain, product
from math import gcd
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
from shadowlab.errors import (
    DegenerateBasisError,
    DegenerateShadowError,
    DimensionError,
    InadmissiblePlaneError,
    ParameterError,
)
from oracles import (
    oracle_class_degeneracy_det,
    oracle_degenerate_classes,
    oracle_hull_2d,
    oracle_in_boundary,
    oracle_sample_admissible,
    oracle_solve_gram,
    oracle_zonotope_shadow_size,
)

CUBE = pt.build(list(product((0, 1), repeat=3)), label="cube")
HYPERCUBE = pt.build(list(product((0, 1), repeat=4)), label="hypercube")

# span(e1+e2+e3, 2e3+e4), the degenerate hypercube plane used throughout
TILT4 = sh.ProjectionPlane(((1, 1, 1, 0), (0, 0, 2, 1)))
# an admissible cube plane, certified by the determinant test below
SKEW3 = sh.ProjectionPlane(((1, 2, 0), (0, 1, 3)))


def span(*vectors):
    return la.Subspace(tuple(la.as_vec(v) for v in vectors))


def class_by_span(p, *vectors):
    target = span(*vectors)
    for cid, cls in enumerate(pt.parallel_classes(p)):
        if cls.direction_plane == target:
            return cid, cls
    raise AssertionError("no class with that direction")


def assert_strictly_convex_ccw(points):
    k = len(points)
    assert k >= 3
    for i in range(k):
        o, a, b = points[i], points[(i + 1) % k], points[(i + 2) % k]
        assert sh.cross2(o, a, b) > 0


def test_plane_validation():
    with pytest.raises(DimensionError):
        sh.ProjectionPlane(((1, 0, 0),))
    with pytest.raises(DimensionError):
        sh.ProjectionPlane(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(DegenerateBasisError):
        sh.ProjectionPlane(((1, 2, 0), (2, 4, 0)))


def test_plane_complement_exactly_orthogonal():
    w = SKEW3
    assert w.complement.dim == 1
    for b in w.basis.basis:
        for c in w.complement.basis:
            assert la.dot(b, c) == 0
    w4 = TILT4
    assert w4.complement.dim == 2
    for b in w4.basis.basis:
        for c in w4.complement.basis:
            assert la.dot(b, c) == 0


def test_plane_from_orthogonal_roundtrip():
    w = sh.ProjectionPlane.from_orthogonal(SKEW3.complement)
    assert w.basis == SKEW3.basis
    w4 = sh.ProjectionPlane.from_orthogonal(TILT4.complement)
    assert w4.basis == TILT4.basis
    with pytest.raises(DimensionError):
        sh.ProjectionPlane.from_orthogonal(((1, 0, 0, 0),))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=6).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.fractions(-9, 9, max_denominator=4)] * d),
            min_size=d - 2,
            max_size=d - 2,
        )
    )
)
def test_from_orthogonal_keeps_the_given_span_as_complement(rows):
    # from_orthogonal hands its validated span in as the complement in
    # place of a second kernel; it must be the kernel of the basis
    assume(la.rank(rows) == len(rows))
    w = sh.ProjectionPlane.from_orthogonal(rows)
    assert w.complement == la.Subspace(la.kernel_basis(w.basis.int_rows))
    assert w.complement == la.Subspace(rows)


def test_project_cube_axis_plane():
    w = sh.ProjectionPlane(((1, 0, 0), (0, 1, 0)))
    images = sh.project(CUBE, w)
    assert len(images) == 8
    for vid, v in enumerate(CUBE.vertices):
        assert images[vid] == (v[0], v[1])
    seen = {}
    for q in images:
        seen[q] = seen.get(q, 0) + 1
    assert sorted(seen) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(n == 2 for n in seen.values())


def test_project_fixes_vertices_inside_the_plane():
    w = sh.ProjectionPlane(((1, 0, 0), (0, 1, 0)))
    b1, b2 = w.basis.basis
    for vid, v in enumerate(CUBE.vertices):
        if v[2] != 0:
            continue
        a, b = sh.project(CUBE, w)[vid]
        assert la.add(la.scale(b1, a), la.scale(b2, b)) == v


def test_project_dimension_mismatch():
    with pytest.raises(DimensionError):
        sh.project(CUBE, TILT4)


def test_shadow_cube_axis_square():
    poly = sh.shadow(CUBE, sh.ProjectionPlane(((1, 0, 0), (0, 1, 0))))
    assert poly.k == 4
    assert poly.points == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert_strictly_convex_ccw(poly.points)
    # two cube vertices over every corner of the square
    assert all(len(f) == 2 for f in poly.fibers)
    assert poly.hull_vertex_ids == tuple(min(f) for f in poly.fibers)


def test_shadow_cube_skew_plane_hexagon():
    ok, cert = sh.is_admissible(CUBE, SKEW3)
    assert ok and cert is None
    poly = sh.shadow(CUBE, SKEW3)
    assert poly.k == 6
    assert_strictly_convex_ccw(poly.points)
    oracle = oracle_hull_2d(sh.project(CUBE, SKEW3))
    assert len(oracle) == 6
    assert set(oracle) == set(poly.points)


def test_shadow_hypercube_tilt_plane_frozen():
    """Hexagonal degenerate shadow of the 4-cube, frozen exactly.

    Frame coordinates solve the Gram system [[3,2],[2,5]] (det 11), so
    every image is an integer pair over 11. Values were derived once by
    hand from the vertex sums and pinned here.
    """
    poly = sh.shadow(HYPERCUBE, TILT4)
    assert poly.k == 6
    eleven = tuple((11 * a, 11 * b) for a, b in poly.points)
    assert eleven == ((-2, 3), (0, 0), (10, -4), (11, 0), (9, 3), (-1, 7))
    assert poly.hull_vertex_ids == (1, 0, 12, 14, 15, 3)
    assert all(len(f) == 1 for f in poly.fibers)
    assert_strictly_convex_ccw(poly.points)
    oracle = oracle_hull_2d(sh.project(HYPERCUBE, TILT4))
    assert len(oracle) == 6
    assert set(oracle) == set(poly.points)


def test_shadow_collinear_images_error():
    vertices = tuple(
        la.as_vec(v) for v in ((0, 0, 0), (1, 0, 1), (2, 0, 5), (3, 0, 2))
    )
    # no Polytope can hold these points, so a stub stands in for one,
    # with polytope.antipodes' empty cache
    stub = SimpleNamespace(
        dim=3,
        vertices=vertices,
        int_vertices=lambda: pt.int_points(vertices),
        _antipodes=None,
    )
    w = sh.ProjectionPlane(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(DegenerateShadowError):
        sh.shadow(stub, w)


def test_segment_predicates():
    a, b = (0, 0), (4, 2)
    assert sh.on_segment((2, 1), a, b)
    assert sh.on_segment(a, a, b)
    assert sh.on_segment(b, a, b)
    assert not sh.on_segment((6, 3), a, b)
    assert not sh.on_segment((2, 0), a, b)


def test_degeneration_report_hypercube_tilt_plane():
    report = sh.degeneration_report(HYPERCUBE, TILT4)
    assert len(report.degenerating) == 1
    entry = report.degenerating[0]
    cid, cls = class_by_span(HYPERCUBE, (1, 0, 0, 0), (0, 1, 0, 0))
    assert entry.class_id == cid
    assert entry.projected_rank == 1
    assert len(entry.members) == 4

    faces = pt.k_faces(HYPERCUBE, 2)
    profile = {}
    for m in entry.members:
        key = faces[m.face_id].vertex_ids
        profile[key] = (m.contained_in_edge, m.touches_hull)
    # faces with fixed (x3, x4); the diagonal pair lands inside hull
    # edges, the other two only touch the hull at one corner each
    assert profile == {
        (0, 4, 8, 12): (True, True),
        (3, 7, 11, 15): (True, True),
        (1, 5, 9, 13): (False, True),
        (2, 6, 10, 14): (False, True),
    }
    assert not report.condition_i
    assert not report.condition_ii
    assert not report.admissible
    ok, cert = sh.is_admissible(HYPERCUBE, TILT4)
    assert not ok and cert == cid


def test_listed_class_members_are_exactly_the_collinear_ones():
    for p, w in ((HYPERCUBE, TILT4), (CUBE, sh.ProjectionPlane(((1, 0, 0), (0, 1, 0))))):
        report = sh.degeneration_report(p, w)
        listed = {e.class_id for e in report.degenerating}
        faces = pt.k_faces(p, 2)
        for cid, cls in enumerate(pt.parallel_classes(p)):
            for fid in cls.member_ids:
                imgs = [w.coords(p.vertices[i]) for i in faces[fid].vertex_ids]
                collinear = all(
                    sh.cross2(imgs[0], imgs[1], q) == 0 for q in imgs[2:]
                )
                assert collinear == (cid in listed)


def test_degeneration_report_cube_axis_plane():
    w = sh.ProjectionPlane(((1, 0, 0), (0, 1, 0)))
    report = sh.degeneration_report(CUBE, w)
    listed = {e.class_id for e in report.degenerating}
    cid_a, _ = class_by_span(CUBE, (0, 1, 0), (0, 0, 1))
    cid_b, _ = class_by_span(CUBE, (1, 0, 0), (0, 0, 1))
    cid_top, _ = class_by_span(CUBE, (1, 0, 0), (0, 1, 0))
    assert listed == {cid_a, cid_b}
    assert cid_top not in listed
    # side facets project onto whole edges of the unit square
    for entry in report.degenerating:
        assert entry.projected_rank == 1
        for m in entry.members:
            assert m.contained_in_edge and m.touches_hull
    ok, cert = sh.is_admissible(CUBE, w)
    assert not ok
    assert cert == min(cid_a, cid_b)


def test_degeneration_report_empty_on_admissible_plane():
    report = sh.degeneration_report(CUBE, SKEW3)
    assert report.degenerating == []
    assert report.condition_i and report.condition_ii and report.admissible


def test_class_degeneracy_det_matches_report():
    for p, w in (
        (CUBE, SKEW3),
        (CUBE, sh.ProjectionPlane(((1, 0, 0), (0, 1, 0)))),
        (HYPERCUBE, TILT4),
    ):
        ortho = w.complement.basis
        report = sh.degeneration_report(p, w)
        listed = {e.class_id for e in report.degenerating}
        for cid, cls in enumerate(pt.parallel_classes(p)):
            d = oracle_class_degeneracy_det(ortho, cls.direction_plane)
            assert (d == 0) == (cid in listed)


def battery():
    axis3 = sh.ProjectionPlane(((1, 0, 0), (0, 1, 0)))
    planes = [(CUBE, SKEW3), (CUBE, axis3), (HYPERCUBE, TILT4)]
    for seed in (0, 1):
        planes.extend((CUBE, w) for w in sh.sample_admissible(CUBE, seed, 3))
        planes.extend(
            (HYPERCUBE, w) for w in sh.sample_admissible(HYPERCUBE, seed, 3)
        )
    return planes


def test_report_consistency_battery():
    """Definitional ties between the report and the admissibility test.

    Also checks that the first degeneracy condition implies the second
    on every pair exercised here.
    """
    for p, w in battery():
        report = sh.degeneration_report(p, w)
        ok, cert = sh.is_admissible(p, w)
        assert ok == report.condition_i == report.admissible
        assert ok == (not report.degenerating)
        if ok:
            assert cert is None
            assert report.condition_ii
        else:
            assert cert == report.degenerating[0].class_id


def test_shadow_points_are_the_projected_hull_in_lowest_terms():
    """points, built on read from nums over den, are the frame
    coordinates of the hull vertices, from the smallest; (nums, den) is
    in lowest terms, so shadows are equal exactly when their points
    are."""
    for p, w in battery():
        poly = sh.shadow(p, w)
        coords = sh.project(p, w)
        assert poly.points == tuple(coords[v] for v in poly.hull_vertex_ids)
        assert poly.points[0] == min(poly.points)
        assert poly.den > 0 and gcd(poly.den, *chain.from_iterable(poly.nums)) == 1
        again = sh.shadow(p, w)
        assert again == poly and hash(again) == hash(poly)
        ids = poly.hull_vertex_ids
        assert poly._replace(hull_vertex_ids=ids[1:] + ids[:1]) != poly


def test_sample_admissible_cube_seed1():
    planes = sh.sample_admissible(CUBE, 1, 10)
    assert len(planes) == 10
    for w in planes:
        assert sh.is_admissible(CUBE, w).ok


def test_sample_admissible_deterministic():
    a = sh.sample_admissible(CUBE, 5, 4)
    b = sh.sample_admissible(CUBE, 5, 4)
    assert [w.basis.basis for w in a] == [w.basis.basis for w in b]
    c = sh.sample_admissible(CUBE, 6, 4)
    assert [w.basis.basis for w in a] != [w.basis.basis for w in c]


def test_sample_admissible_hypercube_seed7_all_octagons():
    planes = sh.sample_admissible(HYPERCUBE, 7, 100)
    assert len(planes) == 100
    assert all(sh.shadow(HYPERCUBE, w).k == 8 for w in planes)


def _subspace_fields(s):
    return s.basis, s.ambient, s.int_rows, s.int_scale, s.canonical_key(), hash(s)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda d: st.tuples(*[st.tuples(*[st.integers(-9, 9)] * d)] * 2)
), st.one_of(st.none(), st.integers(-3, 3)))
def test_int_subspace_matches_fraction_subspace(rows, k):
    b1, b2 = rows
    if k is not None:
        # a dependent pair now and then: b2 a multiple of b1
        b2 = tuple(x * k for x in b1)
    try:
        want = la.Subspace((b1, b2))
    except DegenerateBasisError:
        with pytest.raises(DegenerateBasisError):
            la.int_subspace((b1, b2))
        return
    assert _subspace_fields(la.int_subspace((b1, b2))) == _subspace_fields(want)


@pytest.mark.parametrize(
    "p",
    [HYPERCUBE, fam.zonotope(fam.random_generators(6, 4, 7)), fam.hyperprism_pnd(2, 5, 0)],
    ids=["cube4", "zono7", "pnd5"],
)
def test_sample_admissible_matches_fraction_subspace_oracle(p):
    for seed in (0, 1, "sweep:3"):
        got = sh.sample_admissible(p, seed, 12)
        want = oracle_sample_admissible(p, seed, 12)
        assert [_subspace_fields(w.basis) for w in got] == [
            _subspace_fields(w.basis) for w in want
        ]
        assert [w.complement.int_rows for w in got] == [w.complement.int_rows for w in want]
        assert [w._unmap for w in got] == [w._unmap for w in want]


@pytest.mark.parametrize(
    "p",
    [HYPERCUBE, fam.zonotope(fam.random_generators(6, 4, 7)), fam.hyperprism_pnd(2, 5, 0)],
    ids=["cube4", "zono7", "pnd5"],
)
def test_sampled_planes_answer_without_their_fraction_basis(p):
    for w in sh.sample_admissible(p, 0, 12):
        a, c = w.basis, w.complement
        assert (a.dim, c.dim) == (2, p.dim - 2)
        assert a.contains(a.int_rows[0]) and c.contains(c.int_rows[-1])
        assert not c.contains(a.int_rows[0]) and not a.contains(c.int_rows[0])
        assert a == la.int_subspace(a.int_rows) and c != a
        assert sh.is_admissible(p, w).ok
        assert a._basis is None and c._basis is None


def test_sample_admissible_errors():
    with pytest.raises(ParameterError):
        sh.sample_admissible(CUBE, 1, 0)
    with pytest.raises(ParameterError):
        sh.sample_admissible(CUBE, 1, 1, grid_bound=-1)
    # a zero grid leaves only rank-0 candidates: refused before any draw
    with pytest.raises(ParameterError, match="grid_bound must be at least 1"):
        sh.sample_admissible(CUBE, 1, 1, grid_bound=0)


def test_sample_admissible_needs_two_dimensions(monkeypatch):
    # a segment has no planar projection; fail before drawing anything
    segment = pt.build([(1,), (2,)])

    def no_draws(*args):
        raise AssertionError("drew a candidate")

    monkeypatch.setattr(sh.random, "Random", no_draws)
    with pytest.raises(DimensionError):
        sh.sample_admissible(segment, 0, 64)


def test_sample_admissible_skips_dependent_draws():
    # on the unit grid many drawn pairs are dependent; each is skipped.
    # A pentagon has no classes, so the dependence test alone rejects
    # them there; in the cubes every class degenerates for them too.
    pentagon = pt.build([(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
    for p, seed in product((pentagon, CUBE, HYPERCUBE), (0, 1, 2)):
        skipped = []
        want = oracle_sample_admissible(p, seed, 20, grid_bound=1, skipped=skipped)
        planes = sh.sample_admissible(p, seed, 20, grid_bound=1)
        assert len(planes) == 20 and skipped
        assert [w.basis.int_rows for w in planes] == [w.basis.int_rows for w in want]
        assert all(sh.is_admissible(p, w).ok for w in planes)


def test_sample_count_above_the_cap_fails_before_any_draw(monkeypatch):
    # every plane is kept, so an oversized count is refused up front
    def no_draws(*args):
        raise AssertionError("drew a candidate")

    monkeypatch.setattr(sh.random, "Random", no_draws)
    over = sh.MAX_SAMPLES + 1
    with pytest.raises(ParameterError, match=f"^{over} samples exceed the cap of {sh.MAX_SAMPLES}$"):
        sh.sample_admissible(CUBE, 0, over)


def test_sample_count_at_the_cap_is_drawn():
    assert len(sh.sample_admissible(CUBE, 0, sh.MAX_SAMPLES)) == sh.MAX_SAMPLES


def test_zonotope_shadow_size_examples():
    cube_gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert oracle_zonotope_shadow_size(cube_gens, SKEW3) == 6
    gens4 = (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 2, 3, 4),
    )
    w4 = sh.ProjectionPlane(((1, 2, 0, 1), (0, 1, 3, 5)))
    assert oracle_zonotope_shadow_size(gens4, w4) == 10
    w = sh.ProjectionPlane(((1, 0, 0), (0, 1, 0)))
    assert oracle_zonotope_shadow_size(((1, 0, 0), (0, 1, 0)), w) == 4


def test_zonotope_shadow_size_rejections():
    w = sh.ProjectionPlane(((1, 0, 0), (0, 0, 1)))
    with pytest.raises(InadmissiblePlaneError):
        oracle_zonotope_shadow_size(((1, 0, 0), (0, 1, 0)), w)
    with pytest.raises(InadmissiblePlaneError):
        oracle_zonotope_shadow_size(((1, 0, 0), (1, 1, 0)), w)


def zonotope_points(gens):
    pts = {tuple(0 for _ in gens[0])}
    acc = [tuple(0 for _ in gens[0])]
    for g in gens:
        acc = [la.add(p, g) for p in acc] + acc
    return sorted(set(acc))


def test_zonotope_size_matches_sampled_shadows():
    # parallelepiped: independent generators, so every sum is a vertex
    gens = ((1, 0, 0), (1, 2, 0), (1, 1, 3))
    zono = pt.build(zonotope_points(gens), label="skew box")
    for w in sh.sample_admissible(zono, 3, 5):
        assert sh.shadow(zono, w).k == oracle_zonotope_shadow_size(gens, w)
    cube_gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for w in sh.sample_admissible(CUBE, 4, 5):
        assert sh.shadow(CUBE, w).k == oracle_zonotope_shadow_size(cube_gens, w)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    t1=st.fractions(min_value=Fr(-3, 4), max_value=Fr(3, 4), max_denominator=8),
    t2=st.fractions(min_value=Fr(-3, 4), max_value=Fr(3, 4), max_denominator=8),
)
def test_shadow_k_invariant_under_joint_isometry(seed, t1, t2):
    rot = la.matmul(
        la.plane_rotation(4, 0, 2, t1), la.plane_rotation(4, 1, 3, t2)
    )
    w = sh.sample_admissible(HYPERCUBE, seed, 1)[0]
    moved = pt.apply_isometry(HYPERCUBE, rot)
    w_moved = sh.ProjectionPlane(tuple(la.matvec(rot, b) for b in w.basis.basis))
    assert sh.shadow(moved, w_moved).k == sh.shadow(HYPERCUBE, w).k


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_sampled_shadows_match_hull_oracle(seed):
    w = sh.sample_admissible(CUBE, seed, 1)[0]
    poly = sh.shadow(CUBE, w)
    oracle = oracle_hull_2d(sh.project(CUBE, w))
    assert poly.k == len(oracle)
    assert set(poly.points) == set(oracle)


# ------------------------------------------- integer frame against Fractions

ZOO = (
    CUBE,
    HYPERCUBE,
    fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
    fam.zonotope(fam.random_generators(5, 4, 4)),
    fam.zonotope(fam.random_generators(6, 5, 8)),
    fam.pn_polytope(4),
    fam.perturbed_hypercube(Fr(1, 100)),
)


def wrap_hull(points):
    """Strict ccw hull by gift wrapping from the lexicographic minimum.

    Deliberately not the library's monotone chain; oracle_hull_2d is
    cubic in the point count, too slow for the 62-vertex zonotope.
    """
    pts = sorted(set(points))
    hull = [pts[0]]
    while True:
        cur = hull[-1]
        nxt = None
        for q in pts:
            if q == cur:
                continue
            if nxt is None:
                nxt = q
                continue
            turn = sh.cross2(cur, nxt, q)
            # q right of cur->nxt, or further along the same ray
            if turn < 0 or (turn == 0 and sh.on_segment(nxt, cur, q)):
                nxt = q
        if nxt == hull[0]:
            return hull
        hull.append(nxt)


def gram_frame(w):
    """v's coordinates in w's Gram frame, from sympy (oracle_solve_gram).
    They are linear in v, so one solve per unit vector gives them all."""
    d = w.ambient
    cols = [oracle_solve_gram(w.basis.basis, la.unit(d, k)) for k in range(d)]
    return lambda v: tuple(
        sum((x * c[i] for x, c in zip(v, cols)), Fr(0)) for i in range(2)
    )


def fraction_shadow(p, w):
    """Hull ids, points and fibers in the Gram frame, as shadow() gives them."""
    images = list(map(gram_frame(w), p.vertices))
    assert sh.project(p, w) == images
    hull = wrap_hull(images)
    if len(p.vertices) <= 16:
        assert set(hull) == set(oracle_hull_2d(images))
    fibers = tuple(
        tuple(i for i, q in enumerate(images) if q == h) for h in hull
    )
    return images, tuple(f[0] for f in fibers), tuple(hull), fibers


def fraction_report(p, w, images, hull):
    """(class id, projected rank, member flags) per degenerating class."""
    edges = list(zip(hull, hull[1:] + hull[:1]))
    faces = pt.k_faces(p, 2)
    coords = gram_frame(w)
    out = []
    for cid, cls in enumerate(pt.parallel_classes(p)):
        g, h = map(coords, cls.direction_plane.basis)
        if g[0] * h[1] - g[1] * h[0] != 0:
            continue
        prank = 1 if any(g + h) else 0
        members = []
        for fid in cls.member_ids:
            imgs = [images[i] for i in faces[fid].vertex_ids]
            contained = any(
                all(sh.on_segment(q, a, b) for q in imgs) for a, b in edges
            )
            touches = any(sh.on_segment(q, a, b) for q in imgs for a, b in edges)
            members.append((fid, contained, touches))
        out.append((cid, prank, members))
    return out


@st.composite
def zoo_planes(draw):
    """A zoo polytope with a random plane, or an inadmissible one whose
    orthogonal span holds a vector of a class direction plane, or in
    d >= 4 the whole plane (that class then projects to a point)."""
    p = draw(st.sampled_from(ZOO))
    d = p.dim
    entry = st.integers(min_value=-9, max_value=9)
    kind = draw(st.sampled_from(("random", "vector", "plane")))
    if kind == "random":
        rows = [draw(st.tuples(*[entry] * d)) for _ in range(2)]
        assume(la.rank(rows) == 2)
        return p, sh.ProjectionPlane(rows)
    classes = pt.parallel_classes(p)
    f1, f2 = draw(st.sampled_from(classes)).direction_plane.basis
    if kind == "plane" and d >= 4:
        rows = [f1, f2]
    else:
        a, b = draw(entry), draw(entry)
        assume(a or b)
        rows = [la.add(la.scale(f1, a), la.scale(f2, b))]
    rows += [draw(st.tuples(*[entry] * d)) for _ in range(d - 2 - len(rows))]
    assume(la.rank(rows) == d - 2)
    return p, sh.ProjectionPlane.from_orthogonal(rows)


@settings(max_examples=60, deadline=None)
@given(case=zoo_planes())
def test_integer_frame_matches_fraction_frame(case):
    p, w = case
    images, ids, points, fibers = fraction_shadow(p, w)
    poly = sh.shadow(p, w)
    assert poly.k == len(points)
    assert poly.hull_vertex_ids == ids
    assert poly.points == points
    assert poly.fibers == fibers

    want = fraction_report(p, w, images, list(points))
    report = sh.degeneration_report(p, w)
    got = [
        (c.class_id, c.projected_rank,
         [(m.face_id, m.contained_in_edge, m.touches_hull) for m in c.members])
        for c in report.degenerating
    ]
    assert got == want
    assert report.condition_i == (not want)
    assert report.condition_ii == (
        not any(flags[1] for _c, _r, ms in want for flags in ms)
    )
    first = want[0][0] if want else None
    assert sh.is_admissible(p, w) == (not want, first)


# ------------------------------------- the plane's own rows, against oracles

PERT = ZOO[-1]
PN4 = ZOO[-2]
# the paper's figure 2, 3 and 6 planes, each with its polytope
FIGURE_PLANES = (
    (HYPERCUBE, TILT4),
    (PERT, TILT4),
    (PN4, sh.ProjectionPlane(((1, 0, 0, 0), (0, 1, 0, 0)))),
)


def degenerate_ortho(rng, p, whole=False):
    """Orthogonal rows holding a vector of one class's direction plane,
    so that class degenerates, or with whole the plane itself, so that
    it projects to a point; the other rows random."""
    classes = pt.parallel_classes(p)
    d = p.dim
    while True:
        f1, f2 = classes[rng.randrange(len(classes))].direction_plane.int_rows
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if a == b == 0:
            continue
        rows = [f1, f2] if whole else [tuple(a * x + b * y for x, y in zip(f1, f2))]
        while len(rows) < d - 2:
            rows.append(tuple(rng.randint(-9, 9) for _ in range(d)))
        if la.rank(rows) == d - 2:
            return rows


def zoo_plane_battery(p, seed):
    """Sampled admissible planes and deliberately degenerate ones."""
    rng = random.Random(f"battery:{seed}:{p.label}")
    planes = sh.sample_admissible(p, f"battery:{seed}", 4)
    kinds = (False,) * 6 + ((True,) * 2 if p.dim >= 4 else ())
    planes += [
        sh.ProjectionPlane.from_orthogonal(degenerate_ortho(rng, p, whole))
        for whole in kinds
    ]
    return planes


@pytest.mark.parametrize("p", ZOO, ids=lambda p: p.label)
def test_admissibility_and_ranks_match_the_complement_determinants(p):
    for w in zoo_plane_battery(p, 0):
        want = oracle_degenerate_classes(p, w.complement.int_rows)
        assert sh.is_admissible(p, w) == (not want, want[0] if want else None)
        report = sh.degeneration_report(p, w)
        assert [c.class_id for c in report.degenerating] == want
        ranks = {}
        for cid, cls in enumerate(pt.parallel_classes(p)):
            g, h = (w.image(f) for f in cls.direction_plane.int_rows)
            ranks[cid] = 2 if sh.cross2((0, 0), g, h) else int(any(g + h))
        assert {c.class_id: c.projected_rank for c in report.degenerating} == {
            cid: r for cid, r in ranks.items() if r < 2
        }


def test_plane_of_the_wrong_dimension_is_rejected():
    for p, w in ((CUBE, TILT4), (HYPERCUBE, SKEW3)):
        for call in (sh.is_admissible, sh.degeneration_report, sh.shadow, sh.hull_frame):
            with pytest.raises(DimensionError):
                call(p, w)


@pytest.mark.parametrize(
    "p", ZOO + (fam.hyperprism_pnd(2, 5, 0),), ids=lambda p: p.label
)
def test_in_boundary_matches_the_edge_scan(p):
    planes = zoo_plane_battery(p, 1) + [w for q, w in FIGURE_PLANES if q is p]
    sets = [f.vertex_ids for k in (1, 2) for f in pt.k_faces(p, k)]
    sets += [(i,) for i in range(len(p.vertices))]
    for w in planes:
        frame = sh.hull_frame(p, w)
        got = [sh.in_boundary(frame, ids) for ids in sets]
        assert got == [oracle_in_boundary(frame, ids) for ids in sets]
        # asked again, the memoised edges answer the same
        assert got == [sh.in_boundary(frame, ids) for ids in sets]


@pytest.mark.parametrize(
    "p", (HYPERCUBE, ZOO[4], fam.hyperprism_pnd(2, 5, 0)), ids=lambda p: p.label
)
def test_sampled_planes_never_build_their_complement(p, monkeypatch):
    calls = []
    kernel_space = la.kernel_space

    def counted(m):
        calls.append(m)
        return kernel_space(m)

    monkeypatch.setattr(sh.la, "kernel_space", counted)
    planes = sh.sample_admissible(p, 2, 8)
    for w in planes:
        assert sh.is_admissible(p, w).ok
        sh.shadow(p, w)
        sh.degeneration_report(p, w)
    assert calls == []
    for w in planes:
        c = w.complement
        assert c.int_rows == kernel_space(w.basis).int_rows
        assert c == kernel_space(w.basis) and w.complement is c
    assert len(calls) == len(planes)


# ------------------------- the symmetric projection against every vertex's own

# polytope.antipodes finds a symmetry on all but the last two
PROJECTION_ZOO = (
    CUBE,
    HYPERCUBE,
    fam.hypercube(5),
    ZOO[3],
    fam.zonotope(fam.random_generators(6, 4, 7)),
    ZOO[4],
    PERT,
    ZOO[2],
    PN4,
)


def all_vertex_frame(p, w):
    """Every vertex projected on its own, the multiplier, and the ccw
    hull of the images from the smallest image: by oracle_hull_2d, or
    past 32 vertices, where that oracle takes seconds, by wrap_hull."""
    pts, mult = p.int_vertices()
    a1, a2 = w.basis.int_rows
    images = [(sum(map(mul, a1, x)), sum(map(mul, a2, x))) for x in pts]
    if len(pts) > 32:
        return images, mult, wrap_hull(images)
    hull = [tuple(int(c) for c in q) for q in oracle_hull_2d(images)]
    s = hull.index(min(hull))
    return images, mult, hull[s:] + hull[:s]


def all_vertex_report(p, w, frame):
    """degeneration_report's fields from the class images and
    oracle_in_boundary on the all-vertex frame."""
    faces = pt.k_faces(p, 2)
    out = []
    for cid, cls in enumerate(pt.parallel_classes(p)):
        g, h = (w.image(f) for f in cls.direction_plane.int_rows)
        if sh.cross2((0, 0), g, h):
            continue
        members = [
            (
                fid,
                oracle_in_boundary(frame, faces[fid].vertex_ids),
                any(oracle_in_boundary(frame, (i,)) for i in faces[fid].vertex_ids),
            )
            for fid in cls.member_ids
        ]
        out.append((cid, int(any(g + h)), members))
    return out


@pytest.mark.parametrize("p", PROJECTION_ZOO, ids=lambda p: p.label)
def test_projection_matches_every_vertex_projected(p):
    assert (pt.antipodes(p) is None) == (p in (ZOO[2], PN4))
    planes = zoo_plane_battery(p, 2)[:6]
    planes += [w for q, w in FIGURE_PLANES if q is p]
    for w in planes:
        images, mult, hull = all_vertex_frame(p, w)
        got_images, got_mult, csum = sh.int_images(p, w)
        assert (got_images, got_mult) == (images, mult)
        assert (csum is None) == (pt.antipodes(p) is None)
        # the shadow, from the smallest public point
        pub = [w.image_coords(q, mult) for q in hull]
        s = pub.index(min(pub))
        ring = hull[s:] + hull[:s]
        fibers = tuple(tuple(i for i, q in enumerate(images) if q == h) for h in ring)
        poly = sh.shadow(p, w)
        assert (poly.hull_vertex_ids, poly.points, poly.k, poly.fibers) == (
            tuple(f[0] for f in fibers), tuple(pub[s:] + pub[:s]), len(hull), fibers
        )
        frame = sh.hull_frame(p, w)
        assert (frame.images, frame.hull) == (images, hull)
        edges = list(zip(hull, hull[1:] + hull[:1]))
        for q in images:
            want = frozenset(i for i, (a, b) in enumerate(edges) if sh.on_segment(q, a, b))
            assert frame.edges_at(q) == want
        report = sh.degeneration_report(p, w)
        ref = all_vertex_report(p, w, SimpleNamespace(images=images, hull=hull))
        assert [
            (c.class_id, c.projected_rank,
             [(m.face_id, m.contained_in_edge, m.touches_hull) for m in c.members])
            for c in report.degenerating
        ] == ref
