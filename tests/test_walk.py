"""Tests for certified walks, transformations and chain bookkeeping."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as Fr
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.kernels as kernels
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import (
    DegenerateBasisError,
    DimensionError,
    GeometryError,
    InadmissiblePlaneError,
    ParameterError,
    WalkError,
)
from oracles import (
    OracleSegment,
    oracle_affine_roots,
    oracle_chain_split_transformations,
    oracle_class_degeneracy_det,
    oracle_degenerate_classes,
    oracle_degeneration_polynomial,
    oracle_edge_slide,
    oracle_hull_2d,
    oracle_rank_losses,
    oracle_segment_events,
)

CUBE = fam.hypercube(3)
TESS = fam.hypercube(4)
PRISM = fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1))
PERT = fam.perturbed_hypercube(Fr(1, 100))
PN2 = fam.pn_polytope(2)

Q3, ETAS3 = wk.reference_isometry(CUBE)
MOVED3 = pt.apply_isometry(CUBE, Q3)
Q4, ETAS4 = wk.reference_isometry(TESS)
MOVED4 = pt.apply_isometry(TESS, Q4)

TILT4_WIT = sh.ProjectionPlane(((1, 1, 1, 0), (0, 0, 2, 1))).complement
TRI_WIT = la.span_of([(1, 2, 0)])


def face_id(p, vs):
    want = tuple(sorted(vs))
    for i, f in enumerate(pt.k_faces(p, 2)):
        if f.vertex_ids == want:
            return i
    raise AssertionError(f"no 2-face {vs}")


def class_id_by_span(p, vectors):
    key = la.span_of(vectors).canonical_key()
    for cid, c in enumerate(pt.parallel_classes(p)):
        if c.direction_plane.canonical_key() == key:
            return cid
    raise AssertionError("no class with that direction plane")


def is_admissible_rows(p, rows):
    return all(
        oracle_class_degeneracy_det(rows, c.direction_plane) != 0
        for c in pt.parallel_classes(p)
    )


def plane_at(seg, t):
    return sh.ProjectionPlane.from_orthogonal(seg.rows_at(t))


def _between(q, a, b):
    cx = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
    if cx != 0:
        return False
    return (
        min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
    )


def oracle_visible_edges(p, fid, w):
    """Face edges whose images sit on the hull boundary, via the test
    hull oracle rather than the shadow module."""
    imgs = [w.coords(v) for v in p.vertices]
    hull = oracle_hull_2d(list(dict.fromkeys(imgs)))

    def on_bound(q):
        n = len(hull)
        return any(_between(q, hull[i], hull[(i + 1) % n]) for i in range(n))

    face = pt.k_faces(p, 2)[fid]
    out = set()
    for e in pt.face_edges(p, face):
        a, b = e.vertex_ids
        pa, pb = imgs[a], imgs[b]
        mid = ((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2)
        if on_bound(pa) and on_bound(pb) and on_bound(mid):
            out.add((a, b))
    return out


# ---------------------------------------------------------------- isometry


@pytest.mark.parametrize(
    "p", [CUBE, TESS, PRISM, PN2], ids=["cube", "tesseract", "prism", "pn2"]
)
def test_reference_isometry_is_orthogonal(p):
    q, _ = wk.reference_isometry(p)
    assert la.matmul(la.transpose(q), q) == la.identity(p.dim)


@pytest.mark.parametrize(
    "p", [CUBE, TESS, PRISM, PN2], ids=["cube", "tesseract", "prism", "pn2"]
)
def test_reference_isometry_conditions(p):
    d = p.dim
    q, etas = wk.reference_isometry(p)
    moved = pt.apply_isometry(p, q)
    # no proscribed direction falls into the reference hyperplane
    for pd in pt.proscribed_directions(moved):
        assert pd.line[0] != 0
    # every class meets the hyperplane in a line off the last axis wall
    hp = la.Subspace([la.unit(d, i) for i in range(1, d)])
    for cls in pt.parallel_classes(moved):
        inter = la.intersect(cls.direction_plane, hp)
        assert inter.dim == 1
        assert inter.basis[0][d - 1] != 0
    # which makes the reference orthogonal span admissible
    rows = tuple(la.unit(d, i) for i in range(1, d - 1))
    assert is_admissible_rows(moved, rows)
    assert [e.class_id for e in etas] == list(range(len(etas)))
    assert all(e.eta[d - 1] == 1 for e in etas)


def test_reference_isometry_identity_when_arranged():
    q, _ = wk.reference_isometry(MOVED3)
    assert q == la.identity(3)


def test_reference_isometry_rejects_low_dimension():
    with pytest.raises(ParameterError):
        wk.reference_isometry(fam.hypercube(2))


# ------------------------------------------------------------- polynomials


def test_constant_segment_polynomial():
    rows = (la.unit(3, 1),)
    seg = wk.WalkSegment(rows, ((0, 0, 0),), (0, 1))
    for cls in pt.parallel_classes(MOVED3):
        poly = wk.degeneration_polynomial(seg, cls)
        assert poly.c1 == 0
        assert poly.c0 == oracle_class_degeneracy_det(rows, cls.direction_plane)
        assert poly.at(Fr(1, 3)) == poly.c0


def test_polynomial_roots_match_dense_scan():
    seg = wk.WalkSegment(((1, 1, 1),), ((-1, -2, -5),), (0, 1))
    for cls in pt.parallel_classes(MOVED3):
        poly = wk.degeneration_polynomial(seg, cls)
        f1, f2 = cls.direction_plane.basis
        grid = [Fr(i, 200) for i in range(201)]
        vals = [la.det((seg.rows_at(t)[0], f1, f2)) for t in grid]
        brackets = [
            (grid[i], grid[i + 1])
            for i in range(200)
            if vals[i] * vals[i + 1] < 0
        ]
        exact_zeros = [t for t, v in zip(grid, vals) if v == 0]
        root = poly.root()
        if root is None or not 0 <= root <= 1:
            assert not brackets and not exact_zeros
        elif exact_zeros:
            assert exact_zeros == [root]
        else:
            assert len(brackets) == 1
            lo, hi = brackets[0]
            assert lo < root < hi
        # the polynomial reproduces the determinant everywhere
        for t in (Fr(1, 7), Fr(3, 5), Fr(9, 11)):
            assert poly.at(t) == la.det((seg.rows_at(t)[0], f1, f2))


def test_polynomial_rejects_nonaffine():
    cid = class_id_by_span(TESS, ((1, 0, 0, 0), (0, 1, 0, 0)))
    cls = pt.parallel_classes(TESS)[cid]
    seg = wk.WalkSegment(
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 1, 0), (0, 0, 0, 1)),
        (0, 1),
    )
    with pytest.raises(WalkError):
        wk.degeneration_polynomial(seg, cls)


# ----------------------------------------------------------- segment type


def test_segment_rescale_preserves_family():
    seg = wk.WalkSegment(((1, 2, 3),), ((-1, 0, 4),), (0, 1))
    r = seg.rescaled(Fr(1, 3), Fr(2, 3))
    assert r.t_range == (Fr(1, 3), Fr(2, 3))
    assert r.rows_at(Fr(1, 3)) == seg.rows_at(0)
    assert r.rows_at(Fr(2, 3)) == seg.rows_at(1)
    assert r.rows_at(Fr(1, 2)) == seg.rows_at(Fr(1, 2))


def test_segment_reverse_swaps_ends():
    seg = wk.WalkSegment(((1, 2, 3),), ((-1, 0, 4),), (Fr(1, 4), Fr(3, 4)))
    rev = seg.reversed()
    assert rev.t_range == seg.t_range
    assert rev.rows_at(Fr(1, 4)) == seg.rows_at(Fr(3, 4))
    assert rev.rows_at(Fr(3, 4)) == seg.rows_at(Fr(1, 4))
    back = rev.reversed()
    assert back.rows_at(Fr(1, 3)) == seg.rows_at(Fr(1, 3))


def test_segment_validation():
    with pytest.raises(DimensionError):
        wk.WalkSegment(((1, 2, 3),), (), (0, 1))
    with pytest.raises(DimensionError):
        wk.WalkSegment(((1, 2, 3),), ((1, 2),), (0, 1))
    with pytest.raises(ParameterError):
        wk.WalkSegment(((1, 2, 3),), ((0, 0, 0),), (1, 1))


# -------------------------------------------------------- walk fragments


def test_to_hyperplane_empty_when_inside():
    plan = wk.walk_to_hyperplane(MOVED3, la.span_of([(0, 1, 0)]), seed=0)
    assert plan.segments == ()
    assert plan.events == ()
    assert wk.verify_walk(MOVED3, plan).valid


def test_to_hyperplane_cube():
    plan = wk.walk_to_hyperplane(MOVED3, la.span_of([(1, 1, 1)]), seed=0)
    assert len(plan.segments) == 1
    assert [(e.time, e.class_id) for e in plan.events] == [
        (Fr(23, 127), 2),
        (Fr(1, 4), 0),
    ]
    end = plan.segments[-1].rows_at(1)
    assert all(r[0] == 0 for r in end)
    assert is_admissible_rows(MOVED3, end)
    cert = wk.verify_walk(MOVED3, plan)
    assert cert.valid, cert.violations


def test_to_hyperplane_events_match_dense_scan():
    plan = wk.walk_to_hyperplane(MOVED3, la.span_of([(1, 1, 1)]), seed=0)
    seg = plan.segments[0]
    lo, hi = seg.t_range
    found = []
    for cid, cls in enumerate(pt.parallel_classes(MOVED3)):
        f1, f2 = cls.direction_plane.basis
        grid = [lo + (hi - lo) * Fr(i, 256) for i in range(257)]
        vals = [la.det(seg.rows_at(t) + (f1, f2)) for t in grid]
        for i in range(256):
            if vals[i] == 0 and grid[i] not in (lo, hi):
                found.append((grid[i], cid))
            elif vals[i] * vals[i + 1] < 0:
                found.append(((grid[i], grid[i + 1]), cid))
    assert len(found) == len(plan.events)
    found.sort(key=lambda mc: mc[0][0] if isinstance(mc[0], tuple) else mc[0])
    for (mark, cid), ev in zip(found, sorted(plan.events)):
        assert cid == ev.class_id
        if isinstance(mark, tuple):
            assert mark[0] < ev.time < mark[1]
        else:
            assert mark == ev.time


def test_to_hyperplane_tesseract():
    start = la.span_of(((1, 1, 1, 1), (1, -1, 2, 0)))
    plan = wk.walk_to_hyperplane(MOVED4, start, seed=0)
    assert len(plan.segments) == 1
    assert len(plan.events) == 5
    assert len({e.time for e in plan.events}) == 5
    cert = wk.verify_walk(MOVED4, plan)
    assert cert.valid, cert.violations
    assert all(r[0] == 0 for r in plan.segments[-1].rows_at(1))


def test_to_hyperplane_rejects_inadmissible_start():
    bad = la.span_of([pt.parallel_classes(MOVED3)[0].direction_plane.basis[0]])
    with pytest.raises(InadmissiblePlaneError):
        wk.walk_to_hyperplane(MOVED3, bad, seed=0)


def test_to_hyperplane_requires_arrangement():
    # the unrotated cube has axis directions inside the hyperplane
    with pytest.raises(WalkError):
        wk.walk_to_hyperplane(CUBE, la.span_of([(1, 1, 1)]), seed=0)


# the 3-cube turned in the (e1, e2) plane: no class plane lies in x_1 = 0,
# but the plane of class 1 meets it in the line of e3
TURNED3 = pt.apply_isometry(CUBE, la.plane_rotation(3, 0, 1, Fr(1, 2)))


@pytest.mark.parametrize(
    "p, message",
    [
        (CUBE, "class 0 meets the reference hyperplane in dimension 2, expected a line"),
        (TURNED3, "class 1 eta direction has zero last coordinate"),
    ],
)
def test_both_api_walks_require_the_arrangement(p, message):
    # the walks read their etas off the class planes, but still refuse a
    # polytope off the reference arrangement up front
    for walk in (wk.walk_to_hyperplane, wk.walk_within_hyperplane):
        with pytest.raises(WalkError, match=f"^{message}; rotate the polytope first$"):
            walk(p, la.span_of([(1, 1, 1)]), seed=0)


def test_to_hyperplane_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        wk.walk_to_hyperplane(MOVED3, la.span_of([(1, 1, 1), (1, 0, 0)]))


def test_within_empty_at_reference():
    ref = la.span_of([(0, 1, 0, 0), (0, 0, 1, 0)])
    plan = wk.walk_within_hyperplane(MOVED4, ref, seed=0)
    assert plan.segments == ()
    assert wk.verify_walk(MOVED4, plan).valid


def test_within_cube_reaches_reference():
    plan = wk.walk_within_hyperplane(
        MOVED3, la.span_of([(0, 1, Fr(1, 2))]), seed=0
    )
    assert len(plan.segments) == 1
    assert plan.segments[-1].span_at(1) == la.span_of([(0, 1, 0)])
    cert = wk.verify_walk(MOVED3, plan)
    assert cert.valid, cert.violations


def test_within_tesseract_staircase():
    start = la.span_of([(0, 1, Fr(-1, 2), 0), (0, 0, 0, 1)])
    assert is_admissible_rows(MOVED4, start.basis)
    plan = wk.walk_within_hyperplane(MOVED4, start, seed=0)
    assert len(plan.segments) == 2
    assert len(plan.events) == 4
    assert plan.segments[-1].span_at(1) == la.span_of(
        [(0, 1, 0, 0), (0, 0, 1, 0)]
    )
    cert = wk.verify_walk(MOVED4, plan)
    assert cert.valid, cert.violations


def test_within_rejects_start_outside_hyperplane():
    with pytest.raises(ParameterError):
        wk.walk_within_hyperplane(MOVED3, la.span_of([(1, 1, 1)]), seed=0)


def test_within_rejects_inadmissible_start():
    with pytest.raises(InadmissiblePlaneError):
        wk.walk_within_hyperplane(MOVED3, la.span_of([ETAS3[0].eta]), seed=0)


# --------------------------------------------------------------- full walk


def test_full_walk_same_span_is_empty():
    a = la.span_of([(1, 2, 3)])
    b = la.span_of([(2, 4, 6)])
    plan = wk.full_walk(CUBE, a, b, seed=0)
    assert plan.segments == ()
    assert plan.events == ()
    assert plan.isometry == la.identity(3)
    assert wk.verify_walk(CUBE, plan).valid


def test_full_walk_cube():
    frm = la.span_of([(1, 2, 3)])
    to = la.span_of([(3, -1, 5)])
    plan = wk.full_walk(CUBE, frm, to, seed=1)
    cert = wk.verify_walk(CUBE, plan)
    assert cert.valid, cert.violations
    assert plan.segments[0].span_at(0) == frm
    assert plan.segments[-1].span_at(plan.segments[-1].t_range[1]) == to
    assert plan.segments[0].t_range[0] == 0
    assert plan.segments[-1].t_range[1] == 1
    rot = plan.isometry
    assert la.matmul(la.transpose(rot), rot) == la.identity(3)
    assert plan.isometry_inv == la.transpose(rot)
    assert cert.events == plan.events


def test_full_walk_tesseract():
    planes = sh.sample_admissible(TESS, 7, 2)
    frm = planes[0].complement
    to = planes[1].complement
    plan = wk.full_walk(TESS, frm, to, seed=2)
    cert = wk.verify_walk(TESS, plan)
    assert cert.valid, cert.violations
    assert plan.segments[0].span_at(0) == la.span_of(frm.basis)
    assert plan.segments[-1].span_at(1) == la.span_of(to.basis)
    assert len({e.time for e in plan.events}) == len(plan.events)


@pytest.mark.parametrize("seed", range(3))
def test_full_walk_prism_seeds(seed):
    planes = sh.sample_admissible(PRISM, 100 + seed, 2)
    plan = wk.full_walk(
        PRISM, planes[0].complement, planes[1].complement, seed=seed
    )
    cert = wk.verify_walk(PRISM, plan)
    assert cert.valid, cert.violations


def test_full_walk_seed_determinism():
    frm = la.span_of([(1, 2, 3)])
    to = la.span_of([(3, -1, 5)])
    p1 = wk.full_walk(CUBE, frm, to, seed=9)
    p2 = wk.full_walk(CUBE, frm, to, seed=9)
    assert p1.events == p2.events
    assert [(s.base, s.slope, s.t_range) for s in p1.segments] == [
        (s.base, s.slope, s.t_range) for s in p2.segments
    ]


def test_full_walk_rejects_inadmissible_endpoint():
    with pytest.raises(InadmissiblePlaneError):
        wk.full_walk(
            CUBE, la.span_of([(0, 0, 1)]), la.span_of([(1, 2, 3)]), seed=0
        )


@settings(max_examples=10, deadline=None)
@given(
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.integers(0, 99),
)
def test_full_walk_random_endpoints(u, v, seed):
    assume(any(x != 0 for x in u) and any(x != 0 for x in v))
    assume(is_admissible_rows(CUBE, (u,)) and is_admissible_rows(CUBE, (v,)))
    plan = wk.full_walk(CUBE, la.span_of([u]), la.span_of([v]), seed=seed)
    cert = wk.verify_walk(CUBE, plan)
    assert cert.valid, cert.violations
    if plan.segments:
        assert plan.segments[0].span_at(0) == la.span_of([u])
        assert plan.segments[-1].span_at(1) == la.span_of([v])


# ------------------------------------------------------------ verification


def test_verify_empty_plans():
    ident = la.identity(3)
    assert wk.verify_walk(CUBE, wk.WalkPlan((), (), ident, ident)).valid
    bogus = wk.WalkPlan(
        (), (wk.DegenerationEvent(Fr(1, 2), 0),), ident, ident
    )
    cert = wk.verify_walk(CUBE, bogus)
    assert not cert.valid


def test_verify_detects_dropped_event():
    plan = wk.full_walk(
        CUBE, la.span_of([(1, 2, 3)]), la.span_of([(3, -1, 5)]), seed=1
    )
    assert plan.events
    tampered = wk.WalkPlan(
        plan.segments, plan.events[:-1], plan.isometry, plan.isometry_inv
    )
    cert = wk.verify_walk(CUBE, tampered)
    assert not cert.valid
    assert any("event log" in v for v in cert.violations)


def test_verify_rejects_a_permuted_event_log():
    plan = wk.full_walk(
        CUBE, la.span_of([(1, 2, 3)]), la.span_of([(3, -1, 5)]), seed=1
    )
    assert len(set(e.time for e in plan.events)) > 1
    # the recomputed log is the plan's, entry by entry
    assert wk.verify_walk(CUBE, plan).events == plan.events
    permuted = plan.events[1:] + plan.events[:1]
    tampered = wk.WalkPlan(
        plan.segments, permuted, plan.isometry, plan.isometry_inv
    )
    cert = wk.verify_walk(CUBE, tampered)
    assert not cert.valid
    assert cert.violations == ("plan event log disagrees with the recomputation",)
    assert cert.events == plan.events


def test_verify_detects_shared_event_time():
    seg = wk.WalkSegment(((1, 2, 3),), ((-2, -4, -1),), (0, 1))
    events = (
        wk.DegenerationEvent(Fr(1, 2), 0),
        wk.DegenerationEvent(Fr(1, 2), 1),
    )
    ident = la.identity(3)
    cert = wk.verify_walk(CUBE, wk.WalkPlan((seg,), events, ident, ident))
    assert not cert.valid
    assert any("share the event time" in v for v in cert.violations)


def test_verify_detects_junction_mismatch():
    a = wk.WalkSegment(((1, 2, 3),), ((0, 0, 0),), (0, Fr(1, 2)))
    b = wk.WalkSegment(((3, -1, 5),), ((0, 0, 0),), (Fr(1, 2), 1))
    ident = la.identity(3)
    cert = wk.verify_walk(CUBE, wk.WalkPlan((a, b), (), ident, ident))
    assert not cert.valid
    assert any("junction spans differ" in v for v in cert.violations)


def test_verify_reports_dependent_junction_as_rank_loss():
    # the row vanishes at the junction t=1/2, so both minor vectors
    # there are zero and no span is compared; every class of either
    # segment is zero at that end, and the scan names each
    a = wk.WalkSegment(((1, 2, 3),), ((-2, -4, -6),), (0, Fr(1, 2)))
    b = wk.WalkSegment(((-1, -2, -3),), ((2, 4, 6),), (Fr(1, 2), 1))
    ident = la.identity(3)
    cert = wk.verify_walk(CUBE, wk.WalkPlan((a, b), (), ident, ident))
    assert not cert.valid
    side = tuple(f"class {c} degenerates at a segment junction (t=1/2)" for c in range(3))
    assert cert.violations == side + side


def test_verify_detects_rank_loss():
    # row 0 vanishes at t=1/2: the class of span(e2, e3) has its root
    # there, and every other class meets span(e0, e1), so it is zero
    # along the whole segment
    cid = class_id_by_span(TESS, ((0, 0, 1, 0), (0, 0, 0, 1)))
    seg = wk.WalkSegment(
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((-2, 0, 0, 0), (0, 0, 0, 0)),
        (0, 1),
    )
    events = (wk.DegenerationEvent(Fr(1, 2), cid),)
    ident = la.identity(4)
    cert = wk.verify_walk(TESS, wk.WalkPlan((seg,), events, ident, ident))
    assert not cert.valid
    assert cid == 0
    assert cert.violations == tuple(
        f"class {c} is degenerate along segment 0" for c in range(1, 6)
    )


def test_verify_detects_endpoint_event():
    seg = wk.WalkSegment(((1, 2, 3),), ((-1, 0, 0),), (0, 1))
    ident = la.identity(3)
    cert = wk.verify_walk(CUBE, wk.WalkPlan((seg,), (), ident, ident))
    assert not cert.valid
    assert any("endpoint" in v for v in cert.violations)


def test_verify_detects_nonaffine_segment():
    seg = wk.WalkSegment(
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 1, 0), (0, 0, 0, 1)),
        (0, 1),
    )
    ident = la.identity(4)
    cert = wk.verify_walk(TESS, wk.WalkPlan((seg,), (), ident, ident))
    assert not cert.valid
    assert any("not affine" in v for v in cert.violations)


# ------------------------------------------------------- transformations


def test_prism_triangle_swap():
    tr = wk.elementary_transformation(PRISM, 0, 4, TRI_WIT)
    assert tr.epsilon == 1
    assert tr.u1 == (1, 2, 0)
    before = wk.boundary_chains(PRISM, 0, plane_at(tr.minus, -tr.epsilon / 2))
    after = wk.boundary_chains(PRISM, 0, plane_at(tr.plus, tr.epsilon / 2))
    assert before.visible == frozenset({(0, 1), (0, 2)})
    assert after.visible == frozenset({(1, 2)})
    # exact exchange of the chains, fixed points shared
    assert after.visible == before.invisible
    assert after.invisible == before.visible
    assert before.fixed == after.fixed == (1, 2)
    # the hull oracle sees the same chains
    assert (
        oracle_visible_edges(PRISM, 0, plane_at(tr.minus, -tr.epsilon / 2))
        == before.visible
    )
    assert (
        oracle_visible_edges(PRISM, 0, plane_at(tr.plus, tr.epsilon / 2))
        == after.visible
    )
    # triangles are balanced here: the shadow size stays put
    k_before = sh.shadow(PRISM, plane_at(tr.minus, -tr.epsilon / 2)).k
    k_after = sh.shadow(PRISM, plane_at(tr.plus, tr.epsilon / 2)).k
    assert k_before == k_after == 5


def test_transformation_halves_are_single_crossing():
    tr = wk.elementary_transformation(PRISM, 0, 4, TRI_WIT)
    classes = pt.parallel_classes(PRISM)
    tri = 3
    for t in (-tr.epsilon / 2, tr.epsilon / 2):
        rows = tr.minus.rows_at(t) if t < 0 else tr.plus.rows_at(t)
        for cid, cls in enumerate(classes):
            dv = oracle_class_degeneracy_det(rows, cls.direction_plane)
            assert dv != 0
    rows0 = tr.minus.rows_at(0)
    for cid, cls in enumerate(classes):
        dv = oracle_class_degeneracy_det(rows0, cls.direction_plane)
        assert (dv == 0) == (cid == tri)


def test_transformation_sign_data():
    tr = wk.elementary_transformation(PRISM, 0, 4, TRI_WIT)
    assert tr.sign_coefficient != 0
    assert la.dot(tr.v, tr.w1) == 0
    assert la.dot(tr.w1, tr.w2) == 0
    # w1, w2 span the witness plane
    plane = sh.ProjectionPlane.from_orthogonal(tr.minus.rows_at(0))
    assert la.span_of((tr.w1, tr.w2)) == la.span_of(plane.basis.basis)


def test_transformation_reverse_mirrors_halves():
    tr = wk.elementary_transformation(PRISM, 0, 4, TRI_WIT)
    rev = wk.elementary_transformation(PRISM, 0, 4, TRI_WIT, reverse=True)
    assert rev.v == la.neg(tr.v)
    fwd = wk.boundary_chains(PRISM, 0, plane_at(tr.minus, -tr.epsilon / 2))
    bwd = wk.boundary_chains(PRISM, 0, plane_at(rev.plus, rev.epsilon / 2))
    assert fwd.visible == bwd.visible


def test_hypercube_tilt_transformation():
    a = face_id(TESS, (0, 4, 8, 12))
    b = face_id(TESS, (3, 7, 11, 15))
    tr = wk.elementary_transformation(TESS, a, b, TILT4_WIT)
    assert tr.epsilon == Fr(1, 4)
    before_a = wk.boundary_chains(TESS, a, plane_at(tr.minus, -tr.epsilon / 2))
    after_a = wk.boundary_chains(TESS, a, plane_at(tr.plus, tr.epsilon / 2))
    before_b = wk.boundary_chains(TESS, b, plane_at(tr.minus, -tr.epsilon / 2))
    after_b = wk.boundary_chains(TESS, b, plane_at(tr.plus, tr.epsilon / 2))
    assert before_a.visible == frozenset({(0, 4), (4, 12)})
    assert after_a.visible == frozenset({(0, 8), (8, 12)})
    assert before_b.visible == frozenset({(3, 11), (11, 15)})
    assert after_b.visible == frozenset({(3, 7), (7, 15)})
    assert after_a.visible == before_a.invisible
    assert after_b.visible == before_b.invisible
    # balanced pair of squares: the shadow size is conserved
    assert sh.shadow(TESS, plane_at(tr.minus, -tr.epsilon / 2)).k == 8
    assert sh.shadow(TESS, plane_at(tr.plus, tr.epsilon / 2)).k == 8


def test_transformation_rejects_bad_witnesses():
    # axis direction degenerates a second class as well
    with pytest.raises(ParameterError):
        wk.elementary_transformation(PRISM, 0, 4, la.span_of([(1, 0, 0)]))
    # admissible span degenerates nothing
    with pytest.raises(ParameterError):
        wk.elementary_transformation(PRISM, 0, 4, la.span_of([(1, 2, 3)]))


def test_transformation_rejects_bad_pairs():
    with pytest.raises(ParameterError):
        wk.elementary_transformation(PRISM, 0, 1, TRI_WIT)
    with pytest.raises(ParameterError):
        wk.elementary_transformation(PRISM, 0, 0, TRI_WIT)
    with pytest.raises(ParameterError):
        wk.elementary_transformation(PRISM, 0, 99, TRI_WIT)


def test_transformation_rejects_hidden_faces():
    pa = face_id(PERT, (1, 5, 9, 13))
    pb = face_id(PERT, (2, 6, 10, 14))
    with pytest.raises(GeometryError):
        wk.elementary_transformation(PERT, pa, pb, TILT4_WIT)


# ------------------------------------------------------------ chain splits


@pytest.mark.parametrize("edge", [(0, 1), (0, 2), (1, 2)])
def test_prism_chain_split(edge):
    tr1, tr2 = wk.chain_split_transformations(PRISM, 0, 4, edge, TRI_WIT)
    c1 = oracle_visible_edges(PRISM, 0, plane_at(tr1.minus, sum(tr1.minus.t_range) / 2))
    c2 = oracle_visible_edges(PRISM, 0, plane_at(tr2.minus, sum(tr2.minus.t_range) / 2))
    assert c1 ^ c2 == {edge}
    assert (edge in c1) != (edge in c2)
    # distinct witnesses on either side of the edge event
    assert la.span_of(tr1.minus.rows_at(0)) != la.span_of(tr2.minus.rows_at(0))


def test_chain_split_rejects_parallel_edges():
    z0 = face_id(CUBE, (0, 2, 4, 6))
    z1 = face_id(CUBE, (1, 3, 5, 7))
    wit = la.span_of([(1, 2, 0)])
    with pytest.raises(ParameterError):
        wk.chain_split_transformations(CUBE, z0, z1, (0, 2), wit)


def test_chain_split_rejects_foreign_edge():
    with pytest.raises(ParameterError):
        wk.chain_split_transformations(PRISM, 0, 4, (0, 3), TRI_WIT)
    with pytest.raises(ParameterError):
        wk.chain_split_transformations(PRISM, 0, 4, (0, 5), TRI_WIT)


def _split_fields(x):
    """A transformation field as plain strings: segments by range, base
    and slope, numbers by value."""
    if isinstance(x, wk.WalkSegment):
        return ["seg", _split_fields(x.t_range), _split_fields(x.base), _split_fields(x.slope)]
    if isinstance(x, (tuple, list)):
        return [_split_fields(y) for y in x]
    if isinstance(x, (int, Fr)) and not isinstance(x, bool):
        return str(Fr(x))
    return repr(x)


# sha256 over the outcome of chain_split_transformations for every edge
# of the face of every visible_pairs certificate of seven polytopes: the
# fields of both returned transformations, or the exception type and
# message. Pinned so that a change to the split which claims identical
# behaviour must keep every outcome.
CHAIN_SPLIT_ZOO = {
    "triprism": lambda: PRISM,
    "cube3": lambda: CUBE,
    "pentagonal": lambda: fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
    "cube4": lambda: TESS,
    "perturbed": lambda: PERT,
    "zono4": lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
    "pn4": lambda: fam.pn_polytope(4),
}
CHAIN_SPLIT_DIGEST = "9e9588ed90dcd1ddd7d6abf18b461ec0d7dd5b6ddc7796423aacf6fa122a68e0"


def test_chain_split_outcomes_match_golden_digest():
    h = hashlib.sha256()
    outcomes = Counter()
    for name, make in CHAIN_SPLIT_ZOO.items():
        p = make()
        faces = pt.k_faces(p, 2)
        for cert in eq.visible_pairs(p):
            for e in pt.face_edges(p, faces[cert.face_id]):
                edge = tuple(e.vertex_ids)
                try:
                    trs = wk.chain_split_transformations(
                        p, cert.face_id, cert.other_id, edge, cert.witness
                    )
                    out = ["ok", [[_split_fields(f) for f in tr] for tr in trs]]
                except Exception as exc:  # noqa: BLE001 - the message is pinned too
                    out = ["err", type(exc).__name__, str(exc)]
                outcomes[out[0]] += 1
                key = [name, cert.face_id, cert.other_id, edge]
                h.update(json.dumps(key + [out]).encode())
    assert outcomes == {"ok": 254, "err": 247}
    assert h.hexdigest() == CHAIN_SPLIT_DIGEST


def test_reversed_crossing_is_the_forward_one_read_backwards():
    # chain_split_transformations reads a reversed crossing's chains off
    # the forward one; the integer rows, not only their spans, must swap
    checked = 0
    for make in CHAIN_SPLIT_ZOO.values():
        p = make()
        for cert in eq.visible_pairs(p):
            fwd, rev = (
                wk.elementary_transformation(
                    p, cert.face_id, cert.other_id, cert.witness, reverse=r
                )
                for r in (False, True)
            )
            eps = fwd.epsilon
            assert (rev.epsilon, rev.w1, rev.w2) == (eps, fwd.w1, fwd.w2)
            assert rev.sign_coefficient == -fwd.sign_coefficient
            assert rev.minus.int_rows_at(-eps / 2) == fwd.plus.int_rows_at(eps / 2)
            assert rev.plus.int_rows_at(eps / 2) == fwd.minus.int_rows_at(-eps / 2)
            checked += 1
    assert checked == 145


def _split_outcome(f, *args):
    """f(*args) as plain data: the slide's eps and both witness spans,
    the fields of the two transformations, or the error's type and
    message."""
    try:
        out = f(*args)
    except Exception as exc:  # noqa: BLE001 - the message is compared too
        return ["err", type(exc).__name__, str(exc)]
    if isinstance(out[0], Fr):
        eps, w_minus, w_plus = out
        return ["ok", repr(eps), [(w.int_rows, w.int_mults) for w in (w_minus, w_plus)]]
    return ["ok", [[_split_fields(x) for x in tr] for tr in out]]


def assert_split_matches_the_fraction_route(p, fid, oid, edge, witness):
    edge = tuple(sorted(edge))
    args = (p, fid, oid, edge, witness)
    assert _split_outcome(wk._edge_slide, *args) == _split_outcome(oracle_edge_slide, *args)
    got = _split_outcome(wk.chain_split_transformations, *args)
    assert got == _split_outcome(oracle_chain_split_transformations, *args)
    return got[0]


def test_chain_splits_match_the_fraction_route_on_the_zoo():
    # the integer slide against the Fraction one it replaced, on every
    # edge of every certificate of the pinned zoo
    outcomes = Counter()
    for make in CHAIN_SPLIT_ZOO.values():
        p = make()
        faces = pt.k_faces(p, 2)
        for cert in eq.visible_pairs(p):
            for e in pt.face_edges(p, faces[cert.face_id]):
                outcomes[
                    assert_split_matches_the_fraction_route(
                        p, cert.face_id, cert.other_id, e.vertex_ids, cert.witness
                    )
                ] += 1
    assert outcomes == {"ok": 254, "err": 247}


SPLIT_DRAWN = {
    "triprism": PRISM,
    "pentagonal": CHAIN_SPLIT_ZOO["pentagonal"](),
    "perturbed": PERT,
    "pn2": PN2,
    "pn4": fam.pn_polytope(4),
}


@st.composite
def face_witnesses(draw, polytopes):
    """A polytope of the dict polytopes, a face, an optional partner of
    its class, and a witness: a direction of the face plane and d - 3
    small integer rows, valid or not."""
    p = polytopes[draw(st.sampled_from(sorted(polytopes)))]
    d = p.dim
    cls = draw(st.sampled_from(pt.parallel_classes(p)))
    fid = draw(st.sampled_from(cls.member_ids))
    oid = draw(st.sampled_from((None,) + tuple(m for m in cls.member_ids if m != fid)))
    f1, f2 = cls.direction_plane.int_rows
    a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    small = st.tuples(*[st.integers(-3, 3)] * d)
    rows = (tuple(a * x + b * y for x, y in zip(f1, f2)),) + tuple(
        draw(small) for _ in range(d - 3)
    )
    assume(kernels.rank_int(rows) == d - 2)
    return p, fid, oid, rows


@st.composite
def drawn_splits(draw):
    """face_witnesses on SPLIT_DRAWN, with one of the face's edges."""
    p, fid, oid, rows = draw(face_witnesses(SPLIT_DRAWN))
    edge = draw(st.sampled_from(pt.face_edges(p, pt.k_faces(p, 2)[fid]))).vertex_ids
    return p, fid, oid, edge, rows


@settings(max_examples=80, deadline=None)
@given(drawn_splits())
# the witness direction orthogonal to the edge; along it, where the
# other face through the edge degenerates too
@example((PRISM, 0, None, (1, 2), ((1, 1, 0),)))
@example((PRISM, 0, 4, (0, 1), ((1, 0, 0),)))
def test_chain_splits_match_the_fraction_route_on_drawn_witnesses(case):
    p, fid, oid, edge, rows = case
    assert_split_matches_the_fraction_route(p, fid, oid, edge, la.Subspace(rows))


@pytest.mark.parametrize("u1", [(1, 2, 0), (1, 3, 0)])
def test_chain_split_rejects_an_edge_that_changes_sides(monkeypatch, u1):
    # The slide ebar + s v holds the direction of another face edge e at
    # some s0, where the other 2-face through e degenerates, so a scan
    # of the lattice's classes keeps eps below |s0| and e never changes
    # sides. A scan that misses that class leaves eps = lam / 2: on the
    # prism's triangle (0, 1, 2), with edge (0, 1), ebar = e0 and v = e1,
    # the edge (1, 2) runs along ebar - v, so s0 = -1, which is -eps at
    # u1 = (1, 2, 0) (e's component is 0 on one side) and inside
    # (-eps, eps) at u1 = (1, 3, 0).
    monkeypatch.setattr(wk, "_segment_events", lambda polys, classes: ([], []))
    witness = la.span_of([u1])
    message = "^edge \\(1, 2\\) changes sides across the event$"
    for split in (wk.chain_split_transformations, oracle_chain_split_transformations):
        with pytest.raises(WalkError, match=message):
            split(PRISM, 0, None, (0, 1), witness)


# ------------------------------------------------------------------- json


def test_plan_json_shape():
    plan = wk.full_walk(
        CUBE, la.span_of([(1, 2, 3)]), la.span_of([(3, -1, 5)]), seed=1
    )
    data = wk.to_json_dict(plan)
    assert set(data) == {"segments", "events"}
    assert len(data["segments"]) == len(plan.segments)
    assert len(data["events"]) == len(plan.events)
    for entry, ev in zip(data["events"], plan.events):
        assert la.parse_rat(entry["t"]) == ev.time
        assert entry["class"] == ev.class_id
    first = data["segments"][0]
    assert la.parse_rat(first["t0"]) == 0
    rows = [tuple(la.parse_rat(x) for x in r) for r in first["base"]]
    assert tuple(rows) == plan.segments[0].base


# ------------------------------------------------- integer segment frames

ZONO4 = fam.zonotope(fam.random_generators(5, 4, 4))
FRAME_ZOO = [CUBE, MOVED3, PRISM, TESS, MOVED4, ZONO4, fam.hypercube(5)]
RATS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def zoo_segments(draw, zoo=FRAME_ZOO, slopes="any"):
    """A polytope of the zoo and a random segment on it.

    Rational rows; one or several moving rows (several make most class
    determinants quadratic or worse); and, half the time, a first row
    kept inside one class plane, which degenerates that class along the
    whole segment. slopes="one" makes every slope row a multiple of one
    row (rank at most 1, as on every segment the walks build);
    slopes="many" keeps at least two independent slope rows (a zoo in
    d >= 4).
    """
    p = draw(st.sampled_from(zoo))
    d = p.dim
    row = st.tuples(*[RATS] * d)
    base = [draw(row) for _ in range(d - 2)]
    if slopes == "one":
        w = draw(row)
        slope = [la.scale(w, draw(RATS)) for _ in range(d - 2)]
    else:
        moving = draw(st.integers(2 if slopes == "many" else 1, d - 2))
        slope = [draw(row) if i < moving else (0,) * d for i in range(d - 2)]
    if draw(st.booleans()):
        f1, f2 = draw(st.sampled_from(pt.parallel_classes(p))).direction_plane.basis
        a, b, c, e = (draw(RATS) for _ in range(4))
        base[0] = la.add(la.scale(f1, a), la.scale(f2, b))
        slope[0] = la.add(la.scale(f1, c), la.scale(f2, e))
        if slopes == "one":
            slope[1:] = [la.scale(slope[0], draw(RATS)) for _ in slope[1:]]
    if slopes == "many":
        assume(la.rank(slope) >= 2)
    lo = draw(RATS)
    hi = lo + draw(st.fractions(min_value=Fr(1, 8), max_value=3, max_denominator=8))
    return p, wk.WalkSegment(base, slope, (lo, hi))


@settings(max_examples=80, deadline=None)
@given(zoo_segments())
def test_segment_polynomials_match_rational_oracle(case):
    p, seg = case
    polys = wk.SegmentMinors(seg)
    for cls in pt.parallel_classes(p):
        try:
            want = oracle_degeneration_polynomial(seg, cls)
        except WalkError:
            with pytest.raises(WalkError, match="not affine"):
                polys(cls)
            continue
        got = polys(cls)
        assert (got.c0, got.c1) == want
        # zero along the whole segment exactly when the oracle says so
        assert (got.c0 == 0 and got.c1 == 0) == (want == (0, 0))
        assert wk.degeneration_polynomial(seg, cls) == got


def test_segment_polynomials_on_rotated_class_planes():
    # rotated class planes carry denominators, so int_scale is not 1
    classes = pt.parallel_classes(MOVED4)
    assert any(cls.direction_plane.int_scale != 1 for cls in classes)
    seg = wk.WalkSegment(
        ((1, Fr(1, 2), 0, 3), (0, 1, Fr(-2, 3), 1)),
        ((Fr(-1, 3), 0, 2, 0), (0, 0, 0, 0)),
        (Fr(-1, 2), Fr(5, 4)),
    )
    polys = wk.SegmentMinors(seg)
    for cls in classes:
        got = polys(cls)
        assert (got.c0, got.c1) == oracle_degeneration_polynomial(seg, cls)


def test_segment_polynomials_reject_a_non_square_stack():
    seg = wk.WalkSegment(((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)), ((0,) * 5,) * 2, (0, 1))
    with pytest.raises(DimensionError, match="not square"):
        wk.SegmentMinors(seg)


@settings(max_examples=80, deadline=None)
@given(zoo_segments())
def test_end_value_signs_match_rational_oracle(case):
    p, seg = case
    lo, hi = seg.t_range
    polys = wk.SegmentMinors(seg)
    for cls in pt.parallel_classes(p):
        try:
            c0, c1 = oracle_degeneration_polynomial(seg, cls)
        except WalkError:
            continue
        got = polys(cls)
        # the end values over their denominator are the exact values
        assert got.den > 0
        assert Fr(got.a, got.den) == c0 + c1 * lo
        assert Fr(got.b, got.den) == c0 + c1 * hi
        assert got.root() == (None if c1 == 0 else -c0 / c1)
        roots = oracle_affine_roots(c0, c1, lo, hi)
        if roots is None:
            want = ("whole", None)
        elif not roots:
            want = ("none", None)
        elif roots[0] in (lo, hi):
            want = ("end", roots[0])
        else:
            want = ("inside", roots[0])
        assert got.crossing() == want
        if want[0] == "inside":
            # the same family cut at the root puts it at either end
            t = want[1]
            for cut in ((lo, t), (t, hi)):
                cut = wk.WalkSegment(seg.base, seg.slope, cut)
                assert wk.degeneration_polynomial(cut, cls).crossing() == ("end", t)


def _junction_case(p, seed):
    """Classes ca, cb of p whose planes Fa, Fb meet in a line, and an
    admissible (u1, *others) whose others start with a row o of Fa + Fb
    outside both: span(others, Fa) = span(others, Fb), so the two
    classes share a junction span."""
    classes = pt.parallel_classes(p)
    ca, cb = next(
        (a, b)
        for a in range(len(classes))
        for b in range(a + 1, len(classes))
        if la.span_of(classes[a].direction_plane.basis + classes[b].direction_plane.basis).dim == 3
    )
    fa = classes[ca].direction_plane.basis
    fb = classes[cb].direction_plane.basis
    o = la.add(fa[0], fb[0])
    assert la.span_of((o,) + fa) == la.span_of((o,) + fb)
    rng = random.Random(seed)
    while True:
        u1, *rest = (
            (1,) + tuple(rng.randint(-9, 9) for _ in range(p.dim - 1))
            for _ in range(p.dim - 3)
        )
        others = [o] + [la.as_vec(r) for r in rest]
        if not list(sh.degenerate_classes(p, (u1, *others))):
            return classes, la.as_vec(u1), others, ca, cb


@pytest.mark.parametrize("seed", range(6))
def test_separate_junction_spans_nudges_to_an_admissible_span(seed):
    q = wk.reference_frame(fam.hypercube(4)).moved
    classes, u1, others, ca, cb = _junction_case(q, seed)
    start = others[0]
    seg = wk._separate_junction_spans(q, classes, u1, others, ca, cb, random.Random(seed))
    assert seg is not None
    lo, hi = seg.t_range
    assert lo == 0 < hi
    assert seg.rows_at(0) == (u1, start)
    # the nudge moves the second row inside the reference hyperplane
    assert seg.slope[0] == wk._zero_vec(4) and seg.slope[1][0] == 0
    # no class degenerates anywhere on the closed nudge segment
    for cls in classes:
        c0, c1 = oracle_degeneration_polynomial(seg, cls)
        assert oracle_affine_roots(c0, c1, lo, hi) == []
    assert others[0] == seg.rows_at(hi)[1]
    fa = classes[ca].direction_plane.basis
    fb = classes[cb].direction_plane.basis
    assert la.span_of(tuple(others) + fa) != la.span_of(tuple(others) + fb)


def test_separate_junction_spans_rejects_a_dependent_fixed_family():
    q = wk.reference_frame(fam.hypercube(5)).moved
    classes, u1, others, ca, cb = _junction_case(q, 0)
    # a second row in span(Fa, fb[0]) makes the fixed family
    # (others[1:], Fa, fb[0]) dependent, while no class degenerates along
    # the whole nudge, so only the dependence test can refuse it
    fa0 = classes[ca].direction_plane.basis[0]
    fb0 = classes[cb].direction_plane.basis[0]
    others[1] = la.add(la.scale(fa0, 2), fb0)
    before = list(others)
    assert wk._separate_junction_spans(q, classes, u1, others, ca, cb, random.Random(0)) is None
    assert others == before


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=80, deadline=None)
@given(zoo_segments(), RATS)
def test_int_rows_at_scale_the_rational_rows(case, t):
    p, seg = case
    ints, scale = seg.int_rows_at(t)
    rows = seg.rows_at(t)
    ref = la.int_matrix(rows)[0]
    # row by row, the integer row is the rational one times a factor > 0
    for x, y in zip(ints, ref):
        j = next((k for k, v in enumerate(y) if v), None)
        if j is None:
            assert not any(x)
            continue
        assert _sign(x[j]) == _sign(y[j])
        assert all(xi * y[j] == yi * x[j] for xi, yi in zip(x, y))
    assert kernels.rank_int(ints) == kernels.rank_int(ref)
    for cls in pt.parallel_classes(p):
        plane = cls.direction_plane
        got = kernels.det_int(ints + plane.int_rows)
        assert _sign(got) == _sign(kernels.det_int(ref + plane.int_rows))
        # the returned scale is the product of the row factors
        assert Fr(got, scale * plane.int_scale) == la.det(rows + plane.basis)


@st.composite
def zoo_rows(draw):
    """A zoo polytope and d-2 rational rows; half the time the first row
    lies in a class plane, which degenerates that class."""
    p = draw(st.sampled_from(FRAME_ZOO))
    row = st.tuples(*[RATS] * p.dim)
    rows = [draw(row) for _ in range(p.dim - 2)]
    if draw(st.booleans()):
        f1, f2 = draw(st.sampled_from(pt.parallel_classes(p))).direction_plane.basis
        rows[0] = la.add(la.scale(f1, draw(RATS)), la.scale(f2, draw(RATS)))
    return p, rows


@settings(max_examples=80, deadline=None)
@given(zoo_rows())
def test_degenerate_classes_match_det_int_oracle(case):
    p, rows = case
    assert list(sh.degenerate_classes(p, rows)) == oracle_degenerate_classes(p, rows)
    # the zero set of the sympy determinant too, and la.det agrees with it
    zero = []
    for cid, cls in enumerate(pt.parallel_classes(p)):
        plane = cls.direction_plane
        want = la.det(tuple(la.as_mat(rows)) + plane.basis)
        assert oracle_class_degeneracy_det(rows, plane) == want
        if want == 0:
            zero.append(cid)
    assert list(sh.degenerate_classes(p, rows)) == zero


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FRAME_ZOO[2:]), st.data())
def test_pull_back_matches_the_rational_inverse(p, data):
    frame = wk.reference_frame(p)
    row = data.draw(st.tuples(*[RATS] * p.dim))
    seg = wk.WalkSegment((row,), ((0,) * p.dim,), (0, 1))
    got = seg.mapped(frame.int_inverse).rows_at(0)[0]
    assert got == la.matvec(frame.inverse, la.as_vec(row))
    assert all(isinstance(x, Fr) for x in got)


@st.composite
def oracle_chains(draw):
    """A frame polytope, a rational segment on it (zero rows, negative
    entries and any rational range) with its Fraction oracle, and a chain
    of reversals, rescalings and pull-backs through the frame."""
    p = draw(st.sampled_from(FRAME_ZOO[2:]))
    d = p.dim
    row = st.one_of(st.just((0,) * d), st.tuples(*[RATS] * d))
    n = draw(st.integers(1, d - 2))
    base = [draw(row) for _ in range(n)]
    slope = [draw(row) for _ in range(n)]
    width = st.fractions(min_value=Fr(1, 8), max_value=3, max_denominator=8)
    lo = draw(RATS)
    rng = (lo, lo + draw(width))
    step = st.one_of(
        st.just(("reversed",)),
        st.just(("pulled",)),
        st.tuples(st.just("rescaled"), RATS, width),
    )
    return p, (base, slope, rng), draw(st.lists(step, max_size=6)), draw(RATS)


def _assert_segment_matches(seg, ref, t):
    assert seg.t_range == ref.t_range
    assert seg.base == ref.base and seg.slope == ref.slope
    for (b, s, c), rb, rs in zip(seg._rows, ref.base, ref.slope):
        # the stored pair is int_row's: minimal, gcd(c, *B, *S) = 1
        assert c > 0 and gcd(c, *b, *s) == 1
        assert (list(b + s), c) == la.int_row(rb + rs)
    lo, hi = ref.t_range
    for u in (lo, hi, (lo + hi) / 2, t):
        rows = ref.rows_at(u)
        assert seg.rows_at(u) == rows
        ints, scale = seg.int_rows_at(u)
        # row i is the rational row times q * c_i, with u = p/q
        factors = [u.denominator * la.int_row(rb + rs)[1] for rb, rs in zip(ref.base, ref.slope)]
        assert ints == tuple(tuple(x * f for x in r) for r, f in zip(rows, factors))
        assert scale == prod(factors)
        if la.rank(rows) == len(rows):
            want = la.Subspace(rows)
            got = seg.span_at(u)
            assert got == want and hash(got) == hash(want)
        else:
            with pytest.raises(DegenerateBasisError):
                seg.span_at(u)


@settings(max_examples=120, deadline=None)
@given(oracle_chains())
def test_walk_segment_matches_fraction_oracle(case):
    p, (base, slope, rng), steps, t = case
    seg, ref = wk.WalkSegment(base, slope, rng), OracleSegment.of(base, slope, rng)
    _assert_segment_matches(seg, ref, t)
    int_inverse = wk.reference_frame(p).int_inverse
    for step in steps:
        if step[0] == "reversed":
            seg, ref = seg.reversed(), ref.reversed()
        elif step[0] == "pulled":
            seg, ref = seg.mapped(int_inverse), ref.pulled_back(int_inverse)
        else:
            lo, w = step[1], step[2]
            seg, ref = seg.rescaled(lo, lo + w), ref.rescaled(lo, lo + w)
        _assert_segment_matches(seg, ref, t)


def _complete_basis_by_rational_rank(first, rows, limit):
    comp, kept = [first], []
    for i, r in enumerate(rows):
        if la.rank(tuple(comp) + (r,)) > len(comp):
            comp.append(r)
            kept.append(i)
    # the rows held are first and the kept ones
    return kept[: limit - 1]


@settings(max_examples=80, deadline=None)
@given(zoo_rows(), st.data())
def test_complete_basis_matches_rational_rank(case, data):
    p, rows = case
    rows = [la.as_vec(r) for r in rows]
    # repeat a row now and then, so that some rows add no rank
    if data.draw(st.booleans()):
        rows.append(rows[0])
    first = la.as_vec(data.draw(st.tuples(*[RATS] * p.dim)))
    assume(any(first))
    # the gift wrap asks for d and d - 1 rows, the walk for d - 2 and
    # d - 1; at 1 the starting row alone already reaches the limit
    limit = data.draw(st.integers(1, p.dim))
    # kernels.independent runs on the rows scaled to integers
    ints = [tuple(la.int_row(r)[0]) for r in rows]
    got = kernels.independent([tuple(la.int_row(first)[0])], ints, limit)
    assert got == _complete_basis_by_rational_rank(first, rows, limit)


def test_verify_reports_wrong_row_width():
    seg = wk.WalkSegment(((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)), ((0,) * 5,) * 2, (0, 1))
    ident = la.identity(4)
    cert = wk.verify_walk(TESS, wk.WalkPlan((seg,), (), ident, ident))
    assert not cert.valid
    assert cert.violations == ("segment 0 rows have width 5, expected 4",)


# ---------------------------------------------------- reference frame memo


def plan_key(plan):
    segments = [(s.base, s.slope, s.t_range) for s in plan.segments]
    return segments, plan.events, plan.isometry, plan.isometry_inv


def count_isometry_searches(monkeypatch):
    calls = []
    search = wk.reference_isometry

    def counted(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr(wk, "reference_isometry", counted)
    return calls


def test_full_walk_builds_the_frame_once(monkeypatch):
    p = fam.hypercube(3)
    calls = count_isometry_searches(monkeypatch)
    frm, to = la.span_of([(1, 2, 3)]), la.span_of([(3, -1, 5)])
    first = wk.full_walk(p, frm, to, seed=1)
    second = wk.full_walk(p, frm, to, seed=1)
    wk.full_walk(p, to, frm, seed=2)
    assert len(calls) == 1 and calls[0] is p
    assert plan_key(first) == plan_key(second)
    frame = wk.reference_frame(p)
    assert first.isometry == frame.rotation
    assert first.isometry_inv == frame.inverse == la.transpose(frame.rotation)
    assert len(calls) == 1


def test_rebuilt_polytope_computes_its_own_frame(monkeypatch):
    p = fam.hypercube(3)
    twin = pt.build(p.vertices)
    calls = count_isometry_searches(monkeypatch)
    frm, to = la.span_of([(1, 2, 3)]), la.span_of([(3, -1, 5)])
    a = wk.full_walk(p, frm, to, seed=1)
    b = wk.full_walk(twin, frm, to, seed=1)
    assert len(calls) == 2 and calls[0] is p and calls[1] is twin
    assert wk.reference_frame(p) is not wk.reference_frame(twin)
    assert plan_key(a) == plan_key(b)


def test_verify_walk_does_not_read_the_frame():
    p = fam.hypercube(4)
    planes = sh.sample_admissible(p, 11, 2)
    plan = wk.full_walk(p, planes[0].complement, planes[1].complement, seed=4)
    assert p._frame is not None
    fresh = pt.build(p.vertices)
    cert = wk.verify_walk(fresh, plan)
    assert fresh._frame is None
    assert cert.valid, cert.violations
    assert cert == wk.verify_walk(p, plan)


# Event logs of two seeded walks, pinned at the values of the Fraction
# determinant implementation.
CUBE4_GOLDEN_EVENTS = [
    ("234375/4388717", 0), ("3828125/34832943", 1), ("4328125/23350788", 2),
    ("15625/64449", 3), ("58953743/140074462", 4), ("57434201/120410146", 5),
    ("38489938/74938729", 0), ("98673977/191224513", 5),
    ("78373153/144499424", 3), ("129993001/231409944", 1),
    ("668397969/725976094", 4), ("133270719/141692594", 3),
    ("3353251471/3516454596", 5),
]
# sha256 of "t:class;t:class;..." over the 129 events
PN4_GOLDEN_DIGEST = "a878501abe0a944070e6038fa548f51b1c9547fba61018db284fa2c4474147f4"


def golden_walk(name, p):
    planes = sh.sample_admissible(p, f"golden:{name}", 2)
    plan = wk.full_walk(p, planes[0].complement, planes[1].complement, seed=3)
    assert wk.verify_walk(p, plan).valid
    return plan, [(la.rat_str(e.time), e.class_id) for e in plan.events]


def test_golden_walk_cube4():
    plan, events = golden_walk("cube4", fam.hypercube(4))
    assert len(plan.segments) == 4
    assert events == CUBE4_GOLDEN_EVENTS


def test_golden_walk_pn4():
    plan, events = golden_walk("pn4", fam.pn_polytope(4))
    assert [s.t_range for s in plan.segments] == [
        (Fr(k, 4), Fr(k + 1, 4)) for k in range(4)
    ]
    assert len(events) == 129
    assert events[0] == ("14638518015/658588720899464", 13)
    assert events[-1] == ("294599637082983/294803053736648", 61)
    log = ";".join(f"{t}:{c}" for t, c in events)
    assert hashlib.sha256(log.encode()).hexdigest() == PN4_GOLDEN_DIGEST


# ------------------------------------------------------- one event scan


def _planning_error(seg, classes, fault):
    """The message a walk construction raises for one scan fault."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wk, "_segment_events", lambda *_: ([], [fault]))
        with pytest.raises(WalkError) as exc:
            wk._planned_events(seg, classes)
    return str(exc.value)


def assert_scan_matches_oracle(seg, classes, got=None):
    if got is None:
        got = wk._segment_events(wk.SegmentMinors(seg), classes)
    events, faults = got
    want_events, want_faults = oracle_segment_events(seg, classes)
    # groups, their order and their exact times
    assert events == want_events
    assert all(type(t) is Fr for t, _ids in events)
    assert [f[0] for f in faults] == [cid for cid, _msg in want_faults]
    for fault, (_cid, msg) in zip(faults, want_faults):
        assert _planning_error(seg, classes, fault) == msg
    if not faults:
        assert wk._planned_events(seg, classes) == events


WALK_SUITE = {
    "cube3": lambda: fam.hypercube(3),
    "cube4": lambda: fam.hypercube(4),
    "pentagonal": lambda: fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
    "zono4": lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
    "pn4": lambda: fam.pn_polytope(4),
}


@pytest.mark.parametrize("name", sorted(WALK_SUITE))
def test_segment_events_match_the_former_path_on_walks(name, monkeypatch):
    # every segment the scan sees while planning (rejected candidates
    # and half steps included), assembling and verifying the walks
    p = WALK_SUITE[name]()
    seen = []
    scan = wk._segment_events

    def recorded(polys, classes):
        out = scan(polys, classes)
        seen.append((polys.segment, classes, out))
        return out

    monkeypatch.setattr(wk, "_segment_events", recorded)
    for seed in range(3):
        planes = sh.sample_admissible(p, f"walk:{seed}:{name}", 8)
        for i in range(4):
            wa, wb = planes[2 * i], planes[2 * i + 1]
            plan = wk.full_walk(p, wa.complement, wb.complement, f"{seed}:{name}:{i}")
            assert wk.verify_walk(p, plan).valid
    monkeypatch.undo()
    assert seen
    for seg, classes, out in seen:
        assert_scan_matches_oracle(seg, classes, out)


@settings(max_examples=80, deadline=None)
@given(zoo_segments((CUBE, TESS)))
def test_segment_events_match_the_former_path_on_random_segments(case):
    p, seg = case
    assert_scan_matches_oracle(seg, pt.parallel_classes(p))


# (polytope, base, slope, range); on the cube the class of span(e_i, e_j)
# degenerates where the third coordinate of the row vanishes
PLANTED = [
    # the row stays in span(e0, e1): degenerate along the whole segment
    (CUBE, ((1, 2, 0),), ((0, 1, 0),), (0, 1)),
    # x0 = 1 - t vanishes at the end t = 1
    (CUBE, ((1, 2, 3),), ((-1, 0, 0),), (0, 1)),
    # two moving rows make the determinants quadratic
    (TESS, ((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)), (0, 1)),
    # x0 and x1 vanish together at t = 1/2
    (CUBE, ((1, 2, 3),), ((-2, -4, -1),), (Fr(-1, 3), Fr(5, 7))),
    # times 3/4, 1/4, 1/2 out of class order
    (CUBE, ((3, 1, 2),), ((-4, -4, -4),), (0, 1)),
    # a whole, an interior time and an end on one segment
    (CUBE, ((1, 0, 3),), ((-2, 0, -3),), (0, 1)),
]


@pytest.mark.parametrize("case", range(len(PLANTED)))
def test_segment_events_match_the_former_path_on_planted_segments(case):
    p, base, slope, t_range = PLANTED[case]
    assert_scan_matches_oracle(wk.WalkSegment(base, slope, t_range), pt.parallel_classes(p))


# A hypercube(5) segment whose determinant against span(e3, e4) is
# t^3 + 1 on [-2, 2]: its end values -7 and 9 have mean 1, its value at
# the midpoint, so a midpoint test alone reads it as affine with a root
# at -1/4, although the only root is -1.
CUBIC5 = (
    fam.hypercube(5),
    ((0, 1, 0, 1, 0), (0, 0, 1, 0, 1), (1, 0, 0, 0, 0)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
    (-2, 2),
)


def test_a_cubic_that_passes_the_midpoint_test_is_not_affine():
    p, base, slope, t_range = CUBIC5
    seg = wk.WalkSegment(base, slope, t_range)
    classes = pt.parallel_classes(p)
    cid = class_id_by_span(p, ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
    plane = classes[cid].direction_plane.basis
    assert [la.det(seg.rows_at(t) + plane) for t in (-2, 0, 2)] == [-7, 1, 9]
    with pytest.raises(WalkError, match="not affine"):
        wk.degeneration_polynomial(seg, classes[cid])
    with pytest.raises(WalkError, match="not affine"):
        oracle_degeneration_polynomial(seg, classes[cid])
    events, faults = wk._segment_events(wk.SegmentMinors(seg), classes)
    assert (cid, "not affine", None) in faults
    assert all(cid not in ids and t != Fr(-1, 4) for t, ids in events)
    assert_scan_matches_oracle(seg, classes)
    ident = la.identity(5)
    cert = wk.verify_walk(p, wk.WalkPlan((seg,), (), ident, ident))
    assert f"segment 0, class {cid}: {wk._NOT_AFFINE}" in cert.violations


@settings(max_examples=60, deadline=None)
@given(zoo_segments(slopes="one"))
def test_segment_events_match_the_three_point_scan_on_rank_one_slopes(case):
    p, seg = case
    assert_scan_matches_oracle(seg, pt.parallel_classes(p))


@settings(max_examples=60, deadline=None)
@given(zoo_segments(FRAME_ZOO[3:], slopes="many"))
def test_segment_events_match_the_three_point_scan_on_wider_slopes(case):
    p, seg = case
    assert_scan_matches_oracle(seg, pt.parallel_classes(p))


def _dependent_at(seg, t, c):
    """seg with row 0 reset so that at t it is c times row 1, or zero
    when there is one row: the rows at t are dependent."""
    rows = seg.rows_at(t)
    target = la.scale(rows[1], c) if len(rows) > 1 else wk._zero_vec(len(rows[0]))
    base = (la.sub(target, la.scale(seg.slope[0], t)),) + seg.base[1:]
    return wk.WalkSegment(base, seg.slope, seg.t_range)


def _time_in(draw, lo, hi, ends=True):
    """A time of [lo, hi], an end when ends allows it, else inside."""
    f = st.fractions(min_value=0, max_value=1, max_denominator=9)
    if ends:
        f = st.sampled_from((Fr(0), Fr(1))) | f
    else:
        f = f.filter(lambda x: 0 < x < 1)
    return lo + (hi - lo) * draw(f)


@st.composite
def planted_rank_losses(draw):
    """A zoo segment with rank-one or wider slopes; most of the time its
    rows are made dependent at an end or at a time inside its range."""
    slopes = draw(st.sampled_from(("one", "many")))
    p, seg = draw(zoo_segments(FRAME_ZOO if slopes == "one" else FRAME_ZOO[3:], slopes))
    if draw(st.integers(0, 9)) < 7:
        seg = _dependent_at(seg, _time_in(draw, *seg.t_range), draw(RATS))
    return p, (seg,)


@st.composite
def planted_dependent_junctions(draw):
    """Two segments on [lo, t] and [t, hi], with rank-one slopes, that
    meet at t in one dependent family: a planted segment cut at t, the
    later part given a slope of its own."""
    p, seg = draw(zoo_segments(slopes="one"))
    lo, hi = seg.t_range
    t = _time_in(draw, lo, hi, ends=False)
    seg = _dependent_at(seg, t, draw(RATS))
    w = draw(st.tuples(*[RATS] * p.dim))
    slope = tuple(la.scale(w, draw(RATS)) for _ in seg.base)
    base = tuple(la.sub(r, la.scale(s, t)) for r, s in zip(seg.rows_at(t), slope))
    return p, (wk.WalkSegment._of(seg._rows, (lo, t)), wk.WalkSegment(base, slope, (t, hi)))


def assert_rank_losses_rejected(p, segs):
    """Every rank loss the oracle finds fails verify_walk, given the
    plan's own recomputed event log so that only the rank can matter;
    on a segment with no fault, the loss is a time every class shares."""
    ident = la.identity(p.dim)
    plan = wk.WalkPlan(segs, (), ident, ident)
    plan = plan._replace(events=wk.verify_walk(p, plan).events)
    cert = wk.verify_walk(p, plan)
    assert "plan event log disagrees with the recomputation" not in cert.violations
    losses = oracle_rank_losses(p, plan)
    if losses:
        assert not cert.valid
    classes = pt.parallel_classes(p)
    for i, t in losses:
        if not oracle_segment_events(segs[i], classes)[1]:
            assert any(v.endswith(f" share the event time {t}") for v in cert.violations)
    return losses


@settings(max_examples=100, deadline=None)
@given(planted_rank_losses())
# the row vanishes at t = 1/2, where every class of the cube has its
# root, and at the end t = 1, where every class faults
@example((CUBE, (wk.WalkSegment(((1, 2, 3),), ((-2, -4, -6),), (0, 1)),)))
@example((CUBE, (wk.WalkSegment(((1, 2, 3),), ((-1, -2, -3),), (0, 1)),)))
def test_verify_walk_rejects_every_rank_loss_the_oracle_finds(case):
    assert_rank_losses_rejected(*case)


@settings(max_examples=40, deadline=None)
@given(planted_dependent_junctions())
def test_verify_walk_rejects_a_planted_dependent_junction(case):
    p, segs = case
    t = segs[1].t_range[0]
    assert (0, t) in assert_rank_losses_rejected(p, segs)


def test_walk_segments_take_the_affine_path(monkeypatch):
    # each scan of full_walk and verify_walk builds its SegmentMinors
    # from the two end minor vectors alone, and verify_walk runs no
    # rank_int
    calls = Counter()
    for name in ("complementary_minors", "rank_int"):

        def counted(*args, _real=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, counted)
    built, scanned = [], []
    init, scan = wk.SegmentMinors.__init__, wk._segment_events

    def counted_init(self, segment):
        before = calls["complementary_minors"]
        init(self, segment)
        built.append(calls["complementary_minors"] - before)

    def recorded_scan(polys, classes):
        scanned.append(polys)
        return scan(polys, classes)

    monkeypatch.setattr(wk.SegmentMinors, "__init__", counted_init)
    monkeypatch.setattr(wk, "_segment_events", recorded_scan)
    for name in ("cube4", "pn4"):
        p = WALK_SUITE[name]()
        planes = sh.sample_admissible(p, f"affine:{name}", 4)
        for i in range(2):
            plan = wk.full_walk(p, planes[2 * i].complement, planes[2 * i + 1].complement, i)
            before = calls["rank_int"]
            assert wk.verify_walk(p, plan).valid
            assert calls["rank_int"] == before
    assert built and set(built) == {2}
    assert len(built) == len(scanned)


def test_segment_events_hash_and_compare_no_fraction(monkeypatch):
    plan = wk.full_walk(CUBE, la.span_of([(1, 2, 3)]), la.span_of([(3, -1, 5)]), seed=1)
    cases = [(seg, pt.parallel_classes(CUBE)) for seg in plan.segments] + [
        (wk.WalkSegment(base, slope, t_range), pt.parallel_classes(p))
        for p, base, slope, t_range in PLANTED
    ]
    calls = Counter()
    for name in ("__hash__", "__lt__"):

        def counted(self, *args, _real=getattr(Fr, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Fr, name, counted)
    events = [
        wk._segment_events(wk.SegmentMinors(seg), classes)[0] for seg, classes in cases
    ]
    assert calls == Counter()
    # several times on one segment, and a shared time
    assert any(len(found) > 2 for found in events)
    assert any(len(ids) > 1 for found in events for _t, ids in found)
    # the counters do count
    assert hash(Fr(1, 3)) and Fr(1, 3) < Fr(1, 2)
    assert calls == Counter({"__hash__": 1, "__lt__": 1})


def test_first_shared_follows_class_order():
    # the dict of the former path listed times by their first class
    events = [(Fr(1, 4), [2, 3]), (Fr(1, 3), [4]), (Fr(1, 2), [0, 1])]
    assert wk._first_shared(events) == [0, 1]
    assert wk._first_shared(events[1:2]) is None


def test_verify_names_junction_and_endpoint_degenerations():
    # x0 = 1 - 2t vanishes at the junction t = 1/2, x2 = 3 - 3t at the
    # plan's end t = 1
    base, slope = ((1, 2, 3),), ((-2, 0, -3),)
    a = wk.WalkSegment(base, slope, (0, Fr(1, 2)))
    b = wk.WalkSegment(base, slope, (Fr(1, 2), 1))
    x0 = class_id_by_span(CUBE, ((0, 1, 0), (0, 0, 1)))
    x2 = class_id_by_span(CUBE, ((1, 0, 0), (0, 1, 0)))
    ident = la.identity(3)
    cert = wk.verify_walk(CUBE, wk.WalkPlan((a, b), (), ident, ident))
    junction = f"class {x0} degenerates at a segment junction (t=1/2)"
    endpoint = f"class {x2} degenerates at a segment endpoint (t=1)"
    # segment 0 ends at the junction; segment 1 lists its classes in order
    second = sorted([(x0, junction), (x2, endpoint)])
    assert cert.violations == (junction,) + tuple(v for _cid, v in second)


def test_a_shared_time_is_refused_by_planning_and_by_verify_walk():
    # x0 and x1 vanish together at t = 1/2 of the second raw segment,
    # which lands at t = 3/4 of the plan
    quiet = wk.WalkSegment(((1, 2, 3),), ((0, 0, 0),), (0, 1))
    shared = wk.WalkSegment(((1, 2, 3),), ((-2, -4, -1),), (0, 1))
    x0 = class_id_by_span(CUBE, ((0, 1, 0), (0, 0, 1)))
    x1 = class_id_by_span(CUBE, ((1, 0, 0), (0, 0, 1)))
    ca, cb = sorted((x0, x1))
    events = wk._planned_events(shared, pt.parallel_classes(CUBE))
    assert events == [(Fr(1, 2), [ca, cb])]
    # planning keeps a segment only when no time is shared
    assert wk._first_shared(events) == [ca, cb]
    # a plan that kept it anyway lists the first class at 3/4, and
    # verify_walk's own scan names the shared time
    ident = la.identity(3)
    plan = wk._assemble([(quiet, []), (shared, events)], ident, ident)
    assert plan.events == (wk.DegenerationEvent(Fr(3, 4), ca),)
    cert = wk.verify_walk(CUBE, plan)
    assert cert.violations == (
        f"classes {ca} and {cb} share the event time 3/4",
        "plan event log disagrees with the recomputation",
    )
    assert cert.events == ((Fr(3, 4), ca), (Fr(3, 4), cb))


def test_full_walk_checks_each_span_once(monkeypatch):
    calls = []
    check = wk._require_admissible

    def counted(p, rows, what):
        calls.append(what)
        return check(p, rows, what)

    monkeypatch.setattr(wk, "_require_admissible", counted)
    plan = wk.full_walk(CUBE, la.span_of([(1, 2, 3)]), la.span_of([(3, -1, 5)]), seed=1)
    assert wk.verify_walk(CUBE, plan).valid
    # the two endpoints only: the crossing scan rejects a segment whose
    # end span degenerates a class, dependent end rows included
    assert calls == ["start", "end"]
