"""Family constructors: combinatorics, self-tests, input validation."""

from fractions import Fraction as Fr
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
from shadowlab.errors import (
    DimensionError,
    ParameterError,
    PolytopeError,
)
from oracles import oracle_hull_2d

CUBE = fam.hypercube(3)
TESSERACT = fam.hypercube(4)
PERT = fam.perturbed_hypercube(Fr(1, 100))
TRI_PRISM = fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1))
P2 = fam.pn_polytope(2)
PND5 = fam.hyperprism_pnd(2, 5, 3)

# span(e1+e2+e3, 2e3+e4), the plane the perturbed family is tuned for
TILT4 = sh.ProjectionPlane(((1, 1, 1, 0), (0, 0, 2, 1)))


def axis_plane(d):
    return sh.ProjectionPlane((la.unit(d, 0), la.unit(d, 1)))


def face_ids(p, k):
    return {f.vertex_ids for f in pt.k_faces(p, k)}


# ---------------------------------------------------------------- hypercube


def test_hypercube_vertices_follow_binary_order():
    assert len(CUBE.vertices) == 8
    assert len(TESSERACT.vertices) == 16
    for i, v in enumerate(TESSERACT.vertices):
        bits = tuple(Fr((i >> (3 - j)) & 1) for j in range(4))
        assert v == bits


def test_hypercube_face_counts():
    assert len(pt.facets(CUBE)) == 6
    assert len(pt.k_faces(CUBE, 1)) == 12
    assert len(pt.facets(TESSERACT)) == 8
    assert len(pt.k_faces(TESSERACT, 2)) == 24
    assert len(pt.k_faces(TESSERACT, 1)) == 32


def test_hypercube_square_case():
    sq = fam.hypercube(2)
    assert set(sq.vertices) == set(product((0, 1), repeat=2))
    assert pt.parallel_classes(sq) == ()


@pytest.mark.parametrize("d", [1, 0, -2])
def test_hypercube_rejects_low_dimension(d):
    with pytest.raises(ParameterError):
        fam.hypercube(d)


@pytest.mark.parametrize("d", [17, 40, 10])
def test_hypercube_is_capped_like_a_zonotope(d):
    # the d-cube is the zonotope of d unit generators, capped at 9, the
    # last dimension that builds in under 20 s
    with pytest.raises(ParameterError, match=f"{d} unit generators exceed the cap of 9"):
        fam.hypercube(d)


# ------------------------------------------------------ perturbed hypercube


def test_perturbed_hypercube_moved_vertices():
    assert len(PERT.vertices) == 16
    assert PERT.vertices[8] == (1, 0, 0, Fr(-1, 100))
    assert PERT.vertices[7] == (0, 1, 1, Fr(101, 100))
    untouched = [i for i in range(16) if i not in (7, 8)]
    for i in untouched:
        assert PERT.vertices[i] == TESSERACT.vertices[i]


def test_perturbed_hypercube_splits_two_squares():
    two = face_ids(PERT, 2)
    # the squares through the moved vertices break into triangles
    for tri in ((0, 4, 8), (4, 8, 12), (3, 7, 11), (7, 11, 15)):
        assert tri in two
    assert (0, 4, 8, 12) not in two
    assert (3, 7, 11, 15) not in two
    # the other two members of the class survive as squares
    assert (1, 5, 9, 13) in two
    assert (2, 6, 10, 14) in two


def test_perturbed_hypercube_report_shape():
    report = sh.degeneration_report(PERT, TILT4)
    assert not report.admissible
    assert not report.condition_i
    assert report.condition_ii
    assert len(report.degenerating) == 1
    cls = report.degenerating[0]
    assert cls.projected_rank == 1
    faces = pt.k_faces(PERT, 2)
    profile = {
        faces[m.face_id].vertex_ids: (m.contained_in_edge, m.touches_hull)
        for m in cls.members
    }
    assert profile == {
        (1, 5, 9, 13): (False, True),
        (2, 6, 10, 14): (False, True),
    }


def test_perturbed_hypercube_shadow_is_octagon():
    assert sh.shadow(PERT, TILT4).k == 8


def test_perturbed_hypercube_eps_scale_free():
    other = fam.perturbed_hypercube(Fr(1, 50))
    def shape(p):
        faces = pt.k_faces(p, 2)
        rep = sh.degeneration_report(p, TILT4)
        return {
            (faces[m.face_id].vertex_ids, m.contained_in_edge, m.touches_hull)
            for cls in rep.degenerating
            for m in cls.members
        }
    assert shape(other) == shape(PERT)


@pytest.mark.parametrize("eps", [0, Fr(1, 10), Fr(-1, 100), 1])
def test_perturbed_hypercube_rejects_bad_eps(eps):
    with pytest.raises(ParameterError):
        fam.perturbed_hypercube(eps)


# -------------------------------------------------------------------- prism


def test_prism_triangle_combinatorics():
    assert TRI_PRISM.dim == 3
    assert len(TRI_PRISM.vertices) == 6
    assert len(pt.facets(TRI_PRISM)) == 5
    for w in sh.sample_admissible(TRI_PRISM, 11, 10):
        assert sh.shadow(TRI_PRISM, w).k == 5


def test_prism_oblique_height():
    p = fam.prism(((0, 0), (1, 0), (0, 1)), (1, 2, 3))
    assert (1, 2, 3) in p.vertices
    assert (2, 2, 3) in p.vertices
    assert len(p.vertices) == 6


def test_prism_square_base_is_a_cube():
    p = fam.prism(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 0, 1))
    assert set(p.vertices) == set(CUBE.vertices)
    assert len(pt.parallel_classes(p)) == len(pt.parallel_classes(CUBE))


def test_prism_pentagon_base():
    p = fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1))
    assert len(p.vertices) == 10
    for w in sh.sample_admissible(p, 5, 5):
        assert sh.shadow(p, w).k == 7


def test_prism_respects_custom_label():
    p = fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1), label="wedge")
    assert p.label == "wedge"


@pytest.mark.parametrize(
    "base",
    [
        ((0, 0), (1, 0)),
        ((0, 0), (1, 0), (0, 0)),
        ((0, 0), (1, 0), (2, 0)),
        ((0, 0), (4, 0), (0, 4), (1, 1)),
    ],
)
def test_prism_rejects_bad_base(base):
    with pytest.raises(ParameterError):
        fam.prism(base, (0, 0, 1))


def test_prism_rejects_bad_height():
    with pytest.raises(ParameterError):
        fam.prism(((0, 0), (1, 0), (0, 1)), (1, 2, 0))
    with pytest.raises(DimensionError):
        fam.prism(((0, 0), (1, 0), (0, 1)), (1, 2))


# ----------------------------------------------------------------- zonotope


def test_zonotope_of_axis_generators_is_the_cube():
    z = fam.zonotope(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert set(z.vertices) == set(CUBE.vertices)
    assert z.label == "zonotope-3g3d"


def test_zonotope_hexagon_matches_hull_oracle():
    gens = ((1, 0), (0, 1), (1, 1))
    z = fam.zonotope(gens, label="hexagon")
    sums = sorted(set(fam._subset_sums(tuple(map(la.as_vec, gens)))))
    assert set(z.vertices) == set(oracle_hull_2d(sums))
    assert len(z.vertices) == 6


@pytest.mark.parametrize(
    "m,dim,seed", [(3, 3, 0), (4, 3, 1), (5, 4, 2), (6, 5, 3)]
)
def test_zonotope_generic_vertex_count(m, dim, seed):
    gens = fam.random_generators(m, dim, seed)
    z = fam.zonotope(gens)
    assert len(z.vertices) == 2 * sum(comb(m - 1, i) for i in range(dim))


def test_zonotope_sum_is_associative_in_the_plane():
    g, h, f = (2, 1), (-1, 2), (1, 1)
    z2 = fam.zonotope((g, h))
    assert set(z2.vertices) == {(0, 0), g, h, (1, 3)}
    z3 = fam.zonotope((g, h, f))
    pointwise = sorted(
        set(la.add(v, w) for v in z2.vertices for w in ((0, 0), f))
    )
    assert set(z3.vertices) == set(oracle_hull_2d(pointwise))


def test_zonotope_accepts_prebuilt_spec():
    spec = fam.ZonotopeSpec(((1, 0), (0, 1), (1, 1)))
    assert spec.dim == 2
    assert set(fam.zonotope(spec).vertices) == set(
        fam.zonotope(spec.generators).vertices
    )


def test_zonotope_spec_validation():
    with pytest.raises(ParameterError):
        fam.ZonotopeSpec(((1, 0),))
    with pytest.raises(ParameterError):
        fam.ZonotopeSpec(((1, 0), (0, 0)))
    with pytest.raises(ParameterError):
        fam.ZonotopeSpec(((1, 0), (2, 0), (0, 1)))
    with pytest.raises(DimensionError):
        fam.ZonotopeSpec(((1, 0), (0, 1, 0)))
    with pytest.raises(ParameterError):
        fam.ZonotopeSpec(((1,), (2,)))


def test_zonotope_generator_count_is_capped():
    # 2^17 subset sums would be built; the count is refused first
    gens = [(1, i) for i in range(fam.MAX_GENERATORS + 1)]
    fam.ZonotopeSpec(gens[:-1])
    with pytest.raises(ParameterError, match="17 generators exceed the cap of 16"):
        fam.zonotope(gens)
    with pytest.raises(ParameterError, match="17 generators exceed the cap of 16"):
        fam.random_generators(17, 2, 0)


def test_zonotope_rejects_non_spanning_generators():
    with pytest.raises(ParameterError):
        fam.zonotope(((1, 0, 0), (0, 1, 0)))


# -------------------------------------------------------- random generators


def test_random_generators_deterministic():
    a = fam.random_generators(5, 4, 0)
    b = fam.random_generators(5, 4, 0)
    assert a == b
    assert a != fam.random_generators(5, 4, 1)


@given(st.integers(0, 999))
@settings(max_examples=12, deadline=None)
def test_random_generators_generic(seed):
    gens = fam.random_generators(4, 3, seed)
    assert all(len(g) == 3 for g in gens)
    assert all(-9 <= x <= 9 for g in gens for x in g)
    for r in (1, 2, 3):
        for subset in combinations(gens, r):
            assert la.rank(subset) == r


def test_random_generators_validation():
    with pytest.raises(ParameterError):
        fam.random_generators(2, 3, 0)
    with pytest.raises(ParameterError):
        fam.random_generators(3, 1, 0)


# -------------------------------------------------------------- pn polytope


@pytest.mark.parametrize("n", [2, 4])
def test_pn_triangles_are_estranged_and_degenerate(n):
    p = P2 if n == 2 else fam.pn_polytope(n)
    assert p.dim == 4
    assert len(p.vertices) == 3 * n
    w = axis_plane(4)
    two = {f.vertex_ids: f for f in pt.k_faces(p, 2)}
    spans = []
    for i in range(n):
        f = two[(3 * i, 3 * i + 1, 3 * i + 2)]
        coords = [w.coords(b) for b in f.span.basis]
        assert la.rank(coords) == 1
        spans.append(f.span)
    for a, b in combinations(spans, 2):
        assert la.intersect(a, b).dim == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pn_shadow_size(n):
    p = P2 if n == 2 else fam.pn_polytope(n)
    assert sh.shadow(p, axis_plane(4)).k == 2 * n
    assert p.label == f"pn-{n}"


def test_pn_triangle_images_land_on_hull_edges():
    report = sh.degeneration_report(P2, axis_plane(4))
    assert not report.condition_i
    faces = pt.k_faces(P2, 2)
    contained = {
        faces[m.face_id].vertex_ids
        for cls in report.degenerating
        for m in cls.members
        if m.contained_in_edge
    }
    assert {(0, 1, 2), (3, 4, 5)} <= contained


def test_pn_extra_triangles():
    p = fam.pn_polytope(2, m=3)
    assert len(p.vertices) == 9
    assert p.label == "pn-2m3"
    assert sh.shadow(p, axis_plane(4)).k == 6


def test_pn_spec_passthrough():
    assert fam.pn_polytope(fam.PnSpec(3)).vertices == fam.pn_polytope(3).vertices


def test_pn_validation():
    with pytest.raises(ParameterError):
        fam.pn_polytope(1)
    with pytest.raises(ParameterError):
        fam.pn_polytope(3, m=2)
    with pytest.raises(ParameterError):
        fam.pn_polytope(2, eps=0)
    with pytest.raises(ParameterError):
        fam.pn_polytope(2, eps=Fr(1, 2))


def test_pn_caps_its_triangles():
    # check --mode both took 12 to 16 s on pn(13) and up to 23 s on pn(14)
    assert len(fam.pn_polytope(13).vertices) == 39
    for n, m in ((14, None), (2, 14)):
        with pytest.raises(ParameterError, match="14 triangles exceed the cap of 13"):
            fam.pn_polytope(n, m=m)


# ----------------------------------------------------------- pnd hyperprism


def test_pnd_base_dimension_returns_pn_itself():
    assert fam.hyperprism_pnd(2, 4, 99).vertices == P2.vertices


def test_pnd_extrusion_keeps_triangles():
    assert PND5.dim == 5
    assert len(PND5.vertices) == 12
    assert PND5.vertices[:6] == tuple(v + (0,) for v in P2.vertices)
    w = axis_plane(5)
    two = {f.vertex_ids: f for f in pt.k_faces(PND5, 2)}
    spans = []
    for i in range(2):
        f = two[(3 * i, 3 * i + 1, 3 * i + 2)]
        assert la.rank([w.coords(b) for b in f.span.basis]) == 1
        spans.append(f.span)
    assert la.intersect(spans[0], spans[1]).dim == 0


def test_pnd_deterministic_per_seed():
    again = fam.hyperprism_pnd(2, 5, 3)
    assert again.vertices == PND5.vertices
    other = fam.hyperprism_pnd(2, 5, 4)
    assert other.vertices != PND5.vertices


def test_pnd_two_extrusions():
    p = fam.hyperprism_pnd(2, 6, 3)
    assert p.dim == 6
    assert len(p.vertices) == 24
    assert (0, 1, 2) in face_ids(p, 2)


def test_pnd_rejects_low_dimension():
    with pytest.raises(ParameterError):
        fam.hyperprism_pnd(2, 3, 0)


def test_pnd_caps_its_doublings():
    # d - 4 doublings, with d capped at 9
    for d in (21, 10):
        with pytest.raises(ParameterError, match=f"{d - 4} prism doublings exceed the cap of 5"):
            fam.hyperprism_pnd(2, d, 0)


# ------------------------------------------------------------------ rebuild


@pytest.mark.parametrize(
    "p", [PERT, TRI_PRISM, P2, PND5], ids=lambda p: p.label
)
def test_constructed_vertices_survive_a_rebuild(p):
    q = pt.build(p.vertices)
    assert {f.vertex_ids for f in pt.facets(q)} == {
        f.vertex_ids for f in pt.facets(p)
    }
