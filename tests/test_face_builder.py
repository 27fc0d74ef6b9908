"""Facets stored as ids and planes, k_faces as the one Face builder.

A Polytope keeps its facets as vertex id tuples plus (normal, offset)
planes; Face objects and their spans are built only by k_faces, on
demand. apply_isometry moves the vertices and the facet planes of a
polytope under a rational orthogonal map, and its copy must agree with
a polytope built from scratch on the moved vertices.
"""

from fractions import Fraction as Fr
from itertools import product

import pytest

from shadowlab import families as fam
from shadowlab import linalg as la
from shadowlab import polytope as pt
from shadowlab import walk as wk
from shadowlab.errors import ParameterError


def cube_vertices(d):
    return list(product((0, 1), repeat=d))


MOVED_ZOO = {
    "cube3": lambda: fam.hypercube(3),
    "pentagonal-prism": lambda: fam.prism(
        ((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)
    ),
    "cube4": lambda: fam.hypercube(4),
    "zonotope7": lambda: fam.zonotope(fam.random_generators(6, 4, 7)),
    "pn4": lambda: fam.pn_polytope(4),
    "pnd-2-5": lambda: fam.hyperprism_pnd(2, 5, 0),
    "perturbed4": lambda: fam.perturbed_hypercube(Fr(1, 100)),
}


@pytest.mark.parametrize("rotation", ["reference", "plane"])
@pytest.mark.parametrize("name", MOVED_ZOO)
def test_moved_copy_matches_a_rebuild(name, rotation):
    p = MOVED_ZOO[name]()
    d = p.dim
    if rotation == "reference":
        r = wk.reference_isometry(p)[0]
    else:
        r = la.plane_rotation(d, 0, d - 1, Fr(1, 3))
    q = pt.apply_isometry(p, r)
    rebuilt = pt.build(q.vertices)
    assert pt.facet_planes(q) == pt.facet_planes(rebuilt)
    assert [(f.vertex_ids, f.span) for f in pt.facets(q)] == [
        (f.vertex_ids, f.span) for f in pt.facets(rebuilt)
    ]
    for k in range(d):
        assert [f.vertex_ids for f in pt.k_faces(q, k)] == [
            f.vertex_ids for f in pt.k_faces(rebuilt, k)
        ]
    assert [c.member_ids for c in pt.parallel_classes(q)] == [
        c.member_ids for c in pt.parallel_classes(rebuilt)
    ]


def test_apply_isometry_rejects_maps_that_are_not_orthogonal():
    p = pt.build(cube_vertices(3))
    shear = ((1, Fr(1, 2), 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ParameterError, match="orthogonal"):
        pt.apply_isometry(p, shear)
    # a rotation scaled by 2 is not an isometry either
    r = la.plane_rotation(3, 0, 2, Fr(1, 3))
    with pytest.raises(ParameterError, match="orthogonal"):
        pt.apply_isometry(p, [[2 * x for x in row] for row in r])
    with pytest.raises(ParameterError, match="orthogonal"):
        pt.apply_isometry(p, la.identity(4))


def test_no_span_is_built_before_k_faces_asks(monkeypatch):
    calls = []
    span_of = la.span_of

    def counted(*args, **kwargs):
        calls.append(args)
        return span_of(*args, **kwargs)

    r = la.plane_rotation(4, 0, 3, Fr(1, 3))
    monkeypatch.setattr(la, "span_of", counted)
    cube3, cube4 = pt.build(cube_vertices(3)), pt.build(cube_vertices(4))
    moved = pt.apply_isometry(cube4, r)
    assert calls == []
    for p in (cube3, cube4, moved):
        n = len(calls)
        facets = pt.k_faces(p, p.dim - 1)
        assert len(calls) - n == len(facets) == 2 * p.dim
        assert all(f.span.dim == p.dim - 1 for f in facets)
