"""The reference rotation search, scored on the polytope's own lines
and planes, against the search on rebuilt moved copies."""

from fractions import Fraction as Fr

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import ParameterError, PolytopeError, WalkError
from oracles import oracle_etas, oracle_reference_isometry

ZOO = {
    "cube3": lambda: fam.hypercube(3),
    "cube4": lambda: fam.hypercube(4),
    "cube5": lambda: fam.hypercube(5),
    "prism": lambda: fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1)),
    "pentagonal": lambda: fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
    "pn2": lambda: fam.pn_polytope(2),
    "pn4": lambda: fam.pn_polytope(4),
    "pnd5": lambda: fam.hyperprism_pnd(2, 5, 0),
    "perturbed4": lambda: fam.perturbed_hypercube(Fr(1, 100)),
    "simplex4": lambda: pt.build([(0, 0, 0, 0)] + [la.unit(4, i) for i in range(4)]),
    "zono4": lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
    "zono7": lambda: fam.zonotope(fam.random_generators(6, 4, 7)),
    "zono8": lambda: fam.zonotope(fam.random_generators(6, 5, 8)),
    "zono3d": lambda: fam.zonotope(fam.random_generators(5, 3, 2)),
}


def planes(p):
    return [cls.direction_plane.int_rows for cls in pt.parallel_classes(p)]


def outcome(search, p):
    """The rotation and etas a search returns, or its WalkError text."""
    try:
        q, etas = search(p)
    except WalkError as exc:
        return str(exc)
    return q, [tuple(e) for e in etas]


def assert_same_search(vertices):
    got = outcome(wk.reference_isometry, pt.build(vertices))
    assert got == outcome(oracle_reference_isometry, pt.build(vertices))
    return got


@pytest.mark.parametrize("name", sorted(ZOO))
def test_search_matches_the_moved_copy_search(name):
    q, etas = assert_same_search(ZOO[name]().vertices)
    # the etas are those of the moved copy
    assert etas == [tuple(e) for e in oracle_etas(pt.apply_isometry(ZOO[name](), q))]


@st.composite
def zonotopes(draw):
    """Zonotopes in d = 3..5: seeded generic generators, or small
    integer ones, many of which put lines or planes in the reference
    hyperplane."""
    d = draw(st.integers(3, 5))
    m = draw(st.integers(d, d + 1))
    if draw(st.booleans()):
        gens = fam.random_generators(m, d, draw(st.integers(0, 10**6)))
    else:
        row = st.tuples(*[st.integers(-2, 2)] * d)
        gens = draw(st.lists(row, min_size=m, max_size=m))
    try:
        return fam.zonotope(gens)
    except (ParameterError, PolytopeError):
        assume(False)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(zonotopes())
def test_search_matches_on_drawn_zonotopes(p):
    assert_same_search(p.vertices)


def test_etas_match_the_intersection_oracle():
    for make in ZOO.values():
        p = make()
        moved = pt.apply_isometry(p, wk.reference_isometry(p)[0])
        assert [tuple(e) for e in wk._etas(planes(moved))] == [
            tuple(e) for e in oracle_etas(moved)
        ]


def test_etas_name_a_plane_inside_the_hyperplane():
    # the 3-cube as given has the class plane span(e2, e3) in x_1 = 0
    p = fam.hypercube(3)
    with pytest.raises(WalkError) as got:
        wk._etas(planes(p))
    with pytest.raises(WalkError) as want:
        oracle_etas(p)
    assert str(got.value) == str(want.value)


def test_full_walk_moves_the_polytope_once(monkeypatch):
    moves = []
    apply = pt.apply_isometry

    def counted(p, matrix):
        moves.append(matrix)
        return apply(p, matrix)

    monkeypatch.setattr(pt, "apply_isometry", counted)
    p = fam.hypercube(4)
    wa, wb = sh.sample_admissible(p, 3, 2)
    plan = wk.full_walk(p, wa.complement, wb.complement, seed=1)
    assert plan.isometry != la.identity(4)
    assert moves == [plan.isometry]
    wk.full_walk(p, wb.complement, wa.complement, seed=2)
    assert len(moves) == 1
