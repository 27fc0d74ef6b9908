"""The compensation pairing on integer edge directions, against the
Fraction keying, rank test and mu sign it replaced, and against the
exhaustive matching of each group it replaced (tests/oracles.py)."""

from fractions import Fraction as Fr
from functools import cache

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.polytope as pt
from shadowlab.errors import PolytopeError
from oracles import (
    oracle_compensating,
    oracle_compensation_partition,
    oracle_direction_key,
    oracle_edge_direction,
    oracle_parallel,
)
from test_equiproj import negate_orientations, oracle_has_perfect_matching

POLYTOPES = {
    "cube4": lambda: fam.hypercube(4),
    "perturbed": lambda: fam.perturbed_hypercube(Fr(1, 100)),
    "pn4": lambda: fam.pn_polytope(4),
    "zono7": lambda: fam.zonotope(fam.random_generators(6, 4, 7)),
    "pnd5": lambda: fam.hyperprism_pnd(2, 5, 0),
    "pentagonal": lambda: fam.prism(
        ((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)
    ),
    "cube3": lambda: fam.hypercube(3),
    "prism": lambda: fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1)),
    "tetrahedron": lambda: pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "octahedron": lambda: pt.build(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    ),
    "simplex4": lambda: pt.build(
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    ),
}


@cache
def surveyed(name):
    """The polytope and its certificates, built once per name."""
    p = POLYTOPES[name]()
    return p, eq._survey(p)


def fraction_keying(monkeypatch):
    monkeypatch.setattr(eq, "_edge_direction", oracle_edge_direction)
    monkeypatch.setattr(eq, "_direction_key", oracle_direction_key)
    monkeypatch.setattr(eq, "_compensating", oracle_compensating)


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_partition_matches_fraction_keying(name, negated, monkeypatch):
    p, certs = surveyed(name)
    if negated:
        negate_orientations(monkeypatch)
    got = eq.compensation_partition(p, certs)
    with monkeypatch.context() as m:
        fraction_keying(m)
        want = eq.compensation_partition(p, certs)
    # same outcome type, nodes and pairs, or the same obstructed group
    # and reason: groups are visited in the same order
    assert type(got) is type(want)
    assert got == want


def assert_matches_exhaustive_matching(p, certs):
    got = eq.compensation_partition(p, certs)
    want = oracle_compensation_partition(p, certs)
    # the same nodes and pairs, or the same group and reason
    assert type(got) is type(want)
    assert got == want
    paired = isinstance(got, eq.CompensationPairing)
    assert paired == oracle_has_perfect_matching(p, got.edge_two_faces)
    return got


@pytest.mark.parametrize("negated", [False, True])
def test_partition_matches_exhaustive_matching_on_the_zoo(negated, monkeypatch):
    if negated:
        negate_orientations(monkeypatch)
    outcomes = set()
    for name in sorted(POLYTOPES):
        got = assert_matches_exhaustive_matching(*surveyed(name))
        outcomes.add(getattr(got, "reason", None))
    # pairings and both kinds of obstruction
    assert outcomes == {
        None,
        "odd number of edge-2-faces in the group",
        "no orientation-compatible pairing in the group",
    }


@st.composite
def integer_hulls(draw):
    """The hull of a few integer points on a small grid in d = 3 or 4;
    or of the points and their negatives, or of the points and a
    translate (the sum with a segment), whose faces come in parallel
    pairs, so that every outcome of the pairing is common."""
    d = draw(st.sampled_from((3, 4)))
    point = st.tuples(*[st.integers(-1, 1)] * (d - 1), st.integers(-2, 2))
    pts = draw(st.lists(point, min_size=2, max_size=d + 2, unique=True))
    kind = draw(st.sampled_from(("plain", "symmetric", "translate")))
    if kind == "symmetric":
        pts += [tuple(-x for x in q) for q in pts]
    elif kind == "translate":
        h = draw(point)
        pts += [tuple(x + y for x, y in zip(q, h)) for q in pts]
    try:
        return pt.hull(list(dict.fromkeys(pts)))
    except PolytopeError:
        assume(False)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(integer_hulls())
def test_partition_matches_exhaustive_matching_on_drawn_hulls(p):
    assert_matches_exhaustive_matching(p, eq._survey(p))


def test_compensating_matches_fraction_test():
    # every pair of edge-2-faces of one face pair agrees with the
    # Fraction test; among them are edges whose direction starts with a
    # negative entry (pn4, pnd5, the prism), where the sign of mu is
    # not that of the second direction's entry alone
    negative = 0
    for name in sorted(POLYTOPES):
        p, certs = surveyed(name)
        edges = pt.k_faces(p, 1)
        nodes = eq.compensation_partition(p, certs).edge_two_faces
        for n1 in nodes:
            d1 = oracle_edge_direction(p, edges[n1.edge_id])
            i = next(j for j, x in enumerate(d1) if x)
            negative += d1[i] < 0
            for n2 in nodes:
                if {n1.face_id, n1.partner_id} != {n2.face_id, n2.partner_id}:
                    continue
                want = oracle_compensating(p, n1, n2, edges)
                assert eq._compensating(p, n1, n2, edges) == want
    assert negative


entry = st.integers(min_value=-30, max_value=30)
nonzero = st.lists(entry, min_size=2, max_size=6).filter(any).map(tuple)


@settings(max_examples=200, deadline=None)
@given(nonzero, st.integers(min_value=-5, max_value=5).filter(bool), st.data())
def test_key_and_parallel_test_match_fraction_versions(d, c, data):
    scaled = tuple(c * x for x in d)
    other = data.draw(st.lists(entry, min_size=len(d), max_size=len(d)).filter(any))
    other = tuple(other)
    for a, b in ((d, scaled), (d, other), (scaled, other)):
        assert eq._parallel(a, b) == oracle_parallel(a, b)
        assert (eq._direction_key(a),) == oracle_direction_key(a)
    # every nonzero multiple keys the same, negative ones (which flip
    # the leading entry's sign) included
    assert eq._direction_key(scaled) == eq._direction_key(d)
    assert eq._parallel(d, scaled)
