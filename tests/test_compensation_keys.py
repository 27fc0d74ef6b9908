"""The compensation pairing on integer edge directions, against the
Fraction keying it replaced and against the exhaustive matching of each
group it replaced (tests/oracles.py). The pairing does not test its
own pairs, so every pair it returns must pass the Fraction compensation
test, and input that names one set of faces twice must be refused."""

from fractions import Fraction as Fr
from functools import cache

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.polytope as pt
from shadowlab.errors import ParameterError, PolytopeError
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


def assert_pairs_compensate(p, got):
    """Every pair of a CompensationPairing passes the Fraction test."""
    if isinstance(got, eq.CompensationPairing):
        nodes = got.edge_two_faces
        edges = pt.k_faces(p, 1)
        for i, j in got.pairs:
            assert oracle_compensating(p, nodes[i], nodes[j], edges)


def assert_matches_exhaustive_matching(p, certs):
    got = eq.compensation_partition(p, certs)
    want = oracle_compensation_partition(p, certs)
    # the same nodes and pairs, or the same group and reason
    assert type(got) is type(want)
    assert got == want
    assert_pairs_compensate(p, got)
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


def test_every_pair_passes_the_fraction_test():
    # among the edges are some whose direction starts with a negative
    # entry (pn4, pnd5, the prism), whose forward sense is the reverse
    # of the edge's own; negated orientations are run through
    # assert_matches_exhaustive_matching on the zoo
    negative = paired = 0
    for name in sorted(POLYTOPES):
        p, certs = surveyed(name)
        got = eq.compensation_partition(p, certs)
        assert_pairs_compensate(p, got)
        paired += isinstance(got, eq.CompensationPairing)
        edges = pt.k_faces(p, 1)
        for n in got.edge_two_faces:
            d = oracle_edge_direction(p, edges[n.edge_id])
            negative += next(x for x in d if x) < 0
    assert negative and paired


def swapped(cert):
    """The certificate of a face pair with its two faces swapped."""
    return cert._replace(
        face_id=cert.other_id,
        other_id=cert.face_id,
        chains=cert.other_chains,
        other_chains=cert.chains,
    )


@pytest.mark.parametrize("name", ["prism", "cube4"])
def test_partition_refuses_faces_named_twice(name):
    # the pairing does not check its own pairs, so a list that names one
    # set of faces twice is refused before any pair is formed
    p, certs = surveyed(name)
    pair = next(c for c in certs if c.other_id is not None)
    for bad in (certs + certs, certs + (swapped(pair),), (pair, swapped(pair))):
        with pytest.raises(ParameterError, match="name the same faces"):
            eq.compensation_partition(p, bad)
    # a face alone and the same face in a pair are different sets
    alone = pair._replace(other_id=None, other_chains=None)
    assert eq.compensation_partition(p, (pair, alone)).edge_two_faces


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
