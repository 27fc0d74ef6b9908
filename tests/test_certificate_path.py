"""The integer certificate path against its Fraction oracles.

equiproj._witness searches on integer class rows, and
walk.elementary_transformation and crossing_probe validate the witness
once and read every kernel off integer rows. Each must give exactly what
the Fraction bodies in tests/oracles.py give: the same witness rows as
Fractions, every ElementaryTransformation field equal in value and in
type, and the same certificates from visible_pairs. The survey reads
one cell per mirror pair of each difference body's faces; the oracle
survey reads every cell, on the zoo, zonotope #8, pn(6) and small
random hulls, centrally symmetric or not.
"""

import re
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import assume, given, settings, strategies as st

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.kernels as kernels
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import GeometryError, ParameterError
from oracles import (
    oracle_crossing_probe,
    oracle_elementary_transformation,
    oracle_visible_pairs,
    oracle_witness,
)
from test_walk import face_witnesses

PENTAGON = ((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2))

POLYTOPES = {
    "cube3": lambda: fam.hypercube(3),
    "cube4": lambda: fam.hypercube(4),
    "perturbed": lambda: fam.perturbed_hypercube(Fraction(1, 100)),
    "pentagonal": lambda: fam.prism(PENTAGON, (0, 0, 1)),
    "zono7": lambda: fam.zonotope(fam.random_generators(6, 4, 7)),
    "pn4": lambda: fam.pn_polytope(4),
    "pnd5": lambda: fam.hyperprism_pnd(2, 5, 0),
}

# more classes and a wider body for the survey alone
SURVEYED = {
    **POLYTOPES,
    "zono8": lambda: fam.zonotope(fam.random_generators(6, 5, 8)),
    "pn6": lambda: fam.pn_polytope(6),
}

_BUILT = {}


def polytope(name):
    if name not in _BUILT:
        _BUILT[name] = SURVEYED[name]()
    return _BUILT[name]


def typed(x):
    """x with the type of every entry attached, so that an int and an
    equal Fraction compare unequal."""
    if isinstance(x, (tuple, list)):
        return type(x), tuple(typed(y) for y in x)
    return type(x), x


def segment_fields(seg):
    return typed((seg.base, seg.slope, seg.t_range))


def transformation_fields(tr):
    return tuple(
        segment_fields(x) if isinstance(x, wk.WalkSegment) else typed(x) for x in tr
    )


def certificates(p):
    """(class id, face id, other id, witness rows) of every visible
    configuration, in _survey's order, with the witness from the
    oracle."""
    out = []
    for cid in range(len(pt.parallel_classes(p))):
        found = {}
        for c, conf in eq._cells(p, cid):
            if len(conf) in (1, 2):
                found.setdefault(conf, c)
        for conf in sorted(found):
            other = conf[1] if len(conf) == 2 else None
            out.append((cid, conf[0], other, oracle_witness(p, cid, found[conf])))
    return out


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_witness_matches_fraction_oracle(name):
    p = polytope(name)
    seen = 0
    for cid in range(len(pt.parallel_classes(p))):
        for c, _members in eq._cells(p, cid):
            got = eq._witness(p, cid, c)
            assert typed(got) == typed(oracle_witness(p, cid, c))
            assert all(isinstance(x, Fraction) for r in got for x in r)
            seen += 1
    assert seen


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_transformations_match_fraction_oracle(name):
    p = polytope(name)
    certs = certificates(p)
    assert certs
    for cid, fid, oid, rows in certs:
        for reverse in (False, True):
            got = wk.elementary_transformation(p, fid, oid, la.Subspace(rows), reverse)
            want = oracle_elementary_transformation(p, fid, oid, rows, reverse)
            assert transformation_fields(got) == transformation_fields(want)
            probe, v, eps = wk.crossing_probe(p, cid, rows, got.u1, reverse)
            oprobe, ov, oeps = oracle_crossing_probe(p, cid, rows, want.u1, reverse)
            assert segment_fields(probe) == segment_fields(oprobe)
            assert typed((v, eps)) == typed((ov, oeps))


def test_crossing_probe_rejects_a_u1_outside_the_witness():
    # the probe base is u1 completed by witness rows: a u1 off the
    # witness would leave one row too many
    p = polytope("cube4")
    seen = 0
    for cid, _fid, _oid, rows in certificates(p):
        span = la.Subspace(rows)
        for u1 in la.identity(p.dim):
            if span.contains(u1):
                continue
            message = "^degenerating direction escapes the witness$"
            with pytest.raises(GeometryError, match=message):
                oracle_crossing_probe(p, cid, rows, u1)
            with pytest.raises(GeometryError, match=message):
                wk.crossing_probe(p, cid, span, u1)
            seen += 1
    assert seen


def test_crossing_probe_rejects_a_witness_holding_the_face_plane():
    # witness + face plane then has rank d - 2, and no unique crossing
    p = polytope("cube4")
    for cid, cls in enumerate(pt.parallel_classes(p)):
        rows = cls.direction_plane.basis
        message = "^witness plus face plane does not have rank d-1$"
        with pytest.raises(GeometryError, match=message):
            oracle_crossing_probe(p, cid, rows, la.primitive(rows[0]))
        with pytest.raises(GeometryError, match=message):
            wk.crossing_probe(p, cid, la.Subspace(rows), la.primitive(rows[0]))


def check_visible_pairs(p):
    got, want = eq.visible_pairs(p), oracle_visible_pairs(p)
    assert got == want
    assert [typed(c.witness) for c in got] == [typed(c.witness) for c in want]


@pytest.mark.parametrize("name", sorted(SURVEYED))
def test_visible_pairs_match_oracle_certificates(name):
    check_visible_pairs(polytope(name))


@st.composite
def small_hulls(draw):
    """The hull of d + 2 to d + 4 integer points in d = 4 or 5, or of
    those points and their mirror images through a drawn centre."""
    d = draw(st.integers(4, 5))
    coord = st.integers(-2, 2)
    pts = draw(
        st.lists(st.tuples(*[coord] * d), min_size=d + 2, max_size=d + 4, unique=True)
    )
    if draw(st.booleans()):
        s = draw(st.tuples(*[st.integers(-2, 2)] * d))
        pts = sorted(set(pts) | {tuple(a - x for a, x in zip(s, q)) for q in pts})
    assume(kernels.rank_int([tuple(map(sub, q, pts[0])) for q in pts]) == d)
    return pt.hull(pts)


@settings(max_examples=10, deadline=None)
@given(small_hulls())
def test_visible_pairs_on_small_hulls_match_oracle_certificates(p):
    # oracle_visible_pairs reads every cell of every class's body
    check_visible_pairs(p)


TRI_PRISM = fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1))
TESS = fam.hypercube(4)
PERT = fam.perturbed_hypercube(Fraction(1, 100))
TILT4 = sh.ProjectionPlane(((1, 1, 1, 0), (0, 0, 2, 1))).complement.basis


def face_id(p, vids):
    return next(i for i, f in enumerate(pt.k_faces(p, 2)) if f.vertex_ids == vids)


BAD_WITNESSES = [
    # a second class degenerates as well
    (TRI_PRISM, 0, 4, ((1, 0, 0),)),
    # no class degenerates
    (TRI_PRISM, 0, 4, ((1, 2, 3),)),
    # faces of two classes, one face twice, a missing face
    (TRI_PRISM, 0, 1, ((1, 2, 0),)),
    (TRI_PRISM, 0, 0, ((1, 2, 0),)),
    (TRI_PRISM, 0, 99, ((1, 2, 0),)),
    (TRI_PRISM, -1, None, ((1, 2, 0),)),
    # the pair is off the shadow boundary
    (PERT, face_id(PERT, (1, 5, 9, 13)), face_id(PERT, (2, 6, 10, 14)), TILT4),
]


@pytest.mark.parametrize("case", range(len(BAD_WITNESSES)))
def test_rejections_match_fraction_oracle(case):
    p, fid, oid, rows = BAD_WITNESSES[case]
    with pytest.raises((GeometryError, ParameterError)) as want:
        oracle_elementary_transformation(p, fid, oid, rows)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        wk.elementary_transformation(p, fid, oid, la.Subspace(rows))


def test_tess_tilt_matches_fraction_oracle():
    a = face_id(TESS, (0, 4, 8, 12))
    b = face_id(TESS, (3, 7, 11, 15))
    for reverse in (False, True):
        got = wk.elementary_transformation(TESS, a, b, la.Subspace(TILT4), reverse)
        want = oracle_elementary_transformation(TESS, a, b, TILT4, reverse)
        assert transformation_fields(got) == transformation_fields(want)


def _transformation_outcome(f, *args):
    try:
        return transformation_fields(f(*args))
    except (GeometryError, ParameterError) as exc:
        return type(exc).__name__, str(exc)


DRAWN = {name: polytope(name) for name in ("cube4", "perturbed", "pentagonal", "pn4")}


@settings(max_examples=60, deadline=None)
@given(face_witnesses(DRAWN), st.booleans())
def test_transformations_match_fraction_oracle_on_drawn_witnesses(case, reverse):
    # the integer frame (w1 off v and the witness plane) against the
    # oracle's two Fraction kernels, rejections included
    p, fid, oid, rows = case
    got = _transformation_outcome(
        wk.elementary_transformation, p, fid, oid, la.Subspace(rows), reverse
    )
    assert got == _transformation_outcome(
        oracle_elementary_transformation, p, fid, oid, rows, reverse
    )
