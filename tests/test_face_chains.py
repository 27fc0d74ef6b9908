"""Visibility chains read as arcs of the face cycle, against the former
bodies in tests/oracles.py.

walk.frame_chains flags each edge of a 2-face's cycle on the plane's
integer rows, with no shadow hull: shadow.edge_on_boundary reads an
edge [a, b] at a's graph neighbours. It takes the fixed points where the
flag flips; equiproj._face_chains cuts the cycle at the two fixed
points. The oracles read the hull route: each edge against the edges of
the plane's shadow hull, visible-edge degrees counted and each chain
traced as a path through its vertex pairs. Both must give the same
ChainState on every 2-face at sampled admissible planes, the same
FaceChains (or GeometryError) there, and the same FaceChains on every
certificate; the edge test must agree with the hull from either end of
every edge of small random hulls.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import GeometryError
from oracles import oracle_face_chains, oracle_frame_chains, oracle_in_boundary
from test_polytope import small_hulls

PENTAGON = ((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2))

CERTIFIED = {
    "cube3": lambda: fam.hypercube(3),
    "cube4": lambda: fam.hypercube(4),
    "pentagonal": lambda: fam.prism(PENTAGON, (0, 0, 1)),
    "zono4": lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
    "zono7": lambda: fam.zonotope(fam.random_generators(6, 4, 7)),
    "zono8": lambda: fam.zonotope(fam.random_generators(6, 5, 8)),
    "pn4": lambda: fam.pn_polytope(4),
    "pnd5": lambda: fam.hyperprism_pnd(2, 5, 0),
    "perturbed": lambda: fam.perturbed_hypercube(Fraction(1, 100)),
}

# pn2 has a 2-face whose whole cycle is visible at one of these planes,
# and pnd5 faces with four fixed points
SAMPLED = dict(CERTIFIED, pn2=lambda: fam.pn_polytope(2))


def certificate_plane(p, cert):
    """The integer rows of the plane _certify reads a certificate's
    chains at: the plane just before the crossing of its witness."""
    tr = wk.elementary_transformation(
        p, cert.face_id, cert.other_id, la.Subspace(cert.witness)
    )
    return la.int_kernel(tr.minus.int_rows_at(-tr.epsilon / 2)[0])


def hull_of(p, rows):
    """The shadow hull of the plane with these rows, for the oracles."""
    return sh.hull_frame(p, sh.ProjectionPlane(rows))


def walk_end(p, start, chain):
    """The vertex reached from start along the chain's edge ids."""
    edges = pt.k_faces(p, 1)
    v = start
    for e in chain:
        a, b = edges[e].vertex_ids
        assert v in (a, b)
        v = b if v == a else a
    return v


def outcome(chains, *args):
    """What chains returns, or the message of the GeometryError it raises."""
    try:
        return chains(*args)
    except GeometryError as e:
        return str(e)


@pytest.mark.parametrize("name", CERTIFIED)
def test_face_chains_match_the_path_tracer(name):
    p = CERTIFIED[name]()
    certs = eq.visible_pairs(p)
    assert certs
    for cert in certs:
        rows = certificate_plane(p, cert)
        frame = hull_of(p, rows)
        for face_id, chains in ((cert.face_id, cert.chains), (cert.other_id, cert.other_chains)):
            if face_id is None:
                continue
            got = eq._face_chains(p, face_id, rows)
            assert got == chains == oracle_face_chains(p, face_id, frame)
            # both chains walk from the smaller fixed point to the other
            a, b = got.fixed_points
            assert walk_end(p, a, got.visible) == walk_end(p, a, got.invisible) == b


def test_frame_chains_match_the_degree_count():
    kinds = Counter()
    for name, make in SAMPLED.items():
        p = make()
        faces = pt.k_faces(p, 2)
        for w in sh.sample_admissible(p, 1, 5):
            frame = sh.hull_frame(p, w)
            rows = w.basis.int_rows
            for face_id, face in enumerate(faces):
                got = wk.frame_chains(p, face, rows)
                assert got == oracle_frame_chains(p, face, frame), (name, face_id)
                assert got == wk.boundary_chains(p, face_id, w)
                # the errors too: fixed points not two, parallel chain edges
                assert outcome(eq._face_chains, p, face_id, rows) == outcome(
                    oracle_face_chains, p, face_id, frame
                )
                kinds[len(got.fixed), not got.invisible] += 1
    # interior faces, faces visible all round, and split visible chains
    assert kinds[0, False] and kinds[0, True]
    assert any(k >= 4 for k, _whole in kinds)


@settings(max_examples=40, deadline=None)
@given(small_hulls(), st.integers(0, 2**16), st.sampled_from([2, 100]))
def test_edge_test_matches_the_hull_from_both_ends(p, seed, bound):
    # every edge of a small hull, read at a's neighbours and at b's,
    # against the scan of the shadow hull's edges; planes on a small
    # grid put many images on one line
    w = sh.sample_admissible(p, seed, 1, grid_bound=bound)[0]
    frame = sh.hull_frame(p, w)
    rows = w.basis.int_rows
    for edge in pt.k_faces(p, 1):
        a, b = edge.vertex_ids
        want = oracle_in_boundary(frame, (a, b))
        assert sh.edge_on_boundary(p, (a, b), rows) == want
        assert sh.edge_on_boundary(p, (b, a), rows) == want
