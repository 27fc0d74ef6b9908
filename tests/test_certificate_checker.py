"""Check reports' certificates against code that shares none with shadowlab.

The survey builds every witness valid by construction and does not
validate it again. Here each certificate of each golden check report
(tests/test_cli.py's GOLDEN_CHECKS) is re-checked with the primitives of
bench/checks.py only: Bareiss ranks and determinants, Gauss-Jordan null
spaces and brute-force planar hulls. The witness has rank d - 2; it
degenerates exactly the class of its face; the face, and its partner if
any, lie in one edge of the shadow at the witness; the chains are edges
of their face that split its cycle into two paths between the fixed
vertices. Planted wrong certificates must be refused.

The checkers read plain data only, under the names bench/checks.py
defines, and a lattice copy with the attributes of bench/workloads.py's
Geometry, so that they can move into bench/checks.py unchanged.
"""

import copy
import hashlib
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import shadowlab.polytope as pt
import shadowlab.shadow as sh
from test_cli import GOLDEN_CHECKS, go

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _import_bench_checks():
    """bench/checks.py, imported with no bytecode written under bench/."""
    path, flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import checks
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = flag
    return checks


checks = _import_bench_checks()
CheckError = checks.CheckError
Hull = checks.Hull
degenerate_classes = checks.degenerate_classes
hull_of = checks.hull_of
images = checks.images
nullspace = checks.nullspace
on_segment = checks.on_segment
rank = checks.rank
require = checks.require


# ------------------------------------ checkers, on bench/checks.py's names


def face_edges(int_vertices, vertex_ids, plane_rows):
    """The edges of a 2-face, as sorted vertex id pairs: the brute-force
    hull of its vertices' images in its own direction plane, where they
    are in convex position."""
    hull = Hull(images([int_vertices[v] for v in vertex_ids], plane_rows))
    require(hull.k == len(vertex_ids), "face vertices are not in convex position")
    ids = {q: vertex_ids[f[0]] for q, f in hull.fibers.items()}
    return {tuple(sorted((ids[a], ids[b]))) for a, b in hull.edges}


def check_chains(edges, chains):
    """A face's visible and invisible chains: edges of the face, each
    chain a path between the two fixed vertices, together the cycle."""
    fixed = set(chains["fixed_vertices"])
    require(len(fixed) == 2, f"face {chains['face']} has {len(fixed)} fixed vertices")
    seen = []
    for side in ("visible", "invisible"):
        chain = [tuple(sorted(e)) for e in chains[side]]
        require(set(chain) <= edges, f"a {side} chain edge is no edge of face {chains['face']}")
        degree = {}
        for e in chain:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        ends = {v for v, n in degree.items() if n == 1}
        require(ends == fixed, f"the {side} chain does not run between the fixed vertices")
        seen += chain
    require(sorted(seen) == sorted(edges), "the chains do not split the face's cycle")


def check_certificate(g, cert):
    """One certificate of a check report, as JSON, against the lattice
    copy g."""
    witness = [[Fraction(x) for x in row] for row in cert["witness"]]
    require(
        len(witness) == g.dim - 2 and rank(witness) == g.dim - 2,
        f"witness is not of rank {g.dim - 2}",
    )
    fid, oid = cert["face"], cert["other"]
    faces = (fid,) if oid is None else (fid, oid)
    cid = next((k for k, m in enumerate(g.class_members) if fid in m), None)
    require(cid is not None, f"no 2-face {fid}")
    require(
        len(set(faces)) == len(faces) and set(faces) <= set(g.class_members[cid]),
        "a face pair of one class must name two distinct faces",
    )
    found = degenerate_classes(witness, g.class_planes)
    require(found == {cid}, f"witness degenerates classes {sorted(found)}, not {cid} alone")
    hull = hull_of(g.int_vertices, nullspace(witness, g.dim))
    for f in faces:
        pts = [hull.imgs[v] for v in g.face_vertex_ids[f]]
        require(
            any(all(on_segment(q, a, b) for q in pts) for a, b in hull.edges),
            f"face {f} is off the shadow boundary at the witness",
        )
    chains = (cert["chains"], cert["other_chains"])
    for f, ch in zip(faces, chains):
        require(ch["face"] == f, f"chains of face {ch['face']} given for face {f}")
        check_chains(face_edges(g.int_vertices, g.face_vertex_ids[f], g.face_planes[f]), ch)


def check_certificates(g, certificates):
    for cert in certificates:
        check_certificate(g, cert)


# ---------------------------------------------------------------- inputs


class Geometry:
    """Plain-number copy of a polytope's lattice data, as bench/workloads.py
    makes it."""

    def __init__(self, p):
        classes = pt.parallel_classes(p)
        faces = pt.k_faces(p, 2)
        self.dim = p.dim
        self.int_vertices = checks.int_points(p.vertices)
        self.class_planes = [
            tuple(tuple(checks.int_row(r)) for r in c.direction_plane.basis)
            for c in classes
        ]
        self.class_members = [tuple(c.member_ids) for c in classes]
        self.face_vertex_ids = [tuple(f.vertex_ids) for f in faces]
        self.face_planes = [tuple(f.span.basis) for f in faces]


@cache
def golden(name):
    """The polytope, its lattice copy and its golden check report's
    certificates."""
    make, digest = GOLDEN_CHECKS[name]
    p = make()
    poly = json.dumps({"vertices": [[str(x) for x in v] for v in p.vertices]})
    code, out, _ = go(
        ["check", "--polytope", poly, "--mode", "both", "--seed", "0", "--no-timestamp"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    return p, Geometry(p), json.loads(out)["combinatorial"]["certificates"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECKS))
def test_golden_check_certificates_pass_the_independent_checker(name):
    _p, g, certs = golden(name)
    assert certs
    check_certificates(g, certs)


PLANTED = ["cube4", "perturbed", "pnd5"]


@pytest.mark.parametrize("name", PLANTED)
def test_checker_refuses_a_witness_where_a_second_class_degenerates(name):
    p, g, certs = golden(name)
    cert = copy.deepcopy(certs[0])
    cid = next(k for k, m in enumerate(g.class_members) if cert["face"] in m)
    head = [[Fraction(x) for x in row] for row in cert["witness"][:-1]]
    # the last row swapped for a row of another class's plane
    row = next(
        r
        for k, plane in enumerate(g.class_planes)
        if k != cid
        for r in plane
        if rank(head + [r]) == g.dim - 2
    )
    cert["witness"][-1] = [str(x) for x in row]
    assert len(list(sh.degenerate_classes(p, head + [row]))) > 1
    with pytest.raises(CheckError, match="witness degenerates classes"):
        check_certificate(g, cert)


@pytest.mark.parametrize("name", PLANTED)
def test_checker_refuses_a_face_off_the_boundary(name):
    p, g, certs = golden(name)
    faces = pt.k_faces(p, 2)
    planted = 0
    for cert in certs:
        named = {cert["face"], cert["other"]}
        rows = [[Fraction(x) for x in row] for row in cert["witness"]]
        frame = sh.hull_frame(p, sh.ProjectionPlane.from_orthogonal(rows))
        members = next(m for m in g.class_members if cert["face"] in m)
        for m in members:
            if m in named or sh.in_boundary(frame, faces[m].vertex_ids):
                continue
            wrong = copy.deepcopy(cert)
            wrong["face"] = wrong["chains"]["face"] = m
            with pytest.raises(CheckError, match=f"face {m} is off the shadow boundary"):
                check_certificate(g, wrong)
            planted += 1
    assert planted


@pytest.mark.parametrize("name", PLANTED)
def test_checker_refuses_a_chain_edge_outside_the_face(name):
    p, g, certs = golden(name)
    cert = copy.deepcopy(certs[0])
    own = set(g.face_vertex_ids[cert["face"]])
    outside = next(
        list(e.vertex_ids) for e in pt.k_faces(p, 1) if not own.issuperset(e.vertex_ids)
    )
    cert["chains"]["visible"][0] = outside
    with pytest.raises(CheckError, match="visible chain edge is no edge of face"):
        check_certificate(g, cert)
