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

A "no" report's obstruction is re-derived from integer vertex images:
each node names an edge of its face, the group holds every edge of one
certificate's faces on one line, each node's orientation is the one
orient's rule gives (a lone face runs from its smallest id toward its
smaller neighbour; of a pair, the certificate's face runs clockwise and
its partner counterclockwise in the class plane's rows), and the group
is odd or runs more often one way than the other. A cube or zonotope
report holds, per class, the closed-form count of certificates.

The checkers read plain data only, under the names bench/checks.py
defines, and a lattice copy with the attributes of bench/workloads.py's
Geometry, so that they can move into bench/checks.py unchanged.
"""

import copy
import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb
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
dot = checks.dot
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


def class_of(g, face):
    cid = next((k for k, m in enumerate(g.class_members) if face in m), None)
    require(cid is not None, f"no 2-face {face}")
    return cid


def ccw_successors(g, face, plane_rows):
    """Each vertex id of a 2-face to the next one counterclockwise in
    the integer images under plane_rows of the face's plane."""
    ids = g.face_vertex_ids[face]
    hull = Hull(images([g.int_vertices[v] for v in ids], plane_rows))
    require(hull.k == len(ids), f"face {face} is not in convex position")
    vid = {q: ids[f[0]] for q, f in hull.fibers.items()}
    return {vid[a]: vid[b] for a, b in hull.edges}


def node_orientation(g, certificates, node):
    """A node's orientation, re-derived: +1 when its face's traversal
    runs along its edge from the smaller id to the larger."""
    face, other = node["face"], node["other"]
    if other is None:
        # from the smallest id toward its smaller neighbour
        succ = ccw_successors(g, face, g.face_planes[face])
        start = min(succ)
        pred = next(v for v, w in succ.items() if w == start)
        ccw = succ[start] < pred
    else:
        # the certificate's face clockwise, its partner counterclockwise,
        # both in the rows of their class plane
        first = next(
            (c["face"] for c in certificates if {c["face"], c["other"]} == {face, other}),
            None,
        )
        require(first is not None, f"no certificate names faces {face} and {other}")
        succ = ccw_successors(g, face, g.class_planes[class_of(g, face)])
        ccw = face != first
    a, b = sorted(node["edge"])
    return 1 if (succ.get(a) == b) == ccw else -1


def edges_of(g, face):
    return face_edges(g.int_vertices, g.face_vertex_ids[face], g.face_planes[face])


def edge_direction(g, edge):
    a, b = sorted(edge)
    return tuple(x - y for x, y in zip(g.int_vertices[b], g.int_vertices[a]))


def check_obstruction(g, certificates, obstruction):
    """A "no" report's obstructed group, re-derived from integer images."""
    group = obstruction["group"]
    require(group, "the obstruction names no edge-2-faces")
    faces = {frozenset({n["face"], n["other"]} - {None}) for n in group}
    require(len(faces) == 1, "the group's nodes name different faces")
    line = edge_direction(g, group[0]["edge"])
    for n in group:
        edge = tuple(sorted(n["edge"]))
        require(edge in edges_of(g, n["face"]), f"edge {n['edge']} is no edge of face {n['face']}")
        require(rank([line, edge_direction(g, edge)]) == 1, "the group's edges are not parallel")
        require(
            n["orientation"] == node_orientation(g, certificates, n),
            f"edge {n['edge']} of face {n['face']} has the wrong orientation",
        )
    # every edge of the faces on the group's line is in the group
    named = {(tuple(sorted(n["edge"])), n["face"]) for n in group}
    on_line = {
        (e, f)
        for f in next(iter(faces))
        for e in edges_of(g, f)
        if rank([line, edge_direction(g, e)]) == 1
    }
    require(named == on_line, "the group is not every edge of its faces on its line")
    senses = Counter(n["orientation"] * dot(line, edge_direction(g, n["edge"])) > 0 for n in group)
    require(
        len(group) % 2 or senses[True] != senses[False],
        "the group pairs: it is even, and as many run forward as backward",
    )


def zonotope_certificate_count(m, d):
    """Certificates per class of a zonotope of m generators in general
    position in R^d: half the vertices of the class's projection, an
    (m - 2)-generator zonotope in general position in R^(d - 2), so
    sum_{i < r} C(n - 1, i) with n = m - 2 and r = d - 2 (Buck 1943;
    Zaslavsky's count of a central arrangement's regions). A d-cube
    has m = d: 2^(d - 3)."""
    n, r = m - 2, d - 2
    return sum(comb(n - 1, i) for i in range(r))


def check_zonotope_completeness(g, certificates):
    """Every class of a zonotope report holds the closed-form count of
    certificates, its generator count read off its C(m, 2) classes."""
    classes = len(g.class_members)
    m = next((m for m in range(2, classes + 3) if comb(m, 2) == classes), None)
    require(m is not None, f"{classes} classes are not C(m, 2) for any m")
    want = zonotope_certificate_count(m, g.dim)
    counts = Counter(class_of(g, c["face"]) for c in certificates)
    for cid in range(classes):
        require(counts[cid] == want, f"class {cid} has {counts[cid]} certificates, not {want}")


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


def golden(name):
    """The polytope, its lattice copy and its golden check report's
    certificates."""
    p, g, report = golden_report(name)
    return p, g, report["certificates"]


@cache
def golden_report(name):
    """The polytope, its lattice copy and its golden check report's
    combinatorial part."""
    make, digest = GOLDEN_CHECKS[name]
    p = make()
    poly = json.dumps({"vertices": [[str(x) for x in v] for v in p.vertices]})
    code, out, _ = go(
        ["check", "--polytope", poly, "--mode", "both", "--seed", "0", "--no-timestamp"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    return p, Geometry(p), json.loads(out)["combinatorial"]


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


NO_REPORTS = ["perturbed", "pn4", "pnd5"]


@pytest.mark.parametrize("name", NO_REPORTS)
def test_golden_obstructions_pass_the_independent_checker(name):
    _p, g, report = golden_report(name)
    assert report["equiprojective"] is False
    check_obstruction(g, report["certificates"], report["obstruction"])


@pytest.mark.parametrize("name", NO_REPORTS)
def test_checker_refuses_a_flipped_orientation(name):
    _p, g, report = golden_report(name)
    for i in range(len(report["obstruction"]["group"])):
        wrong = copy.deepcopy(report["obstruction"])
        wrong["group"][i]["orientation"] *= -1
        with pytest.raises(CheckError, match="has the wrong orientation$"):
            check_obstruction(g, report["certificates"], wrong)


def test_checker_refuses_a_partial_group():
    _p, g, report = golden_report("perturbed")
    wrong = copy.deepcopy(report["obstruction"])
    del wrong["group"][0]
    with pytest.raises(CheckError, match="^the group is not every edge"):
        check_obstruction(g, report["certificates"], wrong)


def test_checker_refuses_a_group_that_pairs():
    # the 4-cube is equiprojective: the edges of a pair's faces on one
    # line, with their true orientations, run as often one way as the other
    _p, g, report = golden_report("cube4")
    certs = report["certificates"]
    f, o = next((c["face"], c["other"]) for c in certs if c["other"] is not None)
    line = edge_direction(g, min(edges_of(g, f)))
    group = [
        {"edge": list(e), "face": x, "other": y}
        for x, y in ((f, o), (o, f))
        for e in sorted(edges_of(g, x))
        if rank([line, edge_direction(g, e)]) == 1
    ]
    for n in group:
        n["orientation"] = node_orientation(g, certs, n)
    assert len(group) == 4
    with pytest.raises(CheckError, match="^the group pairs"):
        check_obstruction(g, certs, {"group": group, "reason": ""})


ZONOTOPES = {"cube3": 1, "cube4": 2, "cube6": 8, "zono7": 4, "zono8": 7}


@pytest.mark.parametrize("name", sorted(ZONOTOPES))
def test_zonotope_reports_hold_the_closed_form_count(name):
    _p, g, certs = golden(name)
    classes = len(g.class_members)
    assert len(certs) == classes * ZONOTOPES[name]
    check_zonotope_completeness(g, certs)


@pytest.mark.parametrize("name", ["cube4", "zono7", "zono8"])
def test_checker_refuses_a_zonotope_report_missing_a_certificate(name):
    _p, g, certs = golden(name)
    for i in (0, len(certs) // 2, len(certs) - 1):
        with pytest.raises(CheckError, match="certificates, not"):
            check_zonotope_completeness(g, certs[:i] + certs[i + 1:])
