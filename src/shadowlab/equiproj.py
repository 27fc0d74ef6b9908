"""Edge-2-face bookkeeping and the two equiprojectivity deciders.

A 2-face F (optionally paired with a parallel 2-face F') is *visible*
at a projection plane when exactly the class of F degenerates there and
the face images are contained in the shadow boundary. Each edge of a
visible face, together with the face pair and an orientation, forms an
edge-2-face. The combinatorial decider asks whether all edge-2-faces
split into compensating pairs: parallel edges, opposite orientations,
on the same ordered face pair or on the swapped one. The sampled
decider simply compares shadow sizes over many admissible planes.

Certificates are proofs: every emitted witness is re-validated with
exact arithmetic. Absence of a certificate is proof only in dimension
3, where the witness space is a plane and the search grid provably
covers it; in higher dimensions an exhausted search is reported as
such and verdicts that depend on it carry firm=False.
"""

import random
from collections import namedtuple
from fractions import Fraction

from . import linalg as la
from . import polytope as pt
from . import shadow as sh
from . import walk as wk
from .errors import GeometryError, ParameterError

_CLASS_BUDGET = 48

EdgeTwoFace = namedtuple(
    "EdgeTwoFace", ["edge_id", "face_id", "partner_id", "orientation"]
)

FaceChains = namedtuple(
    "FaceChains", ["face_id", "fixed_points", "visible", "invisible"]
)

VisibilityCertificate = namedtuple(
    "VisibilityCertificate",
    ["face_id", "other_id", "witness", "chains", "other_chains"],
)

CompensationPairing = namedtuple(
    "CompensationPairing", ["edge_two_faces", "pairs"]
)

Obstruction = namedtuple("Obstruction", ["edge_two_faces", "group", "reason"])

CombinatorialVerdict = namedtuple(
    "CombinatorialVerdict",
    ["equiprojective", "k", "firm", "certificates", "exhausted", "obstruction"],
)

SampledVerdict = namedtuple(
    "SampledVerdict", ["equiprojective", "k", "counterexample", "trials"]
)

BalanceReport = namedtuple(
    "BalanceReport", ["k_before", "k_after", "visible_total", "invisible_total"]
)

EquivalenceReport = namedtuple(
    "EquivalenceReport",
    ["vacuous", "planes_checked", "interior_events", "k_reference", "matches"],
)


def _edge_ids(p):
    return {e.vertex_ids: i for i, e in enumerate(pt.k_faces(p, 1))}


def _edge_direction(p, edge):
    a, b = edge.vertex_ids
    return la.sub(p.vertices[b], p.vertices[a])


def _order_chain(pairs, eidx):
    """Edge ids of a vertex-pair chain, ordered along the path."""
    if not pairs:
        return ()
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    ends = sorted(v for v, nb in adj.items() if len(nb) == 1)
    if len(ends) != 2:
        raise GeometryError("visibility chain is not a simple path")
    out = []
    prev = None
    cur = ends[0]
    while True:
        nxt = None
        for cand in adj[cur]:
            if cand != prev:
                nxt = cand
                break
        if nxt is None:
            break
        out.append(eidx[tuple(sorted((cur, nxt)))])
        if len(adj[nxt]) == 1:
            break
        prev, cur = cur, nxt
    if len(out) != len(pairs):
        raise GeometryError("visibility chain is not a simple path")
    return tuple(out)


def _face_chains(p, face_id, w, eidx):
    state = wk.boundary_chains(p, face_id, w)
    if len(state.fixed) != 2:
        raise GeometryError(
            f"face {face_id} has {len(state.fixed)} fixed points, wanted 2"
        )
    visible = _order_chain(state.visible, eidx)
    invisible = _order_chain(state.invisible, eidx)
    edges = pt.k_faces(p, 1)
    for chain in (visible, invisible):
        dirs = [_edge_direction(p, edges[e]) for e in chain]
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if la.rank((dirs[i], dirs[j])) == 1:
                    raise GeometryError(
                        "two parallel edges share a visibility chain"
                    )
    return FaceChains(face_id, state.fixed, visible, invisible)


def _certify(p, face_id, other_id, rows):
    """Build a certificate from an exact witness, re-validating it."""
    tr = wk.elementary_transformation(p, face_id, other_id, la.Subspace(rows))
    eidx = _edge_ids(p)
    mid = -tr.epsilon / 2
    w = sh.ProjectionPlane.from_orthogonal(tr.minus.rows_at(mid))
    chains = _face_chains(p, face_id, w, eidx)
    other = None
    if other_id is not None:
        other = _face_chains(p, other_id, w, eidx)
    return VisibilityCertificate(face_id, other_id, tuple(rows), chains, other)


def _planar_witness(p, cid):
    """Complete witness search in dimension 3.

    The witness space for a class is the set of directions inside its
    plane; each other class forbids exactly one of them (the line where
    the two planes meet). A grid of one more direction than there are
    classes therefore always contains a witness.
    """
    classes = pt.parallel_classes(p)
    f1, f2 = classes[cid].direction_plane.basis
    for q in range(len(classes) + 1):
        u1 = la.add(f1, la.scale(f2, q))
        if tuple(sh.degenerate_classes(p, (u1,))) == (cid,):
            return (u1,)
    raise GeometryError("planar witness grid exhausted, polytope data broken")


def _draw_witness(p, cid, rng):
    d = p.dim
    classes = pt.parallel_classes(p)
    f1, f2 = classes[cid].direction_plane.basis
    a = rng.randint(-9, 9)
    b = rng.randint(-9, 9)
    if a == 0 and b == 0:
        return None
    rows = [la.add(la.scale(f1, a), la.scale(f2, b))]
    for _ in range(d - 3):
        rows.append(tuple(Fraction(rng.randint(-9, 9)) for _ in range(d)))
    rows = tuple(rows)
    if la.rank(rows) != d - 2:
        return None
    if tuple(sh.degenerate_classes(p, rows)) != (cid,):
        return None
    if la.intersect(la.Subspace(rows), classes[cid].direction_plane).dim != 1:
        # the whole face plane fell into the orthogonal span; members
        # would project to points, not boundary edges
        return None
    return rows


def _boundary_members(p, cid, rows):
    faces = pt.k_faces(p, 2)
    frame = sh.hull_frame(p, sh.ProjectionPlane.from_orthogonal(rows))
    out = [
        fid
        for fid in pt.parallel_classes(p)[cid].member_ids
        if sh.in_boundary(frame, faces[fid].vertex_ids)
    ]
    return tuple(sorted(out))


def _survey(p, seed):
    """All certificates found plus the candidates left unresolved."""
    d = p.dim
    classes = pt.parallel_classes(p)
    certs = []
    exhausted = []
    for cid, cls in enumerate(classes):
        members = cls.member_ids
        if d == 3:
            # a convex polytope has at most two facets per direction,
            # and both always reach the shadow boundary: the outward
            # facet normal is constant on the projection fibers
            if len(members) > 2:
                raise GeometryError(
                    f"three parallel facets in class {cid}, data broken"
                )
            rows = _planar_witness(p, cid)
            if len(members) == 1:
                certs.append(_certify(p, members[0], None, rows))
            else:
                certs.append(_certify(p, members[0], members[1], rows))
            continue
        rng = random.Random(f"visible:{seed}:{cid}")
        found = {}
        for _ in range(_CLASS_BUDGET):
            rows = _draw_witness(p, cid, rng)
            if rows is None:
                continue
            conf = _boundary_members(p, cid, rows)
            if len(conf) in (1, 2) and conf not in found:
                found[conf] = rows
        for conf in sorted(found):
            if len(conf) == 1:
                certs.append(_certify(p, conf[0], None, found[conf]))
            else:
                certs.append(_certify(p, conf[0], conf[1], found[conf]))
        for i, f in enumerate(members):
            if (f,) not in found:
                exhausted.append((f, None))
            for g in members[i + 1 :]:
                if tuple(sorted((f, g))) not in found:
                    exhausted.append((f, g))
    return tuple(certs), tuple(exhausted)


def visible_pairs(p, seed=0):
    """Certificates for every simultaneously visible face pair found.

    Dimension 3 is decided exactly. Higher dimensions search a seeded
    budget of witnesses per class; pairs the search could not certify
    are not in the list (the combinatorial verdict reports them).
    """
    return list(_survey(p, seed)[0])


def _traversal(p, face, flipped):
    cyc = pt.face_cycle(p, face)
    if flipped:
        cyc = [cyc[0]] + cyc[1:][::-1]
    return cyc


def _signed_area(p, face, frame):
    origin = p.vertices[face.vertex_ids[0]]
    cyc = pt.face_cycle(p, face)
    xs = [
        la.gram_coords(la.sub(p.vertices[v], origin), frame) for v in cyc
    ]
    area = sum(
        x1 * y2 - x2 * y1
        for (x1, y1), (x2, y2) in zip(xs, xs[1:] + xs[:1])
    )
    if area == 0:
        raise GeometryError("degenerate face cycle")
    return area


def _cycle_nodes(p, cyc, fid, oid, eidx):
    out = []
    for x, y in zip(cyc, cyc[1:] + cyc[:1]):
        eid = eidx[tuple(sorted((x, y)))]
        out.append(EdgeTwoFace(eid, fid, oid, 1 if x < y else -1))
    return tuple(out)


def orient(p, cert, flip=False):
    """Edge-2-faces of a certificate with orientations assigned.

    For a proper pair the slice of p along the affine hull of the two
    faces is a 3-polytope having them as parallel facets; traversing
    one clockwise and the other counterclockwise in a shared frame of
    their common direction plane is the boundary orientation induced
    by outward normals. A lone face gets an arbitrary cyclic choice.
    flip reverses every traversal; compensation cannot see it.
    """
    faces = pt.k_faces(p, 2)
    fid = cert.face_id
    oid = cert.other_id
    if not 0 <= fid < len(faces):
        raise GeometryError(f"certificate names missing face {fid}")
    eidx = _edge_ids(p)
    f = faces[fid]
    if oid is None:
        return _cycle_nodes(p, _traversal(p, f, flip), fid, None, eidx)
    if not 0 <= oid < len(faces) or oid == fid:
        raise GeometryError(f"certificate names missing face {oid}")
    o = faces[oid]
    if f.span != o.span:
        raise GeometryError("certificate faces are not parallel")
    frame = f.span.basis
    off = la.sub(p.vertices[o.vertex_ids[0]], p.vertices[f.vertex_ids[0]])
    if la.rank(frame + (off,)) != 3:
        raise GeometryError("face pair does not span a 3-dimensional slice")
    # outward convention in the slice oriented by (frame, offset):
    # the face the offset points away from runs clockwise
    flip_f = (_signed_area(p, f, frame) > 0) != flip
    flip_o = (_signed_area(p, o, frame) < 0) != flip
    return _cycle_nodes(p, _traversal(p, f, flip_f), fid, oid, eidx) + (
        _cycle_nodes(p, _traversal(p, o, flip_o), oid, fid, eidx)
    )


def _compensating(p, n1, n2, edges):
    d1 = _edge_direction(p, edges[n1.edge_id])
    d2 = _edge_direction(p, edges[n2.edge_id])
    if la.rank((d1, d2)) != 1:
        return False
    i = next(j for j, x in enumerate(d1) if x != 0)
    mu = d2[i] / d1[i]
    if n1.orientation * n2.orientation * mu >= 0:
        return False
    if n1.face_id == n2.face_id and n1.partner_id == n2.partner_id:
        return n1.edge_id != n2.edge_id
    return (
        n1.partner_id is not None
        and n1.face_id == n2.partner_id
        and n1.partner_id == n2.face_id
    )


def _matchings(idx):
    if not idx:
        yield ()
        return
    first = idx[0]
    for j in range(1, len(idx)):
        rest = idx[1:j] + idx[j + 1 :]
        for sub in _matchings(rest):
            yield ((first, idx[j]),) + sub


def compensation_partition(p, certs, flip=False):
    """Perfect compensation pairing of the certificates' edge-2-faces.

    Compensation never crosses face pairs or edge directions, so the
    compatibility graph splits into groups of at most four nodes; each
    group is matched exhaustively. Returns a CompensationPairing, or
    an Obstruction naming the first group without a perfect matching.
    A larger group means broken face data and raises GeometryError
    before the exhaustive matching can blow up.
    """
    nodes = []
    for cert in certs:
        nodes.extend(orient(p, cert, flip=flip))
    nodes = tuple(nodes)
    edges = pt.k_faces(p, 1)
    groups = {}
    for i, n in enumerate(nodes):
        pairkey = (
            (n.face_id,)
            if n.partner_id is None
            else tuple(sorted((n.face_id, n.partner_id)))
        )
        dirkey = la.span_of([_edge_direction(p, edges[n.edge_id])])
        groups.setdefault((pairkey, dirkey.canonical_key()), []).append(i)
    pairs = []
    for key in sorted(groups):
        idx = tuple(groups[key])
        if len(idx) > 4:
            raise GeometryError(
                f"compensation group of {len(idx)} edge-2-faces, at most 4 expected"
            )
        if len(idx) % 2:
            return Obstruction(
                nodes, idx, "odd number of edge-2-faces in the group"
            )
        done = False
        for cand in _matchings(idx):
            if all(_compensating(p, nodes[i], nodes[j], edges) for i, j in cand):
                pairs.extend(cand)
                done = True
                break
        if not done:
            return Obstruction(
                nodes, idx, "no orientation-compatible pairing in the group"
            )
    matched = sorted(i for pair in pairs for i in pair)
    if matched != list(range(len(nodes))):
        raise GeometryError("pairing failed to cover every edge-2-face")
    for i, j in pairs:
        if not _compensating(p, nodes[i], nodes[j], edges):
            raise GeometryError("pairing holds a non-compensating pair")
    return CompensationPairing(nodes, tuple(pairs))


def is_equiprojective_combinatorial(p, seed=0):
    """Decide equiprojectivity through the compensation pairing.

    A returned no is always firm: the obstructed group is built from
    exact certificates and compensation cannot leave the group. A yes
    is firm in dimension 3 or when no candidate search was exhausted;
    otherwise a missed visible pair could still obstruct, and the
    verdict says so through firm=False.
    """
    certs, exhausted = _survey(p, seed)
    outcome = compensation_partition(p, certs)
    if isinstance(outcome, Obstruction):
        return CombinatorialVerdict(False, None, True, certs, exhausted, outcome)
    firm = p.dim == 3 or not exhausted
    plane = sh.sample_admissible(p, seed, 1)[0]
    k = sh.shadow(p, plane).k
    return CombinatorialVerdict(True, k, firm, certs, exhausted, None)


def is_equiprojective_sampled(p, seed=0, trials=200):
    """Monte-Carlo disprover: compare shadow sizes over sampled planes.

    A constant size over all trials supports equiprojectivity; two
    differing planes are an exact disproof, returned as the
    counterexample (plane, k, plane, k).
    """
    if trials < 2:
        raise ParameterError("need at least two trials to compare")
    planes = sh.sample_admissible(p, seed, trials)
    k0 = None
    first = None
    for w in planes:
        k = sh.shadow(p, w).k
        if k0 is None:
            k0, first = k, w
        elif k != k0:
            return SampledVerdict(False, None, (first, k0, w, k), trials)
    return SampledVerdict(True, k0, None, trials)


def chain_balance(p, cert):
    """Shadow sizes on both sides of the certificate's transformation.

    The size is conserved exactly when the visible chains of the pair
    are together as long as the invisible ones.
    """
    tr = wk.elementary_transformation(
        p, cert.face_id, cert.other_id, la.Subspace(cert.witness)
    )
    wm = sh.ProjectionPlane.from_orthogonal(tr.minus.rows_at(-tr.epsilon / 2))
    wp = sh.ProjectionPlane.from_orthogonal(tr.plus.rows_at(tr.epsilon / 2))
    vis = len(cert.chains.visible)
    inv = len(cert.chains.invisible)
    if cert.other_chains is not None:
        vis += len(cert.other_chains.visible)
        inv += len(cert.other_chains.invisible)
    return BalanceReport(sh.shadow(p, wm).k, sh.shadow(p, wp).k, vis, inv)


def definitions_equivalence_check(p, seed=0, trials=48):
    """Interior degenerations do not change the shadow size.

    Hunts for planes where exactly one class degenerates but no member
    face reaches the shadow boundary, then un-degenerates the plane in
    both directions along the complement of witness + face plane and
    compares the sizes on the two admissible sides with the size at
    the degenerate plane itself. Finding no such plane at this budget
    is reported as vacuous (in dimension 3 it always is: a facet of
    its degenerating class always reaches the boundary).
    """
    classes = pt.parallel_classes(p)
    k_ref = sh.shadow(p, sh.sample_admissible(p, seed, 1)[0]).k
    checked = 0
    events = 0
    matches = True
    for cid, cls in enumerate(classes):
        rng = random.Random(f"equivdef:{seed}:{cid}")
        for _ in range(trials):
            rows = _draw_witness(p, cid, rng)
            if rows is None:
                continue
            checked += 1
            if _boundary_members(p, cid, rows):
                continue
            events += 1
            u1 = la.primitive(
                la.intersect(la.Subspace(rows), cls.direction_plane).basis[0]
            )
            kern = la.kernel_basis(rows + tuple(cls.direction_plane.basis))
            if len(kern) != 1:
                raise GeometryError("witness plus face plane is not rank d-1")
            v = la.primitive(kern[0])
            comp = [u1]
            for r in rows:
                if la.rank(tuple(comp) + (r,)) > len(comp):
                    comp.append(r)
            base = tuple(comp)
            slope = (v,) + tuple((la.ZERO,) * p.dim for _ in range(p.dim - 3))
            probe = wk.WalkSegment(base, slope, (-1, 1))
            eps = None
            for k, other in enumerate(classes):
                if k == cid:
                    continue
                r = wk.degeneration_polynomial(probe, other).root()
                if r is not None:
                    eps = abs(r) if eps is None else min(eps, abs(r))
            eps = Fraction(1) if eps is None else eps / 2
            k_here = sh.shadow(p, sh.ProjectionPlane.from_orthogonal(rows)).k
            for t in (-eps / 2, eps / 2):
                moved = probe.rows_at(t)
                if next(sh.degenerate_classes(p, moved), None) is not None:
                    raise GeometryError("un-degenerated plane still degenerates")
                w = sh.ProjectionPlane.from_orthogonal(moved)
                if sh.shadow(p, w).k != k_here:
                    matches = False
    return EquivalenceReport(events == 0, checked, events, k_ref, matches)
