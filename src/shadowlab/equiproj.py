"""Edge-2-face bookkeeping and the two equiprojectivity deciders.

A 2-face F (optionally paired with a parallel 2-face F') is *visible*
at a projection plane when exactly the class of F degenerates there and
the face images are contained in the shadow boundary. Each edge of a
visible face, together with the face pair and an orientation, forms an
edge-2-face. The combinatorial decider asks whether all edge-2-faces
split into compensating pairs: parallel edges, opposite orientations,
on the same ordered face pair or on the swapped one. The sampled
decider simply compares shadow sizes over many admissible planes.

Visible configurations are enumerated exactly, in every dimension.
Let P be a class's direction plane. A projection plane degenerating
only that class holds exactly one line c orthogonal to P, and c
decides visibility: a member is visible iff it lies in the face of p
that maximises or minimises c. So the configurations are constant on the
cells of the common refinement of the normal fans of Q and -Q, where Q
is the projection of p along P; that refinement is the normal fan of
the difference body Q + (-Q) (Ziegler, Lectures on Polytopes, Prop.
7.12), whose proper faces are enumerated one by one. Its facets and
its faces of every dimension come from integer gift wrapping
(polytope.int_facets); no Polytope is built for it. A cell lying in
another class's orthogonal complement degenerates that class too and
is skipped; every other cell has an exact witness plane. Certificates
are proofs: every emitted witness is re-validated with exact
arithmetic, and the absence of one is a proof as well.
"""

from collections import namedtuple
from fractions import Fraction
from operator import sub

from . import kernels
from . import linalg as la
from . import polytope as pt
from . import shadow as sh
from . import walk as wk
from .errors import GeometryError, ParameterError

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
    ["equiprojective", "k", "certificates", "obstruction"],
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


def _edge_direction(p, edge):
    """The edge's direction, on the polytope's integer vertices (a
    positive multiple of the rational one)."""
    verts = p.int_vertices()[0]
    a, b = edge.vertex_ids
    return tuple(map(sub, verts[b], verts[a]))


def _parallel(d1, d2):
    """Whether two nonzero integer directions are parallel: every 2x2
    minor vanishes."""
    return not any(kernels.plane_minors(d1, d2))


def _direction_key(d):
    """The direction scaled to first nonzero entry 1: the canonical_key
    row of its span, so groups sort as they would by the span's key."""
    pivot = next(x for x in d if x)
    return tuple(Fraction(x, pivot) for x in d)


def _face_chains(p, face_id, frame):
    """The chains of a 2-face as edge ids: the two arcs of its cycle
    between its two fixed points, each read from the smaller one."""
    face = pt.k_faces(p, 2)[face_id]
    state = wk.frame_chains(p, face, frame)
    if len(state.fixed) != 2:
        raise GeometryError(
            f"face {face_id} has {len(state.fixed)} fixed points, wanted 2"
        )
    a, b = state.fixed
    cycle = pt.face_cycle(p, face)
    i = cycle.index(a)
    cycle = cycle[i:] + cycle[: i + 1]
    j = cycle.index(b)
    eidx = pt.edge_index(p)
    visible, invisible = (
        tuple(eidx[tuple(sorted(e))] for e in zip(arc, arc[1:]))
        for arc in (cycle[: j + 1], cycle[j:][::-1])
    )
    edges = pt.k_faces(p, 1)
    if edges[visible[0]].vertex_ids not in state.visible:
        visible, invisible = invisible, visible
    for chain in (visible, invisible):
        dirs = [_edge_direction(p, edges[e]) for e in chain]
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if _parallel(dirs[i], dirs[j]):
                    raise GeometryError(
                        "two parallel edges share a visibility chain"
                    )
    return FaceChains(face_id, state.fixed, visible, invisible)


def _certify(p, face_id, other_id, rows):
    """Build a certificate from an exact witness, re-validating it.

    The witness span is built once and validated by
    elementary_transformation. The chains of the face and its partner
    are read off one hull, just before the crossing, at the plane
    orthogonal to the probe's rows there.
    """
    tr = wk.elementary_transformation(p, face_id, other_id, la.Subspace(rows))
    frame = sh.hull_frame(p, tr.minus.plane_at(-tr.epsilon / 2))
    chains = _face_chains(p, face_id, frame)
    other = None
    if other_id is not None:
        other = _face_chains(p, other_id, frame)
    return VisibilityCertificate(face_id, other_id, tuple(rows), chains, other)


def _cells(p, cid, one_per_pair=False):
    """Every valid cell of a class, with the members visible on it.

    Yields (c, members). B is an integer basis of P's orthogonal
    complement, so the directions there are c = B^T l and c . v equals
    l . (B v): the cells are the normal cones of the proper faces G of
    the difference body D of the points B v. D's facets and faces come
    straight from integer gift wrapping (pt.int_facets), with no
    Polytope built; the faces are visited by dimension, then by vertex
    ids. Summing the facet normals through G gives a direction
    inside its cone. A cone that lies in another class's orthogonal
    complement is skipped: bit j of a facet's mask says that its normal
    clears span j, and a cone lies in that complement iff no normal
    through G clears it. Inside any other cone, the sum weighted by the
    powers of t = 1, 2, ... leaves every such complement for all but
    finitely many t. These tests run on l, against the rows B r of the
    other classes (c . r = l . B r). Classes whose projected rows span
    one space share a bit, keyed by the primitive minors of the two rows
    or, when they are parallel, by the primitive row. A class whose
    projected rows span the whole (d-2)-space gets none: the normals
    and the weighted sums are nonzero, since a proper face's normal cone
    is pointed, so they always clear it. members are the ids of the
    class's faces lying in the face of p that maximises or minimises c.

    D is closed under negation, sorted, so the mirror -G of a face G
    has the ids n - 1 - i of G's. Its cell is -1 times G's, valid iff
    G's is, with the same members. one_per_pair skips each G whose
    mirror sorts before it: the one of the pair visited first stays.
    """
    classes = pt.parallel_classes(p)
    cls = classes[cid]
    verts = p.int_vertices()[0]
    basis = [la.primitive(b) for b in la.int_kernel(cls.direction_plane.int_rows)]
    spans = {}
    for k, o in enumerate(classes):
        if k == cid:
            continue
        r1, r2 = (
            tuple(kernels.dot(b, r) for b in basis) for r in o.direction_plane.int_rows
        )
        minors = kernels.plane_minors(r1, r2)
        # the rows are not both zero: o's plane is not P
        rank = 2 if any(minors) else 1
        if rank == len(basis):
            continue
        key = la.primitive(minors) if rank == 2 else la.primitive(r1 if any(r1) else r2)
        spans.setdefault((rank, key), (r1, r2))
    others = list(spans.values())
    ys = {tuple(kernels.dot(b, v) for b in basis) for v in verts}
    points = sorted({tuple(map(sub, y, z)) for y in ys for z in ys})
    _keep, body, by_dim = pt.int_facets(points)
    faces = pt.k_faces(p, 2)

    def cleared(l):
        # bit j: c = B^T l is off the orthogonal complement of other class j
        return sum(
            1 << j
            for j, (r1, r2) in enumerate(others)
            if kernels.dot(l, r1) or kernels.dot(l, r2)
        )

    # each facet's vertex ids, its normal, its mask
    facets = [(frozenset(ids), n, cleared(n)) for ids, n, _off in body]
    full = (1 << len(others)) - 1

    last = len(points) - 1
    for k in range(len(basis)):
        for g in by_dim[k]:
            if one_per_pair and tuple(last - i for i in reversed(g)) < g:
                continue
            cone = []
            seen = 0
            for vids, n, mask in facets:
                if vids.issuperset(g):
                    cone.append(n)
                    seen |= mask
            if seen != full:
                continue
            t = 1
            while True:
                l = tuple(
                    sum(t**i * x for i, x in enumerate(col)) for col in zip(*cone)
                )
                if cleared(l) == full:
                    break
                t += 1
            c = tuple(kernels.dot(l, col) for col in zip(*basis))
            vals = [kernels.dot(c, v) for v in verts]
            ends = (min(vals), max(vals))
            members = tuple(
                fid
                for fid in cls.member_ids
                if any(
                    all(vals[v] == e for v in faces[fid].vertex_ids) for e in ends
                )
            )
            yield c, members


def _witness(p, cid, c):
    """Orthogonal rows of a plane through c where only class cid degenerates.

    The rows are u1 = f1 + q f2 on the class's basis and, in dimension
    4 and up, the rows k_j + t^j f2, with k_j a basis of the complement
    of P + c; all lie in c's orthogonal complement and meet P only in
    u1. Each other class plane holds u1 for at most one q; once u1
    avoids them all, each other class degenerates for at most d - 3
    values of t.

    The search runs on integer rows. With F_i = g_i f_i the class's
    integer rows over their stored multipliers g_i, U1 = g2 F1 + q g1 F2
    is g1 g2 u1 and g2 k_j + t^j F2 is g2 times the row k_j + t^j f2:
    positive multiples, so the same memberships and the same
    degeneracies (shadow.degenerate_classes must list cid alone). U1
    lies in another class's plane exactly when kernels.in_plane finds
    every 3x3 minor of U1 and that plane zero, read off the class's
    cached plane minors. Fraction rows are built for the returned
    candidate only: U1 / (g1 g2), and each tail row over g2.
    """
    classes = pt.parallel_classes(p)
    plane = classes[cid].direction_plane
    F1, F2 = plane.int_rows
    g1, g2 = plane.int_mults
    extra = [la.primitive(k) for k in la.int_kernel((F1, F2, c))]
    others = [o.minors for k, o in enumerate(classes) if k != cid]
    for q in range(len(classes) + 1):
        u1 = tuple(g2 * x + q * g1 * y for x, y in zip(F1, F2))
        if any(kernels.in_plane(u1, m) for m in others):
            continue
        for t in range(len(extra) * len(classes) + 1):
            tail = [
                tuple(g2 * x + t**j * y for x, y in zip(k, F2))
                for j, k in enumerate(extra, 1)
            ]
            if list(sh.degenerate_classes(p, [u1] + tail)) == [cid]:
                return (tuple(Fraction(x, g1 * g2) for x in u1),) + tuple(
                    tuple(Fraction(x, g2) for x in r) for r in tail
                )
    raise GeometryError("witness grid exhausted, polytope data broken")


def _survey(p):
    """A certificate for every visible configuration of one or two faces.

    A configuration's witness grows from the c of the first cell that
    shows it. The cells of a body face and of its mirror show the same
    members, and the first of the pair comes first, so one cell per
    mirror pair is read (_cells' one_per_pair).
    """
    certs = []
    for cid in range(len(pt.parallel_classes(p))):
        found = {}
        for c, conf in _cells(p, cid, one_per_pair=True):
            if len(conf) in (1, 2):
                found.setdefault(conf, c)
        for conf in sorted(found):
            rows = _witness(p, cid, found[conf])
            other = conf[1] if len(conf) == 2 else None
            certs.append(_certify(p, conf[0], other, rows))
    return tuple(certs)


def visible_pairs(p):
    """Certificates for every simultaneously visible face pair, and for
    every face visible alone, class by class."""
    return list(_survey(p))


def _traversal(p, face, flipped):
    cyc = pt.face_cycle(p, face)
    if flipped:
        cyc = cyc[:1] + cyc[:0:-1]
    return cyc


def _signed_area(p, face, frame):
    """Twice the signed area of the face cycle's integer image under the
    integer rows frame of its plane.

    Its sign is that of the area in the plane's Gram coordinates: the
    integer image is their image under the Gram matrix composed with the
    positive row and vertex factors, a map of positive determinant.
    """
    verts = p.int_vertices()[0]
    origin = verts[face.vertex_ids[0]]
    xs = []
    for v in pt.face_cycle(p, face):
        diff = tuple(map(sub, verts[v], origin))
        xs.append(tuple(kernels.dot(a, diff) for a in frame))
    area = sum(
        x1 * y2 - x2 * y1
        for (x1, y1), (x2, y2) in zip(xs, xs[1:] + xs[:1])
    )
    if area == 0:
        raise GeometryError("degenerate face cycle")
    return area


def _cycle_nodes(cyc, fid, oid, eidx):
    out = []
    for x, y in zip(cyc, cyc[1:] + cyc[:1]):
        eid = eidx[tuple(sorted((x, y)))]
        out.append(EdgeTwoFace(eid, fid, oid, 1 if x < y else -1))
    return tuple(out)


def orient(p, cert):
    """Edge-2-faces of a certificate with orientations assigned.

    For a proper pair the slice of p along the affine hull of the two
    faces is a 3-polytope having them as parallel facets; traversing
    one clockwise and the other counterclockwise in a shared frame of
    their common direction plane is the boundary orientation induced
    by outward normals. A lone face gets an arbitrary cyclic choice:
    reversing a traversal negates whole groups, which compensation
    cannot see.
    """
    faces = pt.k_faces(p, 2)
    fid = cert.face_id
    oid = cert.other_id
    if not 0 <= fid < len(faces):
        raise GeometryError(f"certificate names missing face {fid}")
    eidx = pt.edge_index(p)
    f = faces[fid]
    if oid is None:
        return _cycle_nodes(pt.face_cycle(p, f), fid, None, eidx)
    if not 0 <= oid < len(faces) or oid == fid:
        raise GeometryError(f"certificate names missing face {oid}")
    o = faces[oid]
    if f.span != o.span:
        raise GeometryError("certificate faces are not parallel")
    verts = p.int_vertices()[0]
    off = tuple(map(sub, verts[o.vertex_ids[0]], verts[f.vertex_ids[0]]))
    if kernels.rank_int(f.span.int_rows + (off,)) != 3:
        raise GeometryError("face pair does not span a 3-dimensional slice")
    # outward convention in the slice oriented by (frame, offset):
    # the face the offset points away from runs clockwise
    frame = f.span.int_rows
    flip_f = _signed_area(p, f, frame) > 0
    flip_o = _signed_area(p, o, frame) < 0
    return _cycle_nodes(_traversal(p, f, flip_f), fid, oid, eidx) + (
        _cycle_nodes(_traversal(p, o, flip_o), oid, fid, eidx)
    )


def _compensating(p, n1, n2, edges):
    d1 = _edge_direction(p, edges[n1.edge_id])
    d2 = _edge_direction(p, edges[n2.edge_id])
    if not _parallel(d1, d2):
        return False
    # d2 = mu d1, and mu has the sign of d1[i] d2[i]
    i = next(j for j, x in enumerate(d1) if x != 0)
    if n1.orientation * n2.orientation * d1[i] * d2[i] >= 0:
        return False
    if n1.face_id == n2.face_id and n1.partner_id == n2.partner_id:
        return n1.edge_id != n2.edge_id
    return (
        n1.partner_id is not None
        and n1.face_id == n2.partner_id
        and n1.partner_id == n2.face_id
    )


def compensation_partition(p, certs):
    """Perfect compensation pairing of the certificates' edge-2-faces.

    Compensation never crosses face pairs or edge lines, so the nodes
    split into groups of one face pair and one line, where two nodes
    compensate iff they run along the line in opposite senses. A group
    pairs iff as many run forward as backward, the k-th forward node
    with the k-th backward one. Returns a CompensationPairing, or an
    Obstruction naming the first group that does not pair. A face
    holds at most two edges on a line, so a group of more than four
    means broken face data and raises GeometryError.
    """
    nodes = []
    for cert in certs:
        nodes.extend(orient(p, cert))
    nodes = tuple(nodes)
    edges = pt.k_faces(p, 1)
    groups = {}
    for i, n in enumerate(nodes):
        pairkey = (
            (n.face_id,)
            if n.partner_id is None
            else tuple(sorted((n.face_id, n.partner_id)))
        )
        d = _edge_direction(p, edges[n.edge_id])
        # the sense along the line that _direction_key scales to lead 1
        forward = n.orientation * next(x for x in d if x) > 0
        groups.setdefault((pairkey, _direction_key(d)), ([], []))[forward].append(i)
    pairs = []
    for key in sorted(groups):
        backward, forward = groups[key]
        idx = tuple(sorted(backward + forward))
        if len(idx) > 4:
            raise GeometryError(
                f"compensation group of {len(idx)} edge-2-faces, at most 4 expected"
            )
        if len(idx) % 2:
            return Obstruction(
                nodes, idx, "odd number of edge-2-faces in the group"
            )
        if len(forward) != len(backward):
            return Obstruction(
                nodes, idx, "no orientation-compatible pairing in the group"
            )
        pairs.extend(tuple(sorted(pair)) for pair in zip(forward, backward))
    matched = sorted(i for pair in pairs for i in pair)
    if matched != list(range(len(nodes))):
        raise GeometryError("pairing failed to cover every edge-2-face")
    for i, j in pairs:
        if not _compensating(p, nodes[i], nodes[j], edges):
            raise GeometryError("pairing holds a non-compensating pair")
    return CompensationPairing(nodes, tuple(pairs))


def is_equiprojective_combinatorial(p, seed=0):
    """Decide equiprojectivity through the compensation pairing.

    Both answers are firm: a no comes from an obstructed group of exact
    certificates, which compensation cannot leave, and a yes pairs the
    edge-2-faces of every visible configuration. seed only picks the
    plane whose shadow size is reported as k.
    """
    certs = _survey(p)
    outcome = compensation_partition(p, certs)
    if isinstance(outcome, Obstruction):
        return CombinatorialVerdict(False, None, certs, outcome)
    plane = sh.sample_admissible(p, seed, 1)[0]
    return CombinatorialVerdict(True, sh.shadow(p, plane).k, certs, None)


def is_equiprojective_sampled(p, seed=0, trials=200):
    """Monte-Carlo disprover: compare shadow sizes over sampled planes.

    A constant size over all trials supports equiprojectivity; two
    differing planes are an exact disproof, returned as the
    counterexample (plane, k, plane, k). Fewer than two trials, or more
    than shadow.MAX_SAMPLES, raise ParameterError.
    """
    if trials < 2:
        raise ParameterError("need at least two trials to compare")
    planes = sh.sample_admissible(p, seed, trials)
    k0 = None
    first = None
    for w in planes:
        k = len(sh.hull_frame(p, w).hull)
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
    wm = tr.minus.plane_at(-tr.epsilon / 2)
    wp = tr.plus.plane_at(tr.epsilon / 2)
    vis = len(cert.chains.visible)
    inv = len(cert.chains.invisible)
    if cert.other_chains is not None:
        vis += len(cert.other_chains.visible)
        inv += len(cert.other_chains.invisible)
    return BalanceReport(sh.shadow(p, wm).k, sh.shadow(p, wp).k, vis, inv)


def definitions_equivalence_check(p, seed=0):
    """Interior degenerations do not change the shadow size.

    Visits every valid cell (see _cells) where exactly one class
    degenerates but no member face reaches the shadow boundary,
    un-degenerates its witness plane in both directions along the
    complement of witness + face plane and compares the sizes on the
    two admissible sides with the size at the degenerate plane itself.
    With no such cell the check is vacuous (in dimension 3 it always
    is: a facet of its degenerating class always reaches the boundary).
    seed only picks the plane whose size is reported as k_reference.
    """
    classes = pt.parallel_classes(p)
    k_ref = sh.shadow(p, sh.sample_admissible(p, seed, 1)[0]).k
    checked = 0
    events = 0
    matches = True
    for cid in range(len(classes)):
        for c, members in _cells(p, cid):
            checked += 1
            if members:
                continue
            events += 1
            rows = _witness(p, cid, c)
            span = la.Subspace(rows)
            # the witness meets the class plane in its first row
            probe, _v, eps = wk.crossing_probe(p, cid, span, la.primitive(rows[0]))
            k_here = sh.shadow(p, sh.ProjectionPlane.from_orthogonal(span)).k
            for t in (-eps / 2, eps / 2):
                w = probe.plane_at(t)
                if not sh.is_admissible(p, w).ok:
                    raise GeometryError("un-degenerated plane still degenerates")
                if sh.shadow(p, w).k != k_here:
                    matches = False
    return EquivalenceReport(events == 0, checked, events, k_ref, matches)
