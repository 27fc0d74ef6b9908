"""V-representation polytopes with exact face enumeration.

A Polytope is a validated full-dimensional vertex list. Faces are
computed on demand and cached: facets by brute force over supporting
hyperplanes, lower faces by closing facet vertex sets under
intersection, parallel classes of 2-faces by span equality, and
proscribed directions as the pairwise span intersections (edge
directions included).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from . import kernels
from . import linalg as la
from .errors import DimensionError, ParameterError, PolytopeError


class Face:
    """A face given by its vertex ids, affine dimension and span.

    span is the linear subspace parallel to the face (dimension equal
    to the face dimension).
    """

    __slots__ = ("vertex_ids", "dim", "span")

    def __init__(self, vertex_ids, dim, span):
        self.vertex_ids = tuple(sorted(vertex_ids))
        self.dim = dim
        self.span = span

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={self.vertex_ids})"


class ParallelClass:
    """All 2-faces sharing one direction plane.

    int_rows is the direction plane's basis with each row scaled to
    integers by a positive factor, for the exact integer tests.
    """

    __slots__ = ("member_ids", "direction_plane", "int_rows")

    def __init__(self, member_ids, direction_plane):
        self.member_ids = tuple(member_ids)
        self.direction_plane = direction_plane
        self.int_rows = tuple(
            tuple(la.int_row(b)[0]) for b in direction_plane.basis
        )

    def __repr__(self):
        return f"ParallelClass(members={self.member_ids})"


class ProscribedDirection:
    """A line that no admissible orthogonal space may meet.

    line is the canonical primitive integer direction; witness_pair
    holds ids of two 2-faces whose spans intersect exactly in it.
    """

    __slots__ = ("line", "witness_pair")

    def __init__(self, line, witness_pair):
        self.line = tuple(line)
        self.witness_pair = tuple(witness_pair)

    def __repr__(self):
        return f"ProscribedDirection(line={self.line})"


class Polytope:
    """Immutable vertex list plus cached face data. Use build()."""

    def __init__(self, vertices, label, facets):
        self.vertices = vertices
        self.label = label
        self.dim = len(vertices[0])
        self._facets = facets
        self._facet_planes = None
        self._faces_by_dim = {}
        self._classes = None
        self._proscribed = None
        self._int_vertices = None

    def int_vertices(self):
        """Vertices scaled by a common multiplier to integer tuples."""
        if self._int_vertices is None:
            self._int_vertices = int_points(self.vertices)
        return self._int_vertices

    def __repr__(self):
        name = self.label or "polytope"
        return f"Polytope({name}, d={self.dim}, vertices={len(self.vertices)})"


def int_points(points):
    """Rational points scaled by one positive multiplier to integers.

    Returns (tuple of integer tuples, multiplier).
    """
    mult = lcm(*(x.denominator for p in points for x in p))
    return tuple(tuple(int(x * mult) for x in p) for p in points), mult


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [la.sub(p, base) for p in points[1:]]
    return la.rank(rows)


def _int_cross(rows):
    """Integer normal orthogonal to d-1 integer rows (cofactor signs)."""
    d = len(rows[0])
    out = []
    for j in range(d):
        minor = [[r[c] for c in range(d) if c != j] for r in rows]
        term = kernels.det_int(minor)
        out.append(term if j % 2 == 0 else -term)
    return out


def _canonical_facet(normal, offset):
    g = gcd(*normal, offset)
    if g:
        normal = [x // g for x in normal]
        offset //= g
    return normal, offset


def _scan_facets(pts_int):
    """All supporting hyperplanes through d of the given integer points.

    Returns a dict mapping frozenset(tight ids) -> (normal, offset) with
    the point set on the side normal . x <= offset.
    """
    n = len(pts_int)
    d = len(pts_int[0])
    found = {}
    for subset in combinations(range(n), d):
        base = pts_int[subset[0]]
        rows = [
            [pts_int[i][j] - base[j] for j in range(d)] for i in subset[1:]
        ]
        normal = _int_cross(rows)
        if not any(normal):
            continue
        offset = sum(a * b for a, b in zip(normal, base))
        lo, hi = kernels.sign_range(pts_int, normal, offset)
        if lo < 0 and hi > 0:
            continue
        if hi > 0:
            normal = [-x for x in normal]
            offset = -offset
        tight = frozenset(
            i
            for i, p in enumerate(pts_int)
            if sum(a * b for a, b in zip(normal, p)) == offset
        )
        if tight not in found:
            found[tight] = _canonical_facet(normal, offset)
    return found


def _facets_from_candidates(pts_int, normals):
    """Supporting hyperplanes from a caller-supplied complete normal family.

    For each candidate direction both extremes are taken; candidates
    are trusted to cover every facet normal of the hull (the caller
    must guarantee that), tightness rank is still verified later.
    """
    found = {}
    for raw in normals:
        normal = list(la.primitive(raw))
        for sign in (1, -1):
            nv = [sign * x for x in normal]
            hi = max(sum(a * b for a, b in zip(nv, p)) for p in pts_int)
            tight = frozenset(
                i
                for i, p in enumerate(pts_int)
                if sum(a * b for a, b in zip(nv, p)) == hi
            )
            if tight not in found:
                found[tight] = _canonical_facet(nv, hi)
    return found


def build(vertices, label=None, facet_normals=None):
    """Validate a vertex list and return a Polytope.

    Raises PolytopeError on: fewer than d+1 points, affine rank below d,
    duplicate points, or a listed point that is not extreme. When
    facet_normals is given it must be a complete family of outer facet
    normal candidates (up to sign and scale); the quadratic-size scan is
    then skipped. Candidates are individually verified against the
    point set, completeness is the caller's responsibility.
    """
    pts = tuple(la.as_vec(p) for p in vertices)
    if not pts:
        raise PolytopeError("no vertices given")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionError("vertices of mixed dimensions")
    if len(set(pts)) != len(pts):
        raise PolytopeError("duplicate vertex in input")
    if len(pts) < d + 1:
        raise PolytopeError(f"need at least {d + 1} vertices in dimension {d}")
    if _affine_rank(pts) != d:
        raise PolytopeError("vertex set is not full-dimensional")

    pts_int, mult = int_points(pts)

    if facet_normals is None:
        found = _scan_facets(pts_int)
    else:
        found = _facets_from_candidates(pts_int, facet_normals)

    # facet tight sets must be (d-1)-dimensional
    facets = []
    for tight, (normal, offset) in found.items():
        members = [pts[i] for i in sorted(tight)]
        if _affine_rank(members) != d - 1:
            continue
        span = la.span_of(
            [la.sub(q, members[0]) for q in members[1:]], ambient=d
        )
        facets.append((tuple(sorted(tight)), span, tuple(normal), offset))
    facets.sort(key=lambda f: f[0])

    # a listed point is extreme iff its incident facet normals span R^d
    incident = {i: [] for i in range(len(pts))}
    for tight, _, normal, _off in facets:
        for i in tight:
            incident[i].append(normal)
    for i in range(len(pts)):
        if kernels.rank_int(incident[i]) != d:
            raise PolytopeError(f"point {i} is not a vertex of the hull")

    face_objs = tuple(
        Face(tight, d - 1, span) for tight, span, _n, _o in facets
    )
    poly = Polytope(pts, label, face_objs)
    poly._int_vertices = (pts_int, mult)
    poly._facet_planes = tuple(
        (normal, offset) for _t, _s, normal, offset in facets
    )
    return poly


def facets(p):
    """All (d-1)-faces."""
    return p._facets


def _all_proper_faces(p):
    """Vertex sets of every proper face, as a set of frozensets.

    Every proper face is an intersection of facets, so closing the
    facet vertex sets under intersection with facets is exhaustive.
    """
    facet_sets = [frozenset(f.vertex_ids) for f in p._facets]
    known = set(facet_sets)
    queue = list(facet_sets)
    while queue:
        cur = queue.pop()
        for fs in facet_sets:
            nxt = cur & fs
            if nxt and nxt not in known:
                known.add(nxt)
                queue.append(nxt)
    return known


def k_faces(p, k):
    """All k-faces, 0 <= k <= d-1, sorted by vertex ids."""
    if not (0 <= k <= p.dim - 1):
        raise ParameterError(f"k={k} out of range for dimension {p.dim}")
    if k in p._faces_by_dim:
        return p._faces_by_dim[k]
    if k == p.dim - 1:
        p._faces_by_dim[k] = list(p._facets)
        return p._faces_by_dim[k]
    out = []
    for vset in _all_proper_faces(p):
        members = [p.vertices[i] for i in sorted(vset)]
        if _affine_rank(members) != k:
            continue
        span = la.span_of(
            [la.sub(q, members[0]) for q in members[1:]], ambient=p.dim
        )
        out.append(Face(vset, k, span))
    out.sort(key=lambda f: f.vertex_ids)
    p._faces_by_dim[k] = out
    return out


def parallel_classes(p):
    """Partition of the 2-faces by equality of their direction planes."""
    if p._classes is not None:
        return p._classes
    if p.dim < 3:
        p._classes = ()
        return p._classes
    groups = {}
    for idx, face in enumerate(k_faces(p, 2)):
        groups.setdefault(face.span.canonical_key(), []).append(idx)
    classes = []
    for key in sorted(groups):
        members = groups[key]
        plane = k_faces(p, 2)[members[0]].span
        classes.append(ParallelClass(sorted(members), plane))
    p._classes = classes
    return classes


def proscribed_directions(p):
    """Deduplicated lines where pairs of 2-face spans meet.

    Covers Span[F] cap Span[F'] over all non-parallel pairs with
    nonzero intersection; edge directions always appear (each edge lies
    in two non-parallel 2-faces whose spans meet exactly in it).
    """
    if p._proscribed is not None:
        return p._proscribed
    found = {}
    classes = parallel_classes(p)
    for ca, cb in combinations(classes, 2):
        inter = la.intersect(ca.direction_plane, cb.direction_plane)
        if inter.dim != 1:
            continue
        line = la.primitive(inter.basis[0])
        if line not in found:
            found[line] = ProscribedDirection(
                line, (ca.member_ids[0], cb.member_ids[0])
            )
    if p.dim >= 3:
        two_faces = k_faces(p, 2)
        for edge in k_faces(p, 1):
            line = la.primitive(edge.span.basis[0])
            if line in found:
                continue
            holders = [
                i
                for i, f in enumerate(two_faces)
                if set(edge.vertex_ids) <= set(f.vertex_ids)
            ]
            # two distinct 2-faces through one edge cannot be parallel
            found[line] = ProscribedDirection(line, (holders[0], holders[1]))
    out = [found[k] for k in sorted(found)]
    p._proscribed = out
    return out


def face_cycle(p, face):
    """Vertex ids of a 2-face in boundary-cycle order.

    The cycle starts at the smallest vertex id; direction is not
    specified here (callers orient it).
    """
    if face.dim != 2:
        raise ParameterError("face_cycle needs a 2-face")
    inside = set(face.vertex_ids)
    adj = {v: [] for v in face.vertex_ids}
    for edge in k_faces(p, 1):
        a, b = edge.vertex_ids
        if a in inside and b in inside:
            adj[a].append(b)
            adj[b].append(a)
    for v, nb in adj.items():
        if len(nb) != 2:
            raise PolytopeError(f"2-face boundary broken at vertex {v}")
    start = min(inside)
    cycle = [start]
    prev = None
    cur = start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    return cycle


def face_edges(p, face):
    """Edges of p lying inside the given face, as Face objects."""
    inside = set(face.vertex_ids)
    return [
        e for e in k_faces(p, 1) if set(e.vertex_ids) <= inside
    ]


def to_json_dict(p):
    return {
        "dim": p.dim,
        "label": p.label or "",
        "vertices": [[la.rat_str(x) for x in v] for v in p.vertices],
    }


def from_json_dict(data):
    try:
        verts = [
            tuple(la.parse_rat(x) for x in row) for row in data["vertices"]
        ]
        label = data.get("label") or None
        dim = int(data["dim"])
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"bad polytope payload: {exc}") from exc
    if verts and len(verts[0]) != dim:
        raise ParameterError("dim field disagrees with vertex length")
    return build(verts, label=label)


def apply_isometry(p, matrix):
    """Polytope with every vertex mapped by an invertible linear map.

    Vertex order is preserved, so face vertex ids carry over, and the
    face lattice is transported instead of recomputed: only the face
    spans change.
    """
    moved = tuple(la.matvec(matrix, v) for v in p.vertices)
    new_facets = tuple(
        Face(
            f.vertex_ids,
            f.dim,
            la.span_of([la.matvec(matrix, b) for b in f.span.basis], ambient=p.dim),
        )
        for f in p._facets
    )
    return Polytope(moved, p.label, new_facets)
