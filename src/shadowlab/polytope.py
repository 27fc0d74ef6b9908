"""V-representation polytopes with exact face enumeration.

A Polytope is a validated full-dimensional vertex list: build() takes
the vertices themselves, hull() any point cloud, of which it keeps the
vertices. Both find the face lattice one way, int_facets, by gift
wrapping on integer coordinates (Chand and Kapur 1970; Swart 1985):
from one facet, each ridge is pivoted to the facet on its other side,
and a facet's ridges are the facets of its own point set, found the
same way one dimension down, starting from the ridge the facet was
entered by. The recursion ends in closed form at dimension 2 or below:
the extremes of a line, the edges of a planar hull. The work grows
with the number of faces, not with the C(n, d) subsets of n points. A
centrally symmetric cloud (every cube, zonotope and difference body)
is wrapped centred at the origin, where each facet found brings its
mirror. The recursion's memo holds each face's own facets, so the
faces of every dimension are read off it level by level. int_facets
needs no Polytope, so callers that only want the facets and faces of
an integer point set (the decider's difference bodies) call it
directly.
A Polytope stores its face ids by dimension and its facets' planes.
The rest is computed on demand and cached: every Face and its span in
k_faces (the one builder), parallel classes of 2-faces by span
equality, proscribed directions as the pairwise span intersections,
2-face cycles, each the planar hull of its polygon (face_cycle), and
each vertex's graph neighbours (neighbours).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, sub

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

    minors holds the 2x2 minors of the plane's integer rows
    (kernels.plane_minors), the class side of every degeneracy test.
    """

    __slots__ = ("member_ids", "direction_plane", "minors")

    def __init__(self, member_ids, direction_plane):
        self.member_ids = tuple(member_ids)
        self.direction_plane = direction_plane
        self.minors = kernels.plane_minors(*direction_plane.int_rows)

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
    """Immutable vertex list plus cached face data. Use build() or hull().

    Facets are stored as vertex ids plus planes; k_faces builds the Faces.
    """

    def __init__(self, vertices, label, int_vertices, face_ids, facet_planes):
        self.vertices = vertices
        self.label = label
        self.dim = len(vertices[0])
        self._int_vertices = int_vertices
        # vertex ids of the proper faces, by dimension
        self._face_ids = face_ids
        self._facet_planes = facet_planes
        self._faces_by_dim = {}
        self._classes = None
        self._proscribed = None
        # the walk layer's reference frame (walk.reference_frame)
        self._frame = None
        # edge ids by vertex pair (edge_index)
        self._edge_idx = None
        # each vertex's graph neighbours (neighbours)
        self._neighbours = None
        # 2-face boundary cycles by vertex ids (face_cycle)
        self._cycles = {}

    def int_vertices(self):
        """Vertices scaled by a common multiplier to integer tuples."""
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
    """Affine rank of integer points: the differences from the first
    point are scanned only until d of them are independent."""
    if len(points) <= 1:
        return 0
    base = points[0]
    diffs = (tuple(map(sub, q, base)) for q in points[1:])
    return len(kernels.independent([], diffs, len(base)))


def _canonical_facet(normal, offset):
    """normal and offset divided by their gcd, the normal as a tuple."""
    g = gcd(*normal, offset)
    if g:
        normal = [x // g for x in normal]
        offset //= g
    return tuple(normal), offset


def _below(pts, normal, offset):
    """(id, point, h) for each point strictly below the hyperplane
    normal . x = offset, h = offset - normal . p > 0, in pts order.
    Raises PolytopeError when a point lies above it: the hyperplane
    was to support the points, so the wrap's data are broken."""
    out = []
    for i, p in pts.items():
        h = offset - kernels.dot(normal, p)
        if h:
            if h < 0:
                raise PolytopeError("a point lies above a facet of the gift wrap")
            out.append((i, p, h))
    return out


def _pivot(below, normal, offset, m, mo):
    """Rotate a supporting hyperplane about a codimension-2 flat.

    The hyperplane normal . x = offset supports a set of integer points
    from above, and below lists its points off the hyperplane (_below);
    m . x <= mo holds on its tight points, with equality on the flat.
    Among the points below, the rotation first meets those that
    maximise g / h, g = m . p - mo; candidates are compared by
    cross-multiplying. Returns the new normal and offset, primitive
    together, and the ids met.
    """
    best_g, best_h, met = 0, 0, []
    for i, p, h in below:
        g = kernels.dot(m, p) - mo
        if not met or g * best_h > best_g * h:
            best_g, best_h, met = g, h, [i]
        elif g * best_h == best_g * h:
            met.append(i)
    new = [best_g * a + best_h * b for a, b in zip(normal, m)]
    new, off = _canonical_facet(new, best_g * offset + best_h * mo)
    return new, off, met


def _first_facet(pts):
    """One facet of full-dimensional integer points: (tight ids, normal, offset).

    Starts from the supporting hyperplane -x_0 <= -min x_0 and pivots
    until the tight points have affine rank d-1.
    """
    k = len(next(iter(pts.values())))
    lo = min(p[0] for p in pts.values())
    normal, offset = (-1,) + (0,) * (k - 1), -lo
    tight = [i for i, p in pts.items() if p[0] == lo]
    units = [tuple(int(j == c) for j in range(k)) for c in range(k)]
    while True:
        base = pts[tight[0]]
        diffs = [tuple(map(sub, pts[i], base)) for i in tight[1:]]
        rows = [normal] + [diffs[i] for i in kernels.independent([normal], diffs, k)]
        if len(rows) == k:
            return frozenset(tight), normal, offset
        # a direction orthogonal to the normal and the tight face: the
        # rotation towards it keeps the tight face on the hyperplane
        rows += [units[i] for i in kernels.independent(rows, units, k - 1)]
        m = kernels.generalized_cross(rows)
        below = _below(pts, normal, offset)
        normal, offset, met = _pivot(below, normal, offset, m, kernels.dot(m, base))
        tight += met


def _mirror(ids, n):
    """The ids of the negated points, for n points sorted so that point
    n - 1 - i is minus point i."""
    return frozenset(n - 1 - i for i in ids)


def _mirror_lattice(memo, key, n):
    """Enter in memo the mirror of the face key and of every face below
    it: ids through _mirror, each normal negated, offsets kept."""
    stack = [key]
    while stack:
        key = stack.pop()
        image = _mirror(key, n)
        if image in memo:
            continue
        ridges = memo[key]
        memo[image] = {
            _mirror(r, n): (tuple(-x for x in m), mo) for r, (m, mo) in ridges.items()
        }
        stack.extend(r for r in ridges if r in memo)


def _low_facets(pts, symmetric):
    """Facets of full-dimensional integer points in dimension 1 or 2.

    Same output as _hull_facets, in closed form: in dimension 1 the
    minimum and the maximum; in dimension 2 one facet per edge of the
    strict hull, taken counterclockwise, whose outward normal turns the
    edge direction clockwise. An edge's tight set is every point on its
    line, collinear points included. When the points are symmetric
    (ids 0..n-1, point n - 1 - i minus point i), the hull's second half
    is its first half negated, in the same order, so only the first
    half's edges are scanned for their tight sets.
    """
    if len(next(iter(pts.values()))) == 1:
        lo = min(p[0] for p in pts.values())
        hi = max(p[0] for p in pts.values())
        return {
            frozenset(i for i, p in pts.items() if p[0] == lo): ((-1,), -lo),
            frozenset(i for i, p in pts.items() if p[0] == hi): ((1,), hi),
        }
    cycle = kernels.strict_hull_2d(pts.values())
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    if symmetric:
        edges = edges[: len(edges) // 2]
    found = {}
    for a, b in edges:
        normal, offset = _canonical_facet(
            (b[1] - a[1], a[0] - b[0]), a[0] * b[1] - a[1] * b[0]
        )
        n0, n1 = normal
        tight = frozenset(i for i, (x, y) in pts.items() if n0 * x + n1 * y == offset)
        found[tight] = (normal, offset)
    if symmetric:
        for tight, ((n0, n1), offset) in list(found.items()):
            found[_mirror(tight, len(pts))] = ((-n0, -n1), offset)
    return found


def _ridge_seed(ridge, n0, o0, normal, offset, c):
    """The ridge between the facets n0 . x <= o0 and normal . x <=
    offset as a facet of the second one's points with coordinate c
    dropped, for _hull_facets' seed: (tight ids, normal, offset). On
    that facet x_c = (offset - sum of normal_j x_j, j != c) / normal_c,
    which turns n0 . x <= o0 into g . x <= g0 with g_j = s n0_j -
    n0_c normal_j and g0 = s o0 - n0_c offset, s = normal_c, both
    negated when s < 0."""
    s, t = normal[c], n0[c]
    g = [s * a - t * b for j, (a, b) in enumerate(zip(n0, normal)) if j != c]
    g0 = s * o0 - t * offset
    if s < 0:
        g, g0 = [-x for x in g], -g0
    return (ridge, *_canonical_facet(g, g0))


def _hull_facets(pts, memo, symmetric=False, seed=None):
    """Facets of full-dimensional integer points, by gift wrapping.

    pts maps point ids to distinct integer coordinates. Returns a dict
    mapping frozenset(tight ids) -> (normal, offset), with every point
    on the side normal . x <= offset and normal, offset primitive
    together. A facet's ridges are the facets of its own points with
    the last coordinate where its normal is nonzero dropped. That choice
    keeps the lexicographically first coordinates on which the face
    projects one to one, whichever facet it is reached from, so memo
    keys the results by id set alone: every ridge is met from two
    facets. Each popped facet lists its points below it once (_below),
    and every ridge's pivot reads that list. The recursion ends in
    dimension 2 or 1, in closed form.

    The wrap starts from seed, a facet (tight ids, normal, offset)
    when one is known, else from _first_facet. A facet found by a
    pivot seeds its own points' wrap with the ridge it was entered by
    (_ridge_seed), so _first_facet runs once per recursion level.

    symmetric says that the ids are 0..n-1 with point n - 1 - i minus
    point i. Then each facet found brings its mirror (ids through
    _mirror, normal negated, same offset), which is never popped: its
    memo sub-lattice is the popped facet's, mirrored (_mirror_lattice),
    and the mirror of each pivoted ridge counts as pivoted, since the
    facets on its two sides are the mirrors of the pivot's two.
    """
    key = frozenset(pts)
    if key in memo:
        return memo[key]
    k = len(next(iter(pts.values())))
    if k <= 2:
        memo[key] = _low_facets(pts, symmetric)
        return memo[key]
    n = len(pts)
    tight, normal, offset = seed or _first_facet(pts)
    found = {tight: (normal, offset)}
    if symmetric:
        found[_mirror(tight, n)] = (tuple(-x for x in normal), offset)
    # each facet to pop, with the ridge it was entered by and the facet
    # on that ridge's other side
    queue = [(tight, None)]
    pivoted = set()
    while queue:
        tight, entry = queue.pop()
        normal, offset = found[tight]
        c = max(j for j in range(k) if normal[j])
        face = {i: p[:c] + p[c + 1 :] for i, p in pts.items() if i in tight}
        # a planar facet's wrap is closed-form and takes no seed
        sub_seed = _ridge_seed(*entry, normal, offset, c) if entry and k > 3 else None
        ridges = _hull_facets(face, memo, seed=sub_seed)
        if symmetric:
            _mirror_lattice(memo, tight, n)
        below = _below(pts, normal, offset)
        for ridge, (m, mo) in ridges.items():
            # the facet on the other side of a ridge is found once
            if ridge in pivoted:
                continue
            pivoted.add(ridge)
            if symmetric:
                pivoted.add(_mirror(ridge, n))
            nxt, off, met = _pivot(below, normal, offset, m[:c] + (0,) + m[c:], mo)
            nxt_tight = ridge.union(met)
            if nxt_tight not in found:
                found[nxt_tight] = (nxt, off)
                queue.append((nxt_tight, (ridge, normal, offset)))
                if symmetric:
                    found[_mirror(nxt_tight, n)] = (tuple(-x for x in nxt), off)
    memo[key] = found
    return found


def int_facets(points):
    """Vertices, facets and faces of the hull of distinct integer points.

    Returns (keep, facets, faces). A point is a vertex iff the normals
    of the facets through it span R^d; keep lists the vertex ids in
    order. facets is the sorted list of (vertex ids, normal, offset),
    with normal . x <= offset on every point and normal, offset
    primitive together. faces maps each k = 0..d-1 to the sorted vertex
    id tuples of the k-faces, read off the wrap's memo: it keys the
    facets of the hull, and of each face of dimension 2 or more, by
    that face's tight set, so the tight sets one level down are the
    facets of those one level up. All ids are sorted and name vertices
    only. Raises PolytopeError when the points are not
    full-dimensional.

    A centrally symmetric cloud is wrapped mirrored. Sorted, its first
    and last points sum to s, twice its centre. When the points are
    sorted already and s = 0, as for the difference bodies of equiproj,
    point n - 1 - i is minus point i: the wrap mirrors each facet it
    finds (_hull_facets) and the vertex test runs on the first half of
    the ids only, since point n - 1 - i is a vertex iff point i is.
    Any other centrally symmetric cloud goes through its sorted copy
    centred at the origin (_centred).
    """
    d = len(points[0])
    if _affine_rank(points) != d:
        raise PolytopeError("vertex set is not full-dimensional")
    n = len(points)
    order = sorted(range(n), key=points.__getitem__)
    s = tuple(map(add, points[order[0]], points[order[-1]]))
    symmetric = all(
        tuple(map(add, points[order[i]], points[order[n - 1 - i]])) == s
        for i in range(1, (n + 1) // 2)
    )
    if symmetric and (any(s) or order != list(range(n))):
        return _centred(points, order, s)
    memo = {}
    found = _hull_facets(dict(enumerate(points)), memo, symmetric)
    incident = [[] for _ in points]
    for tight, (normal, _off) in found.items():
        for i in tight:
            incident[i].append(normal)
    half = (n + 1) // 2 if symmetric else n
    keep = [i for i in range(half) if kernels.rank_int(incident[i]) == d]
    if symmetric:
        keep += [n - 1 - i for i in reversed(keep) if n - 1 - i >= half]
    kept = set(keep)
    facets = sorted(
        (tuple(sorted(kept.intersection(t))), normal, off)
        for t, (normal, off) in found.items()
    )
    # the memo is keyed by whole tight sets, points inside faces included
    faces, k, level = {}, d - 1, set(found)
    while level:
        faces[k] = sorted(tuple(sorted(kept.intersection(t))) for t in level)
        level = {r for t in level for r in memo.get(t, ())}
        k -= 1
    faces[0] = [(i,) for i in keep]
    return keep, facets, faces


def _centred(points, order, s):
    """int_facets of a centrally symmetric cloud through its copy f x - t,
    t = f s / 2 (f = 1 when s is even, else 2), in sorted order: that
    copy is sorted with s = 0. Its ids map back through order, and its
    facet m . y <= mo is f m . x <= mo + m . t."""
    f = 1 if all(x % 2 == 0 for x in s) else 2
    t = tuple(f * x // 2 for x in s)
    keep, facets, faces = int_facets(
        [tuple(f * x - y for x, y in zip(points[i], t)) for i in order]
    )

    def back(ids):
        return tuple(sorted(order[i] for i in ids))

    facets = sorted(
        (back(ids), *_canonical_facet([f * x for x in m], mo + kernels.dot(m, t)))
        for ids, m, mo in facets
    )
    faces = {k: sorted(map(back, ids_k)) for k, ids_k in faces.items()}
    return sorted(order[i] for i in keep), facets, faces


def hull(points, label=None):
    """The convex hull of a point cloud, as a Polytope.

    The points are validated as build() validates them and their
    integer multiples go through int_facets: the vertices are kept, in
    input order, and the other points dropped. Raises PolytopeError on:
    fewer than d+1 points, affine rank below d, or duplicate points.
    """
    pts = tuple(la.as_vec(p) for p in points)
    if not pts:
        raise PolytopeError("no vertices given")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionError("vertices of mixed dimensions")
    if len(set(pts)) != len(pts):
        raise PolytopeError("duplicate vertex in input")
    if len(pts) < d + 1:
        raise PolytopeError(f"need at least {d + 1} vertices in dimension {d}")
    pts_int, mult = int_points(pts)
    keep, facets, faces = int_facets(pts_int)
    planes = [(normal, off) for _ids, normal, off in facets]
    if len(keep) < len(pts):
        # renumber the vertices (in order, so the faces stay sorted)
        # and move the planes from the cloud's multiplier to theirs: a
        # dropped point may carry the largest denominator
        new_id = {i: j for j, i in enumerate(keep)}
        pts = tuple(pts[i] for i in keep)
        pts_int, v_mult = int_points(pts)
        faces = {
            k: [tuple(new_id[i] for i in ids) for ids in ids_k]
            for k, ids_k in faces.items()
        }
        planes = [
            _canonical_facet([mult * x for x in normal], v_mult * off)
            for normal, off in planes
        ]
        mult = v_mult
    return Polytope(pts, label, (pts_int, mult), faces, tuple(planes))


def build(vertices, label=None):
    """Validate a vertex list and return a Polytope.

    This is hull() on the list, which must lose no point: raises
    PolytopeError on fewer than d+1 points, affine rank below d,
    duplicate points, or a listed point that is not a vertex.
    """
    vertices = tuple(vertices)
    poly = hull(vertices, label)
    if len(poly.vertices) < len(vertices):
        kept = set(poly.vertices)
        i = next(i for i, q in enumerate(vertices) if la.as_vec(q) not in kept)
        raise PolytopeError(f"point {i} is not a vertex of the hull")
    return poly


def facets(p):
    """All (d-1)-faces."""
    return k_faces(p, p.dim - 1)


def facet_planes(p):
    """(normal, offset) of each facet, in facet order, on int_vertices().

    Integer and primitive together, with normal . x <= offset on p.
    """
    return p._facet_planes


def k_faces(p, k):
    """All k-faces, 0 <= k <= d-1, sorted by vertex ids.

    The one builder of Face objects and their spans; raises
    PolytopeError when a span is not k-dimensional, which also checks
    the grading of the face ids.
    """
    if not (0 <= k <= p.dim - 1):
        raise ParameterError(f"k={k} out of range for dimension {p.dim}")
    if k in p._faces_by_dim:
        return p._faces_by_dim[k]
    pts = p.int_vertices()[0]
    out = []
    for ids in p._face_ids[k]:
        base = pts[ids[0]]
        diffs = [tuple(map(sub, pts[i], base)) for i in ids[1:]]
        span = la.span_of(diffs, ambient=p.dim)
        if span.dim != k:
            raise PolytopeError(f"face {ids} is not {k}-dimensional")
        out.append(Face(ids, k, span))
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
    nonzero intersection. Edge directions are among them: two 2-faces
    through one edge cannot be parallel, so their class planes meet
    exactly in its line.
    """
    if p._proscribed is not None:
        return p._proscribed
    found = {}
    classes = parallel_classes(p)
    for ca, cb in combinations(classes, 2):
        line = la.int_intersection(ca.direction_plane, cb.direction_plane)
        if len(line) != 1:
            continue
        line = la.primitive(line[0])
        if line not in found:
            found[line] = ProscribedDirection(
                line, (ca.member_ids[0], cb.member_ids[0])
            )
    out = [found[k] for k in sorted(found)]
    p._proscribed = out
    return out


def edge_index(p):
    """Edge ids by vertex pair, cached on the polytope."""
    if p._edge_idx is None:
        p._edge_idx = {e.vertex_ids: i for i, e in enumerate(k_faces(p, 1))}
    return p._edge_idx


def neighbours(p):
    """Each vertex's neighbours in the graph of p, read off its edges,
    as a tuple of vertex id tuples in vertex order, cached on the
    polytope."""
    if p._neighbours is None:
        adj = [[] for _ in p.vertices]
        for e in k_faces(p, 1):
            a, b = e.vertex_ids
            adj[a].append(b)
            adj[b].append(a)
        p._neighbours = tuple(map(tuple, adj))
    return p._neighbours


def face_cycle(p, face):
    """Vertex ids of a 2-face in boundary-cycle order, as a tuple cached
    on the polytope: from the smallest id toward its smaller neighbour.

    A 2-face is a strictly convex polygon, ordered by the one planar
    hull (kernels.strict_hull_2d) of its vertices' images (f1 . v,
    f2 . v) under its span's integer rows. Their Gram matrix is
    nonsingular, so the map is one to one on the face's plane, and
    every vertex of p in the face is a vertex of the polygon: the strict
    hull keeps every id, in cyclic order. Fewer ids mean broken data.
    """
    if face.dim != 2:
        raise ParameterError("face_cycle needs a 2-face")
    cycle = p._cycles.get(face.vertex_ids)
    if cycle is not None:
        return cycle
    verts = p.int_vertices()[0]
    f1, f2 = face.span.int_rows
    ids = {(kernels.dot(f1, verts[v]), kernels.dot(f2, verts[v])): v for v in face.vertex_ids}
    ring = [ids[q] for q in kernels.strict_hull_2d(ids)]
    if len(ring) != len(face.vertex_ids):
        raise PolytopeError(f"2-face {face.vertex_ids} is not a convex polygon")
    i = ring.index(face.vertex_ids[0])
    ring = ring[i:] + ring[:i]
    if ring[1] > ring[-1]:
        ring[1:] = ring[:0:-1]
    cycle = p._cycles[face.vertex_ids] = tuple(ring)
    return cycle


def face_edges(p, face):
    """Edges of p lying inside the given face, as Face objects in edge
    id order: the face's vertex pairs looked up in edge_index."""
    idx = edge_index(p)
    pairs = combinations(face.vertex_ids, 2)
    edges = k_faces(p, 1)
    return [edges[i] for i in sorted(idx[ab] for ab in pairs if ab in idx)]


def apply_isometry(p, matrix):
    """Polytope with every vertex mapped by a rational orthogonal map.

    matrix = M / den with M M^T = den^2 I, else ParameterError. Vertex
    order is preserved, so the face ids carry over. Only the vertices
    and the facet planes move, both on integers: the integer vertices
    to M times them, a normal n to M n with the offset read off a moved
    vertex; no span is built. Parallel classes are not carried over,
    since their order follows the moved spans.
    """
    m, den = int_points(matrix)
    d = p.dim
    gram = [[kernels.dot(a, b) for b in m] for a in m]
    if gram != [[den * den if i == j else 0 for j in range(d)] for i in range(d)]:
        raise ParameterError("apply_isometry needs a rational orthogonal matrix")
    ints, mult = p.int_vertices()
    rows = [[kernels.dot(r, v) for r in m] for v in ints]
    # dividing out the gcd leaves int_points' minimal multiplier
    g = gcd(den * mult, *(x for r in rows for x in r))
    pts = tuple(tuple(x // g for x in r) for r in rows)
    mult = den * mult // g
    moved = tuple(tuple(Fraction(x, mult) for x in r) for r in pts)
    planes = []
    for ids, (n, _off) in zip(p._face_ids[d - 1], p._facet_planes):
        normal = [kernels.dot(row, n) for row in m]
        planes.append(_canonical_facet(normal, kernels.dot(normal, pts[ids[0]])))
    return Polytope(moved, p.label, (pts, mult), p._face_ids, tuple(planes))
