"""Independent brute-force oracles used only by the tests.

These deliberately use different algorithms (and sympy where convenient)
from the library under test: subspaces build their Fraction basis at
construction (the former eager Subspace), determinants, ranks and
Cayley rotations go through sympy, echelon forms through Gauss-Jordan
on Fractions and through sympy, the integer det, rank and echelon form
also through the two separate Bareiss loops the library once kept,
facets come from hyperplane fitting over all d-subsets with nullspaces
and from the plain gift wrap (every facet popped, every ridge pivoted,
no mirrors),
k-faces from intersections over all facet subsets, the face lattice
from closing the facets under intersection, planar hulls from pointwise extremeness tests plus an
angle sort, 2-face cycles from a walk of adjacency lists over a scan of every
edge and their sense from a shoelace over every vertex, the
compensation pairing from an exhaustive search of each group's
matchings, visible configurations from a seeded search over
random witness planes, walk degeneration polynomials from rational
determinants at d - 1 times and from per-class integer dot products at
the ends and interior times (the three-point scan), walk segments from
Fraction row arithmetic, the walk planner's crossings, nudges,
staircase steps and contractions from Fraction echelon rows (the
former rref) and Fraction row arithmetic, degenerate classes from one stacked integer
determinant per class, sampled plane bases from Fraction Subspaces, the
cells of a class from its difference body built as a Polytope,
witnesses, crossing probes, elementary transformations and certificates from
Fraction rows and Fraction kernel bases, the chain split's slide from
Fraction rows and a Fraction frame of both sliding rows, the visibility chains of a
2-face from visible-edge degrees and a path traced through its vertex
pairs, shadow boundary containment from a scan of every hull edge, the
estranged face subset by backtracking, a walk's junction spans and
the crossing search's tests (its eta pre-filter, its shared junction
span) as the walk layer once made them, from Subspaces, a walk's
event log from a second scan of every rescaled segment on the original
polytope, and a walk's rank losses from rank_int at sampled times.
"""

import random
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import sub

import sympy

from shadowlab import kernels
from shadowlab import linalg as la
from shadowlab import polytope as pt
from shadowlab import equiproj as eq
from shadowlab import shadow as sh
from shadowlab import walk as wk
from shadowlab.errors import (
    DegenerateBasisError,
    DimensionError,
    GeometryError,
    InadmissiblePlaneError,
    ParameterError,
    PolytopeError,
    WalkError,
)


class OracleSubspace:
    """The former eager Subspace: the Fraction basis is built at
    construction and int_rows and int_scale are read off it by
    la.int_matrix; the canonical key is the Fraction Gauss-Jordan form
    (oracle_rref)."""

    def __init__(self, basis, ambient=None):
        basis = tuple(la.as_vec(v) for v in basis)
        if basis:
            width = len(basis[0])
            if any(len(v) != width for v in basis):
                raise DimensionError("basis vectors of mixed lengths")
            if ambient not in (None, width):
                raise DimensionError(f"basis vectors do not have length {ambient}")
            ambient = width
        elif ambient is None:
            raise DimensionError("zero subspace needs an ambient dimension")
        self.int_rows, self.int_scale = la.int_matrix(basis)
        if kernels.rank_int(self.int_rows) != len(basis):
            raise DegenerateBasisError("basis is linearly dependent")
        self.basis = basis
        self.ambient = ambient

    @property
    def dim(self):
        return len(self.basis)

    def canonical_key(self):
        return oracle_rref(self.basis)[0]

    def __hash__(self):
        return hash((self.ambient, self.canonical_key()))


def oracle_det(rows):
    return Fraction(sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).det())


def oracle_rank(rows):
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def oracle_eliminate(rows, ncols):
    """Forward Bareiss elimination of integer rows of width ncols.

    Returns (rank, sign, last): sign is that of the row swaps and last
    the last pivot, which for a square matrix of full rank is sign times
    its determinant. Every update divides exactly by the previous pivot.
    This was the library's det and rank loop before one loop also served
    its echelon form.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    for r in m:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pivot = m[rank][col]
        rk = m[rank]
        for i in range(rank + 1, nrows):
            ri = m[i]
            mic = ri[col]
            for j in range(col + 1, ncols):
                q, rem = divmod(pivot * ri[j] - mic * rk[j], prev)
                if rem:
                    raise AssertionError("fraction-free update was not exact")
                ri[j] = q
            ri[col] = 0
        prev = pivot
        rank += 1
    return rank, sign, prev


def oracle_det_int(rows):
    """det_int on oracle_eliminate, as the library had it."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    rank, sign, last = oracle_eliminate(rows, n)
    return sign * last if rank == n else 0


def oracle_rank_int(rows):
    """rank_int on oracle_eliminate, as the library had it."""
    if not rows:
        return 0
    return oracle_eliminate(rows, len(rows[0]))[0]


def oracle_rref_int(rows):
    """Fraction-free Gauss-Jordan form of a rectangular integer matrix.

    Returns (reduced, pivots, den): reduced / den is the reduced row
    echelon form without its zero rows, every pivot entry of reduced is
    den, and each Bareiss step divides exactly by the previous pivot.
    This was the library's rref_int, a loop of its own.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    pivots = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        rk = m[rank]
        pivot = rk[col]
        for ri in m:
            if ri is rk:
                continue
            mic = ri[col]
            for j in range(ncols):
                q, rem = divmod(pivot * ri[j] - mic * rk[j], prev)
                if rem:
                    raise AssertionError("fraction-free update was not exact")
                ri[j] = q
        prev = pivot
        pivots.append(col)
    return tuple(tuple(r) for r in m[: len(pivots)]), tuple(pivots), prev


def oracle_rref(m):
    """Reduced row echelon form by Gauss-Jordan on Fractions.

    Returns (nonzero rows, pivot columns). This was the library's rref
    before it reduced fraction-free on integers.
    """
    rows = [[Fraction(x) for x in r] for r in m]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        pr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def rref(m):
    """The reduced row echelon form of rational rows as the library's
    linalg.rref once built it: kernels.rref_int of the rows scaled to
    integers, read back as Fractions. Returns (nonzero rows, pivot
    columns)."""
    reduced, pivots, den = kernels.rref_int([la.int_row(r)[0] for r in m])
    return tuple(tuple(Fraction(x, den) for x in r) for r in reduced), pivots


def oracle_cayley_rotation(d, i, j, t):
    """(I + S)(I - S)^-1 through sympy's inverse, for the skew S whose
    only nonzero entries are S_ij = t and S_ji = -t."""
    s = sympy.zeros(d, d)
    s[i, j], s[j, i] = sympy.Rational(t), -sympy.Rational(t)
    ident = sympy.eye(d)
    q = (ident + s) * (ident - s).inv()
    return tuple(tuple(Fraction(x) for x in q.row(r)) for r in range(d))


def oracle_sympy_rref(m):
    """sympy's reduced row echelon form: (nonzero rows, pivot columns)."""
    red, pivots = sympy.Matrix([[sympy.Rational(x) for x in r] for r in m]).rref()
    rows = tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in red.row(i))
        for i in range(len(pivots))
    )
    return rows, tuple(pivots)


def oracle_edge_direction(p, edge):
    """An edge's direction on the rational vertices, as the
    compensation pairing took it before it worked on integer vertices."""
    a, b = edge.vertex_ids
    return la.sub(p.vertices[b], p.vertices[a])


def oracle_direction_key(d):
    """The compensation pairing's old group key of an edge direction:
    the canonical key of its span, here the reduced row echelon form by
    Gauss-Jordan on Fractions."""
    return oracle_rref([d])[0]


def oracle_parallel(d1, d2):
    """The compensation pairing's old parallelism test: the two
    directions have rank one."""
    return la.rank((d1, d2)) == 1


def oracle_compensating(p, n1, n2, edges):
    """The old compensation test of two edge-2-faces: rational edge
    directions, the rank test, and the sign of the Fraction mu with
    d2 = mu d1."""
    d1 = oracle_edge_direction(p, edges[n1.edge_id])
    d2 = oracle_edge_direction(p, edges[n2.edge_id])
    if not oracle_parallel(d1, d2):
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


def _oracle_matchings(idx):
    """Every perfect matching of idx, the first node's partner first."""
    if not idx:
        yield ()
        return
    first = idx[0]
    for j in range(1, len(idx)):
        rest = idx[1:j] + idx[j + 1 :]
        for tail in _oracle_matchings(rest):
            yield ((first, idx[j]),) + tail


def oracle_compensation_partition(p, certs):
    """The compensation pairing by exhaustive matching, as the package
    built it before it counted senses: the nodes of eq.orient grouped by
    face pair and Fraction direction key, each group in key order
    matched by the first perfect matching whose pairs pass
    oracle_compensating. Returns a CompensationPairing, or the
    Obstruction of the first odd group or group with no such matching."""
    nodes = tuple(n for cert in certs for n in eq.orient(p, cert))
    edges = pt.k_faces(p, 1)
    groups = {}
    for i, n in enumerate(nodes):
        pairkey = tuple(sorted({n.face_id, n.partner_id} - {None}))
        d = oracle_edge_direction(p, edges[n.edge_id])
        groups.setdefault((pairkey, oracle_direction_key(d)), []).append(i)
    pairs = []
    for key in sorted(groups):
        idx = tuple(groups[key])
        if len(idx) % 2:
            return eq.Obstruction(
                nodes, idx, "odd number of edge-2-faces in the group"
            )
        cand = next(
            (
                m
                for m in _oracle_matchings(idx)
                if all(oracle_compensating(p, nodes[i], nodes[j], edges) for i, j in m)
            ),
            None,
        )
        if cand is None:
            return eq.Obstruction(
                nodes, idx, "no orientation-compatible pairing in the group"
            )
        pairs.extend(cand)
    return eq.CompensationPairing(nodes, tuple(pairs))


def oracle_solve_gram(basis, v):
    """Projection coordinates via sympy's linear solver."""
    b = sympy.Matrix([[sympy.Rational(x) for x in row] for row in basis])
    g = b * b.T
    rhs = b * sympy.Matrix([[sympy.Rational(x)] for x in v])
    sol = g.solve(rhs)
    return tuple(Fraction(x) for x in sol)


def oracle_facets(points):
    """All facets of a full-dimensional polytope, as vertex id frozensets.

    Fits a hyperplane through every d-subset via a sympy nullspace and
    keeps the ones supporting the point set.
    """
    d = len(points[0])
    pts = [tuple(Fraction(x) for x in p) for p in points]
    facets = set()
    for subset in combinations(range(len(pts)), d):
        base = pts[subset[0]]
        rows = [[pts[i][j] - base[j] for j in range(d)] for i in subset[1:]]
        m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
        ns = m.nullspace()
        if len(ns) != 1:
            continue
        normal = tuple(Fraction(x) for x in ns[0])
        offset = sum(a * b for a, b in zip(normal, base))
        sides = [sum(a * b for a, b in zip(normal, p)) - offset for p in pts]
        if all(s <= 0 for s in sides) or all(s >= 0 for s in sides):
            facets.add(frozenset(i for i, s in enumerate(sides) if s == 0))
    return facets


def oracle_k_faces(points, k, facets=None):
    """Vertex sets of all k-faces, generated from vertex (k+1)-subsets.

    Every k-face contains k+1 affinely independent vertices, and equals
    the intersection of all facets containing them. So intersecting the
    facets over each (k+1)-subset of vertices and filtering by affine
    rank k is exhaustive, and the candidate generation (vertex subsets,
    not pairwise facet closure) is intentionally different from the
    library's algorithm.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if facets is None:
        facets = oracle_facets(points)
    facets = list(facets)
    candidates = set()
    for subset in combinations(range(len(pts)), k + 1):
        group = [f for f in facets if f.issuperset(subset)]
        if group:
            candidates.add(frozenset.intersection(*group))
    out = set()
    for c in candidates:
        members = [pts[i] for i in sorted(c)]
        base = members[0]
        rows = [[q[j] - base[j] for j in range(len(base))] for q in members[1:]]
        if oracle_rank(rows) == k:
            out.add(c)
    return out


def oracle_faces_by_dim(points, facet_sets):
    """Vertex ids of every proper face of the hull of integer points, by
    dimension, as polytope.int_facets returns them: the former closure.

    facet_sets are the facets' vertex id sets. Every proper face is an
    intersection of facets, so closing the facet vertex sets under
    intersection with facets is exhaustive. A facet has dimension d-1;
    any other face, the affine rank of its points. Returns a dict
    mapping each dimension to the faces' sorted id tuples, in sorted
    order.
    """
    facet_sets = list(set(map(frozenset, facet_sets)))
    known = set(facet_sets)
    queue = list(facet_sets)
    while queue:
        cur = queue.pop()
        for fs in facet_sets:
            nxt = cur & fs
            if nxt and nxt not in known:
                known.add(nxt)
                queue.append(nxt)
    top = len(points[0]) - 1
    out = {top: []}
    for vset in known:
        ids = tuple(sorted(vset))
        if vset in facet_sets:
            out[top].append(ids)
        else:
            base = points[ids[0]]
            rank = kernels.rank_int([tuple(map(sub, points[i], base)) for i in ids])
            out.setdefault(rank, []).append(ids)
    for faces in out.values():
        faces.sort()
    return out


def _oracle_canonical(normal, offset):
    g = gcd(*normal, offset)
    return tuple(x // g for x in normal), offset // g


def _oracle_pivot(pts, normal, offset, m, mo):
    """The plain wrap's pivot: two dot products per point per ridge."""
    best_g, best_h, met = 0, 0, []
    for i, p in pts.items():
        h = offset - kernels.dot(normal, p)
        if not h:
            continue
        g = kernels.dot(m, p) - mo
        if not met or g * best_h > best_g * h:
            best_g, best_h, met = g, h, [i]
        elif g * best_h == best_g * h:
            met.append(i)
    new = [best_g * a + best_h * b for a, b in zip(normal, m)]
    new, off = _oracle_canonical(new, best_g * offset + best_h * mo)
    return new, off, met


def _oracle_first_facet(pts):
    k = len(next(iter(pts.values())))
    lo = min(p[0] for p in pts.values())
    normal, offset = (-1,) + (0,) * (k - 1), -lo
    tight = [i for i, p in pts.items() if p[0] == lo]
    units = [tuple(int(j == c) for j in range(k)) for c in range(k)]
    while True:
        base = pts[tight[0]]
        rows = [normal]
        for i in tight[1:]:
            diff = tuple(map(sub, pts[i], base))
            if len(rows) < k and oracle_rank_int(rows + [diff]) > len(rows):
                rows.append(diff)
        if len(rows) == k:
            return frozenset(tight), normal, offset
        for u in units:
            if len(rows) < k - 1 and oracle_rank_int(rows + [u]) > len(rows):
                rows.append(u)
        # the cofactor normal of the k - 1 rows
        m = tuple(
            (-1) ** j * oracle_det_int([r[:j] + r[j + 1 :] for r in rows])
            for j in range(k)
        )
        normal, offset, met = _oracle_pivot(pts, normal, offset, m, kernels.dot(m, base))
        tight += met


def _oracle_low_facets(pts):
    if len(next(iter(pts.values()))) == 1:
        lo = min(p[0] for p in pts.values())
        hi = max(p[0] for p in pts.values())
        return {
            frozenset(i for i, p in pts.items() if p[0] == lo): ((-1,), -lo),
            frozenset(i for i, p in pts.items() if p[0] == hi): ((1,), hi),
        }
    cycle = kernels.strict_hull_2d(pts.values())
    found = {}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        normal, offset = _oracle_canonical(
            (b[1] - a[1], a[0] - b[0]), a[0] * b[1] - a[1] * b[0]
        )
        tight = frozenset(i for i, q in pts.items() if kernels.dot(normal, q) == offset)
        found[tight] = (normal, offset)
    return found


def _oracle_hull_facets(pts, memo):
    key = frozenset(pts)
    if key in memo:
        return memo[key]
    k = len(next(iter(pts.values())))
    if k <= 2:
        memo[key] = _oracle_low_facets(pts)
        return memo[key]
    tight, normal, offset = _oracle_first_facet(pts)
    found = {tight: (normal, offset)}
    queue = [tight]
    pivoted = set()
    while queue:
        tight = queue.pop()
        normal, offset = found[tight]
        c = max(j for j in range(k) if normal[j])
        face = {i: p[:c] + p[c + 1 :] for i, p in pts.items() if i in tight}
        for ridge, (m, mo) in _oracle_hull_facets(face, memo).items():
            if ridge in pivoted:
                continue
            pivoted.add(ridge)
            nxt, off, met = _oracle_pivot(pts, normal, offset, m[:c] + (0,) + m[c:], mo)
            nxt_tight = ridge.union(met)
            if nxt_tight not in found:
                found[nxt_tight] = (nxt, off)
                queue.append(nxt_tight)
    memo[key] = found
    return found


def oracle_int_facets(points):
    """polytope.int_facets as the plain gift wrap: every facet is popped
    and every ridge pivoted with two dot products per point, with no
    mirrored facets, and the vertex test runs on every point. Returns
    (keep, facets, faces) in int_facets' form; PolytopeError when the
    points are not full-dimensional, where the wrap would never end."""
    d = len(points[0])
    if oracle_rank_int([list(map(sub, q, points[0])) for q in points[1:]]) != d:
        raise PolytopeError("vertex set is not full-dimensional")
    memo = {}
    found = _oracle_hull_facets(dict(enumerate(points)), memo)
    incident = [[] for _ in points]
    for tight, (normal, _off) in found.items():
        for i in tight:
            incident[i].append(normal)
    keep = [i for i in range(len(points)) if oracle_rank_int(incident[i]) == d]
    kept = set(keep)
    facets = sorted(
        (tuple(sorted(kept.intersection(t))), normal, off)
        for t, (normal, off) in found.items()
    )
    faces, k, level = {}, d - 1, set(found)
    while level:
        faces[k] = sorted(tuple(sorted(kept.intersection(t))) for t in level)
        level = {r for t in level for r in memo.get(t, ())}
        k -= 1
    faces[0] = [(i,) for i in keep]
    return keep, facets, faces


def _point_in_hull_2d(p, others):
    """Exact membership of p in the convex hull of a 2D point list.

    Past the point and segment passes, the triangles are fanned from
    one apex: a ray from the apex through p leaves the hull through an
    edge [b, c], so p lies in the triangle (apex, b, c)."""
    for q in others:
        if q == p:
            return True
    for a, b in combinations(others, 2):
        # p on segment [a, b]
        ab = (b[0] - a[0], b[1] - a[1])
        ap = (p[0] - a[0], p[1] - a[1])
        if ab[0] * ap[1] - ab[1] * ap[0] == 0:
            t_num = ap[0] * ab[0] + ap[1] * ab[1]
            t_den = ab[0] * ab[0] + ab[1] * ab[1]
            if t_den != 0 and 0 <= t_num <= t_den:
                return True
    a = others[0]
    for b, c in combinations(others[1:], 2):
        # collinear triples are no triangles; the segment pass covers them
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) == 0:
            continue
        d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
        d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
        if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
            return True
    return False


def oracle_hull_2d(points):
    """Convex hull vertices of 2D rational points, counterclockwise.

    A point is a hull vertex iff it is outside the hull of the others;
    vertices are then angle-sorted around the centroid. Independent of
    the library's monotone chain.
    """
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    verts = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not others or not _point_in_hull_2d(p, others):
            verts.append(p)
    if len(verts) <= 2:
        return verts
    cx = sum(p[0] for p in verts) / len(verts)
    cy = sum(p[1] for p in verts) / len(verts)

    def half(p):
        # 0 for upper half plane (angle in [0, pi)), 1 for lower
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cross(p, q):
        px, py = p[0] - cx, p[1] - cy
        qx, qy = q[0] - cx, q[1] - cy
        return px * qy - py * qx

    import functools

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        c = cross(p, q)
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return sorted(verts, key=functools.cmp_to_key(cmp))


def oracle_affine_roots(a, b, lo, hi):
    """Roots of a + b t inside the closed rational interval [lo, hi]."""
    if b == 0:
        return [] if a != 0 else None
    t = Fraction(-a, b) if not isinstance(a, Fraction) else -a / b
    return [t] if lo <= t <= hi else []


def _oracle_inner_times(lo, hi, d):
    """The midpoint, and in d >= 5 also lo + (hi - lo) / j for j = 3 ..
    d - 2: with the two ends at least d - 1 distinct times, which pin
    down a determinant of degree at most d - 2."""
    return [(lo + hi) / 2] + [lo + (hi - lo) / j for j in range(3, d - 1)]


def _oracle_on_line(lo, hi, a, b, t, v):
    """Whether v is the value at t of the line through (lo, a), (hi, b)."""
    return v * (hi - lo) == a * (hi - t) + b * (t - lo)


def oracle_degeneration_polynomial(segment, cls):
    """(c0, c1) of det(segment rows at t | class plane basis) = c0 + c1 t.

    Rational determinants of the rows at both ends interpolate it, and
    ones at the midpoint and, in d >= 5, at further interior times
    (d - 1 times in all) confirm it; a determinant that is not affine in
    t raises WalkError.
    """
    lo, hi = segment.t_range
    extra = tuple(cls.direction_plane.basis)

    def dv(t):
        return la.det(segment.rows_at(t) + extra)

    a, b = dv(lo), dv(hi)
    for t in _oracle_inner_times(lo, hi, len(extra[0])):
        if not _oracle_on_line(lo, hi, a, b, t, dv(t)):
            raise WalkError("degeneration determinant is not affine on the segment")
    c1 = (b - a) / (hi - lo)
    return a - c1 * lo, c1


class AffinePoly(namedtuple("AffinePoly", ["a", "b", "den", "lo", "hi"])):
    """An affine determinant on [lo, hi], held by its end values.

    a / den and b / den are its exact values at t = lo and t = hi: a and
    b are integers over one positive integer den, so their signs are the
    signs of the determinant at the two ends. This was the walk layer's
    reading of a class on a segment, before it read the two end values
    alone.
    """

    __slots__ = ()

    def root(self):
        """The zero of the determinant anywhere on the line, or None when
        it is constant."""
        if self.a != self.b:
            return (self.hi * self.a - self.lo * self.b) / (self.a - self.b)

    def crossing(self):
        """(kind, t) from the signs of a and b alone: ("whole", None) when
        both are 0, ("end", the vanishing end) when one is, ("inside",
        root()) when they have strictly opposite signs, else ("none",
        None)."""
        a, b = self.a, self.b
        if not (a or b):
            return "whole", None
        if not (a and b):
            return "end", self.hi if a else self.lo
        if (a < 0) != (b < 0):
            return "inside", self.root()
        return "none", None


def oracle_segment_polynomials(segment):
    """The former segment_polynomials, the three-point scan: per class,
    dot products of the class's plane minors with the complementary
    minors of the integer rows at both ends and at the midpoint, the
    midpoint value confirming that the determinant is affine. In d >= 5
    it also confirms at the further times of _oracle_inner_times, class
    by class. Returns a function of a class giving its AffinePoly, or
    raising WalkError when the determinant is not affine."""
    d = len(segment.base[0])
    lo, hi = segment.t_range

    def minors_at(t):
        rows, scale = segment.int_rows_at(t)
        return kernels.complementary_minors(rows, d), scale

    (r_lo, s_lo), (r_hi, s_hi) = minors_at(lo), minors_at(hi)
    inner = [(t, *minors_at(t)) for t in _oracle_inner_times(lo, hi, d)]
    s_ends = s_lo * s_hi

    def poly(cls):
        a = kernels.dot(r_lo, cls.minors) * s_hi
        b = kernels.dot(r_hi, cls.minors) * s_lo
        for t, r, s in inner:
            v = Fraction(kernels.dot(r, cls.minors), s)
            if not _oracle_on_line(lo, hi, Fraction(a, s_ends), Fraction(b, s_ends), t, v):
                raise WalkError("degeneration determinant is not affine on the segment")
        return AffinePoly(a, b, s_ends * cls.direction_plane.int_scale, lo, hi)

    return poly


def oracle_segment_events(seg, classes):
    """The former event path of a walk segment: each class's crossing()
    time, from the three-point scan, into a dict keyed by Fraction, then
    sorted.

    Returns (events, faults): events lists (t, class ids) for the roots
    strictly inside the range, sorted by t, ids in class order; faults
    lists (class id, message) in class order, with the message the
    former path raised for that class.
    """
    polys = oracle_segment_polynomials(seg)
    found, faults = {}, []
    for cid, cls in enumerate(classes):
        try:
            kind, r = polys(cls).crossing()
        except WalkError as exc:
            faults.append((cid, str(exc)))
            continue
        if kind == "inside":
            found.setdefault(r, []).append(cid)
        elif kind == "whole":
            faults.append((cid, f"class {cid} is degenerate along the whole segment"))
        elif kind == "end":
            faults.append((cid, f"class {cid} degenerates at a segment endpoint (t={r})"))
    return sorted(found.items()), faults


def oracle_rank_losses(p, plan):
    """verify_walk's former sampled rank check: rank_int of each
    segment's integer rows at its two ends, at the event times of its
    three-point scan (oracle_segment_events) and at the midpoint between
    each two consecutive samples. Returns (segment index, t) for every
    sample where the rows are dependent, in segment and time order."""
    classes = pt.parallel_classes(p)
    out = []
    for i, seg in enumerate(plan.segments):
        lo, hi = seg.t_range
        found, _faults = oracle_segment_events(seg, classes)
        samples = [lo] + [t for t, _ids in found] + [hi]
        times = sorted(samples + [(a + b) / 2 for a, b in zip(samples, samples[1:])])
        out.extend(
            (i, t) for t in times if kernels.rank_int(seg.int_rows_at(t)[0]) < p.dim - 2
        )
    return out


class OracleSegment(namedtuple("OracleSegment", ["base", "slope", "t_range"])):
    """A walk segment held as Fraction rows: row i at t is base[i] +
    t * slope[i]. Its row arithmetic is the walk layer's before segments
    were stored as integer row pairs."""

    __slots__ = ()

    @classmethod
    def of(cls, base, slope, t_range):
        lo, hi = t_range
        return cls(la.as_mat(base), la.as_mat(slope), (la.as_rat(lo), la.as_rat(hi)))

    def rows_at(self, t):
        t = la.as_rat(t)
        return tuple(la.add(b, la.scale(s, t)) for b, s in zip(self.base, self.slope))

    def rescaled(self, lo, hi):
        lo, hi = la.as_rat(lo), la.as_rat(hi)
        a, b = self.t_range
        f = (b - a) / (hi - lo)
        shift = a - lo * f
        base = tuple(la.add(v, la.scale(s, shift)) for v, s in zip(self.base, self.slope))
        return OracleSegment(base, tuple(la.scale(s, f) for s in self.slope), (lo, hi))

    def reversed(self):
        a, b = self.t_range
        base = tuple(la.add(v, la.scale(s, a + b)) for v, s in zip(self.base, self.slope))
        return OracleSegment(base, tuple(la.neg(s) for s in self.slope), (a, b))

    def pulled_back(self, int_inverse):
        return OracleSegment(
            tuple(oracle_pull_back(int_inverse, r) for r in self.base),
            tuple(oracle_pull_back(int_inverse, r) for r in self.slope),
            self.t_range,
        )


def oracle_etas(p):
    """One normalised eta direction per parallel class, from a Fraction
    intersection of each class plane with the reference hyperplane."""
    d = p.dim
    hp = la.Subspace(tuple(la.unit(d, i) for i in range(1, d)))
    out = []
    for cid, cls in enumerate(pt.parallel_classes(p)):
        inter = la.intersect(cls.direction_plane, hp)
        if inter.dim != 1:
            raise WalkError(
                f"class {cid} meets the reference hyperplane in dimension "
                f"{inter.dim}, expected a line; rotate the polytope first"
            )
        eta = inter.basis[0]
        if eta[d - 1] == 0:
            raise WalkError(
                f"class {cid} eta direction has zero last coordinate; "
                "rotate the polytope first"
            )
        out.append(wk.EtaVector(cid, la.scale(eta, 1 / eta[d - 1])))
    return out


def oracle_reference_isometry(p):
    """The reference rotation searched on moved copies: every candidate
    rotation builds its Polytope (apply_isometry) and reads the defects
    off that copy's own proscribed directions and class intersections.
    This was the walk layer's search before it scored candidates on p's
    lines and planes."""
    d = p.dim
    if d < 3:
        raise ParameterError("walks need ambient dimension at least 3")
    q = la.identity(d)
    moved = p

    def bad_dirs(poly):
        return [pd.line for pd in pt.proscribed_directions(poly) if pd.line[0] == 0]

    for _ in range(wk._SEARCH_CAP):
        bad = bad_dirs(moved)
        if not bad:
            break
        line = bad[0]
        j = max(range(d), key=lambda i: abs(line[i]))
        for k in range(2, wk._SEARCH_CAP + 2):
            r = la.matmul(la.plane_rotation(d, 0, j, Fraction(1, k)), q)
            cand = pt.apply_isometry(p, r)
            if len(bad_dirs(cand)) < len(bad):
                q, moved = r, cand
                break
        else:
            raise WalkError("no plane rotation clears the proscribed directions")
    else:
        raise WalkError("proscribed-direction stage did not converge")

    hp = la.Subspace(tuple(la.unit(d, i) for i in range(1, d)))

    def bad_etas(poly):
        out = []
        for cls in pt.parallel_classes(poly):
            inter = la.intersect(cls.direction_plane, hp)
            if inter.dim != 1:
                raise WalkError("eta stage lost the direction arrangement")
            if inter.basis[0][d - 1] == 0:
                out.append(inter.basis[0])
        return out

    for _ in range(wk._SEARCH_CAP):
        bad = bad_etas(moved)
        if not bad:
            break
        eta = bad[0]
        j = max(range(1, d - 1), key=lambda i: abs(eta[i]))
        for k in range(2, wk._SEARCH_CAP + 2):
            r = la.matmul(la.plane_rotation(d, j, d - 1, Fraction(1, k)), q)
            cand = pt.apply_isometry(p, r)
            if len(bad_etas(cand)) < len(bad):
                q, moved = r, cand
                break
        else:
            raise WalkError("no plane rotation clears the eta directions")
    else:
        raise WalkError("eta stage did not converge")

    etas = oracle_etas(moved)
    rows = tuple(la.unit(d, i) for i in range(1, d - 1))
    cid = next(sh.degenerate_classes(moved, rows), None)
    if cid is not None:
        raise WalkError(f"reference orthogonal span degenerates class {cid}")
    return q, etas


def oracle_face_edges(p, face):
    """Edges of p inside a face, by a scan of every edge of p."""
    inside = set(face.vertex_ids)
    return [e for e in pt.k_faces(p, 1) if set(e.vertex_ids) <= inside]


def oracle_face_cycle(p, face):
    """pt.face_cycle as the graph walk it once was: adjacency lists over
    the face's edges, found by a scan of every edge of p, walked from
    the smallest id toward the neighbour its first edge in edge order
    names, which is its smaller one."""
    adj = {v: [] for v in face.vertex_ids}
    for edge in oracle_face_edges(p, face):
        a, b = edge.vertex_ids
        adj[a].append(b)
        adj[b].append(a)
    for v, nb in adj.items():
        if len(nb) != 2:
            raise PolytopeError(f"2-face boundary broken at vertex {v}")
    start = face.vertex_ids[0]
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
    return tuple(cycle)


def oracle_signed_area(p, face, frame):
    """Twice the signed area of the oracle cycle's image under the rows
    frame, by the shoelace over every vertex, on Fraction vertices."""
    origin = p.vertices[face.vertex_ids[0]]
    diffs = [la.sub(p.vertices[v], origin) for v in oracle_face_cycle(p, face)]
    xs = [tuple(sum(Fraction(r) * x for r, x in zip(row, diff)) for row in frame) for diff in diffs]
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(xs, xs[1:] + xs[:1]))


def oracle_in_boundary(frame, vertex_ids):
    """sh.in_boundary by a scan of every hull edge of the frame: whether
    one closed edge holds every image."""
    pts = [frame.images[i] for i in vertex_ids]
    hull = frame.hull
    edges = zip(hull, hull[1:] + hull[:1])
    return any(all(sh.on_segment(q, a, b) for q in pts) for a, b in edges)


def oracle_frame_chains(p, face, frame):
    """walk.frame_chains from each face edge on its own: the fixed
    points are the face vertices meeting exactly one visible edge."""
    visible = []
    invisible = []
    for e in oracle_face_edges(p, face):
        if oracle_in_boundary(frame, e.vertex_ids):
            visible.append(e.vertex_ids)
        else:
            invisible.append(e.vertex_ids)
    degree = Counter(x for pair in visible for x in pair)
    fixed = tuple(sorted(x for x in face.vertex_ids if degree[x] == 1))
    return wk.ChainState(frozenset(visible), frozenset(invisible), fixed)


def _oracle_order_chain(pairs, eidx):
    """Edge ids of a vertex-pair chain, ordered along the path from its
    smaller end."""
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


def oracle_face_chains(p, face_id, frame):
    """equiproj._face_chains with each chain traced as a path through
    its vertex pairs, and edges compared on rational directions."""
    state = oracle_frame_chains(p, pt.k_faces(p, 2)[face_id], frame)
    if len(state.fixed) != 2:
        raise GeometryError(
            f"face {face_id} has {len(state.fixed)} fixed points, wanted 2"
        )
    edges = pt.k_faces(p, 1)
    eidx = {e.vertex_ids: i for i, e in enumerate(edges)}
    visible = _oracle_order_chain(state.visible, eidx)
    invisible = _oracle_order_chain(state.invisible, eidx)
    for chain in (visible, invisible):
        dirs = [oracle_edge_direction(p, edges[e]) for e in chain]
        if any(oracle_parallel(a, b) for a, b in combinations(dirs, 2)):
            raise GeometryError("two parallel edges share a visibility chain")
    return eq.FaceChains(face_id, state.fixed, visible, invisible)


def oracle_pull_back(int_inverse, row):
    """inverse times a rational row, from integer dot products: with the
    inverse M / c and the row R / s, entry i is M_i . R / (c * s)."""
    m, c = int_inverse
    ints, s = la.int_row(row)
    return tuple(Fraction(kernels.dot(mi, ints), c * s) for mi in m)


def oracle_sample_admissible(p, rng_seed, count, grid_bound=100):
    """sample_admissible's draws with each basis validated as a Fraction
    Subspace (la.Subspace of the integer rows)."""
    rng = random.Random(rng_seed)
    out = []
    while len(out) < count:
        b1, b2 = (
            tuple(rng.randint(-grid_bound, grid_bound) for _ in range(p.dim))
            for _ in range(2)
        )
        try:
            w = sh.ProjectionPlane(la.Subspace((b1, b2)))
        except DegenerateBasisError:
            continue
        if sh.is_admissible(p, w).ok:
            out.append(w)
    return out


def oracle_class_degeneracy_det(rows, plane):
    """det of the rows stacked over the class plane's basis, by sympy:
    zero exactly when the class degenerates for the plane orthogonal to
    the rows."""
    return oracle_det(tuple(rows) + plane.basis)


def oracle_degenerate_classes(p, rows):
    """Ids of the classes whose stacked d x d integer determinant with
    the rows vanishes, one kernels.det_int call per class."""
    ints = la.int_matrix(rows)[0]
    return [
        cid
        for cid, cls in enumerate(pt.parallel_classes(p))
        if kernels.det_int(ints + cls.direction_plane.int_rows) == 0
    ]


def _draw_witness(p, cid, rng):
    """Orthogonal rows of a random plane degenerating only class cid, or None."""
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
        # the whole face plane fell into the orthogonal span
        return None
    return rows


def oracle_lottery_configurations(p, seed=0, budget=48):
    """Visible configurations met by a seeded random witness search.

    Draws budget candidate witnesses per class and keeps, for every set
    of class members seen on the shadow boundary, the first witness
    showing it. Returns {(class id, member ids): witness rows}. This is
    an under-approximation: a configuration it does not meet may still
    exist.
    """
    found = {}
    for cid in range(len(pt.parallel_classes(p))):
        rng = random.Random(f"visible:{seed}:{cid}")
        for _ in range(budget):
            rows = _draw_witness(p, cid, rng)
            if rows is None:
                continue
            found.setdefault((cid, oracle_boundary_members(p, cid, rows)), rows)
    return found


def oracle_boundary_members(p, cid, rows):
    """Ids of class cid's faces whose images lie in the shadow boundary
    of the plane orthogonal to rows."""
    faces = pt.k_faces(p, 2)
    frame = sh.hull_frame(p, sh.ProjectionPlane.from_orthogonal(rows))
    return tuple(
        fid
        for fid in pt.parallel_classes(p)[cid].member_ids
        if oracle_in_boundary(frame, faces[fid].vertex_ids)
    )


def oracle_cells(p, cid):
    """equiproj._cells as it was while the difference body went through
    pt.hull: the body is a Polytope and its faces come from pt.k_faces.
    Yields (c, members) in the same order."""
    classes = pt.parallel_classes(p)
    cls = classes[cid]
    others = [o.direction_plane.int_rows for k, o in enumerate(classes) if k != cid]
    verts = p.int_vertices()[0]
    basis = [la.primitive(b) for b in la.kernel_basis(cls.direction_plane.int_rows)]
    ys = {tuple(kernels.dot(b, v) for b in basis) for v in verts}
    body = pt.hull(sorted({tuple(map(sub, y, z)) for y in ys for z in ys}))
    faces = pt.k_faces(p, 2)

    def clear(c, rows):
        return any(kernels.dot(c, r) for r in rows)

    facets = []
    for f, (n, _off) in zip(pt.facets(body), pt.facet_planes(body)):
        c = tuple(kernels.dot(n, col) for col in zip(*basis))
        mask = sum(1 << j for j, rows in enumerate(others) if clear(c, rows))
        facets.append((set(f.vertex_ids), c, mask))
    full = (1 << len(others)) - 1

    for k in range(body.dim):
        for g in pt.k_faces(body, k):
            cone = []
            seen = 0
            for vids, c, mask in facets:
                if vids.issuperset(g.vertex_ids):
                    cone.append(c)
                    seen |= mask
            if seen != full:
                continue
            t = 1
            while True:
                c = tuple(
                    sum(t**i * x for i, x in enumerate(col)) for col in zip(*cone)
                )
                if all(clear(c, rows) for rows in others):
                    break
                t += 1
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


def oracle_witness(p, cid, c):
    """equiproj._witness as it was on Fraction rows: u1 = f1 + q f2 on the
    class's Fraction basis, other-class membership through
    Subspace.contains and each candidate through
    sh.degenerate_classes."""
    classes = pt.parallel_classes(p)
    f1, f2 = classes[cid].direction_plane.basis
    extra = [la.primitive(k) for k in la.kernel_basis((f1, f2, c))]
    for q in range(len(classes) + 1):
        u1 = la.add(f1, la.scale(f2, q))
        others = (o for k, o in enumerate(classes) if k != cid)
        if any(o.direction_plane.contains(u1) for o in others):
            continue
        for t in range(len(extra) * len(classes) + 1):
            rows = (u1,) + tuple(
                la.add(k, la.scale(f2, t**j)) for j, k in enumerate(extra, 1)
            )
            if tuple(sh.degenerate_classes(p, rows)) == (cid,):
                return rows
    raise GeometryError("witness grid exhausted, polytope data broken")


def _oracle_class_of_face(p, face_id):
    for cid, cls in enumerate(pt.parallel_classes(p)):
        if face_id in cls.member_ids:
            return cid
    raise ParameterError(f"no 2-face with id {face_id}")


def _oracle_validate_witness(p, face_id, other_id, rows):
    """walk._validate_visibility_witness on Fraction rows, each class
    tested by its stacked determinant (oracle_degenerate_classes), the
    face line through la.intersect of a fresh Subspace."""
    faces = pt.k_faces(p, 2)
    if not 0 <= face_id < len(faces):
        raise ParameterError(f"no 2-face with id {face_id}")
    cid = _oracle_class_of_face(p, face_id)
    if other_id is not None:
        if not 0 <= other_id < len(faces):
            raise ParameterError(f"no 2-face with id {other_id}")
        if other_id == face_id:
            raise ParameterError("paired faces must be distinct")
        if _oracle_class_of_face(p, other_id) != cid:
            raise ParameterError("paired faces must share a parallel class")
    wrong = set(oracle_degenerate_classes(p, rows)) ^ {cid}
    if wrong:
        k = min(wrong)
        if k == cid:
            raise ParameterError(
                f"witness does not degenerate the class of face {face_id}"
            )
        raise ParameterError(f"witness degenerates foreign class {k} as well")
    inter = la.intersect(la.Subspace(rows), faces[face_id].span)
    if inter.dim != 1:
        raise GeometryError("face projects to a point at the witness")
    u1 = la.primitive(inter.basis[0])
    frame = sh.hull_frame(p, sh.ProjectionPlane.from_orthogonal(rows))
    pair = (face_id,) if other_id is None else (face_id, other_id)
    for fid in pair:
        if not oracle_in_boundary(frame, faces[fid].vertex_ids):
            raise GeometryError(f"face {fid} is not visible at the witness")
    return cid, u1


def _oracle_tilde(v, u):
    """Component of v orthogonal to a nonzero u, in Fractions."""
    return la.sub(v, la.scale(u, la.dot(v, u) / la.dot(u, u)))


def oracle_crossing_probe(p, cid, rows, u1, reverse=False):
    """walk.crossing_probe on Fraction rows: the crossing direction from
    a Fraction la.kernel_basis, the basis completed by rational rank,
    eps from Fraction roots."""
    d = p.dim
    classes = pt.parallel_classes(p)
    kern = la.kernel_basis(tuple(rows) + tuple(classes[cid].direction_plane.basis))
    if len(kern) != 1:
        raise GeometryError("witness plus face plane does not have rank d-1")
    v = la.primitive(kern[0])
    if reverse:
        v = la.neg(v)
    comp = [u1]
    for r in rows:
        if la.rank(comp + [r]) > len(comp):
            comp.append(r)
    if len(comp) != d - 2:
        raise GeometryError("degenerating direction escapes the witness")
    slope = (v,) + tuple((la.ZERO,) * d for _ in range(d - 3))
    probe = wk.WalkSegment(tuple(comp), slope, (-1, 1))
    polys = oracle_segment_polynomials(probe)
    eps = None
    for k, cls in enumerate(classes):
        if k == cid:
            continue
        r = polys(cls).root()
        if r is not None:
            gap = abs(r)
            eps = gap if eps is None else min(eps, gap)
    eps = Fraction(1) if eps is None else eps / 2
    return probe, v, eps


def oracle_elementary_transformation(p, face_id, other_id, witness, reverse=False):
    """walk.elementary_transformation on Fraction rows: the witness
    re-validated from its Fraction basis, w1 and the witness plane from
    Fraction kernel bases, w2 from the Fraction orthogonal component."""
    rows = la.Subspace(witness).basis
    cid, u1 = _oracle_validate_witness(p, face_id, other_id, rows)
    probe, v, eps = oracle_crossing_probe(p, cid, rows, u1, reverse)
    minus = wk.WalkSegment(probe.base, probe.slope, (-eps, 0))
    plus = wk.WalkSegment(probe.base, probe.slope, (0, eps))
    kern2 = la.kernel_basis(probe.rows_at(0) + (v,))
    if len(kern2) != 1:
        raise GeometryError("crossing family is not free")
    w1 = la.primitive(kern2[0])
    plane = la.kernel_basis(rows)
    pick = next(b for b in plane if la.rank((w1, b)) == 2)
    w2 = la.primitive(_oracle_tilde(pick, w1))
    coeff = la.dot(v, w2)
    if coeff == 0:
        raise GeometryError("crossing direction lies inside the witness")
    return wk.ElementaryTransformation(
        face_id, other_id, minus, plus, u1, v, w1, w2, coeff, eps
    )


def oracle_visible_pairs(p):
    """equiproj.visible_pairs built from the oracles: each configuration's
    witness from oracle_witness, its transformation from
    oracle_elementary_transformation, and the chains from
    oracle_face_chains on the hull of the plane orthogonal to the
    Fraction rows at -eps/2."""
    certs = []
    for cid in range(len(pt.parallel_classes(p))):
        found = {}
        for c, conf in eq._cells(p, cid):
            if len(conf) in (1, 2):
                found.setdefault(conf, c)
        for conf in sorted(found):
            rows = oracle_witness(p, cid, found[conf])
            other = conf[1] if len(conf) == 2 else None
            tr = oracle_elementary_transformation(p, conf[0], other, rows)
            w = sh.ProjectionPlane.from_orthogonal(tr.minus.rows_at(-tr.epsilon / 2))
            frame = sh.hull_frame(p, w)
            chains = oracle_face_chains(p, conf[0], frame)
            other_chains = None if other is None else oracle_face_chains(p, other, frame)
            certs.append(
                eq.VisibilityCertificate(conf[0], other, tuple(rows), chains, other_chains)
            )
    return certs


def oracle_zonotope_shadow_size(generators, w):
    """Shadow vertex count of the zonotope with the given generators.

    Exactly verifies that no generator image vanishes and no two are
    collinear; the shadow is then a polygon with 2 * len(generators)
    vertices. Violations raise InadmissiblePlaneError.
    """
    gens = [la.as_vec(g) for g in generators]
    imgs = [w.coords(g) for g in gens]
    for i, q in enumerate(imgs):
        if q[0] == 0 and q[1] == 0:
            raise InadmissiblePlaneError(f"generator {i} projects to zero")
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            a, b = imgs[i], imgs[j]
            if a[0] * b[1] - a[1] * b[0] == 0:
                raise InadmissiblePlaneError(
                    f"generators {i} and {j} project to parallel segments"
                )
    return 2 * len(gens)


def oracle_estranged_subset(p, face_ids, need):
    """The former cli._estranged_subset: include-first backtracking for
    `need` faces with pairwise point spans."""
    faces = pt.k_faces(p, 2)

    def apart(a, b):
        return la.intersect(faces[a].span, faces[b].span).dim == 0

    chosen = []

    def rec(i):
        if len(chosen) == need:
            return True
        if i == len(face_ids):
            return False
        f = face_ids[i]
        if all(apart(f, g) for g in chosen):
            chosen.append(f)
            if rec(i + 1):
                return True
            chosen.pop()
        return rec(i + 1)

    return list(chosen) if rec(0) else None


def oracle_junction_violations(segments):
    """verify_walk's former junction check: at each t where two segment
    ranges meet, both spans built as Subspaces by span_at and compared,
    a dependent family (DegenerateBasisError) skipped."""
    out = []
    for i in range(1, len(segments)):
        t = segments[i].t_range[0]
        if segments[i - 1].t_range[1] != t:
            continue
        try:
            before = segments[i - 1].span_at(t)
            after = segments[i].span_at(t)
        except DegenerateBasisError:
            continue
        if before != after:
            out.append(f"junction spans differ between {i - 1} and {i}")
    return out


def oracle_assemble(p, raw_segments, isometry, isometry_inv):
    """The walk plan as _assemble once built it: each raw segment
    rescaled onto its slot of [0, 1] and scanned again on p by
    _planned_events, a time shared by two classes refused."""
    classes = pt.parallel_classes(p)
    n = len(raw_segments)
    segments = []
    events = []
    for k, seg in enumerate(raw_segments):
        piece = seg.rescaled(Fraction(k, n), Fraction(k + 1, n))
        for t, ids in wk._planned_events(piece, classes):
            t = Fraction(*t)
            if len(ids) > 1:
                raise WalkError(
                    f"classes {ids[0]} and {ids[1]} degenerate together at t={t}"
                )
            events.append(wk.DegenerationEvent(t, ids[0]))
        segments.append(piece)
    return wk.WalkPlan(tuple(segments), tuple(events), isometry, isometry_inv)


def oracle_crossing_prefilter(u1, others, etas, v):
    """The crossing search's former eta pre-filter: whether it skipped
    the candidate v from the start (u1, *others), that is whether
    det(u1, others, eta, v) = 0 for some class eta direction."""
    d = len(v)
    rmin = kernels.complementary_minors(la.int_matrix((u1, *others))[0], d)
    eta_rows = la.int_matrix(etas)[0]
    return any(kernels.dot(rmin, kernels.plane_minors(eta, v)) == 0 for eta in eta_rows)


def oracle_shared_junction_span(others, fa, fb):
    """The crossing search's former junction test: whether span(others,
    Fa) and span(others, Fb) are one Subspace, with others nonempty."""
    sa = la.span_of(tuple(others) + fa)
    sb = la.span_of(tuple(others) + fb)
    return sa == sb and bool(others)


def oracle_edge_slide(p, face_id, other_id, edge, witness):
    """walk._edge_slide as the chain split once made it: u1 scaled by
    1 / alpha in Fractions, the slide scanned as a Fraction WalkSegment
    u1 / alpha - t v on (0, 2 lam), and both sides tested on the
    components of every face edge, the chosen one included, along the
    Fraction frame _tilde(v, u) of the two sliding rows. edge is
    sorted; returns (eps, w_minus, w_plus)."""
    d = p.dim
    faces = pt.k_faces(p, 2)
    span = wk._ortho_span(p, witness)
    _cid, u1, _plane = wk._validate_visibility_witness(p, face_id, other_id, span)
    face = faces[face_id]
    edge_ids = [tuple(e.vertex_ids) for e in pt.face_edges(p, face)]
    if edge not in edge_ids:
        raise ParameterError(f"{edge} is not an edge of face {face_id}")
    verts = p.int_vertices()[0]
    ebar = la.primitive(la.sub(verts[edge[1]], verts[edge[0]]))
    directions = {}
    for other_edge in edge_ids:
        if other_edge == edge:
            continue
        dirn = la.sub(verts[other_edge[1]], verts[other_edge[0]])
        if not any(kernels.plane_minors(ebar, dirn)):
            raise ParameterError(
                f"edge {other_edge} of face {face_id} is parallel to {edge}"
            )
        directions[other_edge] = dirn
    f1, f2 = face.span.int_rows
    g = f1 if kernels.rank_int((ebar, f1)) == 2 else f2
    v = la.primitive(wk._tilde(g, ebar))
    alpha = Fraction(kernels.dot(u1, ebar), kernels.dot(ebar, ebar))
    beta = Fraction(kernels.dot(u1, v), kernels.dot(v, v))
    if alpha == 0:
        raise GeometryError("witness direction is orthogonal to the edge")
    lam = beta / alpha
    if lam < 0:
        v = la.neg(v)
        lam = -lam
    if lam == 0:
        raise GeometryError("witness already degenerates along the edge")
    u1n = la.scale(u1, 1 / alpha)
    keep = kernels.independent([u1], span.int_rows, d - 2)
    tail = tuple(span.int_rows[i] for i in keep)
    slope = oracle_slope(d - 2, 0, la.neg(v))
    seg = wk.WalkSegment((u1n,) + tail, slope, (0, 2 * lam))
    events, _faults = wk._segment_events(wk.SegmentMinors(seg), pt.parallel_classes(p))
    times = [Fraction(*t) for t, _ids in events]
    eps = min([lam] + [abs(t - lam) for t in times if t != lam]) / 2
    u_minus, u_plus = (la.sub(u1n, la.scale(v, lam + s)) for s in (-eps, eps))
    w_minus, w_plus = (la.span_of((u,) + tail) for u in (u_minus, u_plus))
    t_minus, t_plus = _oracle_tilde(v, u_minus), _oracle_tilde(v, u_plus)
    s_before, s_after = la.dot(ebar, t_minus), la.dot(ebar, t_plus)
    if s_before == 0 or s_after == 0 or (s_before < 0) == (s_after < 0):
        raise WalkError("edge component does not change sign at the event")
    for other_edge, dirn in directions.items():
        b, a = la.dot(dirn, t_minus), la.dot(dirn, t_plus)
        if b == 0 or a == 0 or (b < 0) != (a < 0):
            raise WalkError(f"edge {other_edge} changes sides across the event")
    return eps, w_minus, w_plus


def oracle_chain_split_transformations(p, face_id, other_id, edge, witness):
    """walk.chain_split_transformations on oracle_edge_slide: the two
    forward crossings and the first orientation pairing whose visible
    chains differ by exactly the edge, as the library reads them."""
    edge = tuple(sorted(edge))
    _eps, *sides = oracle_edge_slide(p, face_id, other_id, edge, witness)
    forward = [wk.elementary_transformation(p, face_id, other_id, w) for w in sides]
    chains = [
        [
            wk.boundary_chains(p, face_id, half.plane_at(t)).visible
            for half, t in ((tr.minus, -tr.epsilon / 2), (tr.plus, tr.epsilon / 2))
        ]
        for tr in forward
    ]
    for rev1 in (False, True):
        for rev2 in (False, True):
            if chains[0][rev1] ^ chains[1][rev2] == {edge}:
                return tuple(
                    wk.elementary_transformation(p, face_id, other_id, w, reverse=True)
                    if rev
                    else tr
                    for w, tr, rev in zip(sides, forward, (rev1, rev2))
                )
    raise GeometryError("no orientation pairing splits the chains at the edge")


# ------------------------------------------- the former walk planner


def oracle_slope(n, i, w):
    """n slope rows, all zero but row i, which is w: the moving rows the
    walk planner once built."""
    zero = (la.ZERO,) * len(w)
    return tuple(w if k == i else zero for k in range(n))


def _oracle_planned(seg, classes):
    """The events of a planned segment by the three-point scan; its
    first fault raises WalkError with the planner's message."""
    events, faults = oracle_segment_events(seg, classes)
    if faults:
        raise WalkError(faults[0][1])
    return events


def oracle_half_step(classes, base, i, w):
    """walk._half_step as the planner once built it: the Fraction rows
    base with row i moving along the Fraction row w, a WalkSegment on
    [0, 2] cut at half the first event time of the three-point scan, or
    at 1 when there is none."""
    line = wk.WalkSegment(base, oracle_slope(len(base), i, w), (0, 2))
    events, _faults = oracle_segment_events(line, classes)
    return wk.WalkSegment._of(line._rows, (la.ZERO, events[0][0] / 2 if events else la.ONE))


def oracle_separate_junction_spans(p, classes, u1, others, ca, cb, rng):
    """walk._separate_junction_spans on Fraction rows, as the planner
    once built it: the nudge direction and others[0] by la.sub, la.scale
    and la.add. Returns the nudge segment and updates others[0], or
    returns None."""
    d = p.dim
    fa = classes[ca].direction_plane.int_rows
    fb = classes[cb].direction_plane.int_rows
    fixed = tuple(others[1:]) + fa + (fb[0],)
    base_rank = la.rank(fixed)
    w = None
    for _ in range(wk._SEARCH_CAP // 2):
        cand = tuple(Fraction(rng.randint(-9, 9)) for _ in range(d))
        if la.rank(fixed + (cand,)) > base_rank:
            w = cand
            break
    if w is None:
        return None
    if w[0] != 0:
        span_a = classes[ca].direction_plane
        lines = (pd.line for pd in pt.proscribed_directions(p))
        pf = next(ln for ln in lines if span_a.contains(ln))
        if pf[0] == 0:
            return None
        w = la.sub(w, la.scale(pf, w[0] / pf[0]))
    if ca in sh.degenerate_classes(p, (w, *others[1:], fb[0])):
        return None
    seg = oracle_half_step(classes, (u1, *others), 1, w)
    others[0] = la.add(others[0], la.scale(w, seg.t_range[1]))
    return seg


def oracle_fragment_to_hyperplane(p, rows0, rng):
    """walk._fragment_to_hyperplane as the planner once built it: the
    start's Fraction echelon rows (rref), each crossing candidate a
    WalkSegment of Fraction rows, scanned by the three-point scan, with
    the candidates drawn from rng. Returns (pieces, end rows), each
    piece (segment, events, kind), kind "crossing" or "nudge"."""
    d = p.dim
    if all(r[0] == 0 for r in rows0):
        return [], rows0
    classes = pt.parallel_classes(p)
    arr = rref(rows0)[0]
    u1, others = arr[0], list(arr[1:])
    pieces = []
    for _ in range(wk._SEARCH_CAP):
        v = (1,) + tuple(rng.randint(-9, 9) for _ in range(d - 1))
        seg = wk.WalkSegment((u1, *others), oracle_slope(d - 2, 0, la.neg(v)), (0, 1))
        try:
            events = _oracle_planned(seg, classes)
        except WalkError:
            continue
        shared = wk._first_shared(events)
        if shared is None:
            pieces.append((seg, events, "crossing"))
            return pieces, seg.int_rows_at(1)[0]
        ca, cb = shared[0], shared[1]
        fa = classes[ca].direction_plane.int_rows
        fb = classes[cb].direction_plane.int_rows
        if la.rank(tuple(others) + fa + fb) != d - 1:
            continue
        pre = oracle_separate_junction_spans(p, classes, u1, others, ca, cb, rng)
        if pre is not None:
            pieces.append((pre, [], "nudge"))
    raise WalkError("crossing search exhausted its budget")


def oracle_fragment_within(p, rows0):
    """walk._fragment_within as the planner once built it: the staircase
    on Fraction echelon rows (rref after each nudge), and each
    contraction and its pre-steps a WalkSegment of the Fraction rows
    e_{i+1} + x_i e_last. Returns pieces (segment, events, kind), kind
    "staircase", "contraction" or "pre-step"."""
    d = p.dim
    classes = pt.parallel_classes(p)
    cols = d - 1
    target = cols - 1
    arr, pivots = rref(tuple(r[1:] for r in rows0))
    pieces = []
    for _ in range(cols):
        missing = next(c for c in range(cols) if c not in pivots)
        if missing == target:
            break
        idx = pivots.index(missing + 1)
        base = tuple((la.ZERO, *r) for r in arr)
        seg = oracle_half_step(classes, base, idx, la.unit(d, missing + 1))
        pieces.append((seg, [], "staircase"))
        nudge = la.scale(la.unit(cols, missing), seg.t_range[1])
        arr, pivots = rref(tuple(la.add(r, nudge) if i == idx else r for i, r in enumerate(arr)))
    else:
        raise WalkError("staircase did not reach the last column")
    xs = [row[target] for row in arr]
    last = la.unit(d, d - 1)
    for _ in range(wk._SEARCH_CAP):
        if all(x == 0 for x in xs):
            return pieces
        base = tuple(la.add(la.unit(d, i + 1), la.scale(last, x)) for i, x in enumerate(xs))
        slope = tuple(la.scale(last, -x) for x in xs)
        seg = wk.WalkSegment(base, slope, (0, 1))
        events = _oracle_planned(seg, classes)
        shared = wk._first_shared(events)
        if shared is None:
            pieces.append((seg, events, "contraction"))
            return pieces
        ca, cb = shared[0], shared[1]
        ea, eb = (wk._eta_line(*classes[c].direction_plane.int_rows) for c in (ca, cb))
        j = next((i for i in range(1, d - 1) if ea[i] * eb[-1] != eb[i] * ea[-1]), None)
        if j is None:
            raise WalkError(f"classes {ca} and {cb} share an eta direction")
        pre = oracle_half_step(classes, base, j - 1, last)
        pieces.append((pre, [], "pre-step"))
        xs[j - 1] += pre.t_range[1]
    raise WalkError("contraction produced inseparable degenerations")
