"""Answer checks that share no code with shadowlab.

Every predicate here is recomputed from plain integers and Fractions:
determinants and ranks by fraction-free (Bareiss) elimination, planar
hulls by a pointwise extremeness test, null spaces by Gauss-Jordan
elimination written out below. The package's own linear algebra, hull
and walk verification are never called, so a fault in them cannot hide
in its own check. Checkers take plain data (tuples of numbers) and raise
CheckError on the first disagreement.
"""

from fractions import Fraction
from math import comb, gcd, lcm


class CheckError(Exception):
    """A program output disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# ------------------------------------------------------------ arithmetic


def int_row(row):
    """A rational row scaled by a positive integer to an integer row."""
    row = [Fraction(x) for x in row]
    mult = lcm(*(x.denominator for x in row)) if row else 1
    return [int(x * mult) for x in row]


def int_points(points):
    """Points scaled by one common positive multiplier to integers."""
    pts = [[Fraction(x) for x in p] for p in points]
    mult = lcm(*(x.denominator for p in pts for x in p))
    return [tuple(int(x * mult) for x in p) for p in pts]


def det_exact(rows):
    """Exact rational determinant."""
    ints = []
    scale = 1
    for r in rows:
        r = [Fraction(x) for x in r]
        mult = lcm(*(x.denominator for x in r))
        ints.append([int(x * mult) for x in r])
        scale *= mult
    return Fraction(det_int(ints), scale)


def det_int(rows):
    """Bareiss determinant of an integer matrix (the rows are copied)."""
    m = [list(r) for r in rows]
    n = len(m)
    require(all(len(r) == n for r in m), "determinant of a non-square family")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rank(rows):
    """Exact rank by fraction-free row reduction."""
    m = [int_row(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def nullspace(rows, ncols):
    """Primitive integer basis of {x : row . x = 0 for every row}."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        ints = int_row(v)
        g = gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# ------------------------------------------------------------ planar hulls


def images(int_vertices, plane_rows):
    """Integer images (b1 . v, b2 . v) of integer vertices.

    For integer basis rows B of the plane these differ from the package's
    frame coordinates by the Gram matrix of B, which is positive definite:
    hull membership, boundary containment and counterclockwise order all
    carry over.
    """
    b1, b2 = (int_row(r) for r in plane_rows)
    return [(dot(b1, v), dot(b2, v)) for v in int_vertices]


def _is_extreme(q, pts):
    # q is a hull vertex iff the vectors to the other points lie in an
    # open half-plane; the clockwise-most of them then sees every other
    # one strictly counterclockwise or on its own ray
    ds = [(p[0] - q[0], p[1] - q[1]) for p in pts if p != q]
    d0 = ds[0]
    for d in ds[1:]:
        if d0[0] * d[1] - d0[1] * d[0] < 0:
            d0 = d
    for d in ds:
        c = d0[0] * d[1] - d0[1] * d[0]
        if c < 0 or (c == 0 and d0[0] * d[0] + d0[1] * d[1] <= 0):
            return False
    return True


class Hull:
    """Brute-force strict hull of integer images, with fibers and edges."""

    def __init__(self, imgs):
        self.imgs = imgs
        fibers = {}
        for vid, q in enumerate(imgs):
            fibers.setdefault(q, []).append(vid)
        pts = list(fibers)
        require(len(pts) >= 3, "vertex images are collinear")
        self.fibers = fibers
        self.extreme = [q for q in pts if _is_extreme(q, pts)]
        self._edges = None

    @property
    def k(self):
        return len(self.extreme)

    def is_edge(self, a, b):
        """Every image lies left of the directed line a -> b or on it."""
        return all(cross(a, b, p) >= 0 for p in self.fibers)

    @property
    def edges(self):
        if self._edges is None:
            self._edges = [
                (a, b)
                for a in self.extreme
                for b in self.extreme
                if a != b and self.is_edge(a, b)
            ]
        return self._edges

    def on_boundary(self, q):
        return any(on_segment(q, a, b) for a, b in self.edges)


def on_segment(q, a, b):
    return (
        cross(a, b, q) == 0
        and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
    )


def hull_of(int_vertices, plane_rows):
    return Hull(images(int_vertices, plane_rows))


def check_shadow(int_vertices, plane_rows, hull_vertex_ids, fibers, k, known_k=None):
    """A shadow's hull ids, fibers, k and ccw order against brute force."""
    hull = hull_of(int_vertices, plane_rows)
    require(k == hull.k, f"shadow k={k}, brute force finds {hull.k}")
    require(len(fibers) == k and len(hull_vertex_ids) == k, "hull lists disagree with k")
    want = {frozenset(hull.fibers[q]) for q in hull.extreme}
    got = [frozenset(f) for f in fibers]
    require(set(got) == want, "shadow fibers differ from the brute-force hull")
    for vid, fib in zip(hull_vertex_ids, fibers):
        require(vid == min(fib), f"hull vertex id {vid} is not its fiber's minimum")
    pts = [hull.imgs[f[0]] for f in fibers]
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        require(hull.is_edge(a, b), "hull order is not counterclockwise")
    if known_k is not None:
        require(k == known_k, f"shadow k={k}, theory says {known_k}")


# ------------------------------------------------------------ degeneration


def degenerate_classes(ortho_rows, class_planes):
    """Ids of the classes whose stacked (ortho | direction) family is singular.

    class_planes hold integer rows (see Geometry in workloads.py).
    """
    ortho = [int_row(r) for r in ortho_rows]
    return {
        cid
        for cid, plane in enumerate(class_planes)
        if det_int(ortho + list(plane)) == 0
    }


def check_plane(plane_rows, ortho_rows):
    """The plane rows span the orthogonal complement of the ortho rows."""
    d = len(plane_rows[0])
    require(rank(plane_rows) == 2, "plane basis is not of rank 2")
    require(rank(ortho_rows) == d - 2, f"orthogonal family is not of rank {d - 2}")
    for b in plane_rows:
        for o in ortho_rows:
            require(dot(b, o) == 0, "plane basis is not orthogonal to its complement")


def check_report(int_vertices, plane_rows, ortho_rows, class_planes,
                 class_members, face_vertex_ids, report):
    """A degeneration report against determinants and a brute-force hull.

    report is (degenerating, condition_i, condition_ii, admissible), with
    degenerating a list of (class_id, projected_rank, members) and each
    member (face_id, contained_in_edge, touches_hull).
    """
    check_plane(plane_rows, ortho_rows)
    degenerating, cond_i, cond_ii, admissible = report
    want = degenerate_classes(ortho_rows, class_planes)
    got = [c[0] for c in degenerating]
    require(sorted(got) == sorted(want) and len(set(got)) == len(got),
            f"report names classes {sorted(got)}, determinants give {sorted(want)}")
    hull = hull_of(int_vertices, plane_rows)
    b = [int_row(r) for r in plane_rows]
    contained_any = False
    for cid, prank, members in degenerating:
        proj = [[dot(bi, int_row(f)) for f in class_planes[cid]] for bi in b]
        require(prank == rank(proj), f"class {cid} projected rank {prank} is wrong")
        require([m[0] for m in members] == list(class_members[cid]),
                f"class {cid} member list is wrong")
        for fid, contained, touches in members:
            imgs = [hull.imgs[v] for v in face_vertex_ids[fid]]
            want_c = any(all(on_segment(q, a, e) for q in imgs) for a, e in hull.edges)
            want_t = any(hull.on_boundary(q) for q in imgs)
            require(contained == want_c, f"face {fid} edge containment is wrong")
            require(touches == want_t, f"face {fid} boundary contact is wrong")
            contained_any = contained_any or want_c
    require(cond_i == (not want), "condition (i) is wrong")
    require(cond_ii == (not contained_any), "condition (ii) is wrong")
    require(admissible == (not want), "admissibility flag is wrong")


def check_admissible_pair(int_vertices, class_planes, plane_a, k_a, plane_b, k_b):
    """Two admissible planes whose shadows have different vertex counts."""
    for rows, k in ((plane_a, k_a), (plane_b, k_b)):
        ortho = nullspace([int_row(r) for r in rows], len(rows[0]))
        check_plane(rows, ortho)
        require(not degenerate_classes(ortho, class_planes), "pinned plane is not admissible")
        require(hull_of(int_vertices, rows).k == k, f"pinned plane does not give k={k}")
    require(k_a != k_b, "pinned pair has equal shadow sizes")


# ------------------------------------------------------------ walks


def rows_at(base, slope, t):
    return [[b + t * s for b, s in zip(rb, rs)] for rb, rs in zip(base, slope)]


def check_walk(int_vertices, class_planes, plane_a, plane_b, segments, events, known_k=None):
    """A walk plan against determinants, its endpoints and the theory k.

    segments is a list of (base, slope, (lo, hi)); events a list of
    (time, class_id). Checks: endpoint spans are the complements of the
    input planes; junctions meet with equal spans; at each event the
    named class's determinant vanishes and no other class's does; each
    class's determinant is affine on each segment (exact at both ends
    and the middle) and its roots inside the segments are exactly the
    logged events; at every midpoint between consecutive events (and
    segment ends) no determinant vanishes; for equiprojective subjects
    the shadow at each such midpoint has the known k.
    """
    d = len(class_planes[0][0])
    if not segments:
        require(not events, "empty plan lists events")
        require(rank(list(plane_a) + list(plane_b)) == 2, "empty plan joins distinct planes")
        return
    base, slope, (lo, hi) = segments[0]
    check_plane(plane_a, rows_at(base, slope, lo))
    base, slope, (lo, hi) = segments[-1]
    check_plane(plane_b, rows_at(base, slope, hi))
    for (b0, s0, (_, t0)), (b1, s1, (t1, _)) in zip(segments, segments[1:]):
        require(t0 == t1, "segment ranges do not meet")
        r0, r1 = rows_at(b0, s0, t0), rows_at(b1, s1, t1)
        require(rank(r0 + r1) == d - 2 == rank(r0), "junction spans differ")
    times = [e[0] for e in events]
    require(times == sorted(times) and len(set(times)) == len(times),
            "event times are not strictly increasing")
    pending = list(events)
    for base, slope, (lo, hi) in segments:
        inside = [e for e in pending if lo < e[0] < hi]
        pending = [e for e in pending if e not in inside]
        require(sorted(inside) == _roots(base, slope, lo, hi, class_planes),
                f"segment [{lo}, {hi}]: events differ from the determinant roots")
        for t, cid in inside:
            zero = degenerate_classes(rows_at(base, slope, t), class_planes)
            require(zero == {cid}, f"event at t={t}: classes {sorted(zero)} vanish, plan names {cid}")
        marks = [lo] + [e[0] for e in inside] + [hi]
        for a, b in zip(marks, marks[1:]):
            rows = rows_at(base, slope, (a + b) / 2)
            zero = degenerate_classes(rows, class_planes)
            require(not zero, f"classes {sorted(zero)} vanish between events at t={(a + b) / 2}")
            if known_k is not None:
                plane = nullspace([int_row(r) for r in rows], d)
                k = hull_of(int_vertices, plane).k
                require(k == known_k, f"shadow between events has k={k}, theory says {known_k}")
    require(not pending, f"events {pending} fall on no segment interior")


def _roots(base, slope, lo, hi, class_planes):
    """Sorted (time, class) roots inside (lo, hi) of the affine determinants."""
    mid = (lo + hi) / 2
    out = []
    for cid, plane in enumerate(class_planes):
        a, m, b = (det_exact(rows_at(base, slope, t) + list(plane)) for t in (lo, mid, hi))
        require(2 * m == a + b, f"class {cid} determinant is not affine on [{lo}, {hi}]")
        require(a != 0 and b != 0, f"class {cid} vanishes at a segment end")
        if (a < 0) != (b < 0):
            out.append((lo + (hi - lo) * a / (a - b), cid))
    return sorted(out)


# ------------------------------------------------------------ families


def zonotope_face_counts(m, d):
    """f_k of a zonotope with m generators in general position in R^d."""
    return [
        2 * comb(m, k) * sum(comb(m - k - 1, i) for i in range(d - k))
        for k in range(d)
    ]


def estranged(face_planes, need):
    """Some `need` of the given face planes pairwise meet only in 0."""
    chosen = []

    def apart(a, b):
        return rank(list(a) + list(b)) == len(a) + len(b)

    def rec(i):
        if len(chosen) == need:
            return True
        if i == len(face_planes):
            return False
        if all(apart(face_planes[i], face_planes[j]) for j in chosen):
            chosen.append(i)
            if rec(i + 1):
                return True
            chosen.pop()
        return rec(i + 1)

    return rec(0)


def planted(checker, *args):
    """True when the checker rejects a deliberately wrong answer."""
    try:
        checker(*args)
    except CheckError:
        return True
    return False
