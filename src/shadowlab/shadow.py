"""Planar projections: shadow polygons, degeneration tests, sampling.

Decisions run on the plane's own two integer rows A = (a1, a2), its
basis rows scaled to integers by positive factors. A vertex, scaled by
the polytope's common multiplier, has as integer image its two dot
products with a1 and a2. The public frame coordinates (those of the
orthogonal projection in the plane's basis) are the image of that
integer pair under a linear map of positive determinant: the inverse
Gram matrix composed with positive scalings. Hull vertices, their
counterclockwise order, fibers, collinearity and boundary containment
are therefore the same in both frames, so hulls and boundary tests run
on integer pairs. Every public point is an integer numerator pair over
the one positive denominator det(Gram) times the multiplier, so the
smallest public point is read off the numerators, and only the k hull
points become Fractions.

A parallel class with integer plane rows F degenerates at W exactly
when its plane meets the orthogonal complement, that is when A kills a
nonzero x f1 + y f2, that is when det(A F^T) = 0. By Cauchy-Binet that
determinant is the dot product of the 2x2 minors of A with those of F,
which each class caches, so admissibility needs no complement.
Everything stays exact.
"""

import random
from collections import namedtuple
from fractions import Fraction
from operator import mul, sub

from . import kernels
from . import linalg as la
from . import polytope as pt
from .errors import (
    DegenerateBasisError,
    DegenerateShadowError,
    DimensionError,
    InadmissiblePlaneError,
    ParameterError,
    SamplingError,
)
from .kernels import cross2, strict_hull_2d

# every plane drawn is kept (650 JSON bytes and 0.65 to 3.9 ms a plane on
# the 8-cube, 2-CPU host), so counts stop where the 8-cube stays in 20 s
MAX_SAMPLES = 5000


class ProjectionPlane:
    """A 2-plane W together with its exact orthogonal complement.

    The integer frame uses the int_rows of basis, the public rows
    scaled by positive factors, so it keeps the orientation of the
    public frame. complement, when given, must be the orthogonal
    complement of basis (from_orthogonal passes the span it started
    from); otherwise it is the kernel of the basis's integer rows
    (la.kernel_space), built on first read. Projections, hulls and
    admissibility never read it.
    """

    __slots__ = ("basis", "_complement", "_unmap")

    def __init__(self, basis, complement=None):
        if not isinstance(basis, la.Subspace):
            basis = la.Subspace(basis)
        if basis.dim != 2:
            raise DimensionError("projection plane must have dimension 2")
        self.basis = basis
        self._complement = complement
        a1, a2 = basis.int_rows
        c1, c2 = basis.int_mults
        # with A = diag(c1, c2) B and G the Gram matrix of A, the frame
        # coordinates G_B^-1 B v are diag(c1, c2) adj(G) A v / det G
        g00, g01, g11 = kernels.dot(a1, a1), kernels.dot(a1, a2), kernels.dot(a2, a2)
        self._unmap = (c1 * g11, -c1 * g01, -c2 * g01, c2 * g00, g00 * g11 - g01 * g01)

    @classmethod
    def from_orthogonal(cls, vectors):
        """Plane whose orthogonal complement is spanned by the vectors."""
        s = vectors if isinstance(vectors, la.Subspace) else la.Subspace(vectors)
        w = la.kernel_space(s)
        if w.dim != 2:
            raise DimensionError("orthogonal space must have dimension d-2")
        return cls(w, complement=s)

    @property
    def complement(self):
        """The orthogonal complement of the plane, as a Subspace."""
        if self._complement is None:
            self._complement = la.kernel_space(self.basis)
        return self._complement

    @property
    def ambient(self):
        return self.basis.ambient

    def image(self, x):
        """Integer image of an integer vector."""
        a1, a2 = self.basis.int_rows
        if len(x) != len(a1):
            raise DimensionError("vector has wrong ambient dimension")
        return (kernels.dot(a1, x), kernels.dot(a2, x))

    def image_coords(self, q, mult):
        """Frame coordinates of v = x / mult, given its integer image q."""
        m00, m01, m10, m11, det = self._unmap
        den = det * mult
        return (
            Fraction(m00 * q[0] + m01 * q[1], den),
            Fraction(m10 * q[0] + m11 * q[1], den),
        )

    def coords(self, v):
        """Frame coordinates of the projection of v onto the plane."""
        x, mult = la.int_row(v)
        return self.image_coords(self.image(x), mult)


ShadowPolygon = namedtuple(
    "ShadowPolygon", ["hull_vertex_ids", "points", "k", "fibers"]
)


class HullFrame:
    """Integer images of every vertex, in vertex order, and the strict
    ccw hull of those images, with the hull edges holding each image.

    Edge i joins hull[i] to hull[i + 1]. The hull vertex at position i
    lies on edges i - 1 and i; any other image is found by one scan of
    the edges, memoised.
    """

    __slots__ = ("images", "hull", "_edges")

    def __init__(self, images, hull):
        self.images = images
        self.hull = hull
        k = len(hull)
        self._edges = {q: frozenset(((i - 1) % k, i)) for i, q in enumerate(hull)}

    def edges_at(self, q):
        """Positions of the closed hull edges holding the image q."""
        edges = self._edges.get(q)
        if edges is None:
            hull = self.hull
            ends = zip(hull, hull[1:] + hull[:1])
            edges = frozenset(i for i, (a, b) in enumerate(ends) if on_segment(q, a, b))
            self._edges[q] = edges
        return edges


Admissibility = namedtuple("Admissibility", ["ok", "violating_class"])

MemberDegeneration = namedtuple(
    "MemberDegeneration", ["face_id", "contained_in_edge", "touches_hull"]
)

ClassDegeneration = namedtuple(
    "ClassDegeneration", ["class_id", "projected_rank", "members"]
)

DegenerationReport = namedtuple(
    "DegenerationReport",
    ["degenerating", "condition_i", "condition_ii", "admissible"],
)


def on_segment(q, a, b):
    """Exact membership of q in the closed 2D segment [a, b]."""
    if cross2(a, b, q) != 0:
        return False
    if min(a[0], b[0]) <= q[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= q[1] <= max(
        a[1], b[1]
    ):
        return True
    return False


def project(p, w):
    """Frame coordinates of every vertex image, in vertex order."""
    if w.ambient != p.dim:
        raise DimensionError("plane and polytope dimensions differ")
    return [w.coords(v) for v in p.vertices]


def int_images(p, w):
    """Integer images of the vertices, in vertex order, and the multiplier."""
    pts, mult = p.int_vertices()
    a1, a2 = w.basis.int_rows
    if len(pts[0]) != len(a1):
        raise DimensionError("plane and polytope dimensions differ")
    return [(sum(map(mul, a1, x)), sum(map(mul, a2, x))) for x in pts], mult


def _polygon(points):
    hull = strict_hull_2d(points)
    if len(hull) < 3:
        raise DegenerateShadowError(
            "vertex images are collinear; input cannot be full-dimensional"
        )
    return hull


def shadow(p, w):
    """Exact shadow polygon of p on the plane w.

    The cycle starts at the lexicographically smallest public point.
    The public points share the positive denominator det * mult, so
    that is the smallest numerator pair.
    """
    images, mult = int_images(p, w)
    fibers = {}
    for vid, q in enumerate(images):
        fibers.setdefault(q, []).append(vid)
    hull = _polygon(fibers)
    m00, m01, m10, m11, det = w._unmap
    nums = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in hull]
    s = nums.index(min(nums))
    hull = hull[s:] + hull[:s]
    den = det * mult
    points = tuple((Fraction(x, den), Fraction(y, den)) for x, y in nums[s:] + nums[:s])
    ids = tuple(fibers[q][0] for q in hull)
    fib = tuple(tuple(fibers[q]) for q in hull)
    return ShadowPolygon(ids, points, len(hull), fib)


def hull_frame(p, w):
    """Integer images of p's vertices and their hull, for boundary tests."""
    images = int_images(p, w)[0]
    return HullFrame(images, _polygon(set(images)))


def in_boundary(frame, vertex_ids):
    """Whether the convex hull of these vertices' images lies in the
    shadow boundary.

    A convex set inside the boundary of a strictly convex polygon lies
    in one closed edge, so all images must share one.
    """
    common = None
    for i in vertex_ids:
        edges = frame.edges_at(frame.images[i])
        common = edges if common is None else common & edges
        if not common:
            return False
    return True


def edge_on_boundary(p, edge, rows):
    """Whether the image of p's edge (a, b) lies in the shadow boundary
    of the plane with integer rows (a1, a2), read at a's neighbours.

    With (s, t) the image of b - a, the row y = s a2 - t a1 has
    y . (x - a) = cross2(A, B, X) for every x and its image X. So the
    image of the edge lies in the boundary, that is in one closed hull
    edge, exactly when the line through A and B supports the shadow:
    when a maximises or minimises y over p. A vertex no worse than its
    graph neighbours for a linear functional is optimal on the
    polytope (Ziegler, Lectures on Polytopes, ch. 3), so the test reads
    y . (w - a) over a's neighbours w only (b among them, at 0): all
    <= 0 or all >= 0. That is exact wherever (s, t) is not (0, 0). An
    edge whose image is a point degenerates the class of every 2-face
    through it; such a plane raises InadmissiblePlaneError.
    """
    a, b = edge
    verts = p.int_vertices()[0]
    a1, a2 = rows
    va = verts[a]
    e = list(map(sub, verts[b], va))
    s, t = sum(map(mul, a1, e)), sum(map(mul, a2, e))
    if not (s or t):
        raise InadmissiblePlaneError(f"edge {edge} collapses to a point")
    y = [s * x2 - t * x1 for x1, x2 in zip(a1, a2)]
    base = sum(map(mul, y, va))
    vals = [sum(map(mul, y, verts[w])) for w in pt.neighbours(p)[a]]
    return max(vals) <= base or min(vals) >= base


def degenerate_classes(p, rows):
    """Ids of the classes degenerating for the orthogonal span of rows.

    A class degenerates when det(rows | its direction plane) is zero.
    The rows are scaled to integers (all-integer rows are taken as they
    are) and their complementary minors taken once; each class then
    costs one dot product with its cached plane minors (Laplace
    expansion along the plane rows). Positive factors keep every zero.
    Lazy and in class order, so next() stops at the first.
    """
    ints = rows if all(type(x) is int for r in rows for x in r) else la.int_matrix(rows)[0]
    if len(ints) + 2 != p.dim or any(len(r) != p.dim for r in ints):
        raise DimensionError("stacked family is not square")
    rmin = kernels.complementary_minors(ints, p.dim)
    return (
        cid
        for cid, cls in enumerate(pt.parallel_classes(p))
        if kernels.dot(rmin, cls.minors) == 0
    )


def _plane_minors(p, w):
    """The 2x2 minors of the plane's integer rows: the plane side of
    every class's det(A F^T)."""
    if w.ambient != p.dim:
        raise DimensionError("plane and polytope dimensions differ")
    return kernels.plane_minors(*w.basis.int_rows)


def is_admissible(p, w):
    """Exact admissibility with the first violating class on failure.

    One dot product per class: det(A F^T) by Cauchy-Binet.
    """
    wmin = _plane_minors(p, w)
    for cid, cls in enumerate(pt.parallel_classes(p)):
        if not kernels.dot(wmin, cls.minors):
            return Admissibility(False, cid)
    return Admissibility(True, None)


def degeneration_report(p, w):
    """Both degeneration conditions, exactly.

    condition_i holds when no class projects to rank <= 1; condition_ii
    holds when no degenerate member's image is contained in a closed
    edge of the shadow. Boundary contact (touching the hull anywhere)
    is reported alongside containment for each degenerate member.
    """
    degenerating = []
    frame = None
    faces = pt.k_faces(p, 2) if p.dim >= 3 else []
    wmin = _plane_minors(p, w)
    for cid, cls in enumerate(pt.parallel_classes(p)):
        # the images g, h of the class rows have cross product det(A F^T)
        if kernels.dot(wmin, cls.minors):
            continue
        g, h = (w.image(f) for f in cls.direction_plane.int_rows)
        prank = int(any(g + h))
        if frame is None:
            frame = hull_frame(p, w)
        members = []
        for fid in cls.member_ids:
            vids = faces[fid].vertex_ids
            contained = in_boundary(frame, vids)
            touches = any(in_boundary(frame, (i,)) for i in vids)
            members.append(MemberDegeneration(fid, contained, touches))
        degenerating.append(ClassDegeneration(cid, prank, members))
    cond_i = not degenerating
    cond_ii = not any(
        m.contained_in_edge for c in degenerating for m in c.members
    )
    return DegenerationReport(degenerating, cond_i, cond_ii, cond_i)


def sample_admissible(p, rng_seed, count, grid_bound=100):
    """Admissible planes with seeded integer-grid bases.

    Rejection sampling over bases with entries in [-grid_bound,
    grid_bound]; deterministic for a fixed seed. Raises ParameterError
    for count or grid_bound below 1 or count above MAX_SAMPLES,
    DimensionError below dimension 2 and SamplingError after 1000 *
    count failed attempts.
    """
    if count < 1:
        raise ParameterError("count must be at least 1")
    if count > MAX_SAMPLES:
        raise ParameterError(f"{count} samples exceed the cap of {MAX_SAMPLES}")
    if grid_bound < 1:
        raise ParameterError("grid_bound must be at least 1")
    if p.dim < 2:
        raise DimensionError(f"dimension {p.dim} has no planar projections")
    rng = random.Random(rng_seed)
    budget = 1000 * count
    out = []
    d = p.dim
    while len(out) < count:
        if budget == 0:
            raise SamplingError(
                f"no admissible plane found in {1000 * count} attempts"
            )
        budget -= 1
        b1 = tuple(rng.randint(-grid_bound, grid_bound) for _ in range(d))
        b2 = tuple(rng.randint(-grid_bound, grid_bound) for _ in range(d))
        try:
            w = ProjectionPlane(la.int_subspace((b1, b2)))
        except DegenerateBasisError:
            continue
        if is_admissible(p, w).ok:
            out.append(w)
    return out

