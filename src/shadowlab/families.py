"""Constructors for the polytope families used across the library.

Each constructor validates its parameters exactly and finishes with a
self-test of the property the family is built for; a failed self-test
raises instead of returning a polytope that silently lacks it.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from . import kernels
from . import linalg as la
from . import polytope as pt
from . import shadow as sh
from .errors import (
    DimensionError,
    ParameterError,
    PolytopeError,
    SamplingError,
)


# a zonotope is built as the hull of all 2^m subset sums of its m
# generators, so m is capped well above any family in use (6 at most)
MAX_GENERATORS = 16
# the d-cube and pnd build about 5 times slower per dimension (a 9-cube
# in about 3.5 s, a 10-cube in about 18 s on a 2-CPU host), so d is capped
MAX_CUBE_DIM = 9
# check --mode both on pn_polytope(m) takes 10 to 13 s at m = 13 and 12 to
# 19 s at m = 14 on a 2-CPU host, so m is capped where it stays within 20 s
MAX_TRIANGLES = 13


def _check_generator_count(m, what="generators", cap=MAX_GENERATORS):
    if m > cap:
        raise ParameterError(f"{m} {what} exceed the cap of {cap}")


def hypercube(d):
    """The unit cube [0,1]^d: the zonotope of d unit generators, with d
    capped at MAX_CUBE_DIM."""
    if d < 2:
        raise ParameterError("dimension must be at least 2")
    _check_generator_count(d, "unit generators", MAX_CUBE_DIM)
    return pt.build(list(product((0, 1), repeat=d)), label=f"hypercube-{d}")


def perturbed_hypercube(eps):
    """A 4-cube with two antipodal square faces broken into triangles.

    One vertex of the face at x3 = x4 = 0 is pushed below it and one
    vertex of the face at x3 = x4 = 1 above it, so each square splits
    into two non-coplanar triangles while the other two members of its
    parallel class stay intact. On the plane span(e1+e2+e3, 2e3+e4)
    the intact pair still degenerates but only touches the shadow
    boundary at single corners: the first degeneracy condition fails
    while the second holds, which is what this family witnesses.
    """
    eps = la.as_rat(eps)
    if not 0 < eps < Fraction(1, 10):
        raise ParameterError("eps must lie strictly between 0 and 1/10")
    pts = [tuple(map(Fraction, v)) for v in product((0, 1), repeat=4)]
    pts[8] = (Fraction(1), Fraction(0), Fraction(0), -eps)
    pts[7] = (Fraction(0), Fraction(1), Fraction(1), 1 + eps)
    p = pt.build(pts, label="perturbed-hypercube")
    w = sh.ProjectionPlane(((1, 1, 1, 0), (0, 0, 2, 1)))
    report = sh.degeneration_report(p, w)
    if report.condition_i or not report.condition_ii:
        raise PolytopeError(
            "perturbed hypercube self-test failed; eps may be too large"
        )
    return p


def prism(base, height, label=None):
    """Prism over a strictly convex 2D polygon, any skew height.

    The self-test samples admissible planes and checks that every
    shadow has |base| + 2 vertices.
    """
    pts2 = tuple((la.as_rat(x), la.as_rat(y)) for x, y in base)
    if len(pts2) < 3:
        raise ParameterError("base needs at least 3 points")
    if len(set(pts2)) != len(pts2):
        raise ParameterError("duplicate base point")
    if len(kernels.strict_hull_2d(pts2)) != len(pts2):
        raise ParameterError("base polygon is not strictly convex")
    h = la.as_vec(height)
    if len(h) != 3:
        raise DimensionError("height must be a 3D vector")
    if h[2] == 0:
        raise ParameterError("height lies in the base plane")
    bottom = [(x, y, la.ZERO) for x, y in pts2]
    p = pt.build(
        bottom + [la.add(v, h) for v in bottom],
        label=label or f"prism-{len(pts2)}",
    )
    expected = len(pts2) + 2
    for w in sh.sample_admissible(p, 0, 6):
        if sh.shadow(p, w).k != expected:
            raise PolytopeError(
                f"prism self-test failed: sampled shadow is not a {expected}-gon"
            )
    return p


class ZonotopeSpec:
    """Validated generator family for a sum of segments."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = tuple(la.as_vec(g) for g in generators)
        if len(gens) < 2:
            raise ParameterError("need at least two generators")
        _check_generator_count(len(gens))
        d = len(gens[0])
        if any(len(g) != d for g in gens):
            raise DimensionError("generators of mixed dimensions")
        if d < 2:
            raise ParameterError("ambient dimension must be at least 2")
        for i, g in enumerate(gens):
            if la.is_zero_vec(g):
                raise ParameterError(f"generator {i} is zero")
        for i, j in combinations(range(len(gens)), 2):
            if la.rank((gens[i], gens[j])) != 2:
                raise ParameterError(f"generators {i} and {j} are collinear")
        self.generators = gens

    @property
    def dim(self):
        return len(self.generators[0])


def _subset_sums(gens):
    acc = [tuple(la.ZERO for _ in gens[0])]
    for g in gens:
        acc += [la.add(q, g) for q in acc]
    return sorted(set(acc))


def zonotope(spec, label=None):
    """Polytope sum of the segments Conv(0, g) over the generators.

    The self-test samples admissible planes and checks that every
    shadow has exactly twice as many vertices as there are generators.
    """
    if not isinstance(spec, ZonotopeSpec):
        spec = ZonotopeSpec(spec)
    gens = spec.generators
    d = spec.dim
    if la.rank(gens) != d:
        raise ParameterError("generators do not span the ambient space")
    # the vertices are the subset sums that hull() keeps
    p = pt.hull(_subset_sums(gens), label=label or f"zonotope-{len(gens)}g{d}d")
    for w in sh.sample_admissible(p, 0, 4):
        if sh.shadow(p, w).k != 2 * len(gens):
            raise PolytopeError(
                "zonotope self-test failed: sampled shadow size is off"
            )
    return p


def random_generators(count, dim, seed):
    """Seeded generic generators: every subset of size <= dim independent."""
    if dim < 2:
        raise ParameterError("dimension must be at least 2")
    if count < dim:
        raise ParameterError("need at least dim generators to span")
    _check_generator_count(count)
    rng = random.Random(f"generators:{seed}")
    chosen = []
    budget = 64 * count
    while len(chosen) < count:
        if budget == 0:
            raise SamplingError("no generic generator family found")
        budget -= 1
        v = tuple(rng.randint(-9, 9) for _ in range(dim))
        ok = True
        for r in range(min(len(chosen), dim - 1) + 1):
            for subset in combinations(chosen, r):
                if la.rank(subset + (v,)) != r + 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            chosen.append(v)
    return tuple(chosen)


def _tangent_segment(c, s, eps):
    """Endpoints of the projected triangle tangent to the unit circle."""
    center = (-s, c)
    off = (eps * c, eps * s)
    return la.sub(center, off), la.add(center, off)


def _segments_touch(a, b, c, d):
    o1, o2 = kernels.cross2(a, b, c), kernels.cross2(a, b, d)
    o3, o4 = kernels.cross2(c, d, a), kernels.cross2(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (
        (o1 == 0 and sh.on_segment(c, a, b))
        or (o2 == 0 and sh.on_segment(d, a, b))
        or (o3 == 0 and sh.on_segment(a, c, d))
        or (o4 == 0 and sh.on_segment(b, c, d))
    )


class PnSpec:
    """Parameters for the tangent-triangle 4-polytope.

    Rational points on the unit circle replace the quarter-arc angles:
    the parameters run strictly increasing through the arc, and the
    projected segments of half-length eps must stay pairwise disjoint.
    m is the triangle count, at most MAX_TRIANGLES; the guaranteed
    simultaneous-degeneracy count n never exceeds it.
    """

    __slots__ = ("n", "m", "eps", "circle_points")

    def __init__(self, n, m=None, eps=None):
        if n < 2:
            raise ParameterError("n must be at least 2")
        m = n if m is None else m
        if m < n:
            raise ParameterError("m must be at least n")
        _check_generator_count(m, "triangles", MAX_TRIANGLES)
        eps = Fraction(1, 4 * (m + 1) ** 2) if eps is None else la.as_rat(eps)
        if eps <= 0:
            raise ParameterError("eps must be positive")
        pts = []
        for i in range(1, m + 1):
            t = Fraction(-2, 5) + Fraction(4 * i, 5 * (m + 1))
            den = 1 + t * t
            pts.append(((1 - t * t) / den, 2 * t / den))
        assert all(c * c + s * s == 1 for c, s in pts)
        segs = [_tangent_segment(c, s, eps) for c, s in pts]
        for (a, b), (c2, d2) in combinations(segs, 2):
            if _segments_touch(a, b, c2, d2):
                raise ParameterError(
                    "eps too large: projected segments overlap"
                )
        self.n = n
        self.m = m
        self.eps = eps
        self.circle_points = tuple(pts)


def _triangle_self_test(p, spec, hint):
    """The m construction triangles must stay estranged degenerating faces."""
    w = sh.ProjectionPlane(
        (la.unit(p.dim, 0), la.unit(p.dim, 1))
    )
    faces = pt.k_faces(p, 2)
    by_ids = {f.vertex_ids: f for f in faces}
    spans = []
    for i in range(spec.m):
        face = by_ids.get((3 * i, 3 * i + 1, 3 * i + 2))
        if face is None:
            raise PolytopeError(f"triangle {i} is not a 2-face{hint}")
        mat = [w.coords(b) for b in face.span.int_rows]
        if la.rank(mat) != 1:
            raise PolytopeError(f"triangle {i} does not degenerate{hint}")
        spans.append(face.span)
    for i, j in combinations(range(spec.m), 2):
        # two 2-face planes meet in 0 exactly when their rows stack to rank 4
        if kernels.rank_int(spans[i].int_rows + spans[j].int_rows) != 4:
            raise PolytopeError(
                f"triangles {i} and {j} share a direction{hint}"
            )


def pn_polytope(n, m=None, eps=None):
    """4-polytope with m >= n estranged 2-faces degenerating together.

    Each triangle lives in the plane spanned by f1 = (c, s, c, s) and
    f2 = (c, s, -s, c) for a rational circle point (c, s); distinct
    circle points give pairwise estranged planes. Translating within
    the projection plane puts every projected segment tangent to the
    unit circle, so all triangles degenerate for span{e1, e2} at once.
    """
    spec = n if isinstance(n, PnSpec) else PnSpec(n, m, eps)
    eps = spec.eps
    points = []
    for c, s in spec.circle_points:
        f1 = (c, s, c, s)
        f2 = (c, s, -s, c)
        tau = (-s - c, c - s, la.ZERO, la.ZERO)
        points.append(la.add(f1, tau))
        points.append(la.add(la.scale(f2, 1 - eps), tau))
        points.append(la.add(la.scale(f2, 1 + eps), tau))
    suffix = "" if spec.m == spec.n else f"m{spec.m}"
    p = pt.build(points, label=f"pn-{spec.n}{suffix}")
    _triangle_self_test(p, spec, "")
    return p


def hyperprism_pnd(n, d, seed):
    """Iterated prism over the tangent-triangle polytope, d >= 4.

    Each step adds Conv(0, e_k + rho) with a seeded small rational rho.
    The self-test re-checks the estranged degenerating triangles in the
    bottom copy; a failure suggests trying another seed. Each step
    doubles the vertices, so the d - 4 steps are capped to keep d at
    most MAX_CUBE_DIM.
    """
    if d < 4:
        raise ParameterError("d must be at least 4")
    _check_generator_count(d - 4, "prism doublings", MAX_CUBE_DIM - 4)
    spec = PnSpec(n)
    p = pn_polytope(spec)
    # a prism keeps every point of its base as a vertex: one build at the end
    verts = p.vertices
    for k in range(5, d + 1):
        rng = random.Random(f"pnd:{seed}:{k}")
        rho = tuple(Fraction(rng.randint(-50, 50), 1000) for _ in range(k))
        g = la.add(la.unit(k, k - 1), rho)
        bottom = [v + (la.ZERO,) for v in verts]
        verts = bottom + [la.add(v, g) for v in bottom]
    p = pt.build(verts, label=f"pnd-{n}d{d}") if d > 4 else p
    _triangle_self_test(p, spec, f" (seed {seed}; try another seed)")
    return p
