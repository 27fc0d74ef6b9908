"""Integer matrix kernels and the planar hull.

Every exact determinant, rank and echelon form in the package funnels
through these functions after denominators are cleared. One Bareiss
loop serves all three: forward for det_int and rank_int, Gauss-Jordan
for rref_int. It works on Python's arbitrary-precision integers and
divides only exactly, so results are exact at any magnitude. The one
greedy rank-raising row scan, independent, serves the gift wrap, its
full-dimension check and the walk's crossing bases; it stops once it
holds limit rows. in_plane tests a vector against a plane
through the plane's 2x2 minors, and generalized_cross gives the
cofactor normal of d-1 rows. The one 2D convex hull (monotone
chain) lives here too: shadows, family self-tests and the gift wrap of
polytope all end in it. It only compares and multiplies, so it is exact
on integers and on Fractions alike.
"""

from functools import cache
from itertools import combinations
from operator import mul

from .errors import DimensionError

# Read by the benchmark's run header (bench/run.py); always False.
USING_COMPILED = False


def _bareiss(rows, ncols, jordan=False):
    """Fraction-free Bareiss elimination of integer rows of width ncols.

    Returns (rows, pivots, sign, last): the eliminated rows, the pivot
    columns, the sign of the row swaps and the last pivot, which for a
    square matrix of full rank is sign times its determinant. The
    forward mode updates only the rows below each pivot, from the next
    column on, and leaves the entries under the pivots stale: enough
    for det and rank. jordan updates every other row in every column,
    which leaves the fraction-free reduced form. Every update divides
    exactly by the previous pivot.
    """
    m = [list(r) for r in rows]
    for r in m:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    nrows = len(m)
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        for piv in range(rank, nrows):
            if m[piv][col]:
                break
        else:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        rk = m[rank]
        pivot = rk[col]
        if jordan:
            targets, cols = m[:rank] + m[rank + 1 :], range(ncols)
        else:
            targets, cols = m[rank + 1 :], range(col + 1, ncols)
        for ri in targets:
            mic = ri[col]
            for j in cols:
                q, rem = divmod(pivot * ri[j] - mic * rk[j], prev)
                if rem:
                    raise AssertionError("fraction-free update was not exact")
                ri[j] = q
        prev = pivot
        pivots.append(col)
    return m, pivots, sign, prev


def det_int(rows):
    """Determinant of a square integer matrix by Bareiss elimination.

    The empty matrix has determinant 1. All intermediate divisions are
    exact, so the result is an exact integer.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _m, pivots, sign, last = _bareiss(rows, n)
    return sign * last if len(pivots) == n else 0


def rank_int(rows):
    """Rank of a rectangular integer matrix, fraction-free elimination."""
    if not rows:
        return 0
    return len(_bareiss(rows, len(rows[0]))[1])


def independent(rows, candidates, limit):
    """Indices of the candidates that raise the rank of the independent
    integer rows and the candidates kept before them, in order, while
    fewer than limit rows are held."""
    kept, out = list(rows), []
    for i, r in enumerate(candidates):
        if len(kept) >= limit:
            break
        if rank_int(kept + [r]) > len(kept):
            kept.append(r)
            out.append(i)
    return out


def rref_int(rows):
    """Fraction-free Gauss-Jordan form of a rectangular integer matrix.

    Returns (reduced, pivots, den): reduced / den is the reduced row
    echelon form without its zero rows, every pivot entry of reduced is
    den, and each Bareiss step divides exactly by the previous pivot.
    den > 0: when the last pivot is negative, the rows and den are
    negated, which leaves reduced / den as it is.
    """
    m, pivots, _sign, den = _bareiss(rows, len(rows[0]) if rows else 0, jordan=True)
    m = m[: len(pivots)]
    if den < 0:
        return tuple(tuple(-x for x in r) for r in m), tuple(pivots), -den
    return tuple(map(tuple, m)), tuple(pivots), den


def dot(u, v):
    """Dot product of two integer vectors."""
    return sum(map(mul, u, v))


def plane_minors(a, b):
    """The 2x2 minors a_i b_j - a_j b_i of the integer rows (a, b), one
    per column pair i < j, in lexicographic pair order."""
    n = len(a)
    return tuple(a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n))


@cache
def _triples(n):
    """Each column triple i < j < k with the positions of the pairs
    (j, k), (i, k) and (i, j) in plane_minors' order."""
    pos = {pair: idx for idx, pair in enumerate(combinations(range(n), 2))}
    return tuple(
        (i, j, k, pos[j, k], pos[i, k], pos[i, j])
        for i, j, k in combinations(range(n), 3)
    )


def in_plane(u, minors):
    """Whether the integer vector u lies in the plane of two independent
    rows whose plane_minors are minors.

    It does exactly when the three rows have rank 2, that is when every
    3x3 minor u_i m_jk - u_j m_ik + u_k m_ij vanishes (Laplace expansion
    along u); the scan stops at the first that does not.
    """
    for i, j, k, jk, ik, ij in _triples(len(u)):
        if u[i] * minors[jk] - u[j] * minors[ik] + u[k] * minors[ij]:
            return False
    return True


def generalized_cross(rows):
    """Integer vector orthogonal to d-1 integer rows of width d.

    Component j is the signed cofactor det(rows without column j) times
    (-1)^j; the zero vector comes back exactly when the rows are
    dependent.
    """
    d = len(rows[0]) if rows else 0
    if len(rows) != d - 1:
        raise DimensionError("need d-1 vectors in dimension d")
    if any(len(r) != d for r in rows):
        raise DimensionError("vectors of mixed lengths")
    out = []
    for j in range(d):
        term = det_int([[r[c] for c in range(d) if c != j] for r in rows])
        out.append(-term if j % 2 else term)
    return tuple(out)


def cross2(o, a, b):
    """Twice the signed area of the triangle (o, a, b): positive when
    the turn o -> a -> b is counterclockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_chain(pts):
    """One monotone chain over sorted points: each point pops the
    points it does not leave on a strict left turn (cross2 inlined)."""
    out = []
    for q in pts:
        qx, qy = q
        while len(out) > 1:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (qy - oy) > (ay - oy) * (qx - ox):
                break
            out.pop()
        out.append(q)
    return out


def strict_hull_2d(points):
    """Counterclockwise strict convex hull of distinct 2D points.

    Andrew's monotone chain: starts at the smallest point, keeps no
    point interior to an edge. Two or fewer points come back sorted.
    """
    pts = sorted(points)
    if len(pts) <= 2:
        return pts
    return _hull_chain(pts)[:-1] + _hull_chain(reversed(pts))[:-1]


def complementary_minors(rows, width):
    """Signed complementary minors of width - 2 integer rows R.

    One entry per column pair i < j, in plane_minors' order:
    e_ij * det(R without columns i, j) with e_ij = -(-1)^(i+j), so that
    det(R; a; b) is the dot product with plane_minors(a, b) (Laplace
    expansion along the last two rows). The minors of R on every column
    set are built row by row as the wedge product of its rows.
    """
    if len(rows) != width - 2 or any(len(r) != width for r in rows):
        raise ValueError("need width - 2 rows of that width")
    # column bit mask -> det of the rows so far on those columns
    wedge = {0: 1}
    for r in rows:
        nxt = {}
        for mask, m in wedge.items():
            for k, x in enumerate(r):
                if not x or mask >> k & 1:
                    continue
                # moving column k into place passes the columns above it
                term = -m * x if (mask >> k).bit_count() & 1 else m * x
                key = mask | 1 << k
                nxt[key] = nxt.get(key, 0) + term
        wedge = nxt
    full = (1 << width) - 1
    return tuple(
        (-1 if (i + j) % 2 == 0 else 1) * wedge.get(full ^ (1 << i) ^ (1 << j), 0)
        for i in range(width)
        for j in range(i + 1, width)
    )


# Traced by the benchmark (bench/spans.py); no package code calls it.
def sign_range(points, normal, offset):
    """Extreme signs of n.x - offset over integer points.

    Returns (lo, hi) with lo = min observed sign and hi = max observed
    sign, each one of -1, 0, +1. Exits early once both strict signs have
    been seen, so a zero after that point may go unreported.
    """
    lo = 0
    hi = 0
    for p in points:
        s = -offset
        for a, b in zip(p, normal):
            s += a * b
        if s < 0:
            lo = -1
            if hi > 0:
                break
        elif s > 0:
            hi = 1
            if lo < 0:
                break
    return lo, hi
