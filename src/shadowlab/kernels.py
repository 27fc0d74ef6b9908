"""Integer matrix kernels and the planar hull.

Every exact determinant, rank and echelon form in the package funnels
through these functions after denominators are cleared. They work on
Python's arbitrary-precision integers and divide only exactly (Bareiss),
so results are exact at any magnitude. The one 2D convex hull (monotone
chain) lives here too: shadows, family self-tests and the gift wrap of
polytope all end in it. It only compares and multiplies, so it is exact
on integers and on Fractions alike.
"""

from operator import mul

# Read by the benchmark's run header (bench/run.py); always False.
USING_COMPILED = False


def _eliminate(rows, ncols):
    """Forward Bareiss elimination of integer rows of width ncols.

    Returns (rank, sign, last): sign is that of the row swaps and last
    the last pivot, which for a square matrix of full rank is sign times
    its determinant. Every update divides exactly by the previous pivot.
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


def det_int(rows):
    """Determinant of a square integer matrix by Bareiss elimination.

    The empty matrix has determinant 1. All intermediate divisions are
    exact, so the result is an exact integer.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    rank, sign, last = _eliminate(rows, n)
    return sign * last if rank == n else 0


def rank_int(rows):
    """Rank of a rectangular integer matrix, fraction-free elimination."""
    if not rows:
        return 0
    return _eliminate(rows, len(rows[0]))[0]


def rref_int(rows):
    """Fraction-free Gauss-Jordan form of a rectangular integer matrix.

    Returns (reduced, pivots, den): reduced / den is the reduced row
    echelon form without its zero rows, every pivot entry of reduced is
    den, and each Bareiss step divides exactly by the previous pivot.
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


def dot(u, v):
    """Dot product of two integer vectors."""
    return sum(map(mul, u, v))


def plane_minors(a, b):
    """The 2x2 minors a_i b_j - a_j b_i of the integer rows (a, b), one
    per column pair i < j, in lexicographic pair order."""
    n = len(a)
    return tuple(a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n))


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
