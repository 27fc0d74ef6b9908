"""Exact rational linear algebra.

Vectors are tuples of Fraction and matrices are tuples of such rows.
Determinants and ranks clear denominators row by row and run on the
integer kernels.
"""

from fractions import Fraction
from math import gcd, lcm

from . import kernels
from .errors import DegenerateBasisError, DimensionError, ParameterError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def as_vec(seq):
    return tuple(as_rat(x) for x in seq)


def as_mat(rows):
    return tuple(as_vec(r) for r in rows)


def unit(d, i):
    return tuple(ONE if j == i else ZERO for j in range(d))


def dot(u, v):
    if len(u) != len(v):
        raise DimensionError("dot product needs equal lengths")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def scale(u, c):
    c = as_rat(c)
    return tuple(a * c for a in u)


def neg(u):
    return tuple(-a for a in u)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def int_row(row):
    """Scale a rational row to integers by a positive multiplier.

    Returns (ints, multiplier); integer entries are taken as they are.
    """
    row = [x if isinstance(x, int) else as_rat(x) for x in row]
    mult = lcm(*(x.denominator for x in row))
    return [int(x * mult) for x in row], mult


def det(m):
    """Exact determinant of a square rational matrix."""
    n = len(m)
    for r in m:
        if len(r) != n:
            raise DimensionError("determinant needs a square matrix")
    if n == 0:
        return ONE
    scaled = []
    denom = 1
    for r in m:
        ints, mult = int_row(r)
        scaled.append(ints)
        denom *= mult
    return Fraction(kernels.det_int(scaled), denom)


def rank(m):
    """Exact rank of a rational matrix."""
    if not m:
        return 0
    scaled = [int_row(r)[0] for r in m]
    return kernels.rank_int(scaled)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def matvec(m, v):
    return tuple(dot(row, v) for row in m)


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(d):
    return tuple(unit(d, i) for i in range(d))


def rref(m):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(as_vec(r)) for r in m]
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
        inv = ONE / rows[r][col]
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


def kernel_basis(m, ncols=None):
    """Basis of the right kernel of a matrix given by its rows."""
    if not m:
        if ncols is None:
            raise DimensionError("kernel of an empty system needs ncols")
        return [unit(ncols, i) for i in range(ncols)]
    ncols = len(m[0])
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(tuple(v))
    return basis


def _gauss_jordan(rows, n):
    """Reduce the left n x n block of augmented rows to the identity.

    Works in place; returns the rows, or None when the block is
    singular.
    """
    for col in range(n):
        piv = None
        for i in range(col, n):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = ONE / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        pc = rows[col]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], pc)]
    return rows


def solve_square(a, b):
    """Solve a x = b for square a; returns None when a is singular."""
    n = len(a)
    rows = _gauss_jordan(
        [list(as_vec(r)) + [as_rat(b[i])] for i, r in enumerate(a)], n
    )
    if rows is None:
        return None
    return tuple(rows[i][n] for i in range(n))


def inverse(m):
    """Matrix inverse; returns None when singular."""
    n = len(m)
    rows = _gauss_jordan(
        [list(as_vec(r)) + list(unit(n, i)) for i, r in enumerate(m)], n
    )
    if rows is None:
        return None
    return tuple(tuple(r[n:]) for r in rows)


class Subspace:
    """A linear subspace given by an independent basis.

    The basis is validated at construction; a dependent family raises
    DegenerateBasisError. The empty basis describes the zero subspace
    and needs an explicit ambient dimension.
    """

    __slots__ = ("basis", "ambient", "_key")

    def __init__(self, basis, ambient=None):
        basis = tuple(as_vec(v) for v in basis)
        if basis:
            ambient = len(basis[0])
            if any(len(v) != ambient for v in basis):
                raise DimensionError("basis vectors of mixed lengths")
            if rank(basis) != len(basis):
                raise DegenerateBasisError("basis is linearly dependent")
        elif ambient is None:
            raise DimensionError("zero subspace needs an ambient dimension")
        self.basis = basis
        self.ambient = ambient
        self._key = None

    @property
    def dim(self):
        return len(self.basis)

    def canonical_key(self):
        """Canonical form of the span, usable as a dict key."""
        if self._key is None:
            self._key = rref(self.basis)[0] if self.basis else ()
        return self._key

    def contains(self, v):
        v = as_vec(v)
        if len(v) != self.ambient:
            raise DimensionError("vector has wrong ambient dimension")
        if is_zero_vec(v):
            return True
        if not self.basis:
            return False
        return rank(self.basis + (v,)) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash((self.ambient, self.canonical_key()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def span_of(vectors, ambient=None):
    """Subspace spanned by an arbitrary (possibly dependent) family."""
    vectors = tuple(as_vec(v) for v in vectors)
    if vectors:
        rows, _ = rref(vectors)
        return Subspace(rows, ambient=len(vectors[0]))
    return Subspace((), ambient=ambient)


def _coerce_subspace(s):
    if isinstance(s, Subspace):
        return s
    return Subspace(s)


def gram_coords(v, basis):
    """Coordinates of the orthogonal projection of v in the given basis.

    Solves the normal equations G a = B v, with G the Gram matrix of the
    basis. The basis must be independent, so G is invertible.
    """
    g = tuple(tuple(dot(bi, bj) for bj in basis) for bi in basis)
    rhs = tuple(dot(bi, v) for bi in basis)
    coords = solve_square(g, rhs)
    if coords is None:
        raise DegenerateBasisError("basis is linearly dependent")
    return coords


def orth_project(v, s):
    """Orthogonal projection of v onto a subspace, exactly."""
    s = _coerce_subspace(s)
    v = as_vec(v)
    if len(v) != s.ambient:
        raise DimensionError("vector has wrong ambient dimension")
    if not s.basis:
        return tuple(ZERO for _ in v)
    coords = gram_coords(v, s.basis)
    out = tuple(ZERO for _ in v)
    for c, b in zip(coords, s.basis):
        out = add(out, scale(b, c))
    return out


def intersect(a, b):
    """Intersection of two subspaces of the same ambient space."""
    a = _coerce_subspace(a)
    b = _coerce_subspace(b)
    if a.ambient != b.ambient:
        raise DimensionError("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return Subspace((), ambient=a.ambient)
    # x = sum l_i a_i = sum m_j b_j; rows below are the d equations
    # in the unknowns (l, m).
    cols = tuple(a.basis) + tuple(neg(v) for v in b.basis)
    equations = transpose(cols)
    vectors = []
    for z in kernel_basis(equations, ncols=len(cols)):
        x = tuple(ZERO for _ in range(a.ambient))
        for c, base in zip(z[: a.dim], a.basis):
            x = add(x, scale(base, c))
        vectors.append(x)
    return span_of(vectors, ambient=a.ambient)


def cayley_orthogonal(skew):
    """Rational orthogonal matrix (I + S)(I - S)^-1 of a skew-symmetric S."""
    m = as_mat(skew)
    n = len(m)
    for r in m:
        if len(r) != n:
            raise ParameterError("skew matrix must be square")
    for i in range(n):
        for j in range(n):
            if m[i][j] != -m[j][i]:
                raise ParameterError("matrix is not skew-symmetric")
    ident = identity(n)
    plus = tuple(tuple(ident[i][j] + m[i][j] for j in range(n)) for i in range(n))
    minus = tuple(tuple(ident[i][j] - m[i][j] for j in range(n)) for i in range(n))
    inv = inverse(minus)
    if inv is None:
        raise ParameterError("I - S is singular")
    return matmul(plus, inv)


def plane_rotation(d, i, j, t):
    """Rational rotation acting in the (i, j) coordinate plane.

    t is the Cayley parameter; small t gives a rotation close to the
    identity.
    """
    if not (0 <= i < d and 0 <= j < d and i != j):
        raise ParameterError("rotation plane indices out of range")
    t = as_rat(t)
    skew = [[ZERO] * d for _ in range(d)]
    skew[i][j] = t
    skew[j][i] = -t
    return cayley_orthogonal(skew)


def generalized_cross(vectors):
    """Vector orthogonal to d-1 independent vectors in R^d.

    Component j is the signed cofactor of the matrix whose rows are the
    inputs; the zero vector comes back exactly when they are dependent.
    The cofactors are integer determinants of the rows scaled to
    integers, so integer rows give integer components.
    """
    k = len(vectors)
    d = len(vectors[0]) if vectors else 0
    if k != d - 1:
        raise DimensionError("need d-1 vectors in dimension d")
    rows = []
    denom = 1
    for v in vectors:
        ints, mult = int_row(v)
        rows.append(ints)
        denom *= mult
    out = []
    for j in range(d):
        minor = [[r[c] for c in range(d) if c != j] for r in rows]
        term = kernels.det_int(minor)
        out.append(term if j % 2 == 0 else -term)
    if denom == 1:
        return tuple(out)
    return tuple(Fraction(x, denom) for x in out)


def rat_str(x):
    """Serialise a rational as "p/q", or "p" when the denominator is 1."""
    x = as_rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational literal {s!r}") from exc


def primitive(v):
    """Canonical primitive integer vector spanning the same line.

    Denominators are cleared, the gcd is divided out, and the first
    nonzero entry is made positive.
    """
    v = as_vec(v)
    if is_zero_vec(v):
        raise ParameterError("zero vector has no direction")
    mult = lcm(*(x.denominator for x in v))
    ints = [int(x * mult) for x in v]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)
