"""Exact rational linear algebra.

Vectors are tuples of Fraction and matrices are tuples of such rows.
Every function clears denominators row by row and runs on the integer
kernels; kernel_basis and the Subspace constructors share one
fraction-free reduced form, kernels.rref_int, and build Fractions only
from its result. There is no general solver: the one rotation the walks
need, plane_rotation, has a closed form. A Subspace stores only integer
rows, each over one positive multiplier; its Fraction basis is a view
built on first read.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from . import kernels
from .errors import DegenerateBasisError, DimensionError, ParameterError

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
    row = [x if isinstance(x, (int, Fraction)) else as_rat(x) for x in row]
    mult = lcm(*(x.denominator for x in row))
    return [x.numerator * (mult // x.denominator) for x in row], mult


def int_matrix(rows):
    """Rows scaled to integers by positive per-row factors: (tuple of
    integer tuples, product of the factors). A determinant of the rows
    is that of the integer rows divided by the product."""
    scaled = [int_row(r) for r in rows]
    return tuple(tuple(ints) for ints, _ in scaled), prod(mult for _, mult in scaled)


def det(m):
    """Exact determinant of a square rational matrix."""
    n = len(m)
    for r in m:
        if len(r) != n:
            raise DimensionError("determinant needs a square matrix")
    rows, scale = int_matrix(m)
    return Fraction(kernels.det_int(rows), scale)


def rank(m):
    """Exact rank of a rational matrix."""
    return kernels.rank_int([int_row(r)[0] for r in m])


def transpose(m):
    return tuple(zip(*m)) if m else ()


def matvec(m, v):
    return tuple(dot(row, v) for row in m)


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(d):
    return tuple(unit(d, i) for i in range(d))


def _rref(ints):
    """kernels.rref_int, with rows of mixed lengths a DimensionError."""
    try:
        return kernels.rref_int(ints)
    except ValueError as exc:
        raise DimensionError("matrix rows of mixed lengths") from exc


def _reduce(m):
    """kernels.rref_int of rational rows, each scaled to integers first
    (positive factors leave the reduced form as it is)."""
    return _rref([int_row(r)[0] for r in m])


def _rationals(rows, den):
    return tuple(tuple(Fraction(x, den) for x in r) for r in rows)


def _kernel_ints(reduced, pivots, den, ncols):
    """den times the kernel basis, read off rref_int's output."""
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = den
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        out.append(v)
    return out


def int_kernel(rows):
    """A kernel basis of (at least one) integer rows, as integer rows:
    kernel_basis(rows) times rref_int's den, read off without Fractions.
    Row scale does not change the reduced form, so any positive
    multiples of rational rows give the same kernel."""
    reduced, pivots, den = _rref(rows)
    return _kernel_ints(reduced, pivots, den, len(rows[0]))


def kernel_basis(m, ncols=None):
    """Basis of the right kernel of a matrix given by its rows."""
    if not m:
        if ncols is None:
            raise DimensionError("kernel of an empty system needs ncols")
        return [unit(ncols, i) for i in range(ncols)]
    reduced, pivots, den = _reduce(m)
    return [
        tuple(Fraction(x, den) for x in v)
        for v in _kernel_ints(reduced, pivots, den, len(m[0]))
    ]


# the canonical_key of a Subspace whose rows are its reduced echelon form
_REDUCED = object()


class Subspace:
    """A linear subspace given by an independent basis.

    Stored as integer rows, row i over its minimal positive multiplier
    int_mults[i] (int_row's); dim, contains, canonical_key, equality and
    hashing run on them. int_scale is the product of the multipliers,
    and basis, the rows in Fractions, is built on first read. A
    dependent family raises DegenerateBasisError. The empty basis
    describes the zero subspace and needs an explicit ambient dimension.
    """

    __slots__ = ("int_rows", "int_mults", "ambient", "_basis", "_key")

    def __init__(self, basis, ambient=None):
        scaled = [int_row(v) for v in basis]
        if scaled:
            width = len(scaled[0][0])
            if any(len(ints) != width for ints, _ in scaled):
                raise DimensionError("basis vectors of mixed lengths")
            if ambient not in (None, width):
                raise DimensionError(f"basis vectors do not have length {ambient}")
            ambient = width
        elif ambient is None:
            raise DimensionError("zero subspace needs an ambient dimension")
        self.int_rows = tuple(tuple(ints) for ints, _ in scaled)
        if kernels.rank_int(self.int_rows) != len(scaled):
            raise DegenerateBasisError("basis is linearly dependent")
        self.int_mults = tuple(mult for _, mult in scaled)
        self.ambient = ambient
        self._basis = self._key = None

    @classmethod
    def _of(cls, rows, den, ambient):
        """The Subspace with basis rows / den, for independent integer
        rows over a positive den, without re-validation: with g =
        gcd(den, *r), row r is stored as r // g over den // g."""
        gs = [gcd(den, *r) for r in rows]
        s = object.__new__(cls)
        s.int_rows = tuple(tuple(x // g for x in r) for r, g in zip(rows, gs))
        s.int_mults = tuple(den // g for g in gs)
        s.ambient = ambient
        s._basis = s._key = None
        return s

    @property
    def basis(self):
        """The basis rows as Fractions, built on first read."""
        if self._basis is None:
            self._basis = tuple(
                tuple(Fraction(x, m) for x in r)
                for r, m in zip(self.int_rows, self.int_mults)
            )
        return self._basis

    @property
    def int_scale(self):
        return prod(self.int_mults)

    @property
    def dim(self):
        return len(self.int_rows)

    def canonical_key(self):
        """Canonical form of the span, usable as a dict key: the Fraction
        rows of its reduced row echelon form, built on first read; a
        span_of result already holds that form as its basis."""
        if self._key is _REDUCED:
            self._key = self.basis
        elif self._key is None:
            reduced, _pivots, den = kernels.rref_int(self.int_rows)
            self._key = _rationals(reduced, den)
        return self._key

    def contains(self, v):
        ints = tuple(int_row(v)[0])
        if len(ints) != self.ambient:
            raise DimensionError("vector has wrong ambient dimension")
        return kernels.rank_int(self.int_rows + (ints,)) == self.dim

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


def int_subspace(rows):
    """The Subspace with basis the given (at least one) integer rows,
    without a Fraction round trip: its int_rows are the rows and its
    int_scale is 1. A dependent family raises DegenerateBasisError."""
    rows = tuple(tuple(r) for r in rows)
    if kernels.rank_int(rows) != len(rows):
        raise DegenerateBasisError("basis is linearly dependent")
    return Subspace._of(rows, 1, len(rows[0]))


def span_of(vectors, ambient=None):
    """Subspace spanned by an arbitrary (possibly dependent) family.

    The basis is the reduced row echelon form. rref_int's rows are
    independent by construction, so the Subspace is filled in directly
    (Subspace._of). Those rows are also the canonical key, so the
    Subspace is marked _REDUCED and canonical_key reads its basis, with
    no second rref_int.
    """
    vectors = tuple(vectors)
    if not vectors:
        return Subspace((), ambient=ambient)
    reduced, _pivots, den = _reduce(vectors)
    s = Subspace._of(reduced, den, len(vectors[0]))
    s._key = _REDUCED
    return s


def kernel_space(m):
    """The right kernel of a matrix given by its (at least one) rows,
    integer or rational, or of a Subspace's rows, as a Subspace.

    Its basis is kernel_basis(m). Those rows are independent by
    construction (each has den at its own free column and 0 at the
    others), so the Subspace is filled in directly (Subspace._of). A
    Subspace's integer rows go to rref_int as they are.
    """
    ints = m.int_rows if isinstance(m, Subspace) else [int_row(r)[0] for r in m]
    if not ints:
        raise DimensionError("kernel of an empty system needs a width")
    reduced, pivots, den = _rref(ints)
    ncols = len(ints[0])
    return Subspace._of(_kernel_ints(reduced, pivots, den, ncols), den, ncols)


def _coerce_subspace(s):
    if isinstance(s, Subspace):
        return s
    return Subspace(s)


def int_intersection(a, b):
    """Integer vectors spanning the intersection of two subspaces of
    positive dimension in one ambient space.

    x = sum l_i a_i = sum m_j b_j over the integer rows; each kernel
    vector (l, m) of those d equations gives one x. Both bases are
    independent, so x = 0 forces (l, m) = 0: the vectors are independent
    and there are as many as the intersection's dimension.
    """
    cols = a.int_rows + tuple(tuple(-x for x in v) for v in b.int_rows)
    return [
        tuple(sum(map(mul, z[: a.dim], col)) for col in zip(*a.int_rows))
        for z in int_kernel(tuple(zip(*cols)))
    ]


def intersect(a, b):
    """Intersection of two subspaces of the same ambient space."""
    a = _coerce_subspace(a)
    b = _coerce_subspace(b)
    if a.ambient != b.ambient:
        raise DimensionError("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return Subspace((), ambient=a.ambient)
    return span_of(int_intersection(a, b), ambient=a.ambient)


def plane_rotation(d, i, j, t):
    """Rational rotation acting in the (i, j) coordinate plane.

    It is the Cayley transform (I + S)(I - S)^-1 of the skew S with
    S_ij = t, in closed form: the identity except for the (i, j) block
    [[c, s], [-s, c]], with c = (1 - t^2) / (1 + t^2) and
    s = 2t / (1 + t^2). Small t gives a rotation close to the identity.
    """
    if not (0 <= i < d and 0 <= j < d and i != j):
        raise ParameterError("rotation plane indices out of range")
    t = as_rat(t)
    n = 1 + t * t
    rows = [list(unit(d, k)) for k in range(d)]
    rows[i][i] = rows[j][j] = (1 - t * t) / n
    rows[i][j] = 2 * t / n
    rows[j][i] = -rows[i][j]
    return tuple(map(tuple, rows))


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
    ints = v if all(type(x) is int for x in v) else int_row(v)[0]
    g = gcd(*ints)
    if not g:
        raise ParameterError("zero vector has no direction")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)
