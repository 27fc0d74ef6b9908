"""Certified walks in the space of projection planes.

A projection plane is tracked through its (d-2)-dimensional orthogonal
span. A walk is a chain of segments, each an affine family of d-2 basis
rows, chosen so that every class degeneration determinant is an affine
polynomial of the segment parameter. Degeneration times are then exact
rational roots, and the construction arranges for each time to belong
to exactly one parallel class.

Everything here is exact. A segment stores each row as an integer
base and slope pair over one positive multiplier (WalkSegment);
rescaling, reversal and the reference rotation run on those integers.
The planner runs on them from the start span to the plan: it reads
integer echelon rows off kernels.rref_int, builds every crossing,
nudge, staircase step and contraction in the stored form, and moves a
row by integer ratios, so Fraction rows are built only at the API edge
(base, slope, rows_at, to_json_dict). The complementary minors of a
segment's integer rows at its two ends, the Pluecker vector of its
span there, are built once per segment (SegmentMinors), which also
proves once that every class determinant is affine on it when the
slope rows have rank at most 1, as on every segment the walks build; a
class is read on it by its two end values alone, two integer dot
products over one positive denominator (end_values). Their signs say
whether a class degenerates on the segment, at an end, or along all of
it. One scan (_segment_events) reads them for planning, whose events
the plan keeps, and for verify_walk; one reader (_nearest_root) gives
the nearest nonzero root on a range [-L, L], for a crossing probe's
eps and a chain split's slide. The scan keys each event time by an exact
fixed-point integer, floor(a 2^K / (a - b)) for a root at the fraction
a / (a - b) of the range (a > 0 > b, up to the sign of both), with
K = 2B + 1 and B the largest bit length of the a - b on the segment:
two distinct such fractions differ by more than 2^-2B, so equal keys
are one time and integer order is time order. It gives each time as an
integer pair (num, den), den > 0, and builds no Fraction: _assemble
builds one per event, on the plan's clock, and verify_walk one per
time, for its certificate. verify_walk tests that two segments meet in
one span by the proportionality of their minor vectors there, and
needs no rank test of its own: where the rows are dependent every
class determinant is zero, so the scan reports that time as one shared
by every class, or as a fault of every class.
A crossing's frame is read off its direction v (the witness plane is
span(w1, v)), and a chain split slides on the face plane's (ebar, v).
Randomness only picks candidate directions; every candidate is accepted
or rejected by these integer sign tests, and all searches are capped
and seeded.
"""

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm, prod

from . import kernels
from . import linalg as la
from . import polytope as pt
from . import shadow as sh
from .errors import (
    DimensionError,
    GeometryError,
    InadmissiblePlaneError,
    ParameterError,
    WalkError,
)

_SEARCH_CAP = 64
_NOT_AFFINE = "degeneration determinant is not affine on the segment"


def _reduced(b, s, c):
    """A row pair (b + t*s) / c over a positive c, with gcd(c, *b, *s)
    divided out."""
    g = gcd(c, *b, *s)
    if g == 1:
        return b, s, c
    return tuple(x // g for x in b), tuple(x // g for x in s), c // g


def _int_map(m, row):
    """The integer matrix m (given by its rows) times an integer row."""
    return tuple(kernels.dot(mi, row) for mi in m)


def _root(a, b, lo, hi):
    """The zero of the affine function with the values a at lo and b at
    hi, a != b, as an integer pair (num, den), den > 0 when a > b:
    (hi*a - lo*b) / (a - b) on the integer parts of the Fractions lo
    and hi."""
    return (
        hi.numerator * lo.denominator * a - lo.numerator * hi.denominator * b,
        hi.denominator * lo.denominator * (a - b),
    )


def _echelon(ints):
    """The reduced row echelon form of integer rows, as reduced integer
    rows (B, 0, c) of WalkSegment, and its pivot columns."""
    red, pivots, den = kernels.rref_int(ints)
    return [_reduced(r, (0,) * len(r), den) for r in red], pivots


class WalkSegment:
    """One affine piece of a walk.

    The orthogonal family at time t is d-2 rows; row i is
    (B_i + t * S_i) / c_i, with integer tuples B_i, S_i and a positive
    integer c_i reduced so that gcd(c_i, *B_i, *S_i) = 1. That is the
    stored form: c_i is la.int_row's minimal multiplier of the rational
    pair, so the form is unique and the integers do not grow along
    chains of rescaling, reversal and rotation, all of which run on
    them. The walk planner builds its segments in this form directly
    (_of), from integer echelon rows and integer ratios; this
    constructor, from Fraction rows, is for callers at the API edge, as
    are the Fraction rows (base, slope, rows_at), built only when asked
    for. Row independence over the closed range is a promise of the
    constructors; verify_walk rejects a family that breaks it, since
    every class determinant is zero where the rows are dependent.
    """

    __slots__ = ("t_range", "_rows")

    def __init__(self, base, slope, t_range):
        base, slope = tuple(base), tuple(slope)
        if len(base) != len(slope) or not base:
            raise DimensionError("base and slope must pair up row by row")
        width = len(base[0])
        if any(len(v) != width for v in base + slope):
            raise DimensionError("segment rows of mixed lengths")
        lo, hi = la.as_rat(t_range[0]), la.as_rat(t_range[1])
        if not lo < hi:
            raise ParameterError("segment range is empty")
        rows = []
        for b, s in zip(base, slope):
            # int_row's multiplier is minimal, so the pair comes reduced
            ints, c = la.int_row(tuple(b) + tuple(s))
            rows.append((tuple(ints[:width]), tuple(ints[width:]), c))
        self.t_range = (lo, hi)
        self._rows = tuple(rows)

    @classmethod
    def _of(cls, rows, t_range):
        """The segment of reduced integer rows (B, S, c) on t_range, a
        nonempty range of two Fractions."""
        seg = object.__new__(cls)
        seg.t_range, seg._rows = t_range, rows
        return seg

    @property
    def base(self):
        return tuple(tuple(Fraction(x, c) for x in b) for b, _s, c in self._rows)

    @property
    def slope(self):
        return tuple(tuple(Fraction(x, c) for x in s) for _b, s, c in self._rows)

    def rows_at(self, t):
        t = la.as_rat(t)
        p, q = t.numerator, t.denominator
        return tuple(
            tuple(Fraction(q * x + p * y, q * c) for x, y in zip(b, s))
            for b, s, c in self._rows
        )

    def int_rows_at(self, t):
        """The rows at t scaled to integers: (rows, product of factors).

        With t = p/q in lowest terms, row i is q*B_i + p*S_i: the
        rational row times q*c_i.
        """
        t = la.as_rat(t)
        p, q = t.numerator, t.denominator
        rows = tuple(
            tuple(q * x + p * y for x, y in zip(b, s)) for b, s, _c in self._rows
        )
        return rows, q ** len(rows) * prod(c for _b, _s, c in self._rows)

    def span_at(self, t):
        """The span of the rows at t, from their integer rows; a dependent
        family raises DegenerateBasisError."""
        return la.int_subspace(self.int_rows_at(t)[0])

    def plane_at(self, t):
        """The projection plane orthogonal to the span at t."""
        return sh.ProjectionPlane.from_orthogonal(self.span_at(t))

    def _reparametrised(self, shift, f, t_range):
        """The family at t = shift + f*u, as a segment in u on t_range.

        Over m = lcm of the two denominators, row i becomes
        (m*B_i + m*shift*S_i + u * m*f*S_i) / (m*c_i).
        """
        m = lcm(shift.denominator, f.denominator)
        ms = shift.numerator * (m // shift.denominator)
        mf = f.numerator * (m // f.denominator)
        return WalkSegment._of(
            tuple(
                _reduced(
                    tuple(m * x + ms * y for x, y in zip(b, s)),
                    tuple(mf * y for y in s),
                    m * c,
                )
                for b, s, c in self._rows
            ),
            t_range,
        )

    def rescaled(self, lo, hi):
        """The same family reparametrised affinely onto [lo, hi]."""
        lo, hi = la.as_rat(lo), la.as_rat(hi)
        if not lo < hi:
            raise ParameterError("segment range is empty")
        a, b = self.t_range
        f = (b - a) / (hi - lo)
        return self._reparametrised(a - lo * f, f, (lo, hi))

    def reversed(self):
        """The same range traversed the other way: t -> a + b - t."""
        a, b = self.t_range
        return self._reparametrised(a + b, -la.ONE, self.t_range)

    def mapped(self, int_map):
        """The segment under the linear map m / den, given as (integer
        rows m, positive den): row i becomes (m B_i + t m S_i) / (den c_i)."""
        m, den = int_map
        return WalkSegment._of(
            tuple(_reduced(_int_map(m, b), _int_map(m, s), den * c) for b, s, c in self._rows),
            self.t_range,
        )

    def __repr__(self):
        lo, hi = self.t_range
        return f"WalkSegment(rows={len(self._rows)}, range=[{lo}, {hi}])"


DegenerationEvent = namedtuple("DegenerationEvent", ["time", "class_id"])

EtaVector = namedtuple("EtaVector", ["class_id", "eta"])

WalkPlan = namedtuple(
    "WalkPlan", ["segments", "events", "isometry", "isometry_inv"]
)

ReferenceFrame = namedtuple(
    "ReferenceFrame", ["rotation", "inverse", "moved", "int_inverse", "class_ids"]
)

WalkCertificate = namedtuple(
    "WalkCertificate", ["valid", "events", "violations"]
)

ElementaryTransformation = namedtuple(
    "ElementaryTransformation",
    [
        "face_id",
        "other_id",
        "minus",
        "plus",
        "u1",
        "v",
        "w1",
        "w2",
        "sign_coefficient",
        "epsilon",
    ],
)

ChainState = namedtuple("ChainState", ["visible", "invisible", "fixed"])


class SegmentMinors:
    """The complementary minors of one segment's integer rows at its two
    ends, and whether every class determinant is affine on it.

    lo_vals and hi_vals are kernels.complementary_minors of
    int_rows_at(lo) and int_rows_at(hi), each times the other end's
    scale, so that both sit over den, the product of the two scales:
    the minor vector at lo is lo_vals / den. A class's end values are
    then two dot products with its plane minors (end_values).

    The minor vector is a polynomial of degree at most d-2 in t. When
    the nonzero slope rows have rank at most 1, every wedge term with
    two slope rows vanishes, so it is affine: this holds for every
    segment the walk constructions build (one moving row, or the
    contraction's multiples of one row) and for their rescaled,
    reversed and mapped images. Otherwise the minor vectors at the d-3
    interior points lo + k (hi - lo) / (d-2) are kept, and each class is
    tested at them; d-1 points are exact for its degree.

    The minor vector at t is zero exactly when the rows at t are
    dependent, and then every class determinant is zero at t. So a
    segment whose family loses rank at t0 on the closed range has no
    class free of it: each class is not affine, zero along the whole
    segment, zero at an end t0, or has its one root at t0 inside.
    """

    __slots__ = ("segment", "lo_vals", "hi_vals", "den", "_inner")

    def __init__(self, segment):
        rows = segment._rows
        d = len(rows[0][0])
        if len(rows) + 2 != d:
            raise DimensionError("stacked family is not square")
        lo, hi = segment.t_range
        (r_lo, s_lo), (r_hi, s_hi) = (
            (kernels.complementary_minors(ints, d), scale)
            for ints, scale in map(segment.int_rows_at, (lo, hi))
        )
        self.segment = segment
        self.lo_vals = tuple(x * s_hi for x in r_lo)
        self.hi_vals = tuple(x * s_lo for x in r_hi)
        self.den = s_lo * s_hi
        self._inner = None
        moving = [s for _b, s, _c in rows if any(s)]
        if all(not any(kernels.plane_minors(moving[0], s)) for s in moving[1:]):
            return
        n = d - 2
        inner = []
        for k in range(1, n):
            ints, scale = segment.int_rows_at(lo + (hi - lo) * k / n)
            inner.append((k, kernels.complementary_minors(ints, d), scale))
        self._inner = tuple(inner)

    def end_values(self, cls):
        """The class determinant at lo and at hi as two integers over
        den * the plane's int_scale; WalkError when it is not affine."""
        m = cls.minors
        a, b = kernels.dot(self.lo_vals, m), kernels.dot(self.hi_vals, m)
        if self._inner is not None:
            n = len(self._inner) + 1
            for k, vals, scale in self._inner:
                if n * kernels.dot(vals, m) * self.den != scale * ((n - k) * a + k * b):
                    raise WalkError(_NOT_AFFINE)
        return a, b


def degeneration_polynomial(segment, cls):
    """(c0, c1) of the class determinant c0 + c1*t on a segment, read
    off its integer end values (SegmentMinors.end_values) over den *
    the plane's int_scale; a determinant that is not affine in t raises
    WalkError. The walk layer itself reads classes by their end values
    alone."""
    polys = SegmentMinors(segment)
    a, b = polys.end_values(cls)
    lo, hi = segment.t_range
    den = polys.den * cls.direction_plane.int_scale
    c1 = Fraction(b - a, den) / (hi - lo)
    return Fraction(a, den) - c1 * lo, c1


def _eta_line(a, b):
    """a[0] b - b[0] a: it spans the meet of span(a, b) with the
    reference hyperplane x_0 = 0, or is zero when the plane lies in it."""
    return tuple(a[0] * y - b[0] * x for x, y in zip(a, b))


def _etas(planes):
    """One normalised eta direction per class plane, given as integer
    row pairs in class order.

    eta spans the meet of the plane with the reference hyperplane and is
    scaled to last coordinate 1. Requires the reference arrangement:
    every such meet is a line off the last coordinate hyperplane;
    otherwise WalkError names the class.
    """
    out = []
    for cid, (a, b) in enumerate(planes):
        eta = _eta_line(a, b)
        if not any(eta):
            raise WalkError(
                f"class {cid} meets the reference hyperplane in dimension 2, "
                "expected a line; rotate the polytope first"
            )
        if eta[-1] == 0:
            raise WalkError(
                f"class {cid} eta direction has zero last coordinate; "
                "rotate the polytope first"
            )
        out.append(EtaVector(cid, tuple(Fraction(x, eta[-1]) for x in eta)))
    return out


def reference_isometry(p):
    """Exact rotation moving p into the reference arrangement.

    After the move no proscribed direction lies in the reference
    hyperplane and every class eta has a nonzero last coordinate; the
    latter is, up to sign, the class determinant at span(e2, ...,
    e_{d-1}), which is therefore admissible. Built from Cayley plane
    rotations, each accepted only when it strictly shrinks the defect
    count, and each scored on p's own lines and planes: with r = M / den,
    a proscribed line l is a defect when M_0 . l = 0, a class (f1, f2)
    when the eta of (M f1, M f2) has last coordinate 0. The rotation
    plane comes from the defect the moved copy would list first.
    Returns (matrix, etas of the moved copy).
    """
    d = p.dim
    if d < 3:
        raise ParameterError("walks need ambient dimension at least 3")
    lines = [pd.line for pd in pt.proscribed_directions(p)]
    planes = [cls.direction_plane.int_rows for cls in pt.parallel_classes(p)]

    def moved_planes(m):
        return [(_int_map(m, f1), _int_map(m, f2)) for f1, f2 in planes]

    def bad_lines(m):
        return [_int_map(m, ln) for ln in lines if kernels.dot(m[0], ln) == 0]

    def line_plane(found):
        # lines are listed by primitive form
        line = min(map(la.primitive, found))
        return 0, max(range(d), key=lambda i: abs(line[i]))

    def bad_planes(m):
        etas = [(ab, _eta_line(*ab)) for ab in moved_planes(m)]
        if not all(any(eta) for _ab, eta in etas):
            raise WalkError("eta stage lost the direction arrangement")
        return [ab for ab, eta in etas if eta[-1] == 0]

    def eta_plane(found):
        # classes are listed by the keys of their planes; the eta has
        # first and last coordinates 0, so a middle one is nonzero, and
        # rotating in (j, d-1) keeps the first stage's work exactly
        eta = _eta_line(*min(found, key=lambda ab: la.span_of(ab).canonical_key()))
        return max(range(1, d - 1), key=lambda i: abs(eta[i])), d - 1

    q = la.identity(d)
    for bad, plane_of, what, stage in (
        (bad_lines, line_plane, "proscribed directions", "proscribed-direction"),
        (bad_planes, eta_plane, "eta directions", "eta"),
    ):
        for _ in range(_SEARCH_CAP):
            found = bad(pt.int_points(q)[0])
            if not found:
                break
            i, j = plane_of(found)
            for k in range(2, _SEARCH_CAP + 2):
                r = la.matmul(la.plane_rotation(d, i, j, Fraction(1, k)), q)
                if len(bad(pt.int_points(r)[0])) < len(found):
                    q = r
                    break
            else:
                raise WalkError(f"no plane rotation clears the {what}")
        else:
            raise WalkError(f"{stage} stage did not converge")
    keyed = sorted(
        (la.span_of(ab).canonical_key(), ab) for ab in moved_planes(pt.int_points(q)[0])
    )
    return q, _etas([ab for _key, ab in keyed])


def reference_frame(p):
    """p's reference isometry, cached on p the first time it is asked.

    Holds the rotation, its inverse, the moved copy (whose lattice
    caches fill as the walks use them), the inverse as (integer rows,
    one positive denominator) and p's id of each class of the copy,
    read off a member face (the copy keeps p's face ids but orders its
    classes by the moved spans). verify_walk never reads it.
    """
    if p._frame is None:
        rot = reference_isometry(p)[0]
        m, den = pt.int_points(rot)
        q = pt.apply_isometry(p, rot)
        ids = [_class_of_face(p, cls.member_ids[0]) for cls in pt.parallel_classes(q)]
        p._frame = ReferenceFrame(rot, la.transpose(rot), q, (la.transpose(m), den), ids)
    return p._frame


def _ortho_span(p, span):
    s = span if isinstance(span, la.Subspace) else la.Subspace(span)
    if s.ambient != p.dim:
        raise DimensionError("span lives in the wrong ambient dimension")
    if s.dim != p.dim - 2:
        raise DimensionError(
            f"orthogonal span must have dimension {p.dim - 2}, got {s.dim}"
        )
    return s


def _require_admissible(p, rows, what):
    cid = next(sh.degenerate_classes(p, rows), None)
    if cid is not None:
        raise InadmissiblePlaneError(f"{what} span degenerates class {cid}")


def _keyed_roots(polys, classes):
    """(roots, faults) of the classes on a segment, given its
    SegmentMinors, each class classed by the signs of its end values.
    roots lists (key, class id, a, b) for each class with a root
    strictly inside the range, its end values a > 0 > b up to the sign
    of both; faults lists (class id, "whole" | "end" |
    "not affine", the vanishing end or None) in class order.

    A root sits at the fraction r = a / (a - b) of the range. With B
    the largest bit length of the a - b, two distinct such fractions
    differ by more than 2^-2B, so at K = 2B + 1 the integer
    floor(a 2^K / (a - b)) keys its time: equal keys are one time, and
    integer order is time order. A key costs one shift and one division
    of numbers of about 3B bits."""
    lo, hi = polys.segment.t_range
    inside, faults = [], []
    for cid, cls in enumerate(classes):
        try:
            a, b = polys.end_values(cls)
        except WalkError:
            faults.append((cid, "not affine", None))
            continue
        if not (a and b):
            faults.append((cid, "end", hi if a else lo) if a or b else (cid, "whole", None))
        elif (a < 0) != (b < 0):
            inside.append((cid, a, b) if a > 0 else (cid, -a, -b))
    bits = max(((a - b).bit_length() for _cid, a, b in inside), default=0)
    shift = 2 * bits + 1
    return [((a << shift) // (a - b), cid, a, b) for cid, a, b in inside], faults


def _segment_events(polys, classes):
    """(events, faults) of the classes on a segment (_keyed_roots).
    events lists (t, class ids) for the roots inside the range, one
    entry per time, in time order, where t is the integer pair (num,
    den) of _root, den > 0. The roots are grouped and sorted by their
    integer keys, and no Fraction is built: a caller builds one per
    time where it needs the time itself (_assemble, verify_walk)."""
    roots, faults = _keyed_roots(polys, classes)
    groups = {}
    for key, cid, a, b in roots:
        groups.setdefault(key, (a, b, []))[2].append(cid)
    t_range = polys.segment.t_range
    # the keys are distinct, so the sort compares integers only
    return [(_root(a, b, *t_range), ids) for _key, (a, b, ids) in sorted(groups.items())], faults


def _planned_events(seg, classes):
    """_segment_events of a segment a walk construction built, where the
    first fault, which constructions must never make, raises WalkError."""
    events, faults = _segment_events(SegmentMinors(seg), classes)
    if faults:
        cid, kind, t = faults[0]
        if kind == "whole":
            raise WalkError(f"class {cid} is degenerate along the whole segment")
        if kind == "end":
            raise WalkError(f"class {cid} degenerates at a segment endpoint (t={t})")
        raise WalkError(_NOT_AFFINE)
    return events


def _first_shared(events):
    """The ids of the shared event time with the lowest first id, or None."""
    return min((ids for _t, ids in events if len(ids) > 1), default=None)


def _half_step(classes, rows, i, w, m=1):
    """The segment that moves row i of an admissible span's reduced
    integer rows (B, 0, c) along the integer row w / m, m != 0 (over
    m*m*c, positive for either sign of m), for t in [0, s], where s is
    half the smallest positive root of any class determinant on that
    line, capped at 1: half the first event time inside (0, 2), or 1
    when there is none. No class determinant is zero at t = 0, so none
    is zero along the whole line. The first time is the smallest key
    (_keyed_roots), at the fraction a / (a - b) of the range [0, 2]:
    that fraction is s, the only Fraction built. Returns the segment
    and the rows at s, row i read off the family held constant at s.
    """
    line = list(rows)
    b, _s, c = rows[i]
    line[i] = _reduced(tuple(m * m * x for x in b), tuple(m * c * y for y in w), m * m * c)
    seg = WalkSegment._of(tuple(line), (la.ZERO, Fraction(2)))
    roots, _faults = _keyed_roots(SegmentMinors(seg), classes)
    step = la.ONE
    if roots:
        _key, _cid, a, b = min(roots)
        step = Fraction(a, a - b)
    line[i] = seg._reparametrised(step, la.ZERO, seg.t_range)._rows[i]
    return WalkSegment._of(seg._rows, (la.ZERO, step)), line


def _separate_junction_spans(p, classes, rows, ca, cb, rng):
    """Nudge the second start row until the two classes stop sharing a
    junction span.

    rows are the start's reduced integer rows (B, 0, c), u1's first.
    Builds the nudge inside the reference hyperplane by sliding a fresh
    integer direction along a proscribed direction of the first class.
    Returns the nudge segment and sets rows to the rows at its end, or
    returns None when no candidate works.
    """
    d = p.dim
    fa = classes[ca].direction_plane.int_rows
    fb = classes[cb].direction_plane.int_rows
    tail = tuple(r[0] for r in rows[2:])
    fixed = tail + fa + (fb[0],)
    base_rank = kernels.rank_int(fixed)
    w = None
    for _ in range(_SEARCH_CAP // 2):
        cand = tuple(rng.randint(-9, 9) for _ in range(d))
        if kernels.rank_int(fixed + (cand,)) > base_rank:
            w = cand
            break
    if w is None:
        return None
    m = 1
    if w[0]:
        span_a = classes[ca].direction_plane
        lines = (pd.line for pd in pt.proscribed_directions(p))
        pf = next(ln for ln in lines if span_a.contains(ln))
        if not pf[0]:
            return None
        # pf spans a line of the class plane, already inside fixed, so
        # the translated w - (w[0] / pf[0]) pf keeps its rank contribution
        m = pf[0]
        w = tuple(m * x - w[0] * y for x, y in zip(w, pf))
    # det(w, fixed) is, up to sign, class ca's degeneracy determinant
    # against the rest; zero means the fixed family is itself dependent
    # and the nudged junction determinant would stay zero for every step
    if ca in sh.degenerate_classes(p, (w, *tail, fb[0])):
        return None
    seg, rows[:] = _half_step(classes, rows, 1, w, m)
    return seg


def _fragment_to_hyperplane(p, rows0, seed):
    """Raw pieces (_assemble) from the admissible span of the integer
    rows rows0 to one inside the reference hyperplane. Returns (pieces,
    integer rows of the end span)."""
    d = p.dim
    if all(r[0] == 0 for r in rows0):
        return [], rows0
    classes = pt.parallel_classes(p)
    # some row has a nonzero first coordinate, so the first pivot is
    # there, in u1's row
    rows = _echelon(rows0)[0]
    segs = []
    rng = random.Random(f"walk-to:{seed}")
    last_error = "no candidate crossing direction was admissible"
    for _ in range(_SEARCH_CAP):
        # a v whose end span meets an eta direction, or whose end rows
        # are dependent, has a class degenerate at t = 1: an end fault
        v = (1,) + tuple(rng.randint(-9, 9) for _ in range(d - 1))
        u1, _s, c = rows[0]
        seg = WalkSegment._of(((u1, tuple(-c * x for x in v), c), *rows[1:]), (la.ZERO, la.ONE))
        try:
            events = _planned_events(seg, classes)
        except WalkError as exc:
            last_error = str(exc)
            continue
        shared = _first_shared(events)
        if shared is None:
            segs.append((seg, events))
            return segs, seg.int_rows_at(1)[0]
        ca, cb = shared[0], shared[1]
        # (others, Fa) and (others, Fb) are independent, since the start
        # is admissible, so they span one space exactly when the stack
        # of all of them has rank d - 1
        fa = classes[ca].direction_plane.int_rows
        fb = classes[cb].direction_plane.int_rows
        if kernels.rank_int(tuple(r[0] for r in rows[1:]) + fa + fb) != d - 1:
            last_error = (
                f"classes {ca} and {cb} shared a degeneration time"
            )
            continue
        pre = _separate_junction_spans(p, classes, rows, ca, cb, rng)
        if pre is None:
            last_error = (
                f"could not split the junction span of classes {ca} and {cb}"
            )
            continue
        segs.append((pre, ()))
    raise WalkError(f"crossing search exhausted its budget: {last_error}")


def _fragment_within(p, rows0):
    """Raw pieces (_assemble) from the admissible span of the integer
    rows rows0, inside the reference hyperplane, down to span(e2, ...,
    e_{d-1}). p must be in the reference arrangement. The first column
    of rows0 is zero, so the echelon pivots lie in columns 1 to d-1."""
    d = p.dim
    if any(r[0] != 0 for r in rows0):
        raise ParameterError("start must lie inside the reference hyperplane")
    classes = pt.parallel_classes(p)
    rows, pivots = _echelon(rows0)
    segs = []

    # staircase: advance the single non-pivot column one slot at a time
    for _ in range(d - 1):
        missing = next(c for c in range(1, d) if c not in pivots)
        if missing == d - 1:
            break
        # row missing - 1 pivots at missing + 1; moved along e_missing, it turns that column pivot
        seg, rows = _half_step(
            classes, rows, missing - 1, tuple(int(k == missing) for k in range(d))
        )
        segs.append((seg, ()))
        rows, pivots = _echelon([r[0] for r in rows])
    else:
        raise WalkError("staircase did not reach the last column")

    # now row p reads e_{p+1} + x_p e_last, and contracts along -x_p e_last
    last = (0,) * (d - 1)
    for _ in range(_SEARCH_CAP):
        if not any(r[0][-1] for r in rows):
            return segs
        seg = WalkSegment._of(
            tuple((b, last + (-b[-1],), c) for b, _s, c in rows), (la.ZERO, la.ONE)
        )
        events = _planned_events(seg, classes)
        shared = _first_shared(events)
        if shared is None:
            segs.append((seg, events))
            return segs
        ca, cb = shared[0], shared[1]
        # the first coordinate where the etas, at last coordinate 1, differ
        ea, eb = (_eta_line(*classes[c].direction_plane.int_rows) for c in (ca, cb))
        j = next((i for i in range(1, d - 1) if ea[i] * eb[-1] != eb[i] * ea[-1]), None)
        if j is None:
            raise WalkError(f"classes {ca} and {cb} share an eta direction")
        # one unit of x along coordinate j separates the two roots
        pre, rows = _half_step(classes, rows, j - 1, last + (1,))
        segs.append((pre, ()))
    raise WalkError("contraction produced inseparable degenerations")


def _assemble(pieces, isometry, isometry_inv):
    """Chain raw pieces onto [0, 1] and place their events on that clock.

    A piece is a raw segment and its planning scan's events, ((num,
    den), [class id]) in time order: planning keeps a segment only when
    no two classes share a time (_first_shared), and half-steps have
    none. A piece with events runs on [0, 1]; the k-th of n, rescaled
    onto [k/n, (k+1)/n], has raw time num/den at (k den + num) / (n
    den), the one Fraction built for the event.
    """
    n = len(pieces)
    segments, events = [], []
    for k, (seg, found) in enumerate(pieces):
        segments.append(seg.rescaled(Fraction(k, n), Fraction(k + 1, n)))
        events.extend(
            DegenerationEvent(Fraction(k * den + num, n * den), ids[0])
            for (num, den), ids in found
        )
    return WalkPlan(tuple(segments), tuple(events), isometry, isometry_inv)


def _identity_walk(p, start, fragment):
    """The plan of one fragment walk on p as it stands (no rotation):
    fragment maps the start's integer rows to raw pieces. p must be
    in the reference arrangement (_etas raises WalkError otherwise)."""
    _etas([cls.direction_plane.int_rows for cls in pt.parallel_classes(p)])
    rows = _ortho_span(p, start).int_rows
    _require_admissible(p, rows, "start")
    ident = la.identity(p.dim)
    return _assemble(fragment(rows), ident, ident)


def walk_to_hyperplane(p, start, seed=0):
    """Walk from an admissible orthogonal span to one inside the
    reference hyperplane.

    Requires the reference arrangement (reference_isometry provides
    it). A start already inside the hyperplane yields an empty plan.
    Every event time is an exact rational shared by no two classes.
    """
    return _identity_walk(p, start, lambda rows: _fragment_to_hyperplane(p, rows, seed)[0])


def walk_within_hyperplane(p, start):
    """Walk inside the reference hyperplane down to the reference
    orthogonal span(e2, ..., e_{d-1}).

    The start span must be admissible and contained in the hyperplane.
    A start equal to the reference span yields an empty plan.
    """
    return _identity_walk(p, start, lambda rows: _fragment_within(p, rows))


def full_walk(p, frm, to, seed=0):
    """Certified walk between two admissible orthogonal spans.

    Conjugates by the reference isometry (reference_frame, built once
    per polytope), walks both endpoints to the reference span, and
    glues the second half reversed, events and all (t -> 1 - t). The
    returned plan is expressed in the original coordinates; the rotation
    used internally is recorded in the isometry fields. Its events are
    the planning scans' on the rotated copy under p's class ids: the
    orthogonal pull-back scales each class determinant by a nonzero
    constant, so the roots stay.
    """
    span_a = _ortho_span(p, frm)
    span_b = _ortho_span(p, to)
    _require_admissible(p, span_a.int_rows, "start")
    _require_admissible(p, span_b.int_rows, "end")
    if span_a == span_b:
        ident = la.identity(p.dim)
        return WalkPlan((), (), ident, ident)
    rot, inv, q, int_inv, to_p = reference_frame(p)
    # the rotation is orthogonal, so M^T / den is rot for int_inv = (M, den)
    fwd = tuple(zip(*int_inv[0]))

    def push(span):
        # rot r = fwd r / den is a positive multiple of fwd r: same span,
        # and admissible on q since span is admissible on p
        return tuple(_int_map(fwd, r) for r in span.int_rows)

    a_to, a_end = _fragment_to_hyperplane(q, push(span_a), f"{seed}:a")
    a_in = _fragment_within(q, a_end)
    b_to, b_end = _fragment_to_hyperplane(q, push(span_b), f"{seed}:b")
    b_in = _fragment_within(q, b_end)
    back = [
        (s.reversed(), [((den - num, den), ids) for (num, den), ids in ev[::-1]])
        for s, ev in b_to + b_in
    ]
    pieces = [
        (s.mapped(int_inv), [(t, [to_p[c] for c in ids]) for t, ids in ev])
        for s, ev in a_to + a_in + back[::-1]
    ]
    return _assemble(pieces, rot, inv)


def verify_walk(p, plan):
    """Independent certificate for a walk plan.

    Recomputes every class's end values, isolates the roots with
    its own run of the scan (_segment_events), builds one Fraction per
    time for the certificate, and checks: affine determinants, no event
    at a segment end, no two classes sharing a time, junction spans
    equal, and the plan event log matching the recomputation entry by
    entry. Two segments meet in one
    span exactly when their minor vectors at the junction, the earlier
    segment's hi_vals and the later one's lo_vals, are proportional; a
    junction next to a segment of the wrong shape is not compared.

    No rank is tested: where a segment's rows are dependent, at t0,
    every class determinant is zero (SegmentMinors), so every class
    faults (not affine, whole, or an end at t0, as at a junction with a
    zero minor vector) or has its root at t0 inside, a time the scan
    shows shared by every class, since d >= 3 gives two classes or more.
    So a time every class shares, or an end where every class faults,
    may mean a dependent family.

    The scan lists each segment's events in time order, so when the
    segment ranges meet the recomputed log is in (time, class id) order
    and a permuted plan log is rejected; ranges that do not meet are a
    violation of their own. A malformed plan is reported in the
    certificate, not raised.
    """
    violations = []
    events = []
    segs = plan.segments
    if not segs:
        if plan.events:
            violations.append("plan lists events but has no segments")
        return WalkCertificate(not violations, (), tuple(violations))
    d = p.dim
    classes = pt.parallel_classes(p)
    lo0 = segs[0].t_range[0]
    hi_last = segs[-1].t_range[1]
    # the SegmentMinors of each segment of the right shape, by index
    minors = {}
    for i, seg in enumerate(segs):
        if len(seg._rows) != d - 2:
            violations.append(f"segment {i} has {len(seg._rows)} rows")
            continue
        if len(seg._rows[0][0]) != d:
            violations.append(
                f"segment {i} rows have width {len(seg._rows[0][0])}, expected {d}"
            )
            continue
        if i and segs[i - 1].t_range[1] != seg.t_range[0]:
            violations.append(f"segments {i - 1} and {i} ranges do not meet")
        polys = minors[i] = SegmentMinors(seg)
        found, faults = _segment_events(polys, classes)
        for cid, kind, t in faults:
            if kind == "whole":
                violations.append(f"class {cid} is degenerate along segment {i}")
            elif kind == "end":
                edge = "endpoint" if t in (lo0, hi_last) else "junction"
                violations.append(f"class {cid} degenerates at a segment {edge} (t={t})")
            else:
                violations.append(f"segment {i}, class {cid}: {_NOT_AFFINE}")
        for t, ids in found:
            t = Fraction(*t)
            if len(ids) > 1:
                violations.append(
                    f"classes {ids[0]} and {ids[1]} share the event time {t}"
                )
            events.extend(DegenerationEvent(t, cid) for cid in ids)
    for i in range(1, len(segs)):
        if i - 1 not in minors or i not in minors:
            continue
        if segs[i - 1].t_range[1] != segs[i].t_range[0]:
            continue
        x, y = minors[i - 1].hi_vals, minors[i].lo_vals
        # y is a multiple of x, read at x's first nonzero entry; a zero
        # vector on either side passes, as the scan faults every class there
        k = next((k for k, xk in enumerate(x) if xk), 0)
        if any(xj * y[k] != yj * x[k] for xj, yj in zip(x, y)):
            violations.append(f"junction spans differ between {i - 1} and {i}")
    if [tuple(e) for e in plan.events] != [tuple(e) for e in events]:
        violations.append("plan event log disagrees with the recomputation")
    return WalkCertificate(not violations, tuple(events), tuple(violations))


def _class_of_face(p, face_id):
    for cid, cls in enumerate(pt.parallel_classes(p)):
        if face_id in cls.member_ids:
            return cid
    raise ParameterError(f"no 2-face with id {face_id}")


def _validate_visibility_witness(p, face_id, other_id, span):
    """Shared witness checks for the transformation builders.

    span is the witness's orthogonal span, a Subspace. The witness must
    degenerate exactly the class of face_id, send the face (and the
    optional partner) onto the shadow boundary, and meet the face plane
    in a line. Every test runs on span's integer rows. Returns (class
    id, that line's generator, the witness ProjectionPlane).
    """
    faces = pt.k_faces(p, 2)
    # an id in no class raises "no 2-face with id ..."
    cid = _class_of_face(p, face_id)
    if other_id is not None:
        if other_id == face_id:
            raise ParameterError("paired faces must be distinct")
        if _class_of_face(p, other_id) != cid:
            raise ParameterError("paired faces must share a parallel class")
    # the first class, in class order, on the wrong side of the test
    wrong = set(sh.degenerate_classes(p, span.int_rows)) ^ {cid}
    if wrong:
        k = min(wrong)
        if k == cid:
            raise ParameterError(
                f"witness does not degenerate the class of face {face_id}"
            )
        raise ParameterError(f"witness degenerates foreign class {k} as well")
    line = la.int_intersection(span, faces[face_id].span)
    if len(line) != 1:
        raise GeometryError("face projects to a point at the witness")
    u1 = la.primitive(line[0])
    plane = sh.ProjectionPlane.from_orthogonal(span)
    frame = sh.hull_frame(p, plane)
    pair = (face_id,) if other_id is None else (face_id, other_id)
    for fid in pair:
        if not sh.in_boundary(frame, faces[fid].vertex_ids):
            raise GeometryError(f"face {fid} is not visible at the witness")
    return cid, u1, plane


def _tilde(v, u):
    """(u.u) times the component of v orthogonal to a nonzero u: a
    positive multiple, with no division, so integer vectors give
    integers."""
    uu, vu = kernels.dot(u, u), kernels.dot(v, u)
    return tuple(uu * a - vu * b for a, b in zip(v, u))


def _nearest_root(polys, classes):
    """The smallest nonzero |root| of a class on a segment [-L, L],
    given its SegmentMinors, over L: a class with end values a and b
    has its root at L (a + b) / (a - b), so this is the smallest
    nonzero |a + b| / |a - b|, found by cross-multiplication and given
    as that integer pair, or None when no class has such a root."""
    near = None
    for cls in classes:
        a, b = polys.end_values(cls)
        gap = (abs(a + b), abs(a - b))
        if gap[0] and gap[1] and (near is None or gap[0] * near[1] < near[0] * gap[1]):
            near = gap
    return near


def crossing_probe(p, cid, rows, mults, u1, reverse=False):
    """The segment that moves a single-class witness off its class.

    rows[i] / mults[i] (integer rows, positive multipliers) span the
    orthogonal span of a plane where only class cid degenerates,
    meeting its plane P in the integer line u1. The crossing direction
    v generates the orthogonal complement of witness + P, which has
    rank d-1, so v is unique up to sign; reverse flips it. Returns
    (probe, v, eps): probe moves the witness, based at u1 and its rows,
    along v for t in [-1, 1]. eps is half the smallest nonzero |root|
    of a class anywhere on the probe's line (_nearest_root; 1 when none
    has one), the one Fraction built. Class cid's determinant is
    t det(v, tail, P), and it is the only class zero at the witness, t =
    0, so only cid degenerates on (-eps, eps), at 0: no edge collapses
    at -eps / 2, where frame_chains' local test is exact.
    """
    d = p.dim
    classes = pt.parallel_classes(p)
    kern = la.int_kernel((*rows, *classes[cid].direction_plane.int_rows))
    if len(kern) != 1:
        raise GeometryError("witness plus face plane does not have rank d-1")
    v = la.primitive(kern[0])
    if reverse:
        v = la.neg(v)
    # room for d - 1 rows, so that a u1 outside the witness shows
    keep = kernels.independent([u1], rows, d - 1)
    zero = (0,) * d
    fixed = [_reduced(rows[i], zero, mults[i]) for i in keep]
    if len(fixed) != d - 3:
        raise GeometryError("degenerating direction escapes the witness")
    probe = WalkSegment._of(((tuple(u1), v, 1), *fixed), (Fraction(-1), la.ONE))
    near = _nearest_root(SegmentMinors(probe), classes)
    eps = la.ONE if near is None else Fraction(near[0], 2 * near[1])
    return probe, v, eps


def elementary_transformation(p, face_id, other_id, witness, reverse=False):
    """Certified crossing of a single-class visibility witness.

    witness is the orthogonal span of a plane where only the class of
    face_id degenerates and face_id (with the optional parallel partner
    other_id) lies on the shadow boundary. The crossing direction v
    generates the orthogonal complement of witness + face plane, which
    has rank d-1, so v is unique up to sign; reverse flips it. minus
    and plus are the certified half-segments on either side.

    The w1/w2 rows frame the moving image plane. v is orthogonal to
    the witness, so the witness plane is span(w1, v) with w1 orthogonal
    to v: w2 is primitive(v) and sign_coefficient v.w2 = +-|v|^2, and
    the projected coordinate of u1 along the moving frame changes sign
    with t * sign_coefficient, which is the exchange of the two chains.
    The witness is validated once; every vector is read off integer
    rows, and the only kernel is crossing_probe's.
    """
    span = _ortho_span(p, witness)
    cid, u1, plane = _validate_visibility_witness(p, face_id, other_id, span)
    probe, v, eps = crossing_probe(p, cid, span.int_rows, span.int_mults, u1, reverse)
    minus = WalkSegment._of(probe._rows, (-eps, la.ZERO))
    plus = WalkSegment._of(probe._rows, (la.ZERO, eps))
    pick = next(b for b in plane.basis.int_rows if any(kernels.plane_minors(b, v)))
    w1, w2 = la.primitive(_tilde(pick, v)), la.primitive(v)
    coeff = Fraction(kernels.dot(v, w2))
    return ElementaryTransformation(face_id, other_id, minus, plus, u1, v, w1, w2, coeff, eps)


def boundary_chains(p, face_id, w):
    """Visible and invisible edge chains of a 2-face for one plane.

    An edge is visible when its image lies in the shadow boundary;
    frame_chains reads that on the plane's integer rows, on p's graph.
    Fixed points are the face vertices meeting exactly one visible edge.
    """
    faces = pt.k_faces(p, 2)
    if not 0 <= face_id < len(faces):
        raise ParameterError(f"no 2-face with id {face_id}")
    return frame_chains(p, faces[face_id], w.basis.int_rows)


def frame_chains(p, face, rows):
    """boundary_chains at the plane with integer rows (a1, a2). Edge
    [a, b] with image (s, t) is visible iff a maximises or minimises
    y = s a2 - t a1 over p (y . (x - a) is cross2(A, B, X)), that is,
    by local optimality, over a's graph neighbours (sh.edge_on_boundary),
    exact unless the edge collapses (InadmissiblePlaneError). The fixed
    points are the cycle vertices where the flag flips.
    """
    cycle = pt.face_cycle(p, face)
    after = cycle[1:] + cycle[:1]
    edges = [tuple(sorted(e)) for e in zip(cycle, after)]
    seen = [sh.edge_on_boundary(p, e, rows) for e in edges]
    # after[i] joins edge i to edge i + 1
    flips = zip(after, seen, seen[1:] + seen[:1])
    fixed = tuple(sorted(v for v, s, t in flips if s != t))
    visible = frozenset(e for e, s in zip(edges, seen) if s)
    return ChainState(visible, frozenset(edges) - visible, fixed)


def _edge_slide(p, face_id, other_id, edge, witness):
    """(eps, w_minus, w_plus) around the event of the sorted edge: on
    the face plane's orthogonal integer pair (ebar, v), v turned so that
    u1 / alpha = ebar + lam v with lam > 0, the witness slides as
    span(ebar + s v, tail), the event at s = 0, w_minus at s = eps: eps
    is half of lam or of the nearest nonzero |root| of a class on the
    slide [-lam, lam] (_nearest_root), whichever is smaller; a root at
    s = 0, the event itself, is not counted."""
    d = p.dim
    span = _ortho_span(p, witness)
    u1 = _validate_visibility_witness(p, face_id, other_id, span)[1]
    face = pt.k_faces(p, 2)[face_id]
    edge_ids = [tuple(e.vertex_ids) for e in pt.face_edges(p, face)]
    if edge not in edge_ids:
        raise ParameterError(f"{edge} is not an edge of face {face_id}")
    verts = p.int_vertices()[0]
    ebar = la.primitive(la.sub(verts[edge[1]], verts[edge[0]]))
    others = [(e, la.sub(verts[e[1]], verts[e[0]])) for e in edge_ids if e != edge]
    for other_edge, dirn in others:
        if not any(kernels.plane_minors(ebar, dirn)):
            raise ParameterError(
                f"edge {other_edge} of face {face_id} is parallel to {edge}"
            )
    f1, f2 = face.span.int_rows
    g = f1 if kernels.rank_int((ebar, f1)) == 2 else f2
    v = la.primitive(_tilde(g, ebar))
    # (ebar, v) is an orthogonal integer frame of the face plane, and u1
    # is alpha ebar + beta v with alpha = ue / |ebar|^2, beta = uv / |v|^2
    ee, vv = kernels.dot(ebar, ebar), kernels.dot(v, v)
    ue, uv = kernels.dot(u1, ebar), kernels.dot(u1, v)
    if ue == 0:
        raise GeometryError("witness direction is orthogonal to the edge")
    if ue * uv < 0:
        v, uv = la.neg(v), -uv
    if uv == 0:
        raise GeometryError("witness already degenerates along the edge")
    # a root outside (-lam, lam) is at least lam away from the event
    lam = Fraction(uv * ee, ue * vv)
    keep = kernels.independent([u1], span.int_rows, d - 2)
    tail = tuple(span.int_rows[i] for i in keep)
    rows = ((ebar, v, 1),) + tuple((r, (0,) * d, 1) for r in tail)
    seg = WalkSegment._of(rows, (-lam, lam))
    near = _nearest_root(SegmentMinors(seg), pt.parallel_classes(p))
    eps = lam * (la.ONE if near is None else min(la.ONE, Fraction(*near))) / 2
    n, m = eps.as_integer_ratio()
    w_minus, w_plus = (
        la.span_of((tuple(m * x + k * y for x, y in zip(ebar, v)),) + tail)
        for k in (n, -n)
    )
    # on the two sides the edge's component is -+eps vv ee (it flips);
    # another edge e's is ee (e.v) -+ eps vv (e.ebar), and must not flip
    for other_edge, dirn in others:
        a, b = m * ee * kernels.dot(dirn, v), n * vv * kernels.dot(dirn, ebar)
        if a * a <= b * b:
            raise WalkError(
                f"edge {other_edge} changes sides across the event"
            )
    return eps, w_minus, w_plus


def chain_split_transformations(p, face_id, other_id, edge, witness):
    """Two transformations around one edge event of a visible face.

    Slides the witness inside the face plane toward the chosen edge
    direction and returns elementary transformations just before and
    just after the edge event; their visible chains differ exactly by
    that edge. The face must carry no second edge parallel to the
    chosen one, and the witness direction must not be orthogonal to it.
    The witnesses come from an integer slide (_edge_slide) past the event.
    A reversed crossing is the forward one read backwards, so the
    chains of all four orientation pairings are read off the two
    forward crossings.
    """
    edge = tuple(sorted(edge))
    _eps, *sides = _edge_slide(p, face_id, other_id, edge, witness)
    forward = [elementary_transformation(p, face_id, other_id, w) for w in sides]
    # chains[side][rev]: the visible chain just before the crossing; the
    # reversed crossing starts where the forward one ends
    chains = [
        [
            boundary_chains(p, face_id, half.plane_at(t)).visible
            for half, t in ((tr.minus, -tr.epsilon / 2), (tr.plus, tr.epsilon / 2))
        ]
        for tr in forward
    ]
    for rev1 in (False, True):
        for rev2 in (False, True):
            if chains[0][rev1] ^ chains[1][rev2] == {edge}:
                return tuple(
                    elementary_transformation(p, face_id, other_id, w, reverse=True)
                    if rev
                    else tr
                    for w, tr, rev in zip(sides, forward, (rev1, rev2))
                )
    raise GeometryError("no orientation pairing splits the chains at the edge")


def to_json_dict(plan):
    """JSON payload for a walk plan: segments and the event log."""
    return {
        "segments": [
            {
                "t0": la.rat_str(seg.t_range[0]),
                "t1": la.rat_str(seg.t_range[1]),
                "base": [[la.rat_str(x) for x in row] for row in seg.base],
                "slope": [[la.rat_str(x) for x in row] for row in seg.slope],
            }
            for seg in plan.segments
        ],
        "events": [
            {"t": la.rat_str(e.time), "class": e.class_id}
            for e in plan.events
        ],
    }
