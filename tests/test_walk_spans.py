"""Span decisions of the walk layer against the Subspace route they replace.

verify_walk tests that two segments meet in one span by the
proportionality of their end minor vectors, the crossing search of
_fragment_to_hyperplane tests a shared junction span with one rank test,
and the search has no eta pre-filter: every candidate the pre-filter
skipped has a class degenerate at t = 1, an end fault that
_planned_events rejects. The former routes (span_at and Subspace
equality, two span_of results, the pre-filter) are in oracles.py.

The crossing search's rare paths run here through a scripted rng: the
shared-time and junction retries, each way _separate_junction_spans
gives up, and an exhausted budget. A walk that still finishes passes
verify_walk and the benchmark's independent walk checker.
"""

import random
from fractions import Fraction as Fr
from itertools import cycle, product
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import WalkError
from oracles import (
    oracle_crossing_prefilter,
    oracle_junction_violations,
    oracle_shared_junction_span,
    oracle_slope,
    rref,
)
from test_walk import CUBE, RATS, zoo_segments
from test_walk_checker import check_plan, checks  # noqa: F401 (fixture)

EVENT_LOG = "plan event log disagrees with the recomputation"
JUNCTION = "junction spans differ"
MOVED_ZOO = [
    wk.reference_frame(p).moved
    for p in (fam.hypercube(3), fam.hypercube(4), fam.zonotope(fam.random_generators(5, 4, 4)), fam.hypercube(5))
]


# ------------------------------------------------------------ junctions


@st.composite
def junction_plans(draw):
    """A plan of two or three zoo segments of d-2 rows of width d. At
    each junction the next segment's rows are the previous rows times
    an invertible integer matrix (one span), fresh rows (another span),
    rows made dependent on either side, or the ranges do not meet; the
    slopes have rank one or more."""
    p, seg = draw(zoo_segments())
    d = p.dim
    row = st.tuples(*[RATS] * d)
    segs = [seg]
    for _ in range(draw(st.integers(1, 2))):
        prev = segs[-1]
        t = prev.t_range[1]
        kind = draw(st.sampled_from(("equal", "other", "dependent", "dependent-before", "gap")))
        rows = prev.rows_at(t)
        if kind == "equal":
            n = d - 2
            m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
            assume(la.rank(m) == n)
            rows = tuple(
                tuple(sum(c * r[j] for c, r in zip(mi, rows)) for j in range(d)) for mi in m
            )
        elif kind == "other":
            rows = tuple(draw(row) for _ in range(d - 2))
        elif kind == "dependent":
            dep = la.scale(rows[-1], draw(RATS)) if d > 3 else (0,) * d
            rows = (dep,) + rows[1:]
        elif kind == "dependent-before":
            # the previous segment's first row turned to end at a multiple
            # of its last one (or at zero)
            end = la.scale(rows[-1], draw(RATS)) if d > 3 else (0,) * d
            base = (la.sub(end, la.scale(prev.slope[0], t)),) + prev.base[1:]
            segs[-1] = wk.WalkSegment(base, prev.slope, prev.t_range)
            rows = segs[-1].rows_at(t)
        elif kind == "gap":
            t += Fr(1, 3)
        if draw(st.booleans()):
            w = draw(row)
            slope = tuple(la.scale(w, draw(RATS)) for _ in range(d - 2))
        else:
            slope = tuple(draw(row) for _ in range(d - 2))
        base = tuple(la.sub(r, la.scale(s, t)) for r, s in zip(rows, slope))
        length = draw(st.fractions(min_value=Fr(1, 8), max_value=2, max_denominator=8))
        segs.append(wk.WalkSegment(base, slope, (t, t + length)))
    ident = la.identity(d)
    return p, wk.WalkPlan(tuple(segs), (), ident, ident)


# no shrink phase: a failing multi-segment plan took over a minute to
# shrink; the strategy and the example count are unchanged
@settings(
    max_examples=150,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(junction_plans())
def test_junction_violations_match_the_subspace_route(case):
    p, plan = case
    got = wk.verify_walk(p, plan).violations
    rest = [v for v in got if not v.startswith(JUNCTION)]
    log = [v for v in rest if v == EVENT_LOG]
    # after the segment loop and before the event log, in junction order
    want = [v for v in rest if v != EVENT_LOG] + oracle_junction_violations(plan.segments) + log
    assert list(got) == want


def test_equal_junction_spans_by_recombined_rows():
    # the second segment starts on (r1 + r2, 2 r1 - r2): one span
    a = wk.WalkSegment(((1, 2, 3, 4), (0, 1, 5, 2)), ((0,) * 4, (1, 0, 0, 1)), (0, 1))
    r1, r2 = a.rows_at(1)
    b = wk.WalkSegment((la.add(r1, r2), la.sub(la.scale(r1, 2), r2)), ((0,) * 4,) * 2, (1, 2))
    minors = wk.SegmentMinors(a), wk.SegmentMinors(b)
    assert minors[0].hi_vals != minors[1].lo_vals
    ident = la.identity(4)
    plan = wk.WalkPlan((a, b), (), ident, ident)
    assert not any(JUNCTION in v for v in wk.verify_walk(fam.hypercube(4), plan).violations)
    assert oracle_junction_violations(plan.segments) == []


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1, 2, 3), (0, 1, 0)), "segment 1 has 2 rows"),
        (((1, 2, 3, 4),), "segment 1 rows have width 4, expected 3"),
    ],
)
def test_a_malformed_segment_is_not_compared_at_its_junctions(rows, message):
    a = wk.WalkSegment(((1, 2, 3),), ((0, 0, 0),), (0, Fr(1, 2)))
    b = wk.WalkSegment(rows, tuple((0,) * len(r) for r in rows), (Fr(1, 2), 1))
    ident = la.identity(3)
    plan = wk.WalkPlan((a, b), (), ident, ident)
    # reported for its shape alone; the Subspace route also called the
    # junction spans different
    assert wk.verify_walk(CUBE, plan).violations == (message,)
    assert oracle_junction_violations(plan.segments) == [f"{JUNCTION} between 0 and 1"]


# ------------------------------------------------- crossing search tests


def admissible_start(q, rng, junction=False):
    """Integer rows (u1, o, rest...) of an admissible span on q: u1 has
    first coordinate 1 and the other rows 0. With junction=True, o lies
    in Fa + Fb for a pair of classes whose planes meet in a line, so
    span(o, rest, Fa) = span(o, rest, Fb). Returns (rows, pair or None)."""
    d = q.dim
    classes = pt.parallel_classes(q)
    planes = [cls.direction_plane.int_rows for cls in classes]
    inside = la.span_of([la.unit(d, i) for i in range(1, d)])
    pairs = [
        (a, b)
        for a in range(len(planes))
        for b in range(a + 1, len(planes))
        if la.rank(planes[a] + planes[b]) == 3
    ]
    while True:
        pair = None
        tail = [(0,) + tuple(rng.randint(-5, 5) for _ in range(d - 1)) for _ in range(d - 3)]
        if junction:
            pair = rng.choice(pairs)
            meet = la.intersect(la.span_of(planes[pair[0]] + planes[pair[1]]), inside)
            tail[0] = la.add(*(la.scale(b, rng.randint(1, 5)) for b in meet.basis))
        rows = la.int_matrix([(1,) + tuple(rng.randint(-5, 5) for _ in range(d - 1))] + tail)[0]
        if la.rank(rows) == d - 2 and not list(sh.degenerate_classes(q, rows)):
            return rows, pair


@st.composite
def crossing_starts(draw):
    """A moved zoo polytope and the echelon rows (u1, others) that the
    crossing search reads off an admissible start, a junction start in
    d >= 4 half the time."""
    q = draw(st.sampled_from(MOVED_ZOO))
    junction = q.dim > 3 and draw(st.booleans())
    rows, _pair = admissible_start(q, random.Random(draw(st.integers(0, 10**6))), junction)
    arr, pivots = rref(rows)
    assert pivots[0] == 0
    return q, arr[0], arr[1:]


def crossing(q, u1, others, v):
    """The crossing segment of candidate v, as the search builds it."""
    return wk.WalkSegment((u1, *others), oracle_slope(q.dim - 2, 0, la.neg(v)), (0, 1))


@settings(max_examples=120, deadline=None)
@given(crossing_starts(), st.data())
def test_every_candidate_the_prefilter_skipped_is_an_end_fault(case, data):
    q, u1, others = case
    classes = pt.parallel_classes(q)
    etas = [e.eta for e in wk._etas([cls.direction_plane.int_rows for cls in classes])]
    # planted: v = u1 + sum(beta o) + gamma eta, with gamma = 0 allowed
    eta = data.draw(st.sampled_from(etas))
    v = la.add(u1, la.scale(eta, data.draw(RATS)))
    for o in others:
        v = la.add(v, la.scale(o, data.draw(RATS)))
    # and random integer candidates as the search draws them
    drawn = [
        (1,) + tuple(data.draw(st.integers(-9, 9)) for _ in range(q.dim - 1)) for _ in range(8)
    ]
    assert oracle_crossing_prefilter(u1, others, etas, v)
    for cand in [v] + drawn:
        if oracle_crossing_prefilter(u1, others, etas, cand):
            with pytest.raises(WalkError, match="degenerat"):
                wk._planned_events(crossing(q, u1, others, cand), classes)


@pytest.mark.parametrize("q", MOVED_ZOO, ids=lambda q: f"d{q.dim}-{len(q.vertices)}")
def test_prefilter_skips_only_end_faults_on_the_search_grid(q):
    # the candidates the search itself draws, from a generic start and,
    # in d >= 4, a junction start
    classes = pt.parallel_classes(q)
    etas = [e.eta for e in wk._etas([cls.direction_plane.int_rows for cls in classes])]
    rng = random.Random(f"grid:{q.dim}")
    skipped = 0
    for junction in (False, True) if q.dim > 3 else (False,):
        arr, _ = rref(admissible_start(q, rng, junction)[0])
        u1, others = arr[0], arr[1:]
        for _ in range(300):
            v = (1,) + tuple(rng.randint(-9, 9) for _ in range(q.dim - 1))
            if oracle_crossing_prefilter(u1, others, etas, v):
                skipped += 1
                with pytest.raises(WalkError, match="degenerat"):
                    wk._planned_events(crossing(q, u1, others, v), classes)
    # in d = 3 a skip is an end row on an eta line, which the grid meets
    assert skipped or q.dim > 3


@settings(max_examples=120, deadline=None)
@given(crossing_starts())
def test_shared_span_rank_test_matches_two_spans(case):
    q, _u1, others = case
    d = q.dim
    planes = [cls.direction_plane.int_rows for cls in pt.parallel_classes(q)]
    for a in range(len(planes)):
        for b in range(a + 1, len(planes)):
            fa, fb = planes[a], planes[b]
            want = oracle_shared_junction_span(others, fa, fb)
            assert (la.rank(tuple(others) + fa + fb) == d - 1) == want


def test_junction_starts_share_a_span():
    for q in MOVED_ZOO[1:]:
        rows, (a, b) = admissible_start(q, random.Random(0), junction=True)
        others = rref(rows)[0][1:]
        fa, fb = (pt.parallel_classes(q)[c].direction_plane.int_rows for c in (a, b))
        assert oracle_shared_junction_span(others, fa, fb)
        assert la.rank(tuple(others) + fa + fb) == q.dim - 1


# ------------------------------------------------------ rare paths


class ScriptedRng:
    """random.Random's randint: the planted values first, then those of
    a seeded Random. Counts the calls."""

    def __init__(self, planted, seed=0):
        self._planted = iter(planted)
        self._real = random.Random(seed)
        self.calls = 0

    def randint(self, a, b):
        self.calls += 1
        x = next(self._planted, None)
        return self._real.randint(a, b) if x is None else x


def outcome(q, rows, v):
    """What the crossing search makes of the candidate v from the start
    rows: "fault", "clean", or "equal" / "unequal" for a shared time
    whose junction spans are one or two."""
    arr, _ = rref(rows)
    classes = pt.parallel_classes(q)
    try:
        shared = wk._first_shared(wk._planned_events(crossing(q, arr[0], arr[1:], v), classes))
    except WalkError:
        return "fault"
    if shared is None:
        return "clean"
    fa, fb = (classes[c].direction_plane.int_rows for c in shared[:2])
    return "equal" if oracle_shared_junction_span(arr[1:], fa, fb) else "unequal"


def first_candidate(q, rows, kind, values=range(-9, 10)):
    """The first grid candidate v of the given outcome."""
    for tail in product(values, repeat=q.dim - 1):
        v = (1,) + tail
        if outcome(q, rows, v) == kind:
            return v
    raise AssertionError(f"no {kind} candidate on the grid")


def shared_time_start(q, rng):
    """Rows (u1,) of an admissible start on the 3-dimensional q and an
    integer v whose crossing meets a line Fa cap Fb at t = 1/2: u1 is
    (v + l / l[0]) / 2 for the line's generator l."""
    lines = [pd.line for pd in pt.proscribed_directions(q)]
    while True:
        v = (1,) + tuple(rng.randint(-9, 9) for _ in range(q.dim - 1))
        line = rng.choice(lines)
        u1 = la.scale(la.add(v, la.scale(line, Fr(1, line[0]))), Fr(1, 2))
        rows = la.int_matrix((u1,))[0]
        if not list(sh.degenerate_classes(q, rows)) and outcome(q, rows, v) == "unequal":
            return rows, v


def script_walk(monkeypatch, q, rows, planted):
    """walk_to_hyperplane on q from rows, its rng reading the planted
    values first. Returns (plan, rng)."""
    rng = ScriptedRng(planted)
    monkeypatch.setattr(wk, "random", SimpleNamespace(Random=lambda _seed: rng))
    return wk.walk_to_hyperplane(q, la.Subspace(rows)), rng


def assert_walk_checks(checks, q, rows, plan):
    """verify_walk and the benchmark's walk checker accept the plan."""
    assert plan.segments
    cert = wk.verify_walk(q, plan)
    assert cert.valid, cert.violations
    last = plan.segments[-1]
    end = sh.ProjectionPlane.from_orthogonal(last.rows_at(last.t_range[1]))
    start = sh.ProjectionPlane.from_orthogonal(rows)
    check_plan(
        checks, q, "rare", start.basis.basis, end.basis.basis,
        [(s.base, s.slope, s.t_range) for s in plan.segments],
        [(e.time, e.class_id) for e in plan.events],
    )


def counted(monkeypatch, name):
    """Wrap wk.name to record what each call returns."""
    seen = []
    real = getattr(wk, name)

    def wrapper(*args):
        out = real(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(wk, name, wrapper)
    return seen


def test_a_shared_time_with_two_spans_is_retried(monkeypatch, checks):  # noqa: F811
    q = MOVED_ZOO[0]
    rows, v = shared_time_start(q, random.Random(3))
    shared = counted(monkeypatch, "_first_shared")
    plan, rng = script_walk(monkeypatch, q, rows, v[1:])
    # the planted v shared a time, and a later candidate crossed
    assert shared[0] is not None and shared[-1] is None
    assert rng.calls > len(v) - 1
    assert_walk_checks(checks, q, rows, plan)


# admissible junction starts on the moved 4-cube and 5-cube, by dimension
JUNCTION_STARTS = {
    q.dim: (q, admissible_start(q, random.Random(0), junction=True)[0])
    for q in (MOVED_ZOO[1], MOVED_ZOO[3])
}


def once(monkeypatch, module, name, value, skip=0):
    """module.name gives value on its call after the first skip ones,
    and the real answer on every other call."""
    real = getattr(module, name)
    calls = []

    def fake(*args):
        calls.append(args)
        return iter(value) if len(calls) == skip + 1 else real(*args)

    monkeypatch.setattr(module, name, fake)


def junction_planes(q, rows, v):
    """The integer plane rows of the two classes that share a junction
    span on the crossing from the start rows toward candidate v."""
    arr, _ = rref(rows)
    classes = pt.parallel_classes(q)
    shared = wk._first_shared(wk._planned_events(crossing(q, arr[0], arr[1:], v), classes))
    return [classes[c].direction_plane.int_rows for c in shared[:2]]


def rank_raising(q, rows, v, first):
    """A nudge candidate w that _separate_junction_spans accepts from the
    start rows after candidate v, with w[0] == 0 or not."""
    arr, _ = rref(rows)
    fa, fb = junction_planes(q, rows, v)
    fixed = tuple(arr[2:]) + fa + (fb[0],)
    for tail in product(range(-3, 4), repeat=q.dim - 1):
        w = (first,) + tail
        if la.rank(fixed + (w,)) > la.rank(fixed):
            return w
    raise AssertionError("no rank-raising nudge")


@pytest.mark.parametrize("d", sorted(JUNCTION_STARTS))
@pytest.mark.parametrize("why", ["no candidate", "no proscribed line", "dependent"])
def test_an_unsplit_junction_span_is_retried(monkeypatch, checks, d, why):  # noqa: F811
    q, rows = JUNCTION_STARTS[d]
    v = first_candidate(q, rows, "equal")
    if why == "no candidate":
        # every nudge candidate lies in the span of the fixed family
        nudge = [0] * (d * (wk._SEARCH_CAP // 2))
    elif why == "no proscribed line":
        # a nudge off the reference hyperplane, and the first proscribed
        # line in the class plane lies inside the hyperplane, so no line
        # slides the nudge back into it
        nudge = list(rank_raising(q, rows, v, 1))
        a, b = junction_planes(q, rows, v)[0]
        line = tuple(a[0] * y - b[0] * x for x, y in zip(a, b))
        assert any(line)
        once(monkeypatch, pt, "proscribed_directions", [SimpleNamespace(line=line)])
    else:
        # a nudge inside the hyperplane, and every class degenerate
        # against it
        nudge = list(rank_raising(q, rows, v, 0))
        once(monkeypatch, sh, "degenerate_classes", range(len(pt.parallel_classes(q))), 1)
    splits = counted(monkeypatch, "_separate_junction_spans")
    plan, _rng = script_walk(monkeypatch, q, rows, list(v[1:]) + nudge)
    assert splits[0] is None
    assert_walk_checks(checks, q, rows, plan)


@pytest.mark.parametrize(
    "d, kind, message",
    [
        (3, "unequal", r"classes \d+ and \d+ shared a degeneration time"),
        (4, "fault", r"class \d+ degenerates at a segment endpoint \(t=1\)"),
        (4, "equal", r"could not split the junction span of classes \d+ and \d+"),
    ],
    ids=["shared-time", "end-fault", "unsplit-junction"],
)
def test_an_exhausted_search_names_its_last_error(monkeypatch, d, kind, message):
    if d == 3:
        q = MOVED_ZOO[0]
        rows, v = shared_time_start(q, random.Random(3))
    else:
        q, rows = JUNCTION_STARTS[4]
        v = first_candidate(q, rows, kind)
    # each round: the candidate, then (for a junction) nudges that all fail
    nudge = [0] * (d * (wk._SEARCH_CAP // 2)) if kind == "equal" else []
    with pytest.raises(WalkError, match="^crossing search exhausted its budget: " + message + "$"):
        script_walk(monkeypatch, q, rows, cycle(list(v[1:]) + nudge))
