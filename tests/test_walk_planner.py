"""The walk planner on integer rows against the Fraction constructions it replaced.

The planner reads its start's echelon rows off kernels.rref_int and
builds every crossing, nudge, staircase step and contraction directly
as reduced integer rows (B, S, c). The former constructions, la.rref,
then la.add and la.scale, then WalkSegment(base, slope, range), are
kept in oracles.py (oracle_fragment_to_hyperplane and
oracle_fragment_within), with the three-point scan for their events.
The stored form is unique (c is la.int_row's minimal multiplier), so
the two must give the same rows, ranges and event times piece for
piece: on the walk benchmark's walks (crossings and contractions), on
the pinned junction walk (a nudge and a contraction pre-step), on
starts inside the reference hyperplane whose non-pivot column is not
the last (the staircase, which no walk of the benchmark takes), and on
the scripted junction starts of test_walk_spans.py, whose nudges slide
along a proscribed line or stay inside the hyperplane.

The scan gives each event time as an integer pair (num, den), den > 0;
a Hypothesis test compares those with the three-point scan's Fractions
on ranges [0, s], [k/n, (k+1)/n] and (-lam, lam), the chain split's
slide.
"""

import random
from collections import Counter
from fractions import Fraction as Fr
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shadowlab.families as fam
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from oracles import (
    oracle_degenerate_classes,
    oracle_fragment_to_hyperplane,
    oracle_fragment_within,
    oracle_slope,
)
from test_walk import RATS, assert_scan_matches_oracle, zoo_rows
from test_walk_spans import JUNCTION_STARTS, ScriptedRng, first_candidate, rank_raising

# the walk benchmark's five polytopes
SUITE = {
    "cube3": lambda: fam.hypercube(3),
    "cube4": lambda: fam.hypercube(4),
    "pentagonal": lambda: fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
    "zono4": lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
    "pn4": lambda: fam.pn_polytope(4),
}


def int_pieces(pieces):
    """(rows, range, events) of the planner's pieces, each event time an
    integer pair over a positive denominator, read as a Fraction."""
    out = []
    for seg, events in pieces:
        assert all(type(n) is int and type(q) is int and q > 0 for (n, q), _ids in events)
        out.append((seg._rows, seg.t_range, [(Fr(*t), ids) for t, ids in events]))
    return out


def fraction_pieces(pieces):
    """(rows, range, events) of the former construction's pieces."""
    return [(seg._rows, seg.t_range, list(events)) for seg, events, _kind in pieces]


def assert_fragment_matches(name, args, got):
    """The planner's output for one fragment call against the former
    construction's; returns the kinds of the pieces."""
    if name == "_fragment_to_hyperplane":
        q, rows0, seed = args
        want, want_end = oracle_fragment_to_hyperplane(q, rows0, random.Random(f"walk-to:{seed}"))
        got, end = got
        assert end == want_end
    else:
        want = oracle_fragment_within(*args)
    assert int_pieces(got) == fraction_pieces(want)
    return [kind for _seg, _events, kind in want]


def recorded_fragments(monkeypatch):
    """Wrap both fragment builders to record (name, args, output)."""
    calls = []
    for name in ("_fragment_to_hyperplane", "_fragment_within"):

        def recorded(*args, _real=getattr(wk, name), _name=name):
            out = _real(*args)
            calls.append((_name, args, out))
            return out

        monkeypatch.setattr(wk, name, recorded)
    return calls


@pytest.mark.parametrize("name", sorted(SUITE))
def test_planner_matches_the_fraction_constructions_on_walks(monkeypatch, name):
    p = SUITE[name]()
    calls = recorded_fragments(monkeypatch)
    for seed in (1, 2):
        planes = sh.sample_admissible(p, f"walk:{seed}:{name}", 8)
        for i in range(4):
            wa, wb = planes[2 * i], planes[2 * i + 1]
            wk.full_walk(p, wa.complement, wb.complement, f"{seed}:{name}:{i}")
    monkeypatch.undo()
    kinds = Counter(k for call in calls for k in assert_fragment_matches(*call))
    assert kinds["crossing"] == kinds["contraction"] == 16


def test_planner_matches_the_fraction_constructions_on_the_junction_walk(monkeypatch):
    # the pinned walk of tests/test_cli.py that nudges a junction span
    # apart and takes a contraction pre-step
    p = fam.pn_polytope(4)
    wa = sh.ProjectionPlane(((0, 1, 0, 1), (1, 1, 0, 1)))
    wb = sh.ProjectionPlane(((0, 0, 1, 0), (0, -1, 2, -1)))
    calls = recorded_fragments(monkeypatch)
    wk.full_walk(p, wa.complement, wb.complement, 5)
    monkeypatch.undo()
    kinds = Counter(k for call in calls for k in assert_fragment_matches(*call))
    assert kinds["nudge"] >= 1 and kinds["pre-step"] >= 1


def staircase_starts(q, rng, count):
    """Admissible echelon starts inside the reference hyperplane of q
    whose non-pivot column m is not the last: row e_c for each other
    column c, with a random entry in column m when c < m."""
    d = q.dim
    starts = []
    while len(starts) < count:
        m = rng.randint(1, d - 2)
        rows = []
        for c in range(1, d):
            if c != m:
                row = [int(k == c) for k in range(d)]
                if c < m:
                    row[m] = rng.randint(-5, 5)
                rows.append(tuple(row))
        if not list(sh.degenerate_classes(q, rows)):
            starts.append(tuple(rows))
    return starts


@pytest.mark.parametrize("d", [4, 5])
def test_staircase_matches_the_fraction_constructions(d):
    q = wk.reference_frame(fam.hypercube(d)).moved
    kinds = Counter()
    for rows in staircase_starts(q, random.Random(d), 12):
        want = oracle_fragment_within(q, rows)
        assert int_pieces(wk._fragment_within(q, rows)) == fraction_pieces(want)
        kinds.update(kind for _seg, _events, kind in want)
    assert kinds["staircase"] >= 12 and kinds["contraction"] == 12


@pytest.mark.parametrize("first", [0, 1], ids=["inside", "slid"])
@pytest.mark.parametrize("d", sorted(JUNCTION_STARTS))
def test_junction_nudges_match_the_fraction_constructions(monkeypatch, d, first):
    # a candidate whose crossing shares a junction span, then a nudge
    # candidate with first coordinate 0 (inside the hyperplane) or 1
    # (slid back along a proscribed line); both planners read the same
    # scripted values
    q, rows = JUNCTION_STARTS[d]
    v = first_candidate(q, rows, "equal")
    planted = list(v[1:]) + list(rank_raising(q, rows, v, first))
    rng = ScriptedRng(planted)
    monkeypatch.setattr(wk, "random", SimpleNamespace(Random=lambda _seed: rng))
    got, end = wk._fragment_to_hyperplane(q, rows, 0)
    want, want_end = oracle_fragment_to_hyperplane(q, rows, ScriptedRng(planted))
    assert end == want_end
    assert int_pieces(got) == fraction_pieces(want)
    assert [kind for _seg, _events, kind in want][:2] == ["nudge", "crossing"]


@st.composite
def ranged_lines(draw):
    """Zoo rows with one row moving along a drawn direction, on a range
    [0, s], a slot [k/n, (k+1)/n] of the plan's clock, or (-lam, lam),
    the chain split's slide."""
    p, rows = draw(zoo_rows())
    assume(not oracle_degenerate_classes(p, rows))
    i = draw(st.integers(0, len(rows) - 1))
    w = draw(st.tuples(*[RATS] * p.dim))
    shape = draw(st.sampled_from(("start", "slot", "symmetric")))
    size = st.fractions(min_value=Fr(1, 8), max_value=3, max_denominator=8)
    if shape == "start":
        t_range = (0, draw(size))
    elif shape == "slot":
        n = draw(st.integers(1, 9))
        k = draw(st.integers(0, n - 1))
        t_range = (Fr(k, n), Fr(k + 1, n))
    else:
        lam = draw(size)
        t_range = (-lam, lam)
    return p, wk.WalkSegment(rows, oracle_slope(len(rows), i, w), t_range)


@settings(max_examples=150, deadline=None)
@given(ranged_lines())
def test_scan_pairs_match_the_three_point_scan_on_every_range_sign(case):
    p, seg = case
    assert_scan_matches_oracle(seg, pt.parallel_classes(p))

