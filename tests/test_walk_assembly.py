"""A walk plan keeps the events its planning found.

The crossing search and the contraction scan each segment on the
rotated copy q while planning; full_walk reverses the second half's
events with their segments (t -> 1 - t), renames q's class ids to p's
through the face ids both share (ReferenceFrame.class_ids), and
_assemble places each event on the plan's clock. The former route, a
second scan of every rescaled segment on p, is kept in
tests/oracles.py (oracle_assemble); here the two are compared event
for event on the walk benchmark's polytopes over several seeds and on
walks in d = 5 and 6.
"""

from fractions import Fraction as Fr
from functools import cache

import pytest

import shadowlab.families as fam
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from oracles import oracle_assemble

PENTAGON = ((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2))

# the walk benchmark's five polytopes, then three in d = 5 and 6
POLYTOPES = {
    "cube3": lambda: fam.hypercube(3),
    "cube4": lambda: fam.hypercube(4),
    "pentagonal": lambda: fam.prism(PENTAGON, (0, 0, 1)),
    "zono4": lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
    "pn4": lambda: fam.pn_polytope(4),
    "cube5": lambda: fam.hypercube(5),
    "pnd5": lambda: fam.hyperprism_pnd(2, 5, 0),
    "cube6": lambda: fam.hypercube(6),
}
SUITE = ("cube3", "cube4", "pentagonal", "zono4", "pn4")


@cache
def polytope(name):
    """The named polytope, built once, so its reference frame is too."""
    return POLYTOPES[name]()


def planned_walks(monkeypatch, name, seed, count):
    """(plan, the raw pieces _assemble was handed) of count seeded walks."""
    p = polytope(name)
    handed = []
    assemble = wk._assemble

    def kept(pieces, isometry, isometry_inv):
        handed.append(pieces)
        return assemble(pieces, isometry, isometry_inv)

    monkeypatch.setattr(wk, "_assemble", kept)
    planes = sh.sample_admissible(p, f"walk:{seed}:{name}", 2 * count)
    plans = [
        wk.full_walk(p, planes[2 * i].complement, planes[2 * i + 1].complement, f"{seed}:{i}")
        for i in range(count)
    ]
    assert len(handed) == count
    return p, list(zip(plans, handed))


def segment_key(seg):
    return seg.base, seg.slope, seg.t_range


def assert_matches_rescan(p, plan, pieces):
    want = oracle_assemble(p, [seg for seg, _events in pieces], plan.isometry, plan.isometry_inv)
    assert plan.events == want.events
    assert [segment_key(s) for s in plan.segments] == [segment_key(s) for s in want.segments]
    # every event lies strictly inside its own segment's slot; a raw
    # time is an integer pair over a positive denominator
    n = len(plan.segments)
    for seg, (_s, events) in zip(plan.segments, pieces):
        lo, hi = seg.t_range
        assert all(type(num) is int and den > 0 for (num, den), _ids in events)
        times = [Fr(*t) for t, _ids in events]
        assert all(len(ids) == 1 for _t, ids in events)
        assert all(0 < t < 1 and lo < (lo * n + t) / n < hi for t in times)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
@pytest.mark.parametrize("name", SUITE)
def test_planned_events_match_the_rescan(monkeypatch, name, seed):
    p, walks = planned_walks(monkeypatch, name, seed, 4)
    for plan, pieces in walks:
        assert_matches_rescan(p, plan, pieces)
        assert wk.verify_walk(p, plan).valid


@pytest.mark.parametrize("name", ["cube5", "pnd5", "cube6"])
def test_planned_events_match_the_rescan_in_higher_dimensions(monkeypatch, name):
    p, walks = planned_walks(monkeypatch, name, 5, 2)
    for plan, pieces in walks:
        assert plan.events
        assert_matches_rescan(p, plan, pieces)
        assert wk.verify_walk(p, plan).valid


@pytest.mark.parametrize("name", ["cube3", "pn4", "cube5"])
def test_pieces_with_events_run_on_the_unit_range(monkeypatch, name):
    # _assemble's clock (k den + num) / (n den) and full_walk's flip
    # 1 - t read raw times on [0, 1]; half-steps carry no events
    _p, walks = planned_walks(monkeypatch, name, 11, 3)
    for _plan, pieces in walks:
        for seg, events in pieces:
            if events:
                assert seg.t_range == (0, 1)
                times = [Fr(*t) for t, _ids in events]
                assert times == sorted(times)


# name -> (classes whose id the rotation moves, classes)
MOVED = {
    "cube3": (3, 3),
    "cube4": (5, 6),
    "pentagonal": (4, 6),
    "zono4": (0, 10),
    "pn4": (71, 72),
    "cube5": (10, 10),
    "pnd5": (0, 30),
    "cube6": (14, 15),
}


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_frame_class_ids_name_the_same_faces(name):
    p = polytope(name)
    frame = wk.reference_frame(p)
    classes = pt.parallel_classes(p)
    moved = pt.parallel_classes(frame.moved)
    assert sorted(frame.class_ids) == list(range(len(classes)))
    for k, cls in enumerate(moved):
        assert classes[frame.class_ids[k]].member_ids == cls.member_ids
    # the copy orders its classes by the moved spans, so the map is not
    # the identity in general
    changed = sum(k != cid for k, cid in enumerate(frame.class_ids))
    assert (changed, len(classes)) == MOVED[name]


def test_assemble_places_events_on_the_plan_clock():
    # three pieces on [0, 1]: raw 1/3 in the second lands at (1 + 1/3) / 3;
    # raw times come as integer pairs, not always in lowest terms
    seg = wk.WalkSegment(((1, 2, 3),), ((0, 0, 0),), (0, 1))
    half = wk.WalkSegment(((1, 2, 3),), ((0, 0, 0),), (0, Fr(1, 2)))
    pieces = [(half, []), (seg, [((2, 6), [4]), ((5, 7), [0])]), (seg, [((3, 6), [2])])]
    plan = wk._assemble(pieces, None, None)
    assert plan.events == (
        wk.DegenerationEvent(Fr(4, 9), 4),
        wk.DegenerationEvent(Fr(4, 7), 0),
        wk.DegenerationEvent(Fr(5, 6), 2),
    )
    assert [s.t_range for s in plan.segments] == [
        (0, Fr(1, 3)), (Fr(1, 3), Fr(2, 3)), (Fr(2, 3), 1)
    ]
