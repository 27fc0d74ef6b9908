"""Walk plans against the benchmark's walk checker.

bench/checks.py shares no code with shadowlab: check_walk recomputes
every class determinant of a plan from plain Fractions, finds its affine
roots and compares them with the logged events. Running it here checks
the walk layer's event scan by independent code in every test run, not
only in benchmark runs.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from test_cli import GOLDEN_WALKS, _walk_report
from test_walk import WALK_SUITE

BENCH = Path(__file__).resolve().parents[1] / "bench"

# shadow size of every admissible plane, from theory, where it is known:
# 2d for the d-cube, n + 2 for a prism over an n-gon, 2m for a zonotope
# with m generators in general position
KNOWN_K = {"cube3": 6, "cube4": 8, "pentagonal": 7, "zono4": 10}


@pytest.fixture
def checks(monkeypatch):
    # no bytecode cache left under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    return checks


def check_plan(checks, p, name, plane_a, plane_b, segments, events):
    class_planes = [
        tuple(tuple(checks.int_row(r)) for r in cls.direction_plane.basis)
        for cls in pt.parallel_classes(p)
    ]
    checks.check_walk(
        checks.int_points(p.vertices), class_planes, plane_a, plane_b,
        segments, events, KNOWN_K.get(name),
    )


def _rats(rows):
    return [[Fraction(x) for x in row] for row in rows]


@pytest.mark.parametrize("name", sorted(GOLDEN_WALKS))
def test_golden_walk_reports_pass_the_bench_checker(name, checks):
    code, out, _ = _walk_report(name)
    assert code == 0
    report = json.loads(out)
    segments = [
        (_rats(s["base"]), _rats(s["slope"]), (Fraction(s["t0"]), Fraction(s["t1"])))
        for s in report["segments"]
    ]
    events = [(Fraction(e["t"]), e["class"]) for e in report["events"]]
    assert events
    p = GOLDEN_WALKS[name][0]()
    check_plan(checks, p, name, _rats(report["from"]), _rats(report["to"]), segments, events)


@pytest.mark.parametrize("name", sorted(WALK_SUITE))
def test_walk_suite_plans_pass_the_bench_checker(name, checks):
    p = WALK_SUITE[name]()
    wa, wb = sh.sample_admissible(p, f"walk:0:{name}", 2)
    plan = wk.full_walk(p, wa.complement, wb.complement, f"0:{name}:0")
    assert plan.events
    check_plan(
        checks, p, name, wa.basis.basis, wb.basis.basis,
        [(s.base, s.slope, s.t_range) for s in plan.segments],
        [(e.time, e.class_id) for e in plan.events],
    )


# sha256 of the event log "t:class;..." of the staircase walk below
STAIRCASE_DIGEST = "979e817e605ae1d1c7ef7bb4607d59e350f88303610ede8b86c66229dafbd8d8"


def test_staircase_walk_passes_the_bench_checker(checks):
    # a start inside the reference hyperplane whose normal there has
    # last coordinate 0: its non-pivot column is not the last, so the
    # walk takes a staircase step, which no walk of the benchmark takes
    q = wk.reference_frame(fam.hypercube(4)).moved
    rows = ((0, 2, -1, 0), (0, 0, 0, 1))
    assert wk._echelon(rows)[1] == (1, 3)
    start = la.span_of(rows)
    plan = wk.walk_within_hyperplane(q, start)
    assert len(plan.segments) == 2 and plan.events
    assert wk.verify_walk(q, plan).valid
    # the walk ends at the reference span(e1, e2), whose plane is span(e0, e3)
    check_plan(
        checks, q, "cube4", sh.ProjectionPlane.from_orthogonal(start).basis.basis,
        ((1, 0, 0, 0), (0, 0, 0, 1)),
        [(s.base, s.slope, s.t_range) for s in plan.segments],
        [(e.time, e.class_id) for e in plan.events],
    )
    log = ";".join(f"{e.time}:{e.class_id}" for e in plan.events)
    assert hashlib.sha256(log.encode()).hexdigest() == STAIRCASE_DIGEST


def test_bench_checker_rejects_a_moved_event(checks):
    p = WALK_SUITE["cube3"]()
    wa, wb = sh.sample_admissible(p, "walk:0:cube3", 2)
    plan = wk.full_walk(p, wa.complement, wb.complement, "0:cube3:0")
    events = [(e.time, e.class_id) for e in plan.events]
    events[0] = (events[0][0] + Fraction(1, 10**9), events[0][1])
    with pytest.raises(checks.CheckError):
        check_plan(
            checks, p, "cube3", wa.basis.basis, wb.basis.basis,
            [(s.base, s.slope, s.t_range) for s in plan.segments], events,
        )
