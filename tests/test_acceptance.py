"""The ten acceptance gates, one test per criterion, budgets pinned.

Every comparison is exact: integer vertex counts, rational rank tests,
frozenset identities. No tolerances anywhere. Derived golden values
(prism k=5, tetrahedron counterexample {3,4}, 4-simplex {4,5}) were
computed by the sampling oracle first and frozen here afterwards.
"""

import time
from fractions import Fraction

import pytest

import conftest
import shadowlab.cli as cli
import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from oracles import oracle_facets, oracle_hull_2d, oracle_k_faces

conftest.ACCEPTANCE_TESTS.update(
    {
        "test_criterion_01_zonotope_shadows": (
            1, "20 random zonotopes, every sampled shadow has 2|G| vertices"),
        "test_criterion_02_hypercube_degenerate_projection": (
            2, "4-cube on span(e1+e2+e3, 2e3+e4): one class degenerates, all 4 faces on the boundary"),
        "test_criterion_03_perturbed_hypercube_conditions": (
            3, "perturbed 4-cube satisfies condition (ii) but not condition (i)"),
        "test_criterion_04_walk_suite": (
            4, "full_walk plans verify for 20 endpoint pairs on each of 5 polytopes"),
        "test_criterion_05_verdict_cross_validation": (
            5, "combinatorial and sampled equiprojectivity verdicts agree on the zoo"),
        "test_criterion_06_estranged_degenerations": (
            6, "tangent-triangle polytopes give n estranged simultaneous degenerations"),
        "test_criterion_07_chain_balance": (
            7, "shadow size conservation iff visible/invisible chain balance"),
        "test_criterion_08_chain_splits": (
            8, "each triangle edge splits the visible chain by exactly that edge"),
        "test_criterion_09_definition_equivalence": (
            9, "interior-only degenerations leave the shadow size unchanged"),
        "test_criterion_10_oracle_equivalence": (
            10, "face lattice and shadow hulls match brute-force oracles"),
    }
)

ZONO_COMBOS = ((3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4), (6, 5))

FIG_PLANE = sh.ProjectionPlane(((1, 1, 1, 0), (0, 0, 2, 1)))


@pytest.fixture(scope="module")
def zonotopes():
    out = []
    for i in range(20):
        m, d = ZONO_COMBOS[i % len(ZONO_COMBOS)]
        out.append((m, fam.zonotope(fam.random_generators(m, d, i))))
    return out


@pytest.fixture(scope="module")
def small_zoo():
    return {
        "cube": fam.hypercube(3),
        "hypercube": fam.hypercube(4),
        "prism": fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1)),
        "pentagonal": fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
        "tetrahedron": pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        "simplex4": pt.build(
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        ),
    }


def test_criterion_01_zonotope_shadows(zonotopes):
    start = time.monotonic()
    for i, (m, p) in enumerate(zonotopes):
        planes = sh.sample_admissible(p, i, 100)
        ks = {sh.shadow(p, w).k for w in planes}
        assert ks == {2 * m}, f"zonotope {i} (|G|={m}): shadow sizes {ks}"
    assert time.monotonic() - start < 120


def test_criterion_02_hypercube_degenerate_projection():
    start = time.monotonic()
    p = fam.hypercube(4)
    rep = sh.degeneration_report(p, FIG_PLANE)
    assert rep.admissible is False
    assert len(rep.degenerating) == 1
    cd = rep.degenerating[0]
    cls = pt.parallel_classes(p)[cd.class_id]
    assert cls.direction_plane == la.span_of(((1, 0, 0, 0), (0, 1, 0, 0)))
    assert len(cd.members) == 4
    assert all(m.touches_hull for m in cd.members)
    assert sh.shadow(p, FIG_PLANE).k == 6
    assert time.monotonic() - start < 1


def test_criterion_03_perturbed_hypercube_conditions():
    start = time.monotonic()
    p = fam.perturbed_hypercube(Fraction(1, 100))
    rep = sh.degeneration_report(p, FIG_PLANE)
    assert rep.condition_ii is True
    assert rep.condition_i is False
    assert time.monotonic() - start < 1


def test_criterion_04_walk_suite(small_zoo, zonotopes):
    start = time.monotonic()
    subjects = [
        small_zoo["cube"],
        small_zoo["hypercube"],
        small_zoo["pentagonal"],
        zonotopes[4][1],
        fam.pn_polytope(4),
    ]
    assert la.rank(zonotopes[4][1].vertices) == 4
    for p in subjects:
        planes = sh.sample_admissible(p, f"walk:{p.label}", 40)
        for i in range(20):
            wa, wb = planes[2 * i], planes[2 * i + 1]
            plan = wk.full_walk(p, wa.complement, wb.complement, i)
            cert = wk.verify_walk(p, plan)
            assert cert.valid, (p.label, i, cert.violations)
            if plan.segments:
                first, last = plan.segments[0], plan.segments[-1]
                assert la.span_of(first.rows_at(first.t_range[0])) == wa.complement
                assert la.span_of(last.rows_at(last.t_range[1])) == wb.complement
    assert time.monotonic() - start < 300


def test_criterion_05_verdict_cross_validation(small_zoo, zonotopes):
    start = time.monotonic()
    expected = {
        "cube": (True, 6),
        "hypercube": (True, 8),
        "prism": (True, 5),
        "pentagonal": (True, 7),
        "tetrahedron": (False, None),
        "simplex4": (False, None),
    }
    for name, (want, want_k) in expected.items():
        p = small_zoo[name]
        comb = eq.is_equiprojective_combinatorial(p)
        samp = eq.is_equiprojective_sampled(p, 0, 50)
        assert comb.equiprojective is want, name
        assert samp.equiprojective is want, name
        assert comb.k == want_k, name
        if want:
            assert samp.k == want_k, name
    # golden counterexample sizes, derived by the sampler before freezing
    ce = eq.is_equiprojective_sampled(small_zoo["tetrahedron"], 0, 50).counterexample
    assert {ce[1], ce[3]} == {3, 4}
    ce = eq.is_equiprojective_sampled(small_zoo["simplex4"], 0, 50).counterexample
    assert {ce[1], ce[3]} == {4, 5}
    for i, (m, p) in enumerate(zonotopes):
        comb = eq.is_equiprojective_combinatorial(p, seed=i)
        samp = eq.is_equiprojective_sampled(p, i, 10)
        assert comb.equiprojective is True and samp.equiprojective is True, i
        assert comb.k == samp.k == 2 * m, i
    assert time.monotonic() - start < 180


def _degenerating_faces(p, w):
    faces = pt.k_faces(p, 2)
    out = []
    for fid, f in enumerate(faces):
        if la.rank([w.coords(b) for b in f.span.basis]) <= 1:
            out.append(fid)
    return out


def test_criterion_06_estranged_degenerations():
    start = time.monotonic()
    for n in (2, 3, 4):
        p = fam.pn_polytope(n)
        w = sh.ProjectionPlane((la.unit(4, 0), la.unit(4, 1)))
        degenerating = _degenerating_faces(p, w)
        assert len(degenerating) >= n
        assert cli._estranged_subset(p, degenerating, n) is not None
    # documented seed for the 5-dimensional hyper-prism: 0
    q = fam.hyperprism_pnd(2, 5, 0)
    w = sh.ProjectionPlane((la.unit(5, 0), la.unit(5, 1)))
    degenerating = _degenerating_faces(q, w)
    assert cli._estranged_subset(q, degenerating, 2) is not None
    assert time.monotonic() - start < 30


def test_criterion_07_chain_balance(small_zoo):
    start = time.monotonic()
    for name in ("cube", "prism"):
        p = small_zoo[name]
        certs = eq.visible_pairs(p)
        assert certs
        for cert in certs:
            bal = eq.chain_balance(p, cert)
            balanced = bal.visible_total == bal.invisible_total
            conserved = bal.k_before == bal.k_after
            assert balanced == conserved
            assert balanced, (name, cert.face_id, cert.other_id)
    assert time.monotonic() - start < 60


def test_criterion_08_chain_splits(small_zoo):
    start = time.monotonic()
    p = small_zoo["prism"]
    witness = la.span_of([(1, 2, 0)])
    triangle = 0
    for edge in ((0, 1), (0, 2), (1, 2)):
        tr1, tr2 = wk.chain_split_transformations(p, triangle, 4, edge, witness)
        chains = []
        for tr in (tr1, tr2):
            mid = sum(tr.minus.t_range) / 2
            w = sh.ProjectionPlane.from_orthogonal(tr.minus.rows_at(mid))
            state = wk.boundary_chains(p, triangle, w)
            chains.append({tuple(sorted(e)) for e in state.visible})
        assert chains[0] ^ chains[1] == {edge}
    assert time.monotonic() - start < 10


def test_criterion_09_definition_equivalence():
    start = time.monotonic()
    pert = fam.perturbed_hypercube(Fraction(1, 100))
    rep = eq.definitions_equivalence_check(pert, 0)
    assert rep.matches is True
    assert rep.vacuous is False
    assert rep.interior_events > 0
    assert rep.k_reference == 8
    cube4 = fam.hypercube(4)
    rep = eq.definitions_equivalence_check(cube4, 0)
    assert rep.matches is True
    # no plane with interior-only degeneration exists for the 4-cube, so
    # this scenario passes vacuously; the perturbed case above is the
    # non-vacuous one
    assert rep.vacuous is True
    assert rep.k_reference == 8
    assert time.monotonic() - start < 30


def test_criterion_10_oracle_equivalence(small_zoo, zonotopes):
    start = time.monotonic()
    zoo = list(small_zoo.values())
    zoo += [
        fam.perturbed_hypercube(Fraction(1, 100)),
        fam.pn_polytope(2),
        fam.pn_polytope(3),
        fam.pn_polytope(4),
        zonotopes[0][1],
        zonotopes[1][1],
        zonotopes[2][1],
    ]
    for p in zoo:
        assert len(p.vertices) <= 20
        facts = oracle_facets(p.vertices)
        got = {frozenset(f.vertex_ids) for f in pt.k_faces(p, p.dim - 1)}
        assert got == facts, p.label
        for k in (1, 2):
            want = oracle_k_faces(p.vertices, k, facts)
            have = {frozenset(f.vertex_ids) for f in pt.k_faces(p, k)}
            assert have == want, (p.label, k)
        for w in sh.sample_admissible(p, f"oracle:{p.label}", 2):
            poly = sh.shadow(p, w)
            imgs = [w.coords(v) for v in p.vertices]
            want_hull = oracle_hull_2d(imgs)
            assert poly.k == len(want_hull), p.label
            assert set(poly.points) == set(want_hull), p.label
    assert time.monotonic() - start < 120
