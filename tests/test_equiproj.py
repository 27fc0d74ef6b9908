"""Tests for visibility certificates, compensation and the deciders."""

from collections import Counter
from fractions import Fraction as Fr
from math import comb

import pytest

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import GeometryError, ParameterError
from oracles import (
    oracle_class_degeneracy_det,
    oracle_boundary_members,
    oracle_lottery_configurations,
    oracle_signed_area,
    oracle_solve_gram,
)

CUBE = fam.hypercube(3)
TESS = fam.hypercube(4)
PERT = fam.perturbed_hypercube(Fr(1, 100))
PRISM = fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1))
PENT = fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1))
TETRA = pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
SIMPLEX4 = pt.build(
    [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
)
ZONO = fam.zonotope(fam.random_generators(5, 4, 0))

CUBE_CERTS = eq.visible_pairs(CUBE)
PRISM_CERTS = eq.visible_pairs(PRISM)
TETRA_CERTS = eq.visible_pairs(TETRA)
TESS_VERDICT = eq.is_equiprojective_combinatorial(TESS)
ZONO_VERDICT = eq.is_equiprojective_combinatorial(ZONO)


def edge_dir(p, eid):
    a, b = pt.k_faces(p, 1)[eid].vertex_ids
    return la.sub(p.vertices[b], p.vertices[a])


def compensating_oracle(p, n1, n2):
    """The pairing relation, restated from scratch for cross-checking."""
    d1 = edge_dir(p, n1.edge_id)
    d2 = edge_dir(p, n2.edge_id)
    if la.rank((d1, d2)) != 1:
        return False
    i = next(k for k, x in enumerate(d1) if x != 0)
    if n1.orientation * n2.orientation * (d2[i] / d1[i]) >= 0:
        return False
    same = (
        n1.face_id == n2.face_id
        and n1.partner_id == n2.partner_id
        and n1.edge_id != n2.edge_id
    )
    swapped = n1.partner_id is not None and (
        (n1.face_id, n1.partner_id) == (n2.partner_id, n2.face_id)
    )
    return same or swapped


def oracle_has_perfect_matching(p, nodes):
    """Backtracking matcher over the whole graph, no group shortcuts."""
    n = len(nodes)
    used = [False] * n

    def rec(i):
        while i < n and used[i]:
            i += 1
        if i == n:
            return True
        used[i] = True
        for j in range(i + 1, n):
            if not used[j] and compensating_oracle(p, nodes[i], nodes[j]):
                used[j] = True
                if rec(i + 1):
                    return True
                used[j] = False
        used[i] = False
        return False

    return rec(0)


def negate_orientations(monkeypatch):
    """Reverse every traversal: eq.orient with each node's orientation
    negated. Compensation cannot see it."""
    orient = eq.orient
    monkeypatch.setattr(
        eq,
        "orient",
        lambda p, cert: tuple(
            n._replace(orientation=-n.orientation) for n in orient(p, cert)
        ),
    )


def all_nodes(p, certs):
    out = []
    for c in certs:
        out.extend(eq.orient(p, c))
    return out


def antipodal_face(p, fid):
    faces = pt.k_faces(p, 2)
    want = tuple(
        sorted(
            p.vertices.index(tuple(1 - x for x in p.vertices[v]))
            for v in faces[fid].vertex_ids
        )
    )
    for i, f in enumerate(faces):
        if f.vertex_ids == want:
            return i
    raise AssertionError("no antipodal face")


# ------------------------------------------------------------ visibility


def test_cube_certificates_pair_opposite_facets():
    got = sorted((c.face_id, c.other_id) for c in CUBE_CERTS)
    assert got == [(0, 5), (1, 4), (2, 3)]
    # opposite facet = the other member of the class, never a singleton
    for c in CUBE_CERTS:
        assert c.other_id is not None
        cls = pt.k_faces(CUBE, 2)[c.face_id].span
        assert pt.k_faces(CUBE, 2)[c.other_id].span == cls


def test_prism_certificates():
    got = sorted(
        (c.face_id, -1 if c.other_id is None else c.other_id)
        for c in PRISM_CERTS
    )
    assert got == [(0, 4), (1, -1), (2, -1), (3, -1)]


def test_certificate_chains_partition_face_edges():
    for c in PRISM_CERTS + CUBE_CERTS:
        p = PRISM if c in PRISM_CERTS else CUBE
        edges = pt.k_faces(p, 1)
        for chains in filter(None, (c.chains, c.other_chains)):
            face = pt.k_faces(p, 2)[chains.face_id]
            face_eids = {
                i
                for i, e in enumerate(edges)
                if set(e.vertex_ids) <= set(face.vertex_ids)
            }
            seen = set(chains.visible) | set(chains.invisible)
            assert seen == face_eids
            assert not set(chains.visible) & set(chains.invisible)
            assert len(chains.fixed_points) == 2
            assert chains.visible and chains.invisible


def test_no_parallel_edges_share_a_chain():
    for p, certs in (
        (CUBE, CUBE_CERTS),
        (PRISM, PRISM_CERTS),
        (TETRA, TETRA_CERTS),
        (TESS, TESS_VERDICT.certificates),
        (ZONO, ZONO_VERDICT.certificates),
    ):
        for c in certs:
            for chains in filter(None, (c.chains, c.other_chains)):
                for group in (chains.visible, chains.invisible):
                    dirs = [edge_dir(p, e) for e in group]
                    for i in range(len(dirs)):
                        for j in range(i + 1, len(dirs)):
                            assert la.rank((dirs[i], dirs[j])) == 2


def test_certificate_witness_degenerates_one_class():
    for c in CUBE_CERTS + PRISM_CERTS:
        p = CUBE if c in CUBE_CERTS else PRISM
        cls = pt.k_faces(p, 2)[c.face_id].span
        zero = 0
        for k in pt.parallel_classes(p):
            dv = oracle_class_degeneracy_det(c.witness, k.direction_plane)
            if dv == 0:
                zero += 1
                assert k.direction_plane == cls
        assert zero == 1


def test_hypercube_certifies_diagonal_pairs_only():
    certs = TESS_VERDICT.certificates
    assert len(certs) == 12
    for c in certs:
        assert c.other_id == antipodal_face(TESS, c.face_id)
    # the exact set is exactly the 12 antipodal pairs: no face is ever
    # visible alone, and no same-facet pair is visible together
    faces = pt.k_faces(TESS, 2)
    want = {
        (fid, antipodal_face(TESS, fid))
        for fid in range(len(faces))
        if fid < antipodal_face(TESS, fid)
    }
    assert len(want) == 12
    assert {(c.face_id, c.other_id) for c in certs} == want


def test_hypercube_same_facet_pair_witness_fails():
    # both faces are parallel to span(e1,e2) and share the x4=0 facet;
    # at a plane degenerating their class only one reaches the boundary
    wit = sh.ProjectionPlane(((1, 1, 1, 0), (0, 0, 2, 1))).complement
    faces = pt.k_faces(TESS, 2)
    fa = next(
        i for i, f in enumerate(faces) if f.vertex_ids == (0, 4, 8, 12)
    )
    fb = next(
        i for i, f in enumerate(faces) if f.vertex_ids == (1, 5, 9, 13)
    )
    with pytest.raises(GeometryError):
        wk.elementary_transformation(TESS, fa, fb, wit)


def exact_configurations(p):
    """{(class id, member ids): c} over every valid cell, first c kept."""
    out = {}
    for cid in range(len(pt.parallel_classes(p))):
        for c, members in eq._cells(p, cid):
            out.setdefault((cid, members), c)
    return out


@pytest.mark.parametrize(
    "p,configs,interior",
    [
        pytest.param(CUBE, 3, 0, id="cube"),
        pytest.param(PRISM, 4, 0, id="prism"),
        pytest.param(TETRA, 4, 0, id="tetrahedron"),
        pytest.param(TESS, 12, 0, id="4-cube"),
        pytest.param(PERT, 18, 30, id="perturbed-4-cube"),
        pytest.param(fam.zonotope(fam.random_generators(5, 4, 4)), 30, None, id="zonotope-4"),
        pytest.param(fam.zonotope(fam.random_generators(6, 4, 7)), 60, None, id="zonotope-7"),
        pytest.param(fam.zonotope(fam.random_generators(5, 4, 11)), None, None, id="random-d4"),
        pytest.param(fam.zonotope(fam.random_generators(6, 5, 12)), None, None, id="random-d5"),
    ],
)
def test_exact_configurations_cover_the_lottery(p, configs, interior):
    exact = exact_configurations(p)
    # every configuration a seeded random search meets is enumerated
    lottery = oracle_lottery_configurations(p, seed=0)
    assert lottery
    assert set(lottery) <= set(exact)
    # every enumerated configuration shows at its witness, exactly
    for (cid, members), c in exact.items():
        rows, _mults = eq._witness(p, cid, c)
        assert tuple(sh.degenerate_classes(p, rows)) == (cid,)
        assert oracle_boundary_members(p, cid, rows) == members
    certified = [key for key in exact if len(key[1]) in (1, 2)]
    assert len(certified) == len(eq.visible_pairs(p))
    if configs is not None:
        assert len(certified) == configs
    if interior is not None:
        cells = [
            members
            for cid in range(len(pt.parallel_classes(p)))
            for _c, members in eq._cells(p, cid)
        ]
        assert cells.count(()) == interior


def test_visible_pairs_deterministic():
    a = eq.visible_pairs(TETRA)
    b = eq.visible_pairs(TETRA)
    assert a == b


@pytest.mark.parametrize(
    "make",
    [
        lambda: fam.hypercube(4),
        lambda: fam.pn_polytope(4),
        lambda: fam.hyperprism_pnd(2, 5, 0),
        lambda: fam.perturbed_hypercube(Fr(1, 100)),
    ],
    ids=["cube4", "pn4", "pnd5", "perturbed"],
)
def test_survey_builds_no_shadow_hull(make, monkeypatch):
    # a witness is valid by construction, and the chains are read by
    # local optimality on the polytope graph: the survey builds no
    # shadow hull and validates no witness
    p = make()
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(sh, "hull_frame", counted("hull_frame", sh.hull_frame))
    monkeypatch.setattr(
        wk,
        "_validate_visibility_witness",
        counted("validate", wk._validate_visibility_witness),
    )
    certs = eq._survey(p)
    assert certs
    assert calls == {}


# ----------------------------------------------------------- orientation


def test_edge_two_face_shape():
    for n in all_nodes(CUBE, CUBE_CERTS):
        assert n.orientation in (1, -1)
        edge = pt.k_faces(CUBE, 1)[n.edge_id]
        face = pt.k_faces(CUBE, 2)[n.face_id]
        assert set(edge.vertex_ids) <= set(face.vertex_ids)


def test_cube_opposite_facets_anti_aligned():
    # vertex v of the x=0 facet sits across from v+4; corresponding
    # edges of an opposite facet pair get opposite traversal directions
    cert = next(c for c in CUBE_CERTS if (c.face_id, c.other_id) == (0, 5))
    zf = pt.k_faces(CUBE, 2)
    pair = {zf[cert.face_id].vertex_ids, zf[cert.other_id].vertex_ids}
    assert pair == {(0, 1, 2, 3), (4, 5, 6, 7)}
    nodes = eq.orient(CUBE, cert)
    edges = pt.k_faces(CUBE, 1)
    bottom = [n for n in nodes if n.face_id == cert.face_id]
    top = {edges[n.edge_id].vertex_ids: n for n in nodes if n.face_id == cert.other_id}
    assert len(bottom) == 4 and len(top) == 4
    for n in bottom:
        a, b = edges[n.edge_id].vertex_ids
        partner = top[(a + 4, b + 4)]
        # same canonical direction vector, so opposite signs
        assert edge_dir(CUBE, n.edge_id) == edge_dir(CUBE, partner.edge_id)
        assert n.orientation == -partner.orientation


def test_prism_triangles_anti_aligned():
    cert = next(c for c in PRISM_CERTS if c.other_id is not None)
    nodes = eq.orient(PRISM, cert)
    edges = pt.k_faces(PRISM, 1)
    low = {edges[n.edge_id].vertex_ids: n for n in nodes if n.face_id == cert.face_id}
    high = {edges[n.edge_id].vertex_ids: n for n in nodes if n.face_id == cert.other_id}
    assert len(low) == 3 and len(high) == 3
    for (a, b), n in low.items():
        m = high[(a + 3, b + 3)]
        assert edge_dir(PRISM, n.edge_id) == edge_dir(PRISM, m.edge_id)
        assert n.orientation == -m.orientation


def test_orientation_flip_does_not_change_verdicts(monkeypatch):
    # reversing every traversal negates every orientation: compare
    # verdicts and pair validity
    cases = ((CUBE, CUBE_CERTS), (PRISM, PRISM_CERTS), (TETRA, TETRA_CERTS))
    before = [eq.compensation_partition(p, certs) for p, certs in cases]
    negate_orientations(monkeypatch)
    after = [eq.compensation_partition(p, certs) for p, certs in cases]
    for (p, _certs), a, b in zip(cases, before, after):
        assert type(a) is type(b)
        assert [-n.orientation for n in a.edge_two_faces] == [
            n.orientation for n in b.edge_two_faces
        ]
        if isinstance(a, eq.Obstruction):
            assert p is TETRA
            assert len(a.group) == len(b.group) == 1
            continue
        assert len(a.pairs) == len(b.pairs)
        for out in (a, b):
            for i, j in out.pairs:
                assert compensating_oracle(p, out.edge_two_faces[i], out.edge_two_faces[j])


def test_orient_rejects_inconsistent_certificates():
    good = CUBE_CERTS[0]
    broken = good._replace(face_id=99)
    with pytest.raises(GeometryError):
        eq.orient(CUBE, broken)
    crossed = good._replace(face_id=0, other_id=1)
    with pytest.raises(GeometryError):
        eq.orient(CUBE, crossed)


# ---------------------------------------------------------- compensation


def test_cube_partition_against_matching_oracle():
    out = eq.compensation_partition(CUBE, CUBE_CERTS)
    assert isinstance(out, eq.CompensationPairing)
    nodes = out.edge_two_faces
    assert sorted(i for pr in out.pairs for i in pr) == list(range(len(nodes)))
    for i, j in out.pairs:
        assert compensating_oracle(CUBE, nodes[i], nodes[j])
    assert oracle_has_perfect_matching(CUBE, nodes)



def test_partition_rejects_oversize_group(monkeypatch):
    # six edge-2-faces of one face along one edge line: a face holds at
    # most two edges on a line, so no sound face pair gives more than four
    node = eq.EdgeTwoFace(0, 0, None, 1)
    monkeypatch.setattr(eq, "orient", lambda p, cert: (node,) * 6)
    with pytest.raises(GeometryError, match="group of 6 edge-2-faces"):
        eq.compensation_partition(CUBE, CUBE_CERTS[:1])

def test_tetrahedron_partition_obstructed():
    out = eq.compensation_partition(TETRA, TETRA_CERTS)
    assert isinstance(out, eq.Obstruction)
    assert len(out.group) == 1
    assert not oracle_has_perfect_matching(TETRA, out.edge_two_faces)


def test_zonotope_partition_exists():
    out = eq.compensation_partition(ZONO, ZONO_VERDICT.certificates)
    assert isinstance(out, eq.CompensationPairing)
    for i, j in out.pairs:
        assert compensating_oracle(ZONO, out.edge_two_faces[i], out.edge_two_faces[j])
    assert oracle_has_perfect_matching(ZONO, out.edge_two_faces)


# --------------------------------------------------------------- verdicts


@pytest.mark.parametrize(
    "p,k",
    [(CUBE, 6), (PRISM, 5), (PENT, 7)],
    ids=["cube", "prism", "pentagonal-prism"],
)
def test_combinatorial_yes_three_dimensional(p, k):
    v = eq.is_equiprojective_combinatorial(p)
    assert v.equiprojective is True
    assert v.k == k
    assert v.obstruction is None


def test_combinatorial_no_tetrahedron():
    v = eq.is_equiprojective_combinatorial(TETRA)
    assert v.equiprojective is False
    assert v.k is None
    assert isinstance(v.obstruction, eq.Obstruction)


def test_combinatorial_no_simplex():
    v = eq.is_equiprojective_combinatorial(SIMPLEX4)
    assert v.equiprojective is False


def test_combinatorial_yes_hypercube_best_effort():
    assert TESS_VERDICT.equiprojective is True
    assert TESS_VERDICT.k == 8


def test_combinatorial_yes_zonotope():
    assert ZONO_VERDICT.equiprojective is True
    assert ZONO_VERDICT.k == 10


def test_sampled_verdicts():
    s = eq.is_equiprojective_sampled(CUBE, 0, 40)
    assert (s.equiprojective, s.k, s.counterexample) == (True, 6, None)
    s = eq.is_equiprojective_sampled(TESS, 0, 25)
    assert (s.equiprojective, s.k) == (True, 8)
    s = eq.is_equiprojective_sampled(TETRA, 0, 50)
    assert s.equiprojective is False
    assert s.k is None
    assert {s.counterexample[1], s.counterexample[3]} == {3, 4}
    s = eq.is_equiprojective_sampled(SIMPLEX4, 0, 50)
    assert s.equiprojective is False
    assert {s.counterexample[1], s.counterexample[3]} == {4, 5}


def test_sampled_counterexample_planes_are_exact():
    s = eq.is_equiprojective_sampled(TETRA, 0, 50)
    wa, ka, wb, kb = s.counterexample
    assert sh.shadow(TETRA, wa).k == ka
    assert sh.shadow(TETRA, wb).k == kb


def test_sampled_needs_two_trials():
    with pytest.raises(ParameterError):
        eq.is_equiprojective_sampled(CUBE, 0, 1)


def test_sampled_trials_above_the_cap_fail_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a plane")

    monkeypatch.setattr(sh.random, "Random", no_draws)
    over = sh.MAX_SAMPLES + 1
    with pytest.raises(ParameterError, match=f"^{over} samples exceed the cap of {sh.MAX_SAMPLES}$"):
        eq.is_equiprojective_sampled(CUBE, 0, over)


def test_deciders_agree_on_small_zoo():
    for p in (CUBE, PRISM, PENT, TETRA):
        a = eq.is_equiprojective_combinatorial(p)
        b = eq.is_equiprojective_sampled(p, 0, 40)
        assert a.equiprojective == b.equiprojective
        if a.equiprojective:
            assert a.k == b.k


# ------------------------------------------------------------- balance


def test_chain_balance_cube_and_prism():
    for p, certs in ((CUBE, CUBE_CERTS), (PRISM, PRISM_CERTS)):
        for c in certs:
            r = eq.chain_balance(p, c)
            assert r.visible_total == r.invisible_total
            assert r.k_before == r.k_after
            if p is CUBE:
                assert r.k_before == 6 and r.visible_total == 4
            else:
                assert r.k_before == 5


def test_chain_balance_tetrahedron_breaks():
    # triangles split 1/2 between the chains, so the size must change
    for c in TETRA_CERTS:
        r = eq.chain_balance(TETRA, c)
        assert r.visible_total != r.invisible_total
        assert r.k_before != r.k_after
        assert {r.k_before, r.k_after} == {3, 4}


def test_balance_matches_size_conservation_everywhere():
    # both directions of the balance criterion over every certificate;
    # a "yes" keeps k across every certificate, a "no" changes it
    # across at least one, not always in the obstructed group
    zoo = (
        (CUBE, True),
        (PRISM, True),
        (TESS, True),
        (PENT, True),
        (fam.zonotope(fam.random_generators(5, 4, 4)), True),
        (fam.zonotope(fam.random_generators(6, 4, 7)), True),
        (fam.zonotope(fam.random_generators(6, 5, 8)), True),
        (TETRA, False),
        (SIMPLEX4, False),
        (PERT, False),
        (fam.pn_polytope(4), False),
        (fam.hyperprism_pnd(2, 5, 0), False),
    )
    for p, yes in zoo:
        verdict = eq.is_equiprojective_combinatorial(p)
        assert verdict.equiprojective is yes
        kept = []
        for c in verdict.certificates:
            r = eq.chain_balance(p, c)
            assert (r.k_before == r.k_after) == (
                r.visible_total == r.invisible_total
            )
            kept.append(r.k_before == r.k_after)
        assert kept and (all(kept) if yes else not all(kept))


# ------------------------------------------------------------ corollary


def test_equivalence_check_cube_vacuous():
    rep = eq.definitions_equivalence_check(CUBE, 0)
    assert rep.vacuous is True
    assert rep.interior_events == 0
    assert rep.matches is True
    assert rep.k_reference == 6
    assert rep.planes_checked > 0


def test_equivalence_check_hypercube_vacuous():
    rep = eq.definitions_equivalence_check(TESS, 0)
    assert rep.vacuous is True
    assert rep.matches is True
    assert rep.k_reference == 8


def test_equivalence_check_perturbed_hypercube():
    rep = eq.definitions_equivalence_check(PERT, 0)
    assert rep.vacuous is False
    assert rep.interior_events > 0
    assert rep.matches is True
    assert rep.k_reference == 8


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize(
    "p",
    [PENT, PERT, ZONO, pt.apply_isometry(TESS, wk.reference_frame(TESS).rotation)],
    ids=["pentagonal", "perturbed", "zonotope", "rotated-4-cube"],
)
def test_signed_area_sign_matches_gram_frame(p):
    # orient reads only the sign of the integer-image area; it must be
    # the sign of the cycle's area in the Gram coordinates of its plane
    for face in pt.k_faces(p, 2):
        origin = p.vertices[face.vertex_ids[0]]
        xs = [
            oracle_solve_gram(face.span.basis, la.sub(p.vertices[v], origin))
            for v in pt.face_cycle(p, face)
        ]
        want = sum(
            x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(xs, xs[1:] + xs[:1])
        )
        assert want != 0
        assert _sign(eq._signed_area(p, face, face.span.int_rows)) == _sign(want)


@pytest.mark.parametrize(
    "p",
    [CUBE, TESS, PENT, PERT, ZONO],
    ids=["cube3", "cube4", "pentagonal", "perturbed", "zonotope"],
)
def test_signed_area_matches_the_shoelace_on_every_certificate_pair(p):
    # orient reads both faces of a pair in the first one's frame; one
    # turn must give the sign of the whole oracle cycle's area
    faces = pt.k_faces(p, 2)
    pairs = [c for c in eq.visible_pairs(p) if c.other_id is not None]
    assert pairs
    for cert in pairs:
        frame = faces[cert.face_id].span.int_rows
        for fid in (cert.face_id, cert.other_id):
            want = oracle_signed_area(p, faces[fid], frame)
            assert want != 0
            assert _sign(eq._signed_area(p, faces[fid], frame)) == _sign(want)


def test_signed_area_refuses_a_flat_frame():
    # a frame of one row twice maps the face onto a line: no turn
    face = pt.k_faces(TESS, 2)[0]
    row = face.span.int_rows[0]
    with pytest.raises(GeometryError, match="^degenerate face cycle$"):
        eq._signed_area(TESS, face, (row, row))


@pytest.mark.parametrize(
    "m,d,seed",
    [(d, d, None) for d in range(3, 7)]
    + [(m, d, s) for m, d in ((5, 4), (6, 4), (6, 5)) for s in (0, 1, 4)],
)
def test_survey_is_complete_on_zonotopes_in_closed_form(m, d, seed):
    # a class {g_i, g_j} of a zonotope of m generic generators has one
    # certificate per antipodal vertex pair of the zonotope of the other
    # m - 2 generators projected along its plane, in dimension d - 2,
    # which has 2 sum_{i < d-2} C(m-3, i) vertices (Buck 1943; Zaslavsky)
    p = fam.hypercube(d) if seed is None else fam.zonotope(fam.random_generators(m, d, seed))
    per_class = Counter(wk._class_of_face(p, c.face_id) for c in eq.visible_pairs(p))
    assert len(pt.parallel_classes(p)) == comb(m, 2)
    assert per_class == {cid: sum(comb(m - 3, i) for i in range(d - 2)) for cid in range(comb(m, 2))}
