"""End-to-end tests for the command line front end."""

import hashlib
import io
import json
import sys
import time
import types
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import shadowlab.cli as cli
import shadowlab.families as fam
import shadowlab.linalg as la
import shadowlab.polytope as pt
import shadowlab.shadow as sh
import shadowlab.walk as wk
from shadowlab.errors import SamplingError, WalkError
from oracles import oracle_estranged_subset

CUBE_JSON = json.dumps([[int(b) for b in f"{i:03b}"] for i in range(8)])
TETRA_JSON = json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]})
CUBE4 = fam.hypercube(4)
GOOD_PLANE = "[[1,2,0],[0,1,3]]"
OTHER_PLANE = "[[2,1,1],[1,3,2]]"


def go(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def report(argv):
    code, out, err = go(argv + ["--no-timestamp"])
    assert out, f"no report (exit {code}, stderr {err!r})"
    return code, json.loads(out)


# -------------------------------------------------------------- generate


def test_generate_hypercube():
    code, r = report(["generate", "--family", "hypercube", "--dim", "3"])
    assert code == 0
    assert r["schema"] == 1
    assert r["vertex_count"] == 8
    assert r["dimension"] == 3
    assert all(isinstance(x, str) for row in r["vertices"] for x in row)


def test_generate_output_feeds_back_in(tmp_path):
    path = tmp_path / "cube.json"
    code, out, _ = go(
        ["generate", "--family", "hypercube", "--dim", "3", "--out", str(path)]
    )
    assert code == 0 and out == ""
    code, r = report(["check", "--polytope", str(path), "--mode", "both", "--trials", "8"])
    assert code == 0
    assert r["equiprojective"] is True and r["k"] == 6


def test_generate_zonotope_deterministic():
    argv = ["generate", "--family", "zonotope", "--count", "4", "--dim", "3", "--seed", "5", "--no-timestamp"]
    _, a, _ = go(argv)
    _, b, _ = go(argv)
    assert a == b
    r = json.loads(a)
    assert len(r["params"]["generators"]) == 4
    assert r["seed"] == 5


def test_generate_zonotope_explicit_generators():
    code, r = report(
        ["generate", "--family", "zonotope", "--generators", "[[1,0,0],[0,1,0],[0,0,1],[1,1,1]]"]
    )
    assert code == 0
    assert r["vertex_count"] == 14


def test_generate_remaining_families():
    for argv, verts in (
        (["generate", "--family", "prism"], 6),
        (["generate", "--family", "perturbed-hypercube"], 16),
        (["generate", "--family", "pn", "--n", "2"], 6),
        (["generate", "--family", "pnd", "--n", "2", "--dim", "5"], 12),
    ):
        code, r = report(argv)
        assert code == 0
        assert r["vertex_count"] == verts


def test_generate_usage_errors():
    assert go(["generate", "--family", "hypercube"])[0] == 1
    assert go(["generate", "--family", "nonesuch"])[0] == 1
    assert go(["generate", "--family", "zonotope"])[0] == 1
    assert go(["generate", "--family", "perturbed-hypercube", "--epsilon", "1/2"])[0] == 1
    assert go(["generate", "--family", "zonotope", "--generators", "[[1,0],[2,0]]"])[0] == 1
    code, out, err = go(["generate", "--family", "zonotope", "--count", "17", "--dim", "2"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "17 generators exceed the cap of 16" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "hypercube", "--dim", "17"], "17 unit generators exceed the cap of 9"),
        (["--family", "pnd", "--n", "2", "--dim", "21"], "17 prism doublings exceed the cap of 5"),
        (["--family", "hypercube", "--dim", "10"], "10 unit generators exceed the cap of 9"),
        (["--family", "pnd", "--n", "2", "--dim", "10"], "6 prism doublings exceed the cap of 5"),
        (["--family", "pn", "--n", "14"], "14 triangles exceed the cap of 13"),
    ],
)
def test_generate_cube_like_families_are_capped(argv, message):
    start = time.monotonic()
    code, out, err = go(["generate"] + argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err
    # refused before any of the 2^17 points is listed
    assert time.monotonic() - start < 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "pn"], "pn needs --n"),
        (["--family", "pnd", "--dim", "5"], "pnd needs --n and --dim"),
        (["--family", "pnd", "--n", "2"], "pnd needs --n and --dim"),
    ],
)
def test_generate_pn_families_need_their_counts(argv, message):
    assert go(["generate"] + argv) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------- shadow


def test_shadow_explicit_plane():
    code, r = report(["shadow", "--polytope", CUBE_JSON, "--plane", GOOD_PLANE])
    assert code == 0
    assert r["admissible"] is True
    assert r["k"] == 6
    assert len(r["hull_vertex_ids"]) == 6
    assert r["degenerating_classes"] == []


def test_shadow_sampling():
    code, r = report(["shadow", "--polytope", CUBE_JSON, "--count", "3", "--seed", "7"])
    assert code == 0
    assert [s["k"] for s in r["shadows"]] == [6, 6, 6]
    assert r["seed"] == 7 and r["grid_bound"] == 100


def test_shadow_inadmissible_plane_reports_classes():
    tess = json.dumps([[int(b) for b in f"{i:04b}"] for i in range(16)])
    code, r = report(
        ["shadow", "--polytope", tess, "--plane", "[[1,1,1,0],[0,0,2,1]]"]
    )
    assert code == 0
    assert r["admissible"] is False
    assert r["k"] == 6
    assert len(r["degenerating_classes"]) == 1
    cd = r["degenerating_classes"][0]
    assert cd["direction"] == [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    assert len(cd["members"]) == 4
    assert all(m["touches_boundary"] for m in cd["members"])


def test_shadow_usage_errors():
    assert go(["shadow", "--polytope", "{broken"])[0] == 1
    assert go(["shadow", "--polytope", "/no/such/file.json"])[0] == 1
    assert go(["shadow", "--polytope", "[[0,0,0],[1,0,0],[0,1,0]]"])[0] == 1
    assert go(["shadow", "--polytope", CUBE_JSON, "--plane", "[[1,0,0]]"])[0] == 1
    assert go(["shadow", "--polytope", CUBE_JSON, "--plane", "[[1,0,0],[2,0,0]]"])[0] == 1
    assert go(["shadow", "--polytope", CUBE_JSON, "--plane", "[[0.5,0,0],[0,1,0]]"])[0] == 1


def test_shadow_negative_grid_bound_is_usage_error():
    # a zero grid can never give a plane, so it is a usage error too
    for bound in ("-1", "0"):
        code, out, err = go(["shadow", "--polytope", CUBE_JSON, "--grid-bound", bound])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "grid_bound" in err


def test_shadow_sampling_failure_is_undecided(monkeypatch):
    def boom(*a, **kw):
        raise SamplingError("budget exhausted")

    monkeypatch.setattr(cli.sh, "sample_admissible", boom)
    code, out, err = go(["shadow", "--polytope", CUBE_JSON])
    assert code == 2
    assert "undecided" in err


def test_shadow_count_above_the_cap_fails_before_any_draw(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a plane was drawn")

    monkeypatch.setattr(cli.sh, "ProjectionPlane", boom)
    over = str(sh.MAX_SAMPLES + 1)
    code, out, err = go(["shadow", "--polytope", CUBE_JSON, "--count", over])
    assert (code, out) == (1, "")
    assert err == f"error: {over} samples exceed the cap of {sh.MAX_SAMPLES}\n"


BAD_INPUTS = [
    # _as_rational: a bool, a bad string, a float
    (["shadow", "--polytope", "[[true,0,0],[1,0,0],[0,1,0],[0,0,1]]"],
     "polytope vertices: expected a rational, got True"),
    (["shadow", "--polytope", '[["1/0",0,0],[1,0,0],[0,1,0],[0,0,1]]'],
     "polytope vertices: not a rational string: '1/0'"),
    (["shadow", "--polytope", CUBE_JSON, "--plane", "[[0.5,0,0],[0,1,0]]"],
     "plane: expected an integer or 'p/q' string, got 0.5"),
    # _as_vector and _as_matrix
    (["shadow", "--polytope", "[[0,0,0],5]"], "polytope vertices: expected a non-empty list"),
    (["shadow", "--polytope", "[[0,0,0],[]]"], "polytope vertices: expected a non-empty list"),
    (["shadow", "--polytope", "[]"], "polytope vertices: expected a non-empty list of rows"),
    (["shadow", "--polytope", '{"vertices": 3}'],
     "polytope vertices: expected a non-empty list of rows"),
    (["shadow", "--polytope", "[[0,0,0],[1,0]]"], "polytope vertices: rows of mixed lengths"),
    # _load_polytope: schema, vertices, dimension
    (["shadow", "--polytope", '{"schema": 2, "vertices": [[0,0],[1,0],[0,1]]}'],
     "polytope: unsupported schema 2"),
    (["shadow", "--polytope", '{"schema": 1}'], "polytope: missing 'vertices'"),
    (["shadow", "--polytope", '{"dimension": 3, "vertices": [[0,0],[1,0],[0,1]]}'],
     "polytope: 'dimension' does not match the vertices"),
    # _load_plane, dict form and raises
    (["shadow", "--polytope", CUBE_JSON, "--plane", '{"vectors": [[1,0,0],[0,1,0]]}'],
     "plane: missing 'rows'"),
    (["shadow", "--polytope", CUBE_JSON, "--plane", '{"rows": [[1,0,0]]}'],
     "plane: a projection plane needs exactly 2 rows"),
    (["shadow", "--polytope", CUBE_JSON, "--plane", "[[1,0],[0,1]]"],
     "plane: rows have length 2, polytope lives in 3"),
    (["walk", "--polytope", CUBE_JSON, "--from", GOOD_PLANE, "--to", '{"basis": [[1,0,0],[2,0,0]]}'],
     "to: basis is linearly dependent"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUTS)
def test_bad_input_is_a_usage_error_with_its_message(argv, message):
    assert go(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("key", ["rows", "basis"])
def test_shadow_reads_a_plane_given_as_a_dict(key):
    plane = json.dumps({key: json.loads(GOOD_PLANE)})
    assert report(["shadow", "--polytope", CUBE_JSON, "--plane", plane]) == report(
        ["shadow", "--polytope", CUBE_JSON, "--plane", GOOD_PLANE]
    )


# ------------------------------------------------------------------ walk


def test_walk_round_trip():
    code, r = report(
        ["walk", "--polytope", CUBE_JSON, "--from", GOOD_PLANE, "--to", OTHER_PLANE, "--seed", "1"]
    )
    assert code == 0
    assert r["verified"] is True
    assert r["segments"]
    for seg in r["segments"]:
        assert len(seg["base"]) == 1 and len(seg["base"][0]) == 3
        assert {"t0", "t1", "base", "slope"} <= set(seg)
    for ev in r["events"]:
        assert isinstance(ev["class"], int)
        assert isinstance(ev["t"], str)


def test_walk_same_plane_is_empty():
    code, r = report(
        ["walk", "--polytope", CUBE_JSON, "--from", GOOD_PLANE, "--to", GOOD_PLANE]
    )
    assert code == 0
    assert r["segments"] == [] and r["events"] == []
    assert r["verified"] is True


def test_walk_inadmissible_endpoint_is_usage_error():
    code, _, err = go(
        ["walk", "--polytope", CUBE_JSON, "--from", "[[1,0,0],[0,1,0]]", "--to", GOOD_PLANE]
    )
    assert code == 1
    assert "degenerates" in err


def test_walk_assembly_failure_is_undecided(monkeypatch):
    def boom(*a, **kw):
        raise WalkError("gave up")

    monkeypatch.setattr(cli.wk, "full_walk", boom)
    code, _, err = go(
        ["walk", "--polytope", CUBE_JSON, "--from", GOOD_PLANE, "--to", OTHER_PLANE]
    )
    assert code == 2


def test_walk_verification_failure_is_internal(monkeypatch):
    fake = types.SimpleNamespace(valid=False, violations=("synthetic",))
    monkeypatch.setattr(cli.wk, "verify_walk", lambda p, plan: fake)
    code, _, err = go(
        ["walk", "--polytope", CUBE_JSON, "--from", GOOD_PLANE, "--to", OTHER_PLANE]
    )
    assert code == 3
    assert "synthetic" in err


# ----------------------------------------------------------------- check


def test_check_cube_both():
    code, r = report(["check", "--polytope", CUBE_JSON, "--mode", "both", "--trials", "10"])
    assert code == 0
    assert r["equiprojective"] is True
    assert r["k"] == 6
    assert r["method"] == "combinatorial"
    assert r["firm"] is True
    assert len(r["combinatorial"]["certificates"]) == 3
    assert r["sampled"]["counterexample"] is None


def test_check_tetrahedron_obstruction():
    code, r = report(["check", "--polytope", TETRA_JSON, "--mode", "combinatorial"])
    assert code == 0
    assert r["equiprojective"] is False
    assert r["k"] is None
    obs = r["combinatorial"]["obstruction"]
    assert "odd" in obs["reason"]
    assert len(obs["group"]) == 1
    node = obs["group"][0]
    assert node["other"] is None
    assert node["orientation"] in (1, -1)


def test_check_sampled_disproof_is_decided():
    code, r = report(["check", "--polytope", TETRA_JSON, "--mode", "sampled", "--trials", "30"])
    assert code == 0
    assert r["equiprojective"] is False
    assert r["method"] == "sampled"
    cx = r["counterexample"]
    assert {cx["k_a"], cx["k_b"]} == {3, 4}


def test_check_sampled_yes_is_best_effort():
    code, r = report(["check", "--polytope", CUBE_JSON, "--mode", "sampled", "--trials", "8"])
    assert code == 2
    assert r["equiprojective"] is True
    assert r["firm"] is False


def test_check_hypercube_best_effort():
    tess = json.dumps([[int(b) for b in f"{i:04b}"] for i in range(16)])
    code, r = report(["check", "--polytope", tess, "--mode", "combinatorial"])
    assert code == 0
    assert r["equiprojective"] is True and r["k"] == 8
    assert r["firm"] is True
    assert r["combinatorial"]["firm"] is True
    assert r["combinatorial"]["unresolved_count"] == 0



def test_check_generated_5d_zonotope_finishes(tmp_path):
    # 62 vertices in d=5: C(62, 5) vertex subsets would be needed to
    # find the facets by trying every d-subset
    path = tmp_path / "zono.json"
    code, _, _ = go(
        ["generate", "--family", "zonotope", "--count", "6", "--dim", "5", "--out", str(path)]
    )
    assert code == 0
    code, r = report(["check", "--polytope", str(path), "--mode", "combinatorial"])
    assert code == 0
    assert r["equiprojective"] is True
    assert r["vertex_count"] == 62
    assert r["k"] == 12

def stub_deciders(monkeypatch, comb, samp):
    monkeypatch.setattr(cli.eq, "is_equiprojective_combinatorial", lambda p, seed: comb)
    monkeypatch.setattr(cli.eq, "is_equiprojective_sampled", lambda p, seed, trials: samp)


def test_check_firm_no_stands_without_sampled_counterexample(monkeypatch):
    # sampling cannot prove a yes, so a run without a counterexample
    # does not contradict a firm combinatorial no
    comb = cli.eq.CombinatorialVerdict(False, None, (), None)
    samp = cli.eq.SampledVerdict(True, 6, None, 64)
    stub_deciders(monkeypatch, comb, samp)
    code, r = report(["check", "--polytope", CUBE_JSON, "--mode", "both"])
    assert code == 0
    assert r["equiprojective"] is False
    assert r["k"] is None
    assert r["method"] == "combinatorial"
    assert r["firm"] is True


def test_check_firm_yes_contradicted_by_sampled_counterexample(monkeypatch):
    comb = cli.eq.CombinatorialVerdict(True, 6, (), None)
    wa = cli.sh.ProjectionPlane(((1, 2, 0), (0, 1, 3)))
    wb = cli.sh.ProjectionPlane(((1, 0, 0), (0, 1, 1)))
    samp = cli.eq.SampledVerdict(False, None, (wa, 6, wb, 4), 64)
    stub_deciders(monkeypatch, comb, samp)
    code, _, err = go(["check", "--polytope", CUBE_JSON, "--mode", "both"])
    assert code == 3
    assert "contradicted by sampling" in err


@pytest.mark.parametrize("mode", ["combinatorial", "sampled", "both"])
def test_check_one_dimensional_polytope_is_usage_error(mode):
    # a segment has no planar projection: every mode refuses it up front
    code, out, err = go(["check", "--polytope", "[[1],[2]]", "--mode", mode])
    assert code == 1
    assert out == ""
    assert err == "error: polytope: dimension 1, need at least 2\n"


def test_check_trials_validation():
    assert go(["check", "--polytope", CUBE_JSON, "--mode", "sampled", "--trials", "1"])[0] == 1


@pytest.mark.parametrize("mode", ["sampled", "both"])
def test_check_too_few_trials_fails_before_any_decider(monkeypatch, mode):
    def boom(*args, **kwargs):
        raise AssertionError("a decider ran")

    monkeypatch.setattr(cli.eq, "is_equiprojective_combinatorial", boom)
    monkeypatch.setattr(cli.eq, "is_equiprojective_sampled", boom)
    code, out, err = go(["check", "--polytope", CUBE_JSON, "--mode", mode, "--trials", "1"])
    assert code == 1
    assert out == ""
    assert err == "error: need at least two trials to compare\n"


@pytest.mark.parametrize("mode", ["sampled", "both"])
def test_check_trials_above_the_cap_fail_before_any_decider(monkeypatch, mode):
    def boom(*args, **kwargs):
        raise AssertionError("a decider ran")

    monkeypatch.setattr(cli.eq, "is_equiprojective_combinatorial", boom)
    monkeypatch.setattr(cli.eq, "is_equiprojective_sampled", boom)
    over = str(sh.MAX_SAMPLES + 1)
    code, out, err = go(["check", "--polytope", CUBE_JSON, "--mode", mode, "--trials", over])
    assert (code, out) == (1, "")
    assert err == f"error: {over} samples exceed the cap of {sh.MAX_SAMPLES}\n"


def test_check_combinatorial_ignores_trials():
    code, r = report(
        ["check", "--polytope", CUBE_JSON, "--mode", "combinatorial", "--trials", "1"]
    )
    assert code == 0
    assert r["equiprojective"] is True


# ----------------------------------------------------------------- repro


def test_repro_fig2():
    code, r = report(["repro", "fig2"])
    assert code == 0
    assert r["property_holds"] is True
    assert r["admissible"] is False
    assert r["k"] == 6
    assert r["hull_vertex_ids"] == [1, 0, 12, 14, 15, 3]
    dc = r["degenerating_class"]
    assert dc["direction"] == [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    assert len(dc["members"]) == 4
    assert all(m["touches_boundary"] for m in dc["members"])


def test_repro_fig3():
    code, r = report(["repro", "fig3"])
    assert code == 0
    assert r["property_holds"] is True
    assert r["condition_i"] is False
    assert r["condition_ii"] is True


def test_repro_fig6():
    code, r = report(["repro", "fig6"])
    assert code == 0
    assert r["property_holds"] is True
    assert len(r["estranged_faces"]) == 4
    assert set(r["estranged_faces"]) <= set(r["degenerating_faces"])


def test_repro_fig8():
    code, r = report(["repro", "fig8"])
    assert code == 0
    assert r["property_holds"] is True
    assert r["visible_total"] == r["invisible_total"]
    assert r["k_before"] == r["k_after"] == 5
    assert r["chains"]["visible"] and r["other_chains"]["invisible"]


def _cube4_face(i, j):
    """The first 2-face of the 4-cube spanned by e_i and e_j."""
    key = la.span_of((la.unit(4, i), la.unit(4, j))).canonical_key()
    return next(
        fid for fid, f in enumerate(pt.k_faces(CUBE4, 2)) if f.span.canonical_key() == key
    )


def test_estranged_subset_passes_a_first_face_with_no_partner():
    # span(e0, e1) meets both later spans in a line, so the greedy first
    # choice has no partner; span(e0, e2) and span(e1, e3) meet in 0
    order = [_cube4_face(0, 1), _cube4_face(0, 2), _cube4_face(1, 3)]
    assert cli._estranged_subset(CUBE4, order, 2) == order[1:]
    assert oracle_estranged_subset(CUBE4, order, 2) == order[1:]


ESTRANGED_ZOO = [CUBE4, fam.pn_polytope(3), fam.pn_polytope(4)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_estranged_subset_matches_backtracking(data):
    p = data.draw(st.sampled_from(ESTRANGED_ZOO))
    face_ids = data.draw(
        st.lists(st.integers(0, len(pt.k_faces(p, 2)) - 1), unique=True, max_size=9)
    )
    need = data.draw(st.integers(0, 4))
    got = cli._estranged_subset(p, face_ids, need)
    assert got == oracle_estranged_subset(p, face_ids, need)


# sha256 of the full `repro <figure> --no-timestamp` report, pinned so
# that a change which claims identical behaviour must keep every byte
# (fig8 runs chain_balance)
GOLDEN_REPROS = {
    "fig2": "bed78ea669b2eeebfae225b470057af0977b3b938d416e4b0ddd30b2e8a9bf5c",
    "fig3": "8bd899c90d482ae8d3d65e043312b897eeed6fd0b94d9a53de7f16e809084c24",
    "fig6": "4829f64bee5075401ac01e30a26c4a9f38f5f47b5ceb9dfed2bdfb4aa1c8e07a",
    "fig8": "db33b85cfb9c779d4f2d1c279860541bc30ecc9371c341209016f3325a404e0f",
}


@pytest.mark.parametrize("figure", sorted(GOLDEN_REPROS))
def test_repro_report_matches_golden_digest(figure):
    code, out, _ = go(["repro", figure, "--no-timestamp"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPROS[figure]


def test_repro_rejects_unknown_figure():
    assert go(["repro", "fig9"])[0] == 1


# ------------------------------------------------------- seeds and bytes


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("SHADOWLAB_SEED", "9")
    _, via_env, _ = go(["shadow", "--polytope", CUBE_JSON, "--count", "2", "--no-timestamp"])
    monkeypatch.delenv("SHADOWLAB_SEED")
    _, via_flag, _ = go(
        ["shadow", "--polytope", CUBE_JSON, "--count", "2", "--seed", "9", "--no-timestamp"]
    )
    assert via_env == via_flag
    assert json.loads(via_env)["seed"] == 9


def test_env_seed_validation(monkeypatch):
    monkeypatch.setenv("SHADOWLAB_SEED", "not-a-number")
    assert go(["shadow", "--polytope", CUBE_JSON])[0] == 1
    monkeypatch.delenv("SHADOWLAB_SEED")
    assert go(["shadow", "--polytope", CUBE_JSON, "--seed", str(2**63)])[0] == 1


def test_byte_identical_outputs():
    argv = ["check", "--polytope", CUBE_JSON, "--mode", "combinatorial", "--no-timestamp"]
    _, a, _ = go(argv)
    _, b, _ = go(argv)
    assert a == b


# sha256 of the full `check --mode both --seed 0 --no-timestamp` report,
# pinned so that a change to the deciders which claims identical
# behaviour (verdicts, certificates, chains, obstructions) must keep
# every byte
GOLDEN_CHECKS = {
    "cube4": (
        lambda: fam.hypercube(4),
        "7233fb27609bf9d3d2b393fcc5a03d143f3a3a477786ddd0e61229bbe7c0a252",
    ),
    "perturbed": (
        lambda: fam.perturbed_hypercube(Fraction(1, 100)),
        "0abe05a3503c8ab8fd982272433c627f9e72af7154824d6b9ddb5845e207e165",
    ),
    "pn4": (
        lambda: fam.pn_polytope(4),
        "8170fd689f669c4be95d3025a30e339135a358d290a646a0e3688bf3edb94a18",
    ),
    "zono7": (
        lambda: fam.zonotope(fam.random_generators(6, 4, 7)),
        "dc4c46ae13de5cd3c9df7f974ece081e96ad960434bdacfe11931f42b1d652b2",
    ),
    "pnd5": (
        lambda: fam.hyperprism_pnd(2, 5, 0),
        "1e0622dcd4e098031ca4ab4af4d849cc34b36cc75bedc34cdd8eb14fafc7556e",
    ),
    "zono8": (
        lambda: fam.zonotope(fam.random_generators(6, 5, 8)),
        "c3195288ad171e39bc55644a6e3a2732fea6a151f83e5c115b0300746f8e8f33",
    ),
    "cube6": (
        lambda: fam.hypercube(6),
        "79f337985aa3edfb1caee16cdd212ac4912d0cc6060f531b9c486fe4371db77c",
    ),
    "cube3": (
        lambda: fam.hypercube(3),
        "3dcaafa68509e2ae71f42b129e464ca8822d651c302aba2689ea120e5cc03c45",
    ),
    "pentagonal": (
        lambda: fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
        "b1988739a7d877d00348383dc855f31a129a483e883e86c5a39c7c37c43f7e0e",
    ),
    "tetrahedron": (
        lambda: pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        "88870a121dcb3848c1c88f9847b67d22d9151a9e0238b73f9dd447c9c26abb08",
    ),
    "simplex4": (
        lambda: pt.build(
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        ),
        "d2dfd4ba833a1e3a98b86f505bc4bafca446b1c9d367b66987e6a8cc29aa6893",
    ),
    "zono4": (
        lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
        "36840ec2fbbc0031f86d16b69908d1ffed079dde71bc43a8256cd2352dff4586",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECKS))
def test_check_report_matches_golden_digest(name):
    make, digest = GOLDEN_CHECKS[name]
    p = make()
    poly = json.dumps({"vertices": [[str(x) for x in v] for v in p.vertices]})
    code, out, _ = go(
        ["check", "--polytope", poly, "--mode", "both", "--seed", "0", "--no-timestamp"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full `walk --seed 5 --no-timestamp` report (the end
# planes, every segment's base and slope rows, the event log) between
# two sample_admissible planes, or the two planes given, pinned so that
# a change to the walk layer which claims identical behaviour must keep
# every byte
GOLDEN_WALKS = {
    "cube4": (
        lambda: fam.hypercube(4),
        "47afcb3d5710eaf7686242a1f67fde66ed7d1f099bfa5e468ade7e5911b87cf8",
    ),
    "pentagonal": (
        lambda: fam.prism(((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)), (0, 0, 1)),
        "b5a9712dab563ee30a8ed5a9568ca6abb2ac439c2fee99f46e70adbbd6772fa3",
    ),
    "pn4": (
        lambda: fam.pn_polytope(4),
        "65946ee96bf12beab4b427035e081ed72f8d2f4513abd73feb6a784832ef440d",
    ),
    "zono4": (
        lambda: fam.zonotope(fam.random_generators(5, 4, 4)),
        "bea478e222aad6eca0f59b6c970754f48e61a29eb4c4848c914d5023d035bcb8",
    ),
    "cube3": (
        lambda: fam.hypercube(3),
        "57e8a027568b1416de34e59691780bcd93e372a26cf7c835b9cd9d4d61c27c55",
    ),
    "perturbed4": (
        lambda: fam.perturbed_hypercube(Fraction(1, 100)),
        "37131fecc71bfa6f3bfc2d85a14867d38fb117c31caccedb2e1b32169ba6df4b",
    ),
    "pnd5": (
        lambda: fam.hyperprism_pnd(2, 5, 0),
        "f445068fba9aa4f7787462eeb3148264c432c0cd3ad4570d9db1189911d6c02a",
    ),
    # the only pinned walk that runs the junction nudge and the
    # contraction pre-step (see test_pn4_junction_walk_runs_rare_branches)
    "pn4-junction": (
        lambda: fam.pn_polytope(4),
        "c9f04c36c339277b2c824d58f8e0f97f2bcbd69807175466961d6128644d4814",
        ("[[0,1,0,1],[1,1,0,1]]", "[[0,0,1,0],[0,-1,2,-1]]"),
    ),
}


def _walk_report(name):
    make, _digest, *planes = GOLDEN_WALKS[name]
    p = make()
    poly = json.dumps({"vertices": [[str(x) for x in v] for v in p.vertices]})
    if planes:
        plane_a, plane_b = planes[0]
    else:
        wa, wb = sh.sample_admissible(p, f"golden-walk:{name}", 2)
        plane_a, plane_b = (
            json.dumps([[str(x) for x in r] for r in w.basis.basis]) for w in (wa, wb)
        )
    argv = ["walk", "--polytope", poly, "--from", plane_a, "--to", plane_b]
    return go(argv + ["--seed", "5", "--no-timestamp"])


@pytest.mark.parametrize("name", sorted(GOLDEN_WALKS))
def test_walk_report_matches_golden_digest(name):
    code, out, _ = _walk_report(name)
    assert code == 0
    assert json.loads(out)["events"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_WALKS[name][1]


def test_pn4_junction_walk_runs_rare_branches(monkeypatch):
    # _fragment_to_hyperplane nudges a junction span apart when a
    # crossing's first shared degeneration has equal spans, and
    # _fragment_within takes a contraction pre-step on a shared one
    runs = Counter()
    first_shared = wk._first_shared
    separate = wk._separate_junction_spans

    def counted_first_shared(events):
        shared = first_shared(events)
        if shared is not None:
            runs[sys._getframe(1).f_code.co_name] += 1
        return shared

    def counted_separate(*args):
        pre = separate(*args)
        runs["nudge"] += pre is not None
        return pre

    monkeypatch.setattr(wk, "_first_shared", counted_first_shared)
    monkeypatch.setattr(wk, "_separate_junction_spans", counted_separate)
    code, out, _ = _walk_report("pn4-junction")
    assert code == 0
    report = json.loads(out)
    assert (len(report["segments"]), len(report["events"])) == (5, 111)
    assert runs["nudge"] >= 1
    # a contraction shared degeneration either raises or takes the pre-step
    assert runs["_fragment_within"] >= 1


def test_timestamp_is_the_only_varying_field():
    _, a, _ = go(["repro", "fig3"])
    _, b, _ = go(["repro", "fig3"])
    ra, rb = json.loads(a), json.loads(b)
    assert "generated_at" in ra
    ra.pop("generated_at")
    rb.pop("generated_at")
    assert ra == rb


def test_help_exits_clean():
    assert go(["--help"])[0] == 0
    assert go(["check", "--help"])[0] == 0
    assert go([])[0] == 1


def test_main_exits_with_the_run_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["shadowlab", "generate", "--family", "hypercube"])
    with pytest.raises(SystemExit) as done:
        cli.main()
    assert done.value.code == 1
    assert capsys.readouterr().err == "error: hypercube needs --dim\n"
