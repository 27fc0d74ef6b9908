"""Opt-in mutation run: each listed mutant of src/shadowlab must fail the
tests named for it.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py ID ...     # the named ones

A mutant is one text edit of one file of src/shadowlab: an old text
that occurs there exactly once and its replacement. For each mutant the
run copies src/, tests/, bench/ and pyproject.toml (whose pythonpath
would otherwise put the unmutated src first) to a temporary directory,
applies the edit and runs `python -m pytest -q -x -p no:cacheprovider`
there on the tests named for it, files or node ids, with no bytecode
written. The unmutated copy must first pass every test that some
mutant names. A mutated run that outlasts both two minutes and twice
the unmutated run, which ran every test the mutant names, has hung: it
is stopped and counts as killed, and the report says it timed out. A
mutant whose tests all pass has survived, and the run exits 1; a
surviving mutant is a finding, to be met with a test, never by
deleting the entry. Only the standard library is used, and nothing
is written outside the temporary directory. pytest does not collect
this file; tests/test_mutants.py checks that every old text still
occurs exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")

Mutant = namedtuple("Mutant", ["id", "file", "old", "new", "tests"])

WALK = "src/shadowlab/walk.py"
EQUIPROJ = "src/shadowlab/equiproj.py"
POLYTOPE = "src/shadowlab/polytope.py"
KERNELS = "src/shadowlab/kernels.py"
SHADOW = "src/shadowlab/shadow.py"
CHAINS = "tests/test_face_chains.py::test_frame_chains_match_the_degree_count"
DIFFERENTIAL = "tests/test_walk.py::test_verify_walk_rejects_every_rank_loss_the_oracle_finds"
PLANNER = "tests/test_walk_planner.py::"

MUTANTS = [
    # verify_walk's junction test
    Mutant(
        "junction-reads-lo-vals",
        WALK,
        "x, y = minors[i - 1].hi_vals, minors[i].lo_vals",
        "x, y = minors[i - 1].lo_vals, minors[i].lo_vals",
        ["tests/test_walk_spans.py::test_equal_junction_spans_by_recombined_rows"],
    ),
    # the crossing search's shared junction span
    Mutant(
        "shared-span-rank-d-2",
        WALK,
        "if kernels.rank_int(tuple(r[0] for r in rows[1:]) + fa + fb) != d - 1:",
        "if kernels.rank_int(tuple(r[0] for r in rows[1:]) + fa + fb) != d - 2:",
        ["tests/test_cli.py::test_pn4_junction_walk_runs_rare_branches"],
    ),
    # the elementary transformation's frame
    Mutant(
        "w1-tilde-swapped",
        WALK,
        "w1, w2 = la.primitive(_tilde(pick, v)), la.primitive(v)",
        "w1, w2 = la.primitive(_tilde(v, pick)), la.primitive(v)",
        ["tests/test_walk.py::test_transformation_sign_data"],
    ),
    # the chain split's slide, and the nearest root it shares with the probe
    Mutant(
        "nearest-root-keeps-zero-roots",
        WALK,
        "if gap[0] and gap[1] and (near is None",
        "if gap[1] and (near is None",
        ["tests/test_walk.py::test_prism_chain_split"],
    ),
    Mutant(
        "slide-side-test-strict",
        WALK,
        "if a * a <= b * b:",
        "if a * a < b * b:",
        ["tests/test_walk.py::test_chain_split_rejects_an_edge_that_changes_sides"],
    ),
    # full_walk's assembly of planned events
    Mutant(
        "class-map-identity",
        WALK,
        "ids = [_class_of_face(p, cls.member_ids[0]) for cls in pt.parallel_classes(q)]",
        "ids = list(range(len(pt.parallel_classes(q))))",
        ["tests/test_walk_assembly.py"],
    ),
    Mutant(
        "reversed-events-unflipped",
        WALK,
        "[((den - num, den), ids) for (num, den), ids in ev[::-1]]",
        "[((num, den), ids) for (num, den), ids in ev[::-1]]",
        ["tests/test_walk_assembly.py"],
    ),
    Mutant(
        "reversed-events-negated",
        WALK,
        "[((den - num, den), ids) for (num, den), ids in ev[::-1]]",
        "[((num - den, den), ids) for (num, den), ids in ev[::-1]]",
        ["tests/test_walk_assembly.py::test_planned_events_match_the_rescan"],
    ),
    Mutant(
        "clock-k-off-by-one",
        WALK,
        "Fraction(k * den + num, n * den)",
        "Fraction((k + 1) * den + num, n * den)",
        ["tests/test_walk_assembly.py"],
    ),
    Mutant(
        "clock-slot-k-num",
        WALK,
        "Fraction(k * den + num, n * den)",
        "Fraction(k * num + den, n * den)",
        ["tests/test_walk_assembly.py::test_assemble_places_events_on_the_plan_clock"],
    ),
    # the planner's integer rows
    Mutant(
        "contraction-slope-sign-flipped",
        WALK,
        "last + (-b[-1],)",
        "last + (b[-1],)",
        [PLANNER + "test_planner_matches_the_fraction_constructions_on_walks"],
    ),
    Mutant(
        "staircase-moves-the-next-column",
        WALK,
        "tuple(int(k == missing) for k in range(d))",
        "tuple(int(k == missing + 1) for k in range(d))",
        [PLANNER + "test_staircase_matches_the_fraction_constructions"],
    ),
    # rref_int's den made positive, which the planner's rows rely on
    Mutant(
        "reduced-keeps-a-negative-multiplier",
        KERNELS,
        "    if den < 0:\n",
        "    if False:\n",
        ["tests/test_kernels.py::test_bareiss_loop_matches_the_two_old_loops"],
    ),
    # a rank loss is rejected by the scan alone
    Mutant(
        "scan-keys-each-class-apart",
        WALK,
        "groups.setdefault(key, (a, b, []))[2].append(cid)",
        "groups.setdefault((key, cid), (a, b, []))[2].append(cid)",
        [DIFFERENTIAL],
    ),
    # the fixed-point event keys
    Mutant(
        "scan-keys-shift-b-bits",
        WALK,
        "shift = 2 * bits + 1",
        "shift = bits",
        ["tests/test_walk.py::test_segment_event_keys_split_farey_neighbours"],
    ),
    # a class on a segment read by its two end values alone
    Mutant(
        "end-fault-time-swapped",
        WALK,
        '"end", hi if a else lo',
        '"end", lo if a else hi',
        ["tests/test_walk.py::test_segment_events_match_the_former_path_on_planted_segments"],
    ),
    Mutant(
        "affine-test-forced-true",
        WALK,
        "if all(not any(kernels.plane_minors(moving[0], s)) for s in moving[1:]):",
        "if True:",
        ["tests/test_walk.py::test_polynomial_rejects_nonaffine"],
    ),
    Mutant(
        "half-step-takes-the-last-root",
        WALK,
        "_key, _cid, a, b = min(roots)",
        "_key, _cid, a, b = max(roots)",
        ["tests/test_walk.py::test_half_step_stops_at_half_the_first_root"],
    ),
    Mutant(
        "half-step-takes-the-whole-root",
        WALK,
        "step = Fraction(a, a - b)",
        "step = Fraction(2 * a, a - b)",
        ["tests/test_walk.py::test_half_step_stops_at_half_the_first_root"],
    ),
    Mutant(
        "verify-drops-end-faults",
        WALK,
        'violations.append(f"class {cid} degenerates at a segment {edge} (t={t})")',
        "pass",
        [DIFFERENTIAL],
    ),
    # the survey's chains, read at its crossing probe's plane
    Mutant(
        "chains-read-after-the-crossing",
        EQUIPROJ,
        "probe.int_rows_at(-eps / 2)",
        "probe.int_rows_at(eps / 2)",
        ["tests/test_certificate_path.py::test_visible_pairs_match_oracle_certificates"],
    ),
    # each face edge read by local optimality on the polytope graph
    Mutant(
        "edge-test-one-sign",
        SHADOW,
        "return max(vals) <= base or min(vals) >= base",
        "return max(vals) <= base",
        [CHAINS],
    ),
    Mutant(
        "edge-test-rows-swapped",
        SHADOW,
        "y = [s * x2 - t * x1 for x1, x2 in zip(a1, a2)]",
        "y = [s * x1 - t * x2 for x1, x2 in zip(a1, a2)]",
        [CHAINS],
    ),
    # y . b = y . a, so reading b's value, or b's neighbours, is exact
    # too: those edits are equivalent, and not listed
    Mutant(
        "edge-test-no-offset",
        SHADOW,
        "base = sum(map(mul, y, va))",
        "base = 0",
        [CHAINS],
    ),
    Mutant(
        "neighbours-one-way",
        POLYTOPE,
        "            adj[b].append(a)\n",
        "",
        [CHAINS],
    ),
    # the compensation pairs, which the pairing does not re-test
    Mutant(
        "forward-paired-with-forward",
        EQUIPROJ,
        "zip(forward, backward)",
        "zip(forward, forward)",
        ["tests/test_compensation_keys.py::test_every_pair_passes_the_fraction_test"],
    ),
    # the mirrored wrap of centrally symmetric clouds
    Mutant(
        "mirrored-offset-negated",
        POLYTOPE,
        "found[_mirror(tight, n)] = (tuple(-x for x in normal), offset)",
        "found[_mirror(tight, n)] = (tuple(-x for x in normal), -offset)",
        ["tests/test_mirrored_wrap.py::test_class_bodies_match_the_plain_wrap"],
    ),
    Mutant(
        "mirror-lattice-dropped",
        POLYTOPE,
        "_mirror_lattice(memo, tight, n)",
        "None",
        ["tests/test_mirrored_wrap.py::test_class_bodies_match_the_plain_wrap"],
    ),
    # the witness search's membership test on cached minors
    Mutant(
        "in-plane-one-minor",
        KERNELS,
        "        if u[i] * minors[jk] - u[j] * minors[ik] + u[k] * minors[ij]:\n"
        "            return False\n",
        "        return not (u[i] * minors[jk] - u[j] * minors[ik] + u[k] * minors[ij])\n",
        ["tests/test_kernels.py::test_in_plane_matches_rank_int"],
    ),
    # a 2-face's cycle read off its hull, and its sense off one turn
    Mutant(
        "face-cycle-not-reversed",
        POLYTOPE,
        "    if ring[1] > ring[-1]:\n        ring[1:] = ring[:0:-1]\n",
        "",
        ["tests/test_polytope.py::test_face_cycle_matches_the_adjacency_walk"],
    ),
    Mutant(
        "face-cycle-not-rotated",
        POLYTOPE,
        "    ring = ring[i:] + ring[:i]\n",
        "",
        ["tests/test_polytope.py::test_face_cycle_matches_the_adjacency_walk"],
    ),
    Mutant(
        "turn-read-backwards",
        EQUIPROJ,
        "turn = kernels.cross2(a, b, c)",
        "turn = kernels.cross2(a, c, b)",
        ["tests/test_equiproj.py::test_signed_area_matches_the_shoelace_on_every_certificate_pair"],
    ),
    # the gift wrap's seeded ridges and closed-form planar facets
    Mutant(
        "ridge-seed-not-negated",
        POLYTOPE,
        "    if s < 0:\n        g, g0 = [-x for x in g], -g0\n",
        "",
        ["tests/test_polytope.py::test_gift_wrapping_matches_oracle_on_zoo"],
    ),
    Mutant(
        "low-facets-mirror-not-negated",
        POLYTOPE,
        "found[_mirror(tight, len(pts))] = ((-n0, -n1), offset)",
        "found[_mirror(tight, len(pts))] = ((n0, n1), offset)",
        ["tests/test_mirrored_wrap.py::test_class_bodies_match_the_plain_wrap"],
    ),
    # the survey's span masks
    Mutant(
        "cells-skip-rank-d-3",
        EQUIPROJ,
        "if rank == len(basis):",
        "if rank >= len(basis) - 1:",
        ["tests/test_difference_body.py::test_cells_match_the_polytope_route"],
    ),
    Mutant(
        "cells-visible-argmax-only",
        EQUIPROJ,
        "ends = (min(vals), max(vals))",
        "ends = (max(vals),)",
        ["tests/test_difference_body.py::test_cells_match_the_polytope_route"],
    ),
    Mutant(
        "cells-skip-vertex-cones",
        EQUIPROJ,
        "for k in range(len(basis)):",
        "for k in range(1, len(basis)):",
        ["tests/test_difference_body.py::test_cells_match_the_polytope_route"],
    ),
    Mutant(
        "cells-keep-invalid-cones",
        EQUIPROJ,
        "            if seen != full:\n                continue\n",
        "",
        ["tests/test_difference_body.py::test_cells_match_the_polytope_route"],
    ),
]


def occurrences(mutant):
    """How often the mutant's old text occurs in its file."""
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _copy(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(root, tests, timeout=None):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)


def _mutated(mutant, tmp):
    """A copy of the tree under tmp/mutant.id with the mutant applied."""
    root = Path(tmp) / mutant.id
    _copy(root)
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.id}: old text does not occur exactly once in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return root


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "unmutated"
        _copy(clean)
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        run = _pytest(clean, tests)
        if run.returncode != 0:
            print(run.stdout[-4000:], run.stderr[-2000:], sep="\n")
            print("the unmutated tree fails the named tests")
            return 1
        limit = max(120, 2 * (time.monotonic() - start))
        print(f"unmutated: passed ({time.monotonic() - start:.0f} s)", flush=True)
        survivors = []
        for mutant in chosen:
            t0 = time.monotonic()
            root = _mutated(mutant, tmp)
            try:
                killed = _pytest(root, mutant.tests, limit).returncode != 0
                verdict = "killed" if killed else "SURVIVED"
            except subprocess.TimeoutExpired:
                killed, verdict = True, "killed, timed out"
            shutil.rmtree(root)
            if not killed:
                survivors.append(mutant.id)
            print(f"{mutant.id}: {verdict} ({time.monotonic() - t0:.0f} s)", flush=True)
    print(
        f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
        f"in {time.monotonic() - start:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
