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
mutant names. A mutant whose tests all pass has survived, and the run
exits 1; a surviving mutant is a finding, to be met with a test, never
by deleting the entry. Only the standard library is used, and nothing
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
DIFFERENTIAL = "tests/test_walk.py::test_verify_walk_rejects_every_rank_loss_the_oracle_finds"

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
        "if la.rank(tuple(others) + fa + fb) != d - 1:",
        "if la.rank(tuple(others) + fa + fb) != d - 2:",
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
    # the chain split's slide
    Mutant(
        "slide-eps-takes-zero",
        WALK,
        "for s, _ids in events if s != 0]",
        "for s, _ids in events]",
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
        "[(1 - t, ids) for t, ids in ev[::-1]]",
        "[(t, ids) for t, ids in ev[::-1]]",
        ["tests/test_walk_assembly.py"],
    ),
    Mutant(
        "clock-k-off-by-one",
        WALK,
        "Fraction(k * t.denominator + t.numerator, n * t.denominator)",
        "Fraction((k + 1) * t.denominator + t.numerator, n * t.denominator)",
        ["tests/test_walk_assembly.py"],
    ),
    # a rank loss is rejected by the scan alone
    Mutant(
        "scan-keys-each-class-apart",
        WALK,
        "key = poly.a * (scale // (poly.a - poly.b))",
        "key = (poly.a * (scale // (poly.a - poly.b)), cid)",
        [DIFFERENTIAL],
    ),
    Mutant(
        "verify-drops-end-faults",
        WALK,
        'violations.append(f"class {cid} degenerates at a segment {edge} (t={t})")',
        "pass",
        [DIFFERENTIAL],
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


def _pytest(root, tests):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)


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
        print(f"unmutated: passed ({time.monotonic() - start:.0f} s)", flush=True)
        survivors = []
        for mutant in chosen:
            t0 = time.monotonic()
            root = _mutated(mutant, tmp)
            killed = _pytest(root, mutant.tests).returncode != 0
            shutil.rmtree(root)
            if not killed:
                survivors.append(mutant.id)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{mutant.id}: {verdict} ({time.monotonic() - t0:.0f} s)", flush=True)
    print(
        f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
        f"in {time.monotonic() - start:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
