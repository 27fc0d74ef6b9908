"""Regenerate bench/known_pairs.json, the check-cli known-answer pairs.

    python3 bench/regen_pairs.py

For each check-cli input that is not equiprojective, asks the sampled
decider for two admissible planes with different shadow sizes and
records them with the seed and trial count used. The benchmark does not
trust the file: every run certifies each pair with bench/checks.py
(determinant admissibility and a brute-force hull) before measuring.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import shadowlab.equiproj as eq  # noqa: E402
import shadowlab.families as fam  # noqa: E402
import shadowlab.polytope as pt  # noqa: E402
from workloads import KNOWN_PAIRS, POLYTOPES, CheckCli  # noqa: E402

SEED = 0
TRIALS = 400


def rows(plane):
    return [[str(x) for x in r] for r in plane.basis.basis]


def main():
    pairs = {}
    for name in CheckCli.names:
        make, known_k = POLYTOPES[name]
        if known_k is not None:
            continue
        verdict = eq.is_equiprojective_sampled(make(fam, pt), SEED, TRIALS)
        if verdict.counterexample is None:
            sys.exit(f"{name}: no counterexample in {TRIALS} trials at seed {SEED}")
        wa, ka, wb, kb = verdict.counterexample
        pairs[name] = {"plane_a": rows(wa), "k_a": ka, "plane_b": rows(wb), "k_b": kb}
        print(f"{name}: k={ka} and k={kb}")
    with open(KNOWN_PAIRS, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "trials": TRIALS, "pairs": pairs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
