"""Interleaved A/B timing of one benchmark workload on two source trees.

    python3 tests/abtime.py A_ROOT B_ROOT --workload walk-suite --seed 1 --seconds 30

A_ROOT and B_ROOT are checkouts of the repository (each with
src/shadowlab). Both packages are imported into this one process, as
shadowlab_a and shadowlab_b, and bench/workloads.py (of the checkout
holding this script) sets up one instance of the workload on each. A
round runs every operation once on A and once on B, back to back, A
first on even rounds and B first on odd ones, so both trees see the
same stretch of host speed. At the end it prints, per tree, the sum
over the operations of each one's median time, and B/A of those sums
(below 1 when B is faster); the median and quartiles of the per-round
B/A, each round's summed B time over its summed A time, whose spread
shows the method's own resolution on the host; the same sums and B/A
per operation group (the part of an operation's key before its first
':', such as the polytope of a walk-suite walk), so that a change that
moves one input shows; and whether the first round's outputs of the
two trees agree under the workload's own comparison. Timing the same
tree as A and B is the control: its ratio shows the method's
resolution on the host.

Only the standard library is used, and nothing is written outside a
temporary directory. pytest does not collect this file.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("kernels", "linalg", "polytope", "shadow", "walk", "equiproj", "cli", "families")


def load(root, name):
    """The package under root/src/shadowlab, imported as `name`, as the
    namespace of its modules that the workloads take."""
    pkg = os.path.join(os.path.abspath(root), "src", "shadowlab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return argparse.Namespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_root")
    parser.add_argument("b_root")
    parser.add_argument("--workload", default="walk-suite")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for tag, root in (("a", args.a_root), ("b", args.b_root)):
            wl = WORKLOADS[args.workload]()
            workdir = os.path.join(tmp, tag)
            os.makedirs(workdir)
            wl.setup(load(root, f"shadowlab_{tag}"), args.seed, workdir)
            trees.append((wl, wl.ops()))
        keys = [op.key for op in trees[0][1]]
        if keys != [op.key for op in trees[1][1]]:
            sys.exit("the two trees set up different operations")
        times = [[[] for _ in keys] for _ in trees]
        first = [[] for _ in trees]
        rounds = 0
        start = time.perf_counter()
        while rounds < 2 or time.perf_counter() - start < args.seconds:
            order = (0, 1) if rounds % 2 == 0 else (1, 0)
            for i in range(len(keys)):
                for t in order:
                    wl, ops = trees[t]
                    mark = time.perf_counter()
                    raw = ops[i].call()
                    times[t][i].append(time.perf_counter() - mark)
                    if rounds == 0:
                        first[t].append(wl.collect(raw))
            rounds += 1
    medians = [list(map(statistics.median, per_op)) for per_op in times]
    a_sum, b_sum = map(sum, medians)
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key.split(":")[0], []).append(i)
    agree = all(trees[0][0].same(x, y) for x, y in zip(*first))
    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds of {len(keys)} operations")
    print(f"A {args.a_root}: {1000 * a_sum:.2f} ms per round (sum of medians)")
    print(f"B {args.b_root}: {1000 * b_sum:.2f} ms per round (sum of medians)")
    print(f"outputs agree: {'yes' if agree else 'NO'}")
    print(f"B/A {b_sum / a_sum:.3f}")
    per_round = [
        sum(op[r] for op in times[1]) / sum(op[r] for op in times[0]) for r in range(rounds)
    ]
    q1, med, q3 = statistics.quantiles(per_round, n=4)
    print(f"per-round B/A: median {med:.3f}, quartiles {q1:.3f} .. {q3:.3f}")
    for group, ids in groups.items():
        a_ms, b_ms = (1000 * sum(m[i] for i in ids) for m in medians)
        print(f"  {group}: A {a_ms:.2f} ms, B {b_ms:.2f} ms, B/A {b_ms / a_ms:.3f}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
