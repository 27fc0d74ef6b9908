"""Run every workload, untraced and traced, and collect the records.

    python3 bench/suite.py --out results.jsonl --seeds 1 2 3

Each run is a separate `bench/run.py` process, started after the
previous one ended. Every seed gets an untraced run of each workload;
the first seed also gets a traced run, which gives the per-layer
metrics. Records are appended to --out, one JSON object per line, for
bench/compare.py, which also prints the summary at the end.
"""

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args()
    out = os.path.abspath(args.out)
    ok = True
    for name in args.workloads:
        runs = [(seed, 0) for seed in args.seeds] + [(args.seeds[0], 1)]
        for seed, trace in runs:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            for line in proc.stdout.splitlines()[:-1]:
                print(f"{name}: {line}")
            if proc.returncode != 0:
                ok = False
                sys.stderr.write(proc.stderr)
                print(f"{name}: seed {seed} trace {trace} exited {proc.returncode}")
    print()
    compare.main([out])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
