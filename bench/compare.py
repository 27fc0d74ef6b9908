"""Compare benchmark records of two commits, or summarise one.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

The files are written by bench/suite.py (or run.py --out). For each
workload and each end-to-end metric, prints the median and quartiles of
the untraced runs on each side, the ratio new/base, the bound from
BENCHMARK.json and whether the change is within it, plus operations
attempted and failed. Then the per-layer metrics of the traced runs side
by side, and the tracing overhead of each side: the traced run's
operations per second against the untraced median.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def flat(record):
    """Every metric of a record, detail metrics included: name -> (value, unit)."""
    out = {k: (m["value"], m["unit"]) for k, m in record["detail"].items()}
    out.update({k: (m["value"], m["unit"]) for k, m in record["result"]["metrics"].items()})
    return out


def spread(vals):
    """(first quartile, median, third quartile)."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def select(records, workload, traced):
    return [
        r for r in records
        if r["header"]["workload"] == workload and bool(r["header"]["trace"]) == traced
    ]


def column(runs):
    """metric -> (values, unit) over the runs."""
    out = {}
    for r in runs:
        for k, (v, unit) in flat(r).items():
            out.setdefault(k, ([], unit))[0].append(v)
    return out


def fmt(q):
    q1, med, q3 = q
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sides = [load(p) for p in argv]
    if not 1 <= len(sides) <= 2:
        sys.exit(__doc__)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    for w in bench["workloads"]:
        name = w["name"]
        untraced = [select(s, name, False) for s in sides]
        if not all(untraced):
            continue
        print(f"== {name}")
        for i, runs in enumerate(untraced):
            att = sum(r["result"]["attempted"] for r in runs)
            fail = sum(r["result"]["failed"] for r in runs)
            print(f"  side {i}: {len(runs)} runs, attempted {att}, failed {fail}")
        cols = [column(runs) for runs in untraced]
        for metric, (vals, unit) in cols[0].items():
            qs = [spread(c[metric][0]) for c in cols if metric in c]
            line = f"  {metric:<16} {unit:<6}" + "".join(fmt(q) for q in qs)
            if len(qs) == 2:
                ratio = qs[1][1] / qs[0][1]
                line += f"  ratio {ratio:.3f}"
                if metric in e2e:
                    m = e2e[metric]
                    worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                    verdict = "ok" if worse <= m["bound"] else "WORSE"
                    line += f"  bound {m['bound']}  {verdict}"
            print(line)
        traced = [select(s, name, True) for s in sides]
        if not all(traced):
            continue
        tcols = [column(runs) for runs in traced]
        for i, (tc, c) in enumerate(zip(tcols, cols)):
            t = statistics.median(tc["trace.ops_per_s"][0])
            u = statistics.median(c["ops_per_s"][0])
            print(f"  side {i}: tracing overhead {100 * (u - t) / u:.1f}% of ops_per_s ({u:.4g} untraced, {t:.4g} traced)")
        print("  per layer (traced runs, medians)")
        for m in bench["per_layer"]:
            vals = [statistics.median(tc[m["name"]][0]) for tc in tcols]
            line = f"    {m['name']:<46} " + "".join(f"{v:12.5g}" for v in vals)
            if len(vals) == 2:
                line += f"  delta {vals[1] - vals[0]:+.5g}"
            print(line + f"  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
