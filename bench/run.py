"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload shadow-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. Each
run is one process on one thread, driving the package as a closed loop:
every call starts after the previous one returns. The run sets up its
inputs five times (reporting the median as setup_s), then repeats one
round of operations until --seconds have passed. Throughput comes from
each operation's median time over the rounds, in paced seconds (see
pace.py). The outputs of the first round are checked by checks.py;
later rounds must repeat them exactly. A run also makes sure each checker rejects a planted wrong
answer. With --trace 1 every call into the layers' public functions
gets a span and the per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every check passed.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("kernels", "linalg", "polytope", "shadow", "walk", "equiproj", "cli", "families")
SETUPS = 5
COUNTS = ("walk.segments", "walk.events", "equiproj.certificates", "equiproj.unresolved")

sys.path.insert(0, HERE)

import checks  # noqa: E402
from pace import NOMINAL, Pace  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# op kind -> (metric printed for a user, unit, scale from per-second)
KIND_METRICS = {
    "shadows": ("shadows_per_s", "1/s", 1),
    "reports": ("reports_per_s", "1/s", 1),
    "walks": ("walks_per_s", "1/s", 1),
    "checks": ("checks_per_min", "1/min", 60),
}


def load_package():
    """Import shadowlab afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "shadowlab" or m.startswith("shadowlab.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"shadowlab.{m}") for m in MODULES}
    return argparse.Namespace(**mods)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def say(line):
    print(f"# {line}", flush=True)


class Run:
    def __init__(self, workload, seed, seconds, traced, workdir):
        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.problems = []

    def setup(self, pace):
        times = []
        for _ in range(SETUPS):
            wl = self.cls()
            mark = pace.mark()
            sl = load_package()
            wl.setup(sl, self.seed, self.workdir)
            times.append(pace.since(mark))
        self.wl, self.sl = wl, sl
        self.setup_s = statistics.median(paced for _raw, paced in times)

    def measure(self, pace):
        wl = self.wl
        ops = wl.ops()
        tracer = None
        if self.traced:
            tracer = Tracer()
            tracer.install(vars(self.sl))
        times = {op.key: [] for op in ops}
        first = {}
        errors = {}
        self.attempted = self.failed = self.rounds = 0
        start = time.perf_counter()
        try:
            while True:
                for op in ops:
                    mark = pace.mark()
                    try:
                        raw = op.call()
                    except Exception as exc:  # an operation that failed
                        raw = exc
                    times[op.key].append(pace.since(mark))
                    self.attempted += op.units
                    if isinstance(raw, Exception):
                        self.failed += op.units
                        if op.key not in errors:
                            errors[op.key] = f"{type(raw).__name__}: {raw}"
                            traceback.print_exception(raw)
                        continue
                    res = wl.collect(raw)
                    reason = wl.failure(res)
                    if reason is not None:
                        self.failed += op.units
                        errors.setdefault(op.key, reason)
                    if op.key not in first:
                        first[op.key] = res
                    elif not wl.same(first[op.key], res):
                        self.problems.append(f"{op.key}: round {self.rounds} differs from round 0")
                self.rounds += 1
                if time.perf_counter() - start >= self.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.ops, self.times, self.first, self.errors = ops, times, first, errors
        self.tracer = tracer

    def check(self):
        wl = self.wl
        try:
            planted = wl.prepare_checks()
        except checks.CheckError as exc:
            self.problems.append(f"inputs: {exc}")
            planted = []
        for label, rejected in planted:
            if not rejected:
                self.problems.append(f"self-test: planted {label} was accepted")
        # kinds whose checker rejected a planted answer, or a real one
        tested = set()
        for op in self.ops:
            res = self.first.get(op.key)
            if res is None:
                continue
            try:
                wl.check(op.key, res)
            except checks.CheckError as exc:
                self.problems.append(f"{op.key}: {exc}")
                tested.add(op.kind)
                continue
            wrong = None if op.kind in tested else wl.plant(op.key, res)
            if wrong is not None:
                tested.add(op.kind)
                if not checks.planted(wl.check, op.key, wrong):
                    self.problems.append(f"self-test: planted wrong {op.kind} output was accepted")
        for kind in sorted({op.kind for op in self.ops} - tested):
            self.problems.append(f"self-test: no {kind} output to plant a wrong answer in")

    def round_time(self, kind=None, paced=True):
        """Seconds of one round: each operation's median over the rounds."""
        which = 1 if paced else 0
        return sum(
            statistics.median(t[which] for t in self.times[op.key])
            for op in self.ops
            if kind is None or op.kind == kind
        )

    def end_to_end(self):
        units = sum(op.units for op in self.ops)
        return {
            "ops_per_s": units / self.round_time(),
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def by_kind(self):
        out = {}
        for kind in dict.fromkeys(op.kind for op in self.ops):
            name, unit, scale = KIND_METRICS[kind]
            units = sum(op.units for op in self.ops if op.kind == kind)
            out[name] = (scale * units / self.round_time(kind), unit)
        units = sum(op.units for op in self.ops)
        out["raw_ops_per_s"] = (units / self.round_time(paced=False), "1/s")
        return out

    def per_layer(self):
        # span times get the run's overall host pace
        raw = sum(t[0] for ts in self.times.values() for t in ts)
        paced = sum(t[1] for ts in self.times.values() for t in ts)
        out = self.tracer.layer_metrics(self.rounds, paced / raw)
        # work counts read from the outputs; zero where the workload has none
        out.update(dict.fromkeys(COUNTS, 0))
        out.update(self.wl.counts(self.first))
        out["trace.ops_per_s"] = self.end_to_end()["ops_per_s"]
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the run's record to this JSON-lines file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "shadowlab")):
        sys.stderr.write(f"no package source at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    bench = spec()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        pace = Pace()
        pace.start()
        try:
            run.setup(pace)
            header = {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
                "compiled_kernels": run.sl.kernels.USING_COMPILED,
            }
            say("run " + " ".join(f"{k}={v}" for k, v in header.items()))
            run.measure(pace)
        finally:
            pace.stop()
        say(f"host pace: reference median {1000 * statistics.median(pace.samples):.3f} ms"
            f" over {len(pace.samples)} samples, nominal {1000 * NOMINAL:.3f} ms")
        start = time.perf_counter()
        run.check()
        say(f"answer checks took {time.perf_counter() - start:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = run.per_layer()
        listed = bench["per_layer"]
    else:
        values = run.end_to_end()
        listed = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    detail = {k: {"value": v, "unit": u} for k, (v, u) in run.by_kind().items()}
    say(f"rounds {run.rounds}, attempted {run.attempted}, failed {run.failed}")
    for key, err in run.errors.items():
        say(f"failed operation {key}: {err}")
    for name, m in list(detail.items()) + list(metrics.items()):
        say(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in run.problems[:20]:
        say(f"CHECK FAILED {problem}")
    if len(run.problems) > 20:
        say(f"CHECK FAILED ... and {len(run.problems) - 20} more")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "detail": detail, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
