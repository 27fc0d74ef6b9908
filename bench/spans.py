"""Spans around the package's public functions, installed from outside.

The package calls across and within its modules through module
globals, so replacing a module attribute with a wrapper puts a span
around every call to it, including the calls the package makes itself.

Each span's parent is the innermost span open when it starts. Spans are
folded into per-name totals as they close rather than kept one by one:
a check-cli pass opens nearly two million spans, and the totals
are all the per-layer metrics need. A name's total time counts only its
outermost span, so a function reached again below itself is not counted
twice; its self time is its total minus the time of its child spans.
"""

import time
from collections import Counter, defaultdict

# layer module -> public functions wrapped in the traced run
LAYERS = {
    "kernels": ("det_int", "rank_int", "sign_range"),
    "linalg": ("det", "rank", "kernel_basis", "intersect"),
    "polytope": ("build", "k_faces", "parallel_classes", "proscribed_directions", "apply_isometry"),
    "shadow": ("sample_admissible", "is_admissible", "shadow", "degeneration_report"),
    "walk": ("full_walk", "reference_isometry", "degeneration_polynomial", "verify_walk", "elementary_transformation"),
    "equiproj": ("is_equiprojective_combinatorial", "compensation_partition", "is_equiprojective_sampled"),
    "cli": ("run",),
}

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stack = [ROOT]
        self.depth = Counter()
        self.calls = Counter()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        # (parent name, child name) -> calls, for ratios measured where
        # the work happens
        self.edges = Counter()
        self.det_sizes = Counter()
        self.sampled_planes = 0
        self._restore = []

    def _wrap(self, name, fn):
        stack, depth, calls = self.stack, self.depth, self.calls
        total, child, edges = self.total, self.child, self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                edges[parent, name] += 1
                if not depth[name]:
                    total[name] += spent
                child[parent] += spent

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every public function of LAYERS in the given modules."""
        for layer, names in LAYERS.items():
            mod = modules[layer]
            for fname in names:
                fn = getattr(mod, fname)
                self._restore.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(f"{layer}.{fname}", fn))
        kernels = modules["kernels"]
        traced_det = kernels.det_int
        sizes = self.det_sizes

        def det_int(rows):
            sizes[len(rows)] += 1
            return traced_det(rows)

        kernels.det_int = det_int
        shadow = modules["shadow"]
        traced_sample = shadow.sample_admissible

        def sample_admissible(*args, **kwargs):
            planes = traced_sample(*args, **kwargs)
            self.sampled_planes += len(planes)
            return planes

        shadow.sample_admissible = sample_admissible

    def uninstall(self):
        for mod, fname, fn in reversed(self._restore):
            setattr(mod, fname, fn)
        self._restore = []

    def self_time(self, name):
        return self.total[name] - self.child[name]

    def layer_metrics(self, rounds, pace=1.0):
        """Every per-layer metric of the span names, per round.

        Times are multiplied by pace, the ratio of paced to raw seconds.
        """
        out = {}
        for layer, names in LAYERS.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = self.calls[name] / rounds
                out[f"{name}.s"] = pace * self.total[name] / rounds
                out[f"{name}.self_s"] = pace * self.self_time(name) / rounds
        for n in (3, 4, 5):
            out[f"kernels.det_int.calls.n{n}"] = self.det_sizes[n] / rounds
        tested = self.edges["shadow.sample_admissible", "shadow.is_admissible"]
        out["shadow.sample_admissible.accept_ratio"] = (
            self.sampled_planes / tested if tested else 0.0
        )
        return out
