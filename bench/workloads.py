"""The three workloads: inputs built in set-up, timed operations, checks.

A workload's set-up builds its pinned inputs through shadowlab.families
(whose constructors run their own self-tests), fills the lazy face
caches and derives the seeded inputs. One round is a fixed list of
operations; a run repeats the round, so every round does the same work
and a failing operation fails in every round. The operations' outputs
are checked by checks.py, which shares no code with the package.
"""

import json
import os
import random
from collections import namedtuple
from fractions import Fraction

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
KNOWN_PAIRS = os.path.join(HERE, "known_pairs.json")

PENTAGON = ((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2))
FIG2_PLANE = ((1, 1, 1, 0), (0, 0, 2, 1))
E1E2 = ((1, 0, 0, 0), (0, 1, 0, 0))

# name -> (constructor, shadow size every admissible plane gives, or None).
# k comes from theory: 2d for the d-cube, n + 2 for a prism over an
# n-gon, 2m for a zonotope with m generators in general position.
# Zonotope #i of the acceptance zoo is zonotope(random_generators(m, d, i)).
POLYTOPES = {
    "cube3": (lambda fam, pt: fam.hypercube(3), 6),
    "cube4": (lambda fam, pt: fam.hypercube(4), 8),
    "pentagonal": (lambda fam, pt: fam.prism(PENTAGON, (0, 0, 1)), 7),
    "zono4": (lambda fam, pt: fam.zonotope(fam.random_generators(5, 4, 4)), 10),
    "zono7": (lambda fam, pt: fam.zonotope(fam.random_generators(6, 4, 7)), 12),
    "zono8": (lambda fam, pt: fam.zonotope(fam.random_generators(6, 5, 8)), 12),
    "pn4": (lambda fam, pt: fam.pn_polytope(4), None),
    "perturbed": (lambda fam, pt: fam.perturbed_hypercube(Fraction(1, 100)), None),
    "tetrahedron": (
        lambda fam, pt: pt.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        None,
    ),
    "simplex4": (
        lambda fam, pt: pt.build(
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        ),
        None,
    ),
    "pnd5": (lambda fam, pt: fam.hyperprism_pnd(2, 5, 0), None),
}

# zonotope name -> (generators, dimension), for the closed-form face counts
ZONOTOPES = {"zono4": (5, 4), "zono7": (6, 4), "zono8": (6, 5)}

# One timed operation: its key, the call, the units it counts, its kind.
Op = namedtuple("Op", ["key", "call", "units", "kind"])


def build(sl, name, caches=()):
    """A pinned polytope, with the named lazy caches filled."""
    p = POLYTOPES[name][0](sl.families, sl.polytope)
    for cache in caches:
        if cache == "k_faces":
            for k in range(p.dim):
                sl.polytope.k_faces(p, k)
        else:
            getattr(sl.polytope, cache)(p)
    return p


class Geometry:
    """Plain-number copy of a polytope's lattice data for the checkers."""

    def __init__(self, sl, p):
        pt = sl.polytope
        classes = pt.parallel_classes(p)
        faces = pt.k_faces(p, 2)
        self.dim = p.dim
        self.int_vertices = checks.int_points(p.vertices)
        # rows scaled to integers: the same planes, cheaper determinants
        self.class_planes = [
            tuple(tuple(checks.int_row(r)) for r in c.direction_plane.basis)
            for c in classes
        ]
        self.class_members = [tuple(c.member_ids) for c in classes]
        self.face_vertex_ids = [tuple(f.vertex_ids) for f in faces]
        self.face_planes = [tuple(f.span.basis) for f in faces]
        self.face_counts = [len(pt.k_faces(p, k)) for k in range(p.dim)]


def check_zonotope(name, face_counts):
    want = checks.zonotope_face_counts(*ZONOTOPES[name])
    checks.require(
        face_counts == want,
        f"{name}: face counts {face_counts}, closed form gives {want}",
    )


def rows_of(plane):
    return tuple(tuple(r) for r in plane.basis.basis)


class Workload:
    """Defaults shared by the workloads."""

    def prepare_checks(self):
        """Copy the lattice data out and check the inputs.

        Returns (label, rejected) for each planted wrong input answer.
        """
        self.geoms = {n: Geometry(self.sl, p) for n, p in self.polys.items()}
        planted = []
        for name, g in self.geoms.items():
            if name in ZONOTOPES:
                check_zonotope(name, g.face_counts)
                wrong = [g.face_counts[0] + 1] + g.face_counts[1:]
                planted.append(
                    ("zonotope face counts", checks.planted(check_zonotope, name, wrong))
                )
        return planted

    def collect(self, raw):
        """The operation's output, read after the timed call."""
        return raw

    def failure(self, result):
        """Why a returned result counts as a failed operation, or None."""
        return None

    def same(self, a, b):
        return a == b

    def counts(self, results):
        """Work counts read from one round's outputs."""
        return {}


# ---------------------------------------------------------- shadow-sweep


class ShadowSweep(Workload):
    """Seeded admissible planes projected, and reports on degenerate planes."""

    name = "shadow-sweep"
    names = ("cube3", "cube4", "pentagonal", "zono4", "zono8", "pn4", "perturbed")
    planes_per_polytope = 100
    reports_per_polytope = 20
    # pinned inadmissible planes: the paper's figure 2, 3 and 6 scenes
    pinned = (("fig2", "cube4", FIG2_PLANE), ("fig3", "perturbed", FIG2_PLANE), ("fig6", "pn4", E1E2))

    def setup(self, sl, seed, workdir):
        self.sl = sl
        self.seed = seed
        self.polys = {n: build(sl, n, ("k_faces", "parallel_classes")) for n in self.names}
        # key -> (polytope name, plane, orthogonal rows or None)
        self.reports = {}
        for fig, name, rows in self.pinned:
            self.reports[fig] = (name, sl.shadow.ProjectionPlane(rows), None)
        for name in self.names:
            p = self.polys[name]
            rng = random.Random(f"report:{seed}:{name}")
            classes = sl.polytope.parallel_classes(p)
            for i in range(self.reports_per_polytope):
                ortho = self._degenerate_ortho(rng, p.dim, classes)
                w = sl.shadow.ProjectionPlane.from_orthogonal(ortho)
                self.reports[f"{name}:{i}"] = (name, w, ortho)

    @staticmethod
    def _degenerate_ortho(rng, d, classes):
        # an orthogonal span holding a vector of one class's direction
        # plane degenerates that class
        while True:
            f1, f2 = classes[rng.randrange(len(classes))].direction_plane.basis
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if a == b == 0:
                continue
            rows = [checks.int_row([a * x + b * y for x, y in zip(f1, f2)])]
            rows += [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d - 3)]
            if checks.rank(rows) == d - 2:
                return tuple(tuple(r) for r in rows)

    def ops(self):
        sh = self.sl.shadow
        out = []
        for name, p in self.polys.items():

            def sweep(p=p, rng_seed=f"sweep:{self.seed}:{name}"):
                planes = sh.sample_admissible(p, rng_seed, self.planes_per_polytope)
                return [(rows_of(w), sh.shadow(p, w)) for w in planes]

            out.append(Op(name, sweep, self.planes_per_polytope, "shadows"))
        for key, (name, w, _ortho) in self.reports.items():
            p = self.polys[name]
            out.append(Op(key, lambda p=p, w=w: sh.degeneration_report(p, w), 1, "reports"))
        return out

    def check(self, key, result):
        if key in self.polys:
            g = self.geoms[key]
            checks.require(len(result) == self.planes_per_polytope, "too few planes")
            for rows, poly in result:
                checks.check_shadow(
                    g.int_vertices, rows, poly.hull_vertex_ids, poly.fibers, poly.k,
                    POLYTOPES[key][1],
                )
            return
        name, w, ortho = self.reports[key]
        g = self.geoms[name]
        rows = rows_of(w)
        if ortho is None:
            ortho = checks.nullspace([checks.int_row(r) for r in rows], g.dim)
        report = (
            [
                (c.class_id, c.projected_rank,
                 [(m.face_id, m.contained_in_edge, m.touches_hull) for m in c.members])
                for c in result.degenerating
            ],
            result.condition_i, result.condition_ii, result.admissible,
        )
        checks.check_report(
            g.int_vertices, rows, ortho, g.class_planes, g.class_members,
            g.face_vertex_ids, report,
        )
        if key == "fig2":
            checks.require(len(result.degenerating) == 1, "fig2: expected one degenerating class")
            cd = result.degenerating[0]
            plane = g.class_planes[cd.class_id]
            checks.require(checks.rank(list(plane) + list(E1E2)) == 2, "fig2: class is not span(e1, e2)")
            checks.require(len(cd.members) == 4, "fig2: expected 4 member faces")
            checks.require(all(m.touches_hull for m in cd.members), "fig2: a member misses the boundary")
        elif key == "fig3":
            checks.require(not result.condition_i and result.condition_ii, "fig3: conditions are not (no, yes)")
        elif key == "fig6":
            faces = sorted({m.face_id for c in result.degenerating for m in c.members})
            planes = [g.face_planes[f] for f in faces]
            checks.require(checks.estranged(planes, 4), "fig6: no 4 estranged degenerating faces")

    def plant(self, key, result):
        """A wrong copy of one output for the checker self-test, or None."""
        if key in self.polys:
            rows, poly = result[0]
            ids = poly.hull_vertex_ids
            return [(rows, poly._replace(hull_vertex_ids=ids[1:] + ids[:1]))] + result[1:]
        if not result.degenerating:
            return None
        return result._replace(degenerating=result.degenerating[1:])


# ------------------------------------------------------------ walk-suite


class WalkSuite(Workload):
    """Certified walks between seeded admissible planes, then verification."""

    name = "walk-suite"
    names = ("cube3", "cube4", "pentagonal", "zono4", "pn4")
    walks_per_polytope = 4

    def setup(self, sl, seed, workdir):
        self.sl = sl
        self.seed = seed
        caches = ("k_faces", "parallel_classes", "proscribed_directions")
        self.polys = {n: build(sl, n, caches) for n in self.names}
        self.pairs = {}
        for name, p in self.polys.items():
            n = self.walks_per_polytope
            planes = sl.shadow.sample_admissible(p, f"walk:{seed}:{name}", 2 * n)
            for i in range(n):
                self.pairs[f"{name}:{i}"] = (name, planes[2 * i], planes[2 * i + 1])

    def ops(self):
        wk = self.sl.walk
        out = []
        for key, (name, wa, wb) in self.pairs.items():

            def walk(p=self.polys[name], wa=wa, wb=wb, key=key):
                plan = wk.full_walk(p, wa.complement, wb.complement, f"{self.seed}:{key}")
                return plan, wk.verify_walk(p, plan)

            out.append(Op(key, walk, 1, "walks"))
        return out

    def failure(self, result):
        cert = result[1]
        return None if cert.valid else "verify_walk: " + "; ".join(cert.violations)

    def check(self, key, result):
        plan = result[0]
        name, wa, wb = self.pairs[key]
        g = self.geoms[name]
        checks.check_walk(
            g.int_vertices, g.class_planes, rows_of(wa), rows_of(wb),
            [(s.base, s.slope, s.t_range) for s in plan.segments],
            [(e.time, e.class_id) for e in plan.events],
            POLYTOPES[name][1],
        )

    def same(self, a, b):
        # segments compare by identity; compare their contents
        return a[0].events == b[0].events and [
            (s.base, s.slope, s.t_range) for s in a[0].segments
        ] == [(s.base, s.slope, s.t_range) for s in b[0].segments]

    def plant(self, key, result):
        plan, cert = result
        if not plan.events:
            return None
        ev = plan.events[0]
        moved = ev._replace(time=ev.time + Fraction(1, 10**9))
        return plan._replace(events=(moved,) + plan.events[1:]), cert

    def counts(self, results):
        plans = [plan for plan, _cert in results.values()]
        return {
            "walk.segments": sum(len(p.segments) for p in plans),
            "walk.events": sum(len(p.events) for p in plans),
        }


# ------------------------------------------------------------- check-cli


class CheckCli(Workload):
    """`shadowlab check --mode both` in-process on pinned vertex files.

    The check seed is pinned to 0 rather than taken from the run seed: a
    firm combinatorial "no" whose sampled run finds no counterexample
    exits 3, so a seed-dependent check seed could move an input in or
    out of that fault from run to run.
    """

    name = "check-cli"
    names = (
        "cube3", "pentagonal", "tetrahedron", "simplex4", "cube4",
        "perturbed", "zono4", "zono7", "pnd5",
    )

    def setup(self, sl, seed, workdir):
        self.sl = sl
        self.workdir = workdir
        self.polys = {}
        self.files = {}
        for name in self.names:
            p = build(sl, name)
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"vertices": [[str(x) for x in v] for v in p.vertices]}, fh)
            self.polys[name] = p
            self.files[name] = path

    def ops(self):
        cli = self.sl.cli
        out = []
        for name, path in self.files.items():
            report = os.path.join(self.workdir, f"{name}.report.json")

            def check(path=path, report=report):
                code = cli.run([
                    "check", "--polytope", path, "--mode", "both",
                    "--seed", "0", "--no-timestamp", "--out", report,
                ])
                return code, report

            out.append(Op(name, check, 1, "checks"))
        return out

    def collect(self, raw):
        """Exit code and report text."""
        code, path = raw
        text = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        return code, text

    def failure(self, result):
        code = result[0]
        return None if code == 0 else f"exit {code}"

    def prepare_checks(self):
        planted = super().prepare_checks()
        with open(KNOWN_PAIRS, encoding="utf-8") as fh:
            pinned = json.load(fh)["pairs"]
        for name in self.names:
            if POLYTOPES[name][1] is None:
                self._check_pair(name, pinned[name])
        name = next(n for n in self.names if POLYTOPES[n][1] is None)
        wrong = dict(pinned[name], k_b=pinned[name]["k_a"])
        planted.append(("pinned pair", checks.planted(self._check_pair, name, wrong)))
        return planted

    def _check_pair(self, name, pair):
        g = self.geoms[name]
        checks.check_admissible_pair(
            g.int_vertices, g.class_planes,
            [[Fraction(x) for x in r] for r in pair["plane_a"]], pair["k_a"],
            [[Fraction(x) for x in r] for r in pair["plane_b"]], pair["k_b"],
        )

    def check(self, key, result):
        code, text = result
        if code not in (0, 2):
            return
        checks.require(text is not None, f"{key}: exit {code} without a report")
        rep = json.loads(text)
        known = POLYTOPES[key][1]
        verdicts = [(rep["equiprojective"], rep["k"])]
        if code == 2:
            comb = rep["combinatorial"]
            verdicts.append((comb["equiprojective"], comb["k"]))
        for equi, k in verdicts:
            checks.require(equi is (known is not None), f"{key}: verdict {equi} is wrong")
            checks.require(k == known, f"{key}: k={k}, theory says {known}")
        for cx in (rep.get("counterexample"), rep.get("sampled", {}).get("counterexample")):
            if cx is not None:
                self._check_pair(key, cx)

    def plant(self, key, result):
        code, text = result
        if text is None:
            return None
        rep = json.loads(text)
        rep["equiprojective"] = True
        rep["k"] = 3 if rep["k"] != 3 else 4
        return code, json.dumps(rep)

    def counts(self, results):
        certs = unresolved = 0
        for _code, text in results.values():
            comb = json.loads(text).get("combinatorial") if text else None
            if comb is not None:
                certs += len(comb["certificates"])
                unresolved += comb["unresolved_count"]
        return {"equiproj.certificates": certs, "equiproj.unresolved": unresolved}


WORKLOADS = {w.name: w for w in (ShadowSweep, WalkSuite, CheckCli)}
