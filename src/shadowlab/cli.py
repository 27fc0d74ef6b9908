"""Command line front end: JSON in, JSON out, fixed exit codes.

Exit codes: 0 = decided or produced, 1 = usage or bad input, 2 = a
best-effort run that could not decide, 3 = an internal consistency
failure. Identical argv and seed give byte-identical output except for
the timestamp, which --no-timestamp removes.
"""

import argparse
import datetime
import json
import os
import sys
from fractions import Fraction
from itertools import combinations

from . import equiproj as eq
from . import families as fam
from . import linalg as la
from . import polytope as pt
from . import shadow as sh
from . import walk as wk
from .errors import (
    DegenerateBasisError,
    DegenerateShadowError,
    DimensionError,
    GeometryError,
    InadmissiblePlaneError,
    ParameterError,
    PolytopeError,
    SamplingError,
    WalkError,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2
EXIT_INTERNAL = 3

FIG2_PLANE = ((1, 1, 1, 0), (0, 0, 2, 1))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through our own code instead
    def error(self, message):
        raise UsageError(message)


def _require(cond, message):
    if not cond:
        raise AssertionError(message)


# ------------------------------------------------------------- JSON I/O


def _load_json(arg, what):
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        blob = s
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                blob = fh.read()
        except OSError as exc:
            raise UsageError(f"{what}: cannot read {arg}: {exc}")
    try:
        return json.loads(blob)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what}: invalid JSON: {exc}")


def _as_rational(x, what):
    """Accept integers and 'p/q' strings; floats would break exactness."""
    if isinstance(x, bool):
        raise UsageError(f"{what}: expected a rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return la.parse_rat(x)
        except Exception:
            raise UsageError(f"{what}: not a rational string: {x!r}")
    raise UsageError(f"{what}: expected an integer or 'p/q' string, got {x!r}")


def _as_vector(obj, what):
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{what}: expected a non-empty list")
    return tuple(_as_rational(x, what) for x in obj)


def _as_matrix(obj, what):
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{what}: expected a non-empty list of rows")
    rows = tuple(_as_vector(r, what) for r in obj)
    if len({len(r) for r in rows}) != 1:
        raise UsageError(f"{what}: rows of mixed lengths")
    return rows


def _load_polytope(arg):
    obj = _load_json(arg, "polytope")
    label = None
    dim_claim = None
    if isinstance(obj, dict):
        if obj.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise UsageError(f"polytope: unsupported schema {obj.get('schema')!r}")
        verts = obj.get("vertices")
        if verts is None:
            raise UsageError("polytope: missing 'vertices'")
        label = obj.get("family") or obj.get("label")
        dim_claim = obj.get("dimension")
    else:
        verts = obj
    rows = _as_matrix(verts, "polytope vertices")
    if len(rows[0]) < 2:
        raise UsageError(f"polytope: dimension {len(rows[0])}, need at least 2")
    if dim_claim is not None and dim_claim != len(rows[0]):
        raise UsageError("polytope: 'dimension' does not match the vertices")
    try:
        return pt.build(list(rows), label=label)
    except (PolytopeError, ParameterError, DimensionError) as exc:
        raise UsageError(f"polytope rejected: {exc}")


def _load_plane(arg, dim, what):
    obj = _load_json(arg, what)
    if isinstance(obj, dict):
        obj = obj.get("rows", obj.get("basis"))
        if obj is None:
            raise UsageError(f"{what}: missing 'rows'")
    rows = _as_matrix(obj, what)
    if len(rows) != 2:
        raise UsageError(f"{what}: a projection plane needs exactly 2 rows")
    if len(rows[0]) != dim:
        raise UsageError(
            f"{what}: rows have length {len(rows[0])}, polytope lives in {dim}"
        )
    try:
        return sh.ProjectionPlane(rows)
    except (DimensionError, DegenerateBasisError) as exc:
        raise UsageError(f"{what}: {exc}")


def _rows_json(rows):
    return [[la.rat_str(x) for x in row] for row in rows]


def _resolve_seed(ns):
    seed = getattr(ns, "seed", None)
    if seed is None:
        env = os.environ.get("SHADOWLAB_SEED")
        if env is None:
            seed = 0
        else:
            try:
                seed = int(env)
            except ValueError:
                raise UsageError(f"SHADOWLAB_SEED is not an integer: {env!r}")
    if not -(2**63) <= seed < 2**63:
        raise UsageError("seed must fit in a signed 64-bit integer")
    return seed


def _emit(ns, report):
    report["schema"] = SCHEMA_VERSION
    if not ns.no_timestamp:
        now = datetime.datetime.now(datetime.timezone.utc)
        report["generated_at"] = now.isoformat()
    blob = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


# ------------------------------------------------------------- generate


def _cmd_generate(ns):
    seed = _resolve_seed(ns)
    family = ns.family
    params = {}
    if family == "hypercube":
        if ns.dim is None:
            raise UsageError("hypercube needs --dim")
        p = fam.hypercube(ns.dim)
        params["dim"] = ns.dim
    elif family == "prism":
        base = _as_matrix(_load_json(ns.base, "base"), "base")
        height = _as_vector(_load_json(ns.height, "height"), "height")
        p = fam.prism(base, height)
        params["base"] = _rows_json(base)
        params["height"] = [la.rat_str(x) for x in height]
    elif family == "zonotope":
        if ns.generators is not None:
            gens = _as_matrix(_load_json(ns.generators, "generators"), "generators")
        else:
            if ns.count is None or ns.dim is None:
                raise UsageError("zonotope needs --generators or --count and --dim")
            gens = fam.random_generators(ns.count, ns.dim, seed)
        p = fam.zonotope(gens)
        params["generators"] = _rows_json(gens)
    elif family == "perturbed-hypercube":
        eps = _as_rational(ns.epsilon or "1/100", "epsilon")
        p = fam.perturbed_hypercube(eps)
        params["epsilon"] = la.rat_str(eps)
    elif family == "pn":
        if ns.n is None:
            raise UsageError("pn needs --n")
        eps = None if ns.epsilon is None else _as_rational(ns.epsilon, "epsilon")
        p = fam.pn_polytope(ns.n, ns.triangles, eps)
        params["n"] = ns.n
        params["triangles"] = ns.triangles if ns.triangles is not None else ns.n
    elif family == "pnd":
        if ns.n is None or ns.dim is None:
            raise UsageError("pnd needs --n and --dim")
        p = fam.hyperprism_pnd(ns.n, ns.dim, seed)
        params["n"] = ns.n
        params["dim"] = ns.dim
    else:
        raise UsageError(f"unknown family {family!r}")
    report = {
        "command": "generate",
        "family": family,
        "params": params,
        "seed": seed,
        "dimension": p.dim,
        "vertex_count": len(p.vertices),
        "vertices": _rows_json(p.vertices),
    }
    return EXIT_OK, report


# --------------------------------------------------------------- shadow


def _members_json(cd):
    return [
        {
            "face": m.face_id,
            "contained_in_edge": m.contained_in_edge,
            "touches_boundary": m.touches_hull,
        }
        for m in cd.members
    ]


def _degeneration_json(p, report):
    classes = pt.parallel_classes(p)
    out = []
    for cd in report.degenerating:
        cls = classes[cd.class_id]
        out.append(
            {
                "class": cd.class_id,
                "direction": _rows_json(cls.direction_plane.basis),
                "projected_rank": cd.projected_rank,
                "members": _members_json(cd),
            }
        )
    return out


def _cmd_shadow(ns):
    p = _load_polytope(ns.polytope)
    seed = _resolve_seed(ns)
    if ns.plane is not None:
        w = _load_plane(ns.plane, p.dim, "plane")
        rep = sh.degeneration_report(p, w)
        try:
            poly = sh.shadow(p, w)
            k, hull = poly.k, list(poly.hull_vertex_ids)
        except DegenerateShadowError:
            k, hull = None, None
        report = {
            "command": "shadow",
            "seed": seed,
            "plane": _rows_json(w.basis.basis),
            "admissible": rep.admissible,
            "degenerating_classes": _degeneration_json(p, rep),
            "k": k,
            "hull_vertex_ids": hull,
        }
        return EXIT_OK, report
    planes = sh.sample_admissible(p, seed, ns.count, ns.grid_bound)
    shadows = []
    for w in planes:
        poly = sh.shadow(p, w)
        shadows.append(
            {
                "plane": _rows_json(w.basis.basis),
                "admissible": True,
                "degenerating_classes": [],
                "k": poly.k,
                "hull_vertex_ids": list(poly.hull_vertex_ids),
            }
        )
    report = {
        "command": "shadow",
        "seed": seed,
        "count": ns.count,
        "grid_bound": ns.grid_bound,
        "shadows": shadows,
    }
    return EXIT_OK, report


# ----------------------------------------------------------------- walk


def _cmd_walk(ns):
    p = _load_polytope(ns.polytope)
    seed = _resolve_seed(ns)
    wa = _load_plane(ns.frm, p.dim, "from")
    wb = _load_plane(ns.to, p.dim, "to")
    report = {
        "command": "walk",
        "seed": seed,
        "from": _rows_json(wa.basis.basis),
        "to": _rows_json(wb.basis.basis),
    }
    try:
        plan = wk.full_walk(p, wa.complement, wb.complement, seed)
    except InadmissiblePlaneError as exc:
        raise UsageError(str(exc))
    except WalkError as exc:
        report.update({"verified": False, "error": str(exc)})
        return EXIT_UNDECIDED, report
    cert = wk.verify_walk(p, plan)
    if not cert.valid:
        raise AssertionError(
            "walk plan failed verification: " + "; ".join(cert.violations)
        )
    report["verified"] = True
    report.update(wk.to_json_dict(plan))
    return EXIT_OK, report


# ---------------------------------------------------------------- check


def _chains_json(p, chains):
    if chains is None:
        return None
    edges = pt.k_faces(p, 1)
    return {
        "face": chains.face_id,
        "fixed_vertices": list(chains.fixed_points),
        "visible": [list(edges[e].vertex_ids) for e in chains.visible],
        "invisible": [list(edges[e].vertex_ids) for e in chains.invisible],
    }


def _certificate_json(p, cert):
    return {
        "face": cert.face_id,
        "other": cert.other_id,
        "witness": _rows_json(cert.witness),
        "chains": _chains_json(p, cert.chains),
        "other_chains": _chains_json(p, cert.other_chains),
    }


def _obstruction_json(p, obs):
    edges = pt.k_faces(p, 1)
    return {
        "reason": obs.reason,
        "group": [
            {
                "edge": list(edges[n.edge_id].vertex_ids),
                "face": n.face_id,
                "other": n.partner_id,
                "orientation": n.orientation,
            }
            for n in (obs.edge_two_faces[i] for i in obs.group)
        ],
    }


def _counterexample_json(cx):
    wa, ka, wb, kb = cx
    return {
        "plane_a": _rows_json(wa.basis.basis),
        "k_a": ka,
        "plane_b": _rows_json(wb.basis.basis),
        "k_b": kb,
    }


def _cmd_check(ns):
    p = _load_polytope(ns.polytope)
    seed = _resolve_seed(ns)
    report = {
        "command": "check",
        "seed": seed,
        "mode": ns.mode,
        "dimension": p.dim,
        "vertex_count": len(p.vertices),
    }
    sampling = ns.mode in ("sampled", "both")
    if sampling and ns.trials < 2:
        # the sampled decider's own check, made before the survey runs
        raise ParameterError("need at least two trials to compare")
    comb = samp = None
    if ns.mode in ("combinatorial", "both"):
        comb = eq.is_equiprojective_combinatorial(p, seed)
        report["combinatorial"] = {
            "equiprojective": comb.equiprojective,
            "k": comb.k,
            "firm": True,
            "certificates": [_certificate_json(p, c) for c in comb.certificates],
            "unresolved_count": 0,
            "obstruction": (
                None if comb.obstruction is None else _obstruction_json(p, comb.obstruction)
            ),
        }
    if sampling:
        samp = eq.is_equiprojective_sampled(p, seed, ns.trials)
        report["sampled"] = {
            "equiprojective": samp.equiprojective,
            "k": samp.k,
            "trials": samp.trials,
            "counterexample": (
                None if samp.counterexample is None else _counterexample_json(samp.counterexample)
            ),
        }
    if comb is not None:
        # sampling is one-sided: a counterexample or another k refutes a
        # firm yes, but finding no counterexample says nothing about a no
        if samp is not None and comb.equiprojective:
            _require(
                samp.equiprojective and samp.k == comb.k,
                "firm verdict contradicted by sampling",
            )
        verdict, k, method, code = comb.equiprojective, comb.k, "combinatorial", EXIT_OK
        firm = True
    elif not samp.equiprojective:
        # a counterexample is an exact disproof
        verdict, k, method, code = False, None, "sampled", EXIT_OK
        firm = True
        report["counterexample"] = _counterexample_json(samp.counterexample)
    else:
        verdict, k, method, code = samp.equiprojective, samp.k, "sampled", EXIT_UNDECIDED
        firm = False
    report["equiprojective"] = verdict
    report["k"] = k
    report["method"] = method
    report["firm"] = firm
    return code, report


# ---------------------------------------------------------------- repro


def _estranged_subset(p, face_ids, need):
    """The first `need` faces of face_ids, in combinations order, whose
    spans meet pairwise in a point, or None."""
    faces = pt.k_faces(p, 2)

    def apart(a, b):
        return la.intersect(faces[a].span, faces[b].span).dim == 0

    return next(
        (
            list(subset)
            for subset in combinations(face_ids, need)
            if all(apart(a, b) for a, b in combinations(subset, 2))
        ),
        None,
    )


def _repro_fig2(report):
    p = fam.hypercube(4)
    w = sh.ProjectionPlane(FIG2_PLANE)
    rep = sh.degeneration_report(p, w)
    poly = sh.shadow(p, w)
    _require(not rep.admissible, "plane unexpectedly admissible")
    _require(len(rep.degenerating) == 1, "expected a single degenerating class")
    cd = rep.degenerating[0]
    cls = pt.parallel_classes(p)[cd.class_id]
    axis = la.span_of(((1, 0, 0, 0), (0, 1, 0, 0)))
    _require(cls.direction_plane == axis, "degenerating class is not the e1,e2 one")
    _require(len(cd.members) == 4, "expected 4 member faces")
    _require(all(m.touches_hull for m in cd.members), "a member misses the boundary")
    report.update(
        {
            "plane": _rows_json(w.basis.basis),
            "admissible": False,
            "degenerating_class": {
                "class": cd.class_id,
                "direction": _rows_json(cls.direction_plane.basis),
                "members": _members_json(cd),
            },
            "k": poly.k,
            "hull_vertex_ids": list(poly.hull_vertex_ids),
        }
    )


def _repro_fig3(report):
    p = fam.perturbed_hypercube(Fraction(1, 100))
    w = sh.ProjectionPlane(FIG2_PLANE)
    rep = sh.degeneration_report(p, w)
    _require(not rep.condition_i, "first degeneracy condition unexpectedly holds")
    _require(rep.condition_ii, "second degeneracy condition fails")
    report.update(
        {
            "epsilon": "1/100",
            "plane": _rows_json(w.basis.basis),
            "condition_i": rep.condition_i,
            "condition_ii": rep.condition_ii,
            "degenerating_classes": _degeneration_json(p, rep),
        }
    )


def _repro_fig6(report):
    n = 4
    p = fam.pn_polytope(n)
    w = sh.ProjectionPlane((la.unit(4, 0), la.unit(4, 1)))
    rep = sh.degeneration_report(p, w)
    cands = sorted({m.face_id for cd in rep.degenerating for m in cd.members})
    subset = _estranged_subset(p, cands, n)
    _require(subset is not None, f"no {n} pairwise estranged degenerating faces")
    poly = sh.shadow(p, w)
    report.update(
        {
            "n": n,
            "plane": _rows_json(w.basis.basis),
            "degenerating_faces": cands,
            "estranged_faces": subset,
            "k": poly.k,
        }
    )


def _repro_fig8(report):
    p = fam.prism(((0, 0), (1, 0), (0, 1)), (0, 0, 1))
    certs = eq.visible_pairs(p)
    cert = next(c for c in certs if c.other_id is not None)
    bal = eq.chain_balance(p, cert)
    _require(bal.visible_total == bal.invisible_total, "chains out of balance")
    _require(bal.k_before == bal.k_after, "shadow size changed across the event")
    report.update(
        {
            "pair": [cert.face_id, cert.other_id],
            "witness": _rows_json(cert.witness),
            "chains": _chains_json(p, cert.chains),
            "other_chains": _chains_json(p, cert.other_chains),
            "visible_total": bal.visible_total,
            "invisible_total": bal.invisible_total,
            "k_before": bal.k_before,
            "k_after": bal.k_after,
        }
    )


_REPROS = {
    "fig2": _repro_fig2,
    "fig3": _repro_fig3,
    "fig6": _repro_fig6,
    "fig8": _repro_fig8,
}


def _cmd_repro(ns):
    seed = _resolve_seed(ns)
    report = {"command": "repro", "figure": ns.figure, "seed": seed}
    _REPROS[ns.figure](report)
    report["property_holds"] = True
    return EXIT_OK, report


# ------------------------------------------------------------ dispatcher


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="64-bit seed; falls back to SHADOWLAB_SEED, then 0")
    sub.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    sub.add_argument("--no-timestamp", action="store_true", help="omit the generated_at field")


def build_parser():
    parser = _Parser(prog="shadowlab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    g = subs.add_parser("generate", help="build a polytope from a named family")
    g.add_argument("--family", required=True, choices=["hypercube", "prism", "zonotope", "perturbed-hypercube", "pn", "pnd"])
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--count", type=int, default=None, help="zonotope generator count")
    g.add_argument("--triangles", type=int, default=None, help="triangle count for pn, at least n")
    g.add_argument("--epsilon", default=None, help="rational perturbation size")
    g.add_argument("--base", default="[[0,0],[1,0],[0,1]]", help="prism base polygon, JSON")
    g.add_argument("--height", default="[0,0,1]", help="prism height vector, JSON")
    g.add_argument("--generators", default=None, help="zonotope generators, JSON rows")
    _add_common(g)
    g.set_defaults(handler=_cmd_generate)

    s = subs.add_parser("shadow", help="project onto a plane or sample admissible planes")
    s.add_argument("--polytope", required=True, help="polytope JSON, file or inline")
    s.add_argument("--plane", default=None, help="projection plane basis, 2 JSON rows")
    s.add_argument("--count", type=int, default=1, help="admissible planes to sample")
    s.add_argument("--grid-bound", type=int, default=100, help="sampling entries lie in [-B, B]")
    _add_common(s)
    s.set_defaults(handler=_cmd_shadow)

    w = subs.add_parser("walk", help="certified walk between two admissible planes")
    w.add_argument("--polytope", required=True)
    w.add_argument("--from", dest="frm", required=True, help="start plane basis, 2 JSON rows")
    w.add_argument("--to", required=True, help="end plane basis, 2 JSON rows")
    _add_common(w)
    w.set_defaults(handler=_cmd_walk)

    c = subs.add_parser("check", help="decide equiprojectivity")
    c.add_argument("--polytope", required=True)
    c.add_argument("--trials", type=int, default=64, help="sampled-mode projection count")
    c.add_argument("--mode", choices=["combinatorial", "sampled", "both"], default="both")
    _add_common(c)
    c.set_defaults(handler=_cmd_check)

    r = subs.add_parser("repro", help="regenerate a documented scenario and assert it")
    r.add_argument("figure", choices=sorted(_REPROS))
    _add_common(r)
    r.set_defaults(handler=_cmd_repro)

    return parser


def run(argv):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --help path
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code, report = ns.handler(ns)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (
        ParameterError,
        DimensionError,
        PolytopeError,
        DegenerateBasisError,
        InadmissiblePlaneError,
        DegenerateShadowError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (SamplingError, WalkError) as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    except (AssertionError, GeometryError) as exc:
        sys.stderr.write(f"internal: {exc}\n")
        return EXIT_INTERNAL
    _emit(ns, report)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
