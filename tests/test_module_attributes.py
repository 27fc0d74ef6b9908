"""Static guard: every name read from a shadowlab module exists.

Parses the package and the tests with ast, maps each import alias of a
shadowlab module (`import shadowlab.linalg as la`, `from . import
kernels`, ...) and checks every attribute read through an alias, and
every name a `from shadowlab... import` pulls in, against the imported
module; and every keyword of a call `alias.fn(..., kw=...)` against the
signature of fn. A helper or option deleted from the package then fails
here even when the only code that still names it sits in a branch that
rarely runs.
"""

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "shadowlab").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)
PACKAGE = "shadowlab"


def _module_name(node):
    """The absolute name of the module an ImportFrom reads."""
    if node.level:
        # relative imports occur only inside the package, one level deep
        return f"{PACKAGE}.{node.module}" if node.module else PACKAGE
    return node.module


def _accepts(fn, kw):
    """Whether fn takes the keyword kw; True when its signature is not
    readable."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return True
    if any(q.kind is q.VAR_KEYWORD for q in params.values()):
        return True
    q = params.get(kw)
    return q is not None and q.kind in (q.POSITIONAL_OR_KEYWORD, q.KEYWORD_ONLY)


def stale_names(path):
    """(line, dotted name) of each missing module attribute in a file,
    and of each keyword its function does not take, as name(kw=)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == PACKAGE:
                    if a.asname:
                        aliases[a.asname] = importlib.import_module(a.name)
                    else:
                        aliases[PACKAGE] = importlib.import_module(PACKAGE)
        elif isinstance(node, ast.ImportFrom):
            name = _module_name(node)
            if name.split(".")[0] != PACKAGE:
                continue
            module = importlib.import_module(name)
            for a in node.names:
                if name == PACKAGE:
                    # the package exports its modules only
                    aliases[a.asname or a.name] = importlib.import_module(
                        f"{PACKAGE}.{a.name}"
                    )
                elif not hasattr(module, a.name):
                    missing.append((node.lineno, f"{name}.{a.name}"))

    def resolve(expr):
        """The module an expression names through the aliases, or None."""
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            value = getattr(owner, expr.attr, None)
            return value if isinstance(value, ModuleType) else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = resolve(node.value)
            if owner is not None and not hasattr(owner, node.attr):
                missing.append((node.lineno, f"{owner.__name__}.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = resolve(node.func.value)
            fn = getattr(owner, node.func.attr, None)
            if not callable(fn):
                continue
            for k in node.keywords:
                # k.arg is None for a **mapping, which names no keyword
                if k.arg is not None and not _accepts(fn, k.arg):
                    name = f"{owner.__name__}.{node.func.attr}({k.arg}=)"
                    missing.append((node.lineno, name))
    return sorted(missing)


def test_guard_sees_the_package_and_the_tests():
    names = {p.name for p in FILES}
    assert {"linalg.py", "walk.py", "test_linalg.py", "oracles.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_attributes_exist(path):
    assert stale_names(path) == []


def test_guard_reports_a_stale_attribute(tmp_path):
    src = tmp_path / "stale.py"
    src.write_text(
        "import shadowlab.linalg as la\n"
        "from shadowlab import walk as wk\n"
        "from shadowlab.errors import NoSuchError\n"
        "def rarely():\n"
        "    return la.no_such_helper, wk.verify_walk, la.det\n"
    )
    assert stale_names(src) == [
        (3, "shadowlab.errors.NoSuchError"),
        (5, "shadowlab.linalg.no_such_helper"),
    ]


def test_guard_reports_a_stale_keyword(tmp_path):
    src = tmp_path / "stale.py"
    src.write_text(
        "import shadowlab.equiproj as eq\n"
        "from shadowlab import shadow as sh\n"
        "def rarely(p, certs, opts):\n"
        "    eq.compensation_partition(p, certs, flip=True)\n"
        "    eq.is_equiprojective_sampled(p, seed=1, trials=4, **opts)\n"
        "    return sh.sample_admissible(p, 0, 1, grid_bound=5, jitter=2)\n"
    )
    assert stale_names(src) == [
        (4, "shadowlab.equiproj.compensation_partition(flip=)"),
        (6, "shadowlab.shadow.sample_admissible(jitter=)"),
    ]


# Top-level definitions that no package code reads, each with the reason
# it stays. A helper whose last caller goes then fails here until it is
# deleted or given a reason.
UNREAD = {
    "kernels.sign_range": "traced by the benchmark",
    "linalg.det": "traced by the benchmark",
    "linalg.kernel_basis": "traced by the benchmark",
    "linalg.intersect": "traced by the benchmark",
    "walk.degeneration_polynomial": "traced by the benchmark",
    "linalg.as_mat": "API for tests and users",
    "linalg.matvec": "API for tests and users",
    "shadow.project": "API for tests and users",
    "walk.walk_to_hyperplane": "API for tests and users",
    "walk.walk_within_hyperplane": "API for tests and users",
    "walk.chain_split_transformations": "API for tests and users",
    "equiproj.definitions_equivalence_check": "API for tests and users",
    "polytope.facets": "API for tests and users",
    "polytope.facet_planes": (
        "API for tests and users; package code reads the stored planes"
        " directly (apply_isometry)"
    ),
}

# Nodes that open a scope of their own for the names they bind.
_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _own_nodes(scope):
    """The nodes of a scope's body, without those of nested scopes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _bound(scope):
    """Names a function, lambda or comprehension binds: its parameters
    and its assignment, for, with and comprehension targets."""
    names = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return frozenset(names)


def _free_loads(node, bound=frozenset()):
    """Names loaded under node that no enclosing function, lambda or
    comprehension binds: the loads that can read a module global."""
    if isinstance(node, _SCOPES):
        bound = bound | _bound(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in bound:
            yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_loads(child, bound)


def unread_definitions(paths):
    """Top-level defs and classes of a package's modules that no code of
    the package reads, as 'module.name'.

    paths are the package's module files; a module is named by its file
    stem and reached through relative imports (`from . import m as a`,
    `from .m import name`). A name counts as read when some module loads
    it by name outside its own definition, where no enclosing function
    binds the same name, or as an attribute of an alias of its module.
    """
    defined = {}
    read = set()
    for path in paths:
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        read.add(f"{node.module}.{a.name}")
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                defined[f"{mod}.{own}"] = path
            read.update(f"{mod}.{name}" for name in _free_loads(stmt) if name != own)
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                ):
                    read.add(f"{aliases[node.value.id]}.{node.attr}")
    return set(defined) - read


def test_every_unread_definition_has_a_reason():
    package = [p for p in FILES if p.parent.name == PACKAGE]
    assert unread_definitions(package) == set(UNREAD)


def test_dead_code_guard_reports_an_unread_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b as bb\n"
        "from .b import by_import\n"
        "def entry():\n"
        "    return bb.by_attribute() + by_import() + helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def lonely(n):\n"
        "    return lonely(n - 1) if n else 0\n"
    )
    (tmp_path / "b.py").write_text(
        "def by_attribute():\n"
        "    return 2\n"
        "def by_import():\n"
        "    return 3\n"
        "class Orphan:\n"
        "    pass\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unread_definitions(paths) == {"a.entry", "a.lonely", "b.Orphan"}


def test_dead_code_guard_sees_through_local_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "def planes(p):\n"
        "    return 1\n"
        "def faces(p):\n"
        "    return 2\n"
        "def closed(p):\n"
        "    return 3\n"
        "def reader(p):\n"
        "    return closed(p)\n"
        "class Holder:\n"
        "    def __init__(self, planes):\n"
        "        self.planes = planes\n"
        "def scan(points):\n"
        "    faces = [q for q in points]\n"
        "    for closed in faces:\n"
        "        pass\n"
        "    return faces, [x for x in closed], lambda planes: planes\n"
    )
    # a parameter, an assignment or a loop target named like a top-level
    # def hides nothing: planes and faces stay unread, reader reads closed
    assert unread_definitions([tmp_path / "a.py"]) == {
        "a.planes",
        "a.faces",
        "a.reader",
        "a.Holder",
        "a.scan",
    }
