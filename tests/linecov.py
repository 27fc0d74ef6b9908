"""Opt-in line coverage of src/shadowlab, on the standard library alone.

    PYTHONPATH=src:tests python -m pytest -p linecov

A sys.settrace hook records the lines run in the package's files, and
at the end of the session the plugin lists every statement that no test
ran, as file:line, with their count. A statement is a node of the
module's syntax tree, docstrings left out. It counts as run when a line
of its head ran (a compound statement's lines up to its body, a simple
statement's lines) or, for a compound statement, when the first
statement of its body ran. Tracing makes the suite about three times
slower, so the tier-1 run does not load the plugin.

The statements still unreached are pinned in linecov_pin.json, each
keyed by file, enclosing definition and statement text (whitespace
collapsed; a compound statement by its head) and given a reason. The
run fails when its findings differ from the pin either way: a statement
newly unreached, or a pinned one that a test now reaches. The pin holds
for the whole tier-1 suite, so a partial run shows differences.
"""

import ast
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shadowlab"
PIN = Path(__file__).resolve().parent / "linecov_pin.json"
# file name -> the line numbers run in it, kept on the run's config
RAN = pytest.StashKey()
# (unreached locations, statement count, unpinned keys, reached pinned keys)
REPORT = pytest.StashKey()


def _is_docstring(node, parent):
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _head(node):
    """The lines of a statement up to its body: decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(first, last + 1)


def statements(path):
    """(statement, enclosing definition) of the file at path, docstrings
    left out; the definition is the dotted name of the enclosing
    functions and classes, or "<module>"."""
    out = []

    def visit(parent, scope):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                out.append((node, ".".join(scope) or "<module>"))
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [node.name]
            visit(node, inner)

    visit(ast.parse(Path(path).read_text(encoding="utf-8")), [])
    return out


def pin_key(path, lines, node, definition):
    """(file name, definition, text) of a statement of the file at path
    with source lines: its head lines for a compound statement, all its
    lines otherwise, whitespace collapsed."""
    text = " ".join(lines[i - 1] for i in _head(node))
    return (Path(path).name, definition, " ".join(text.split()))


def load_pin():
    return json.loads(PIN.read_text(encoding="utf-8"))


def _reached(node, ran):
    if any(line in ran for line in _head(node)):
        return True
    body = getattr(node, "body", None)
    return isinstance(body, list) and _reached(body[0], ran)


def pytest_configure(config):
    ran = config.stash[RAN] = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def line(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, _event, _arg):
        return line if frame.f_code.co_filename in ran else None

    sys.settrace(call)
    threading.settrace(call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    config = session.config
    missed, total, keys = [], 0, Counter()
    for path, ran in config.stash[RAN].items():
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        nodes = statements(path)
        total += len(nodes)
        name = Path(path).relative_to(PACKAGE.parents[1])
        unreached = [(n, d) for n, d in nodes if not _reached(n, ran)]
        for node, definition in sorted(unreached, key=lambda nd: nd[0].lineno):
            missed.append(f"{name}:{node.lineno}")
            keys[pin_key(path, lines, node, definition)] += 1
    pinned = Counter(
        (e["file"], e["definition"], e["statement"]) for e in load_pin()
    )
    config.stash[REPORT] = (missed, total, keys - pinned, pinned - keys)
    if keys != pinned:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    missed, total, new, gone = config.stash[REPORT]
    terminalreporter.section("statements no test ran")
    for where in missed:
        terminalreporter.write_line(where)
    terminalreporter.write_line(f"{len(missed)} of {total} statements unreached")
    for what, diff in (("unreached but not pinned", new), ("pinned but reached", gone)):
        for key in sorted(diff.elements()):
            terminalreporter.write_line(f"{what}: {' | '.join(key)}")
    if new or gone:
        terminalreporter.write_line(f"the pin in {PIN.name} differs from this run")
