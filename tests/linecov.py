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
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shadowlab"
# file name -> the line numbers run in it, kept on the run's config
RAN = pytest.StashKey()


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
    """The statements of the file at path, docstrings left out."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return [
        node
        for parent in ast.walk(tree)
        for node in ast.iter_child_nodes(parent)
        if isinstance(node, ast.stmt) and not _is_docstring(node, parent)
    ]


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


def pytest_terminal_summary(terminalreporter, config):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("statements no test ran")
    missed = total = 0
    for path, ran in config.stash[RAN].items():
        nodes = statements(path)
        total += len(nodes)
        lines = sorted(node.lineno for node in nodes if not _reached(node, ran))
        missed += len(lines)
        name = Path(path).relative_to(PACKAGE.parents[1])
        for line in lines:
            terminalreporter.write_line(f"{name}:{line}")
    terminalreporter.write_line(f"{missed} of {total} statements unreached")
