"""List the statements inside ``tqftkit`` functions that the tier-1 suite never runs.

Usage, from anywhere::

    python tools/never_run.py [pytest arguments ...]

The tier-1 suite runs in this process under a ``sys.settrace`` line
tracer (about three times slower than untraced), with a fixed Hypothesis
seed.  A statement is one ``ast`` statement inside a function body of
``src/tqftkit``, counted by its first line; docstrings and
``nonlocal``/``global`` declarations are skipped, as they run no code.
It has run when any line of its header (the whole statement, for a
simple one) emitted a line event.

The script prints every never-run statement as ``module:line function:
text`` and exits 1 when the suite fails or any statement is never run.
Line events differ between Python versions; the gate is kept on Python
3.11.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tqftkit")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: str) -> list[tuple[range, str, str]]:
    """(header lines, function qualname, first line's text) of each
    statement inside a function of the module at ``path``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    found = []

    def visit(node, qual: str, in_function: bool) -> None:
        body = node.body if isinstance(node, _SCOPES) else []
        docstring = body[0] if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str) else None
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and child is not docstring \
                    and not isinstance(child, (ast.Global, ast.Nonlocal)):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                inner = [n.lineno for n in ast.walk(child) if isinstance(n, ast.stmt) and n is not child]
                last = min(inner) - 1 if inner else child.end_lineno
                found.append((range(first, max(first, last) + 1), qual, text[child.lineno - 1].strip()))
            if isinstance(child, _SCOPES):
                visit(child, f"{qual}{child.name}.", in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, qual, in_function)

    visit(ast.parse(source, path), "", False)
    return found


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The tier-1 exit code and, per module path, the lines that emitted a
    line event while the suite ran."""
    import pytest

    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}  # code filename -> module path, or None for other code

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = os.path.abspath(filename)
            ours[filename] = path if path.startswith(PACKAGE + os.sep) else None
        if ours[filename] is None:
            return None
        seen = hits[ours[filename]]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                            "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), hits


def never_run(hits: dict[str, set[int]]) -> list[tuple[str, int, str, str]]:
    """(module, first line, function, text) of each statement with no line event."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            for lines, qual, text in statements(path):
                if hits[path].isdisjoint(lines):
                    out.append((f"tqftkit/{name}", lines.start, qual.rstrip("."), text))
    return out


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv)
    found = never_run(hits)
    print(f"\n{len(found)} statement(s) inside tqftkit functions never run")
    for module, line, qual, text in found:
        print(f"{module}:{line} {qual}: {text}")
    if code:
        print(f"the suite failed under the tracer (pytest exit {code})")
    return 1 if code or found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
