"""Print each statement of src/borderedfloer that the test suite never runs.

Runs the suite (pytest over tests/) in this process, with a line tracer set
by sys.settrace and threading.settrace, so it needs no coverage tool.  A
statement counts as run when a line event falls on one of its own lines: any
line of a simple statement, or the header of a compound one (its decorators
and the lines before its body).  Docstrings are not counted as statements.

Calls made in a subprocess are not seen, such as the imports that
tests/test_package.py checks in a fresh interpreter; a line that only such
calls reach is listed as never run.

Tracing makes the suite several times slower (about a minute), so this is
not a tier-1 step.  Exit status: pytest's when the suite fails, else 0.

Run from the repo root: python scripts/untested_lines.py [pytest options]
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "borderedfloer")


def statements(path):
    """(first line, the lines that mark it run) of each statement of the
    module at path, docstrings left out."""
    with open(path) as f:
        tree = ast.parse(f.read())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                docstrings.add(first)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out.append((first, range(first, last + 1)))
    return sorted(out)


def traced_run(args):
    """pytest's exit code on the suite, and the set of (file, line) pairs
    of the package that ran."""
    import pytest

    hits, ours = set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(PACKAGE + os.sep)
        return local if ours[name] else None

    sys.path.insert(0, SRC)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args,
                            os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file = {}
    for name, line in hits:
        by_file.setdefault(os.path.realpath(name), set()).add(line)
    return code, by_file


def main(args):
    code, by_file = traced_run(args)
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read().splitlines()
        ran = by_file.get(path, set())
        for first, lines in statements(path):
            total += 1
            if ran.isdisjoint(lines):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}: "
                      f"{source[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
