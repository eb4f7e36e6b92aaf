"""Statements of ``src/muxnet`` that the test suite never runs.

    python3 tools/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process (``-q -p no:cacheprovider tests`` unless
arguments are given) under a ``sys.settrace`` tracer that records the
lines executed in frames of ``src/muxnet`` files and traces no other
frame.  Then, per module, it prints each statement none of whose lines
ran, with its line number and first source line, and a total.  Docstrings
and the header lines of ``def`` and ``class`` statements are not
reported, and neither is ``try:``, which executes nothing of its own.  A
compound statement (``if``, ``for``, ``with`` ...) counts as run when its
header did; its body's statements are counted one by one.

Only the standard library is used.  The tracer slows the traced code, so
a run takes about twice the suite's usual time.  The exit code is
pytest's, so a failing suite is not mistaken for a coverage figure.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "muxnet"


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, the lines that show it ran) of each reportable statement."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try))):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno  # a compound statement's header
        out.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return sorted(out)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):  # called on each new frame: trace only the package's
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        source = path.read_text().splitlines()
        missed = [first for first, lines in statements(path) if not ran.intersection(lines)]
        total += len(missed)
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} unexecuted")
            for first in missed:
                print(f"  {first:5d}  {source[first - 1].strip()}")
    print(f"\n{total} unexecuted statements in {PACKAGE.relative_to(ROOT)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
