"""List the statements of a package that no test executes.

Runs pytest in this process under a line tracer (``sys.settrace``, and
``threading.settrace`` for threads the tests start), installed before the
package is imported, then prints ``module:line: source`` for each statement
of the package that no test executed, and their count.  Definitions (def,
class), imports and docstrings are not counted: they run on import, not
when a test calls the code.  Code that runs only in a subprocess is not
seen.  Run from the repository root:

    python3 tools/unexecuted.py [--package DIR] [-- pytest args]

DIR defaults to ``src/weylp``; its parent directory goes first on
``sys.path`` and on ``PYTHONPATH``, so the tests, and the subprocesses they
start, import the package from DIR.  With no pytest arguments pytest reads
its own configuration.  The exit status is pytest's.
"""

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

from code_lines import _docstring_lines

# statements that run on import, and declarations, which compile to no
# code a tracer could see
_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(source: str) -> dict:
    """The counted statements of ``source``: each line of a statement's
    header (the whole of a simple statement, up to its first nested
    statement for a compound one) mapped to the statement's first line."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    lines = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _NOT_COUNTED)
                or isinstance(node, ast.Expr) and node.lineno in docstrings):
            continue
        inner = [child.lineno for child in ast.walk(node)
                 if isinstance(child, ast.stmt) and child is not node]
        end = max(node.lineno, min(inner) - 1) if inner else node.end_lineno
        for line in range(node.lineno, end + 1):
            lines.setdefault(line, node.lineno)
    return lines


class LineTracer:
    """Records, per file of ``package``, the first lines of the counted
    statements that ran.  A code object whose statements have all run is
    not traced again."""

    def __init__(self, package: Path):
        self.files = {str(path): statements(path.read_text())
                      for path in sorted(package.rglob("*.py"))}
        self.executed = {name: set() for name in self.files}
        self._todo = {}     # code object -> its statements not yet run

    def _calls(self, frame, event, arg):
        code = frame.f_code
        todo = self._todo.get(code)
        if todo is None:
            lines = self.files.get(code.co_filename, {})
            todo = self._todo[code] = {
                lines[line] for _, _, line in code.co_lines() if line in lines}
        if not todo:
            return None
        lines = self.files[code.co_filename]
        executed = self.executed[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                first = lines.get(frame.f_lineno)
                if first in todo:
                    todo.discard(first)
                    executed.add(first)
            return local
        return local

    def start(self):
        threading.settrace(self._calls)
        sys.settrace(self._calls)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def unexecuted(self, package: Path) -> list:
        """(module, line, source) of every counted statement not run."""
        out = []
        for name, lines in self.files.items():
            source = Path(name).read_text().splitlines()
            module = Path(name).relative_to(package).as_posix()
            for first in sorted(set(lines.values()) - self.executed[name]):
                out.append((module, first, source[first - 1].strip()))
        return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--package", default="src/weylp")
    parser.add_argument("pytest_args", nargs="*")
    args = parser.parse_args(argv[1:])
    package = Path(args.package).resolve()
    sys.path.insert(0, str(package.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(package.parent), os.environ.get("PYTHONPATH"))))
    import pytest
    tracer = LineTracer(package)
    tracer.start()
    try:
        status = pytest.main(args.pytest_args)
    finally:
        tracer.stop()
    missed = tracer.unexecuted(package)
    for module, line, source in missed:
        print("%s:%d: %s" % (module, line, source))
    print("statements not executed: %d" % len(missed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
