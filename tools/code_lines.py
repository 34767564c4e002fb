"""Print the code lines of each module of the weylp package.

A code line is a non-blank source line that is not only a comment and not
part of a docstring (module, class or function).  Docstrings are found with
``ast``, comments with ``tokenize``.  Run from the repository root:

    python3 tools/code_lines.py [package directory] [--base DIR]

The directory defaults to ``src/weylp``; the last line is the total.  With
``--base DIR``, DIR is another checkout: each module is counted in the
same directory under DIR too, and the columns are before (DIR), after
(this checkout) and the delta; a module that one side lacks counts 0
there.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, outside
    docstrings."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT,
                        tokenize.ENDMARKER):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_modules(package: Path) -> dict:
    """Code lines of each module of ``package``, by file name."""
    return {path.name: code_lines(path.read_text())
            for path in sorted(package.glob("*.py"))}


def main(argv) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("package", nargs="?", default="src/weylp")
    parser.add_argument("--base", help="another checkout to compare with")
    args = parser.parse_args(argv[1:])
    after = count_modules(Path(args.package))
    if args.base is None:
        for name, count in after.items():
            print("%-14s %5d" % (name, count))
        print("%-14s %5d" % ("total", sum(after.values())))
        return
    before = count_modules(Path(args.base) / args.package)
    print("%-14s %6s %6s %6s" % ("module", "before", "after", "delta"))
    for name in sorted(set(before) | set(after)) + ["total"]:
        b = (sum(before.values()) if name == "total"
             else before.get(name, 0))
        a = sum(after.values()) if name == "total" else after.get(name, 0)
        print("%-14s %6d %6d %+6d" % (name, b, a, a - b))


if __name__ == "__main__":
    main(sys.argv)
