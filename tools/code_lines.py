"""Print the code lines of each module of the weylp package.

A code line is a non-blank source line that is not only a comment and not
part of a docstring (module, class or function).  Docstrings are found with
``ast``, comments with ``tokenize``.  Run from the repository root:

    python3 tools/code_lines.py [package directory]

The directory defaults to ``src/weylp``; the last line is the total.
"""

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


def main(argv) -> None:
    package = Path(argv[1] if len(argv) > 1 else "src/weylp")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%-14s %5d" % (path.name, count))
    print("%-14s %5d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv)
