#!/usr/bin/env python3
"""Count the lines of a source tree's ``src/fracmap`` modules by kind.

    python3 tools/loc.py TREE

For each module, and in total, prints its lines and how many of them are
code, docstring, comment and blank (standard library only). A last line
totals ``tests/*.py`` the same way, so that code moved from ``src/`` into
the tests shows on both sides.

* code: a line holding a token of code, a docstring excepted; a string
  that spans lines counts on every line it spans;
* docstring: a line of a module, class or function docstring, its blank
  lines included;
* comment: a line holding only a comment;
* blank: a line holding only whitespace, inside a docstring or not.

A docstring's blank line therefore counts twice, and the four kinds can
sum to more than the total. A cut made by deleting comments or docstrings
shows in their columns, not in the code column.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The line counts of one module's source, by kind."""
    lines = source.splitlines()
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return {
        "total": len(lines),
        "code": len(code),
        "docstring": len(docstring),
        "comment": len(comment - code - docstring),
        "blank": sum(1 for line in lines if not line.strip()),
    }


def _total(rows) -> dict:
    return {kind: sum(row[kind] for row in rows) for kind in KINDS}


def main(argv) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} TREE", file=sys.stderr)
        return 2
    tree = Path(argv[1])
    rows = {
        path.name: count(path.read_text(encoding="utf-8"))
        for path in sorted((tree / "src" / "fracmap").glob("*.py"))
    }
    rows["total"] = _total(rows.values())
    rows["tests/*.py"] = _total(
        [count(path.read_text(encoding="utf-8")) for path in sorted((tree / "tests").glob("*.py"))]
    )
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{kind:>10}" for kind in KINDS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[kind]:>10,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
