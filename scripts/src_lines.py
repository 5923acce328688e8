#!/usr/bin/env python3
"""Print the line counts of ``src/``, per module and in total.

Two counts per module: every line of the file, and its code lines, which
are the lines that are not blank, not comment-only and not inside a
module, class or function docstring. Takes no arguments.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    skipped = docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - skipped)


def main() -> int:
    rows = [(path.relative_to(SRC).as_posix(), *count(path.read_text("utf-8")))
            for path in sorted(SRC.rglob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")
    print(f"{'src/':<{width}}  {sum(r[1] for r in rows):>6,}  {sum(r[2] for r in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
