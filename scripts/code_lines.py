#!/usr/bin/env python3
"""Count the code lines of Python source files.

A code line holds at least one token other than a comment or layout (newline,
indent, dedent, end marker), and lies outside every module, class and
function docstring; a token spanning several lines, such as a multi-line
string, holds each of them. Blank lines, comment-only lines and docstrings
are not counted. With no arguments it counts ``src/coocbias``.

    python scripts/code_lines.py [PATH ...]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DEFAULT = Path(__file__).resolve().parents[1] / "src" / "coocbias"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, its classes' and its functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        owner = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if owner and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one file's text."""
    skip = docstring_lines(ast.parse(source))
    held: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            held.update(range(token.start[0], token.end[0] + 1))
    return len(held - skip)


def count(paths: list[Path]) -> int:
    """The code lines of every ``.py`` file under ``paths``, each counted once."""
    files = {f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p])}
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[DEFAULT])
    print(count(parser.parse_args().paths))


if __name__ == "__main__":
    main()
