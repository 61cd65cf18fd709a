#!/usr/bin/env python3
"""Count the code lines of each Python module under a directory.

A code line is a non-blank line outside docstrings and `#` comments: a
line that holds a token other than a comment, a line break, indentation
or a docstring.  A line inside a multi-line string that is not a
docstring counts when it is not blank.  A docstring is the string
expression that opens a module, class or function body.  Prints one JSON
object with the count of each module, by its path under the directory,
and their total.

    python tools/codelines.py src/coxlab
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the module begins."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add((first.lineno, first.col_offset))
    return out


def code_lines(source: str) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = source.splitlines()
    counted = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        counted.update(row for row in range(tok.start[0], tok.end[0] + 1) if lines[row - 1].strip())
    return len(counted)


def count(directory: Path) -> dict:
    modules = {path.relative_to(directory).as_posix(): code_lines(path.read_text(encoding="utf-8"))
               for path in sorted(directory.rglob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        sys.stderr.write("usage: python tools/codelines.py <directory>\n")
        return 2
    print(json.dumps(count(Path(argv[0])), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
