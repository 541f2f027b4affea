"""Code lines of Python modules: lines where a token starts, without
docstrings, comments or blank lines.

A line counts when a token other than a comment, a line break, an indent or
a docstring starts on it, so a statement split over three lines counts three
and a multi-line string one. A docstring is the string that opens a module,
class or function body. Counts are Python 3.10 and 3.11's, whose tokenizer
reads an f-string as one token; later ones split it into parts, so a
multi-line f-string may count more lines there. Prints each module's count
and the total:

    python scripts/code_lines.py src/capgraph

Each argument is a ``.py`` file or a directory searched for them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set:
    """The (line, column) where each docstring of ``source`` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """How many lines of ``source`` a token of code starts on."""
    docstrings = _docstring_starts(source)
    return len({
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _NOT_CODE and token.start not in docstrings
    })


def main(args) -> None:
    files = sorted({file for arg in map(Path, args)
                    for file in ([arg] if arg.is_file() else arg.rglob("*.py"))})
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7,}  {file}")
    print(f"{total:7,}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
