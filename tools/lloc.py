"""Count logical lines of Python source: the ROADMAP's LOC figure.

A logical line is a physical line that holds code: not blank, not only a
comment, and not part of a module, class or function docstring.  A
statement spread over several lines counts each line that holds a token.

    python tools/lloc.py src/povmcascade        # per file, then the total
    python tools/lloc.py a.py b.py              # any files or directories
    python tools/lloc.py --help                 # this text

With no argument it prints this text to stderr and exits with 1; a path
that does not exist gets one line on stderr and exit code 1.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def logical_lines(source: str) -> int:
    """Number of logical lines in one Python source text."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skip)


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv or "-h" in argv or "--help" in argv:
        print(__doc__.strip(), file=sys.stdout if argv else sys.stderr)
        return 0 if argv else 1
    missing = [path for path in argv if not Path(path).exists()]
    for path in missing:
        print(f"lloc.py: no such file or directory: {path}", file=sys.stderr)
    if missing:
        return 1
    total = 0
    for path in python_files(argv):
        count = logical_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
