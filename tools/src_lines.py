"""Size of ``src/``: total lines, and code lines — lines carrying a
token that is not a comment, blank or part of a docstring.

    python tools/src_lines.py [directory]

Every simplicity PR reports this figure; counting from the token stream
(not with a regular expression) keeps it independent of how comments
and docstrings are laid out. A docstring is any statement that is a
string literal and nothing else.
"""

from __future__ import annotations

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


def count(path: Path) -> tuple[int, int]:
    """``(total, code)`` line counts of one Python file."""
    source = path.read_bytes()
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if {t.type for t in statement} != {tokenize.STRING}:
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src"
    if not root.is_dir():
        print(f"{root}: not a directory", file=sys.stderr)
        return 2
    counts = [count(path) for path in sorted(root.rglob("*.py"))]
    if not counts:
        print(f"{root}: no *.py file", file=sys.stderr)
        return 2
    total = sum(total for total, _code in counts)
    code = sum(code for _total, code in counts)
    print(f"{root}: {len(counts)} files, {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
