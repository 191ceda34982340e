"""Count the code lines of the ``holoifs`` package, per module and in total.

A code line is a line that holds a token other than a comment, a docstring
or a line break: blank lines, comment-only lines and docstrings do not
count, and a statement that spans several lines counts each of them.  A
docstring is a string statement, the only statement on its line(s).

Usage: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: tokens that are never code; a NEWLINE ends a statement
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file ``path``."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _LAYOUT]
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokens:
        if token.type != tokenize.NEWLINE:
            statement.append(token)
            continue
        if not all(t.type == tokenize.STRING for t in statement):  # not a docstring
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "holoifs"
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
