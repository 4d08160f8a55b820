"""Lines and tokens of every module under src/colflow, and their totals.

    python3 tools/src_size.py [ROOT]

ROOT defaults to the src/colflow beside this script. Lines are physical
lines, as `wc -l` counts them. Tokens are Python `tokenize` tokens,
leaving out comments, docstrings (a string that is a statement of its
own) and NEWLINE, NL, INDENT, DEDENT, ENCODING and ENDMARKER, so that
reflowing code or rewording a comment changes no count.
"""

from __future__ import annotations

import os
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def size(path: str) -> tuple[int, int]:
    """(lines, tokens) of one module."""
    with open(path, "rb") as f:
        lines = f.read().count(b"\n")
        f.seek(0)
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    count = 0
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):  # ENCODING first, ENDMARKER last
        docstring = (
            tok.type == tokenize.STRING
            and before.type in _STATEMENT_START
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        count += tok.type not in _LAYOUT and not docstring
    return lines, count


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "colflow")
    paths = sorted(
        os.path.join(d, name) for d, _, names in os.walk(root) for name in names if name.endswith(".py")
    )
    total_lines = total_tokens = 0
    for path in paths:
        lines, tokens = size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{os.path.relpath(path, root):32} {lines:6} lines {tokens:7} tokens")
    print(f"{'total':32} {total_lines:6} lines {total_tokens:7} tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
