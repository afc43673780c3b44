"""Count the code lines of Python source files.

A line counts when a token of code lies on it. Blank lines, comment
lines and docstrings do not count; a docstring here is any statement
made of string literals alone, which is all a docstring is to the
tokenizer. A string literal inside code counts every line it spans.

    python3 tools/count_loc.py            # every .py file under src/
    python3 tools/count_loc.py src/tilefusion/lm.py tools

Prints one line per file and a total line last.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that are layout or commentary, never code
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of source that hold code."""
    lines = set()
    statement = []  # the current logical line's code tokens
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            statement.append(tok)
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def python_files(paths) -> list:
    out = []
    for path in paths:
        path = Path(path)
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[ROOT / "src"],
                        help="files or directories (default: src/)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
