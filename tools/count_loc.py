"""Count the code lines of Python source files.

A line counts when a token of code lies on it. Blank lines, comment
lines and docstrings do not count; a docstring here is any statement
made of string literals alone, which is all a docstring is to the
tokenizer. A string literal inside code counts every line it spans.

    python3 tools/count_loc.py            # every .py file under src/
    python3 tools/count_loc.py src/tilefusion/lm.py tools
    python3 tools/count_loc.py --against HEAD~1
    python3 tools/count_loc.py --against HEAD~1 src tests

Prints one line per file and a total line last. With --against REV it
also prints, beside each count, the change against the same paths at
git revision REV, whose files it reads with git show, so no second
checkout is needed; a file only one side has counts 0 on the other.
Given several paths, it prints a subtotal after each path's files, so
code moved from one path to another shows on both sides.
"""

import argparse
import io
import subprocess
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


def git(top, *args) -> str:
    return subprocess.run(["git", "-C", str(top), *args], check=True,
                          capture_output=True, text=True).stdout


def print_deltas(paths, rev: str) -> None:
    """Each file's code lines and their change since rev, then, given
    more than one path, each path's subtotal, then the total; files are
    named relative to their repository's top, and a file that two paths
    hold counts under the first."""
    paths = [Path(p).resolve() for p in paths]
    first = paths[0] if paths[0].is_dir() else paths[0].parent
    top = Path(git(first, "rev-parse", "--show-toplevel").strip())
    seen = set()
    total = delta = 0
    for path in paths:
        rel = path.relative_to(top).as_posix()
        now = {f.relative_to(top).as_posix(): code_lines(f.read_text())
               for f in python_files([path])}
        listed = git(top, "ls-tree", "-r", "--name-only", rev, "--", rel)
        then = {name: code_lines(git(top, "show", f"{rev}:{name}"))
                for name in listed.splitlines() if name.endswith(".py")}
        count = change = 0
        for name in sorted((now.keys() | then.keys()) - seen):
            n = now.get(name, 0)
            d = n - then.get(name, 0)
            count += n
            change += d
            print(f"{n:6d} {d:+6d}  {name}")
        seen |= now.keys() | then.keys()
        if len(paths) > 1:
            print(f"{count:6d} {change:+6d}  {rel} subtotal")
        total += count
        delta += change
    print(f"{total:6d} {delta:+6d}  total")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[ROOT / "src"],
                        help="files or directories (default: src/)")
    parser.add_argument("--against", metavar="REV",
                        help="also print each count's change since this "
                             "git revision")
    args = parser.parse_args(argv)
    if args.against:
        try:
            print_deltas(args.paths, args.against)
        except subprocess.CalledProcessError as err:
            print(err.stderr.strip(), file=sys.stderr)
            return 1
        return 0
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
