"""tools/count_loc.py counts code lines, never docstrings or comments,
and with --against REV each file's change since a git revision, with a
subtotal per path when given several."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import count_loc  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code


def f(x):
    """Function docstring."""
    # a comment line
    text = """a string in code
counts every line"""

    return x + len(text)


class C:
    "one-line docstring"
    y = ("implicitly " "joined")
'''


def test_counts_only_lines_with_code():
    # import, def, the two lines of text, return, class, y
    assert count_loc.code_lines(SOURCE) == 7


def test_blank_and_docstring_only_files_count_zero():
    assert count_loc.code_lines("") == 0
    assert count_loc.code_lines('"""Only a docstring."""\n\n# note\n') == 0


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                    "-c", "user.email=t@example.com",
                    "-c", "commit.gpgsign=false", *args],
                   check=True, capture_output=True)


def test_against_a_revision_prints_each_files_change(tmp_path, capsys):
    repo = tmp_path / "repo"
    src = repo / "src"
    src.mkdir(parents=True)
    git(repo, "init", "-q")
    (src / "kept.py").write_text("a = 1\nb = 2\n")
    (src / "gone.py").write_text("x = 1\n")
    (src / "notes.txt").write_text("not python\n")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "first")
    (src / "kept.py").write_text('"""Doc."""\na = 1\n')
    (src / "gone.py").unlink()
    (src / "new.py").write_text("y = 1\nz = 2\n")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "second")
    # the working tree is what is counted, committed or not
    (src / "new.py").write_text("y = 1\nz = 2\nw = 3\n")

    assert count_loc.main([str(src), "--against", "HEAD~1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0     -1  src/gone.py",
        "     1     -1  src/kept.py",
        "     3     +3  src/new.py",
        "     4     +1  total",
    ]
    assert count_loc.main([str(src / "new.py"), "--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     3     +1  src/new.py",
        "     3     +1  total",
    ]
    assert count_loc.main([str(src), "--against", "no-such-rev"]) == 1


def test_against_with_several_paths_prints_each_subtotal(tmp_path, capsys):
    # code moved from src/ to tests/ shows on both sides of one call
    repo = tmp_path / "repo"
    src, tests = repo / "src", repo / "tests"
    src.mkdir(parents=True)
    tests.mkdir()
    git(repo, "init", "-q")
    (src / "ops.py").write_text("a = 1\nb = 2\nc = 3\n")
    (tests / "test_ops.py").write_text("t = 1\n")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "first")
    (src / "ops.py").write_text("a = 1\n")
    (tests / "oracle.py").write_text("b = 2\nc = 3\n")

    assert count_loc.main([str(src), str(tests), "--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1     -2  src/ops.py",
        "     1     -2  src subtotal",
        "     2     +2  tests/oracle.py",
        "     1     +0  tests/test_ops.py",
        "     3     +2  tests subtotal",
        "     4     +0  total",
    ]
    # a file that two paths hold counts once, under the first
    assert count_loc.main([str(src), str(src / "ops.py"),
                           "--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1     -2  src/ops.py",
        "     1     -2  src subtotal",
        "     0     +0  src/ops.py subtotal",
        "     1     -2  total",
    ]
