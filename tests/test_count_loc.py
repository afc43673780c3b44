"""tools/count_loc.py counts code lines, never docstrings or comments."""

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
