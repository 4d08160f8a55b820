"""tools/src_size.py: the line and token counts the design-size aims are measured by."""

import importlib.util
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "src_size.py")
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)

PLAIN = '''def area(width, height, scale=1.0):
    return width * height * scale


class Box:
    def volume(self, depth):
        return area(self.width, self.height) * depth
'''

# the same code: comments, docstrings and one call reflowed over three lines
DOCUMENTED = '''"""Shapes."""
# a module comment


def area(width, height, scale=1.0):
    """The area, scaled."""
    return width * height * scale  # in square units


class Box:
    """A box.

    With a longer docstring.
    """

    def volume(self, depth):
        return area(
            self.width, self.height
        ) * depth
'''


def write(path, text):
    path.write_text(text)
    return str(path)


def test_comments_docstrings_and_reflowing_leave_the_token_count(tmp_path):
    plain = src_size.size(write(tmp_path / "plain.py", PLAIN))
    documented = src_size.size(write(tmp_path / "documented.py", DOCUMENTED))
    assert plain[1] == documented[1] == 42
    assert plain[0] < documented[0]


def test_a_string_in_a_statement_counts(tmp_path):
    bare = src_size.size(write(tmp_path / "bare.py", "x = 1\n"))
    assigned = src_size.size(write(tmp_path / "assigned.py", 'x = 1\ny = "text"\n'))
    assert assigned[1] - bare[1] == 3  # y, =, "text": only a string standing alone is a docstring


@pytest.mark.parametrize("text", [PLAIN, DOCUMENTED, "x = 1", "\n\n"], ids=["plain", "documented", "no-newline", "blank"])
def test_lines_are_what_wc_counts(tmp_path, text):
    path = write(tmp_path / "m.py", text)
    wc = subprocess.run(["wc", "-l", path], capture_output=True, text=True, check=True)
    assert src_size.size(path)[0] == int(wc.stdout.split()[0])


def test_main_prints_each_module_and_the_totals(tmp_path, capsys):
    write(tmp_path / "a.py", PLAIN)
    (tmp_path / "pkg").mkdir()
    write(tmp_path / "pkg" / "b.py", DOCUMENTED)
    write(tmp_path / "notes.txt", "not python\n")
    assert src_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [r[0] for r in rows] == ["a.py", os.path.join("pkg", "b.py"), "total"]
    assert rows[-1][1] == str(PLAIN.count("\n") + DOCUMENTED.count("\n"))
    assert rows[-1][3] == str(2 * 42)
