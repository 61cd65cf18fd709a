"""tools/codelines.py counts code lines: non-blank lines outside docstrings
and comments, on a small source whose count is known."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment keeps the line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring.

        With a blank line inside."""
        text = """a string that is
# not a comment

and not a docstring"""
        return self.size * len(text)
'''

# import os, class Box, size = 1, def area, the three non-blank lines of
# text's string, return.
EXPECTED = 8


def test_codelines_counts_a_known_source(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "top.py").write_text(SOURCE)
    (tmp_path / "pkg" / "__init__.py").write_text('"""Only a docstring."""\n\nX = 2\n')
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "codelines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"modules": {"pkg/__init__.py": 1, "top.py": EXPECTED},
                                       "total": EXPECTED + 1}


def test_codelines_rejects_a_missing_directory(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "codelines.py"), str(tmp_path / "none")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("usage: ")
