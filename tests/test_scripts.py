"""Smoke runs of the example scripts under scripts/ and of the README's library snippet."""

import os
import re
import subprocess
import sys
from pathlib import Path

from support import D4_JSONL

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_scripts_run():
    demo = run_script("waterbirds_demo.py", "--per-class", "200")
    assert demo.returncode == 0, demo.stderr
    assert demo.stdout.strip().splitlines()[-1].endswith("imbalanced cliques: 0")
    bench = run_script("benchmark.py", "--records", "400", "--k-max", "2")
    assert bench.returncode == 0, bench.stderr
    assert "gen s" in bench.stdout.splitlines()[0]
    header, *rows = bench.stdout.splitlines()
    assert header.split()[-3:] == ["seconds", "render", "s"]
    assert rows and all(len(row.split()) == 7 and float(row.split()[-1]) >= 0 for row in rows)


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.jsonl").write_text(D4_JSONL, encoding="utf-8")
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "('x',) {'B': 1}\n('y',) {'A': 1}\n"
    assert namespace["balanced"].n == 6


# Code lines: import, class, the two lines of x's string, def, the string
# statement after the docstring, and the three lines of the return.
CODE_LINES_FIXTURE = '''#!/usr/bin/env python3
"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a multi-line
    string value"""

    def f(self):
        """Function docstring."""
        "a string statement, not a docstring"
        return (
            os.sep
        )
'''


def test_code_lines_counts_a_known_fixture(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    single = run_script("code_lines.py", str(tmp_path / "pkg" / "a.py"))
    assert (single.returncode, single.stdout, single.stderr) == (0, "9\n", "")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n\ny = 2\n", encoding="utf-8")
    folder = run_script("code_lines.py", str(tmp_path / "pkg"), str(tmp_path / "pkg" / "a.py"))
    assert (folder.returncode, folder.stdout) == (0, "11\n")
    package = run_script("code_lines.py")
    assert package.returncode == 0 and int(package.stdout) > 0
