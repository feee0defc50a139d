"""Each script in ``demos/`` runs to exit 0 on a small input."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ("invariants_tour.py",),
    ("tikz_demo.py",),
    ("conjecture_report_demo.py", "3"),
])
def test_demo_exits_zero(argv):
    _run(*argv)


def test_reproduce_count_table_small():
    rows = [line.split() for line in _run("reproduce_count_table.py", "3").splitlines()[1:3]]
    assert rows == [["2", "1", "2"], ["3", "2", "2"]]

