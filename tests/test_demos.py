"""Every demo script runs to completion."""

import functools
import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@functools.cache
def run_demo(path):
    src = str(path.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("MIFLAB_CACHE", None)
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_witness_search_demo_verifies_and_catches_the_forgery():
    (path,) = [p for p in DEMOS if p.stem == "05_witness_search"]
    out = run_demo(path).stdout
    assert "complete: True; witness set size: 15\n" in out
    assert "re-checked 15 certificates, failures: 0\n" in out
    assert "after forging one witness: failures = [(1, 'witness evaluation is trivial')]\n" in out
