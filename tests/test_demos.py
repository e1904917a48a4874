"""The public surface: every demo script runs, every exported name exists."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import grhopf

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    assert len(set(grhopf.__all__)) == len(grhopf.__all__)
    for name in grhopf.__all__:
        assert getattr(grhopf, name) is not None, name
    namespace: dict = {}
    exec("from grhopf import *", namespace)
    assert set(grhopf.__all__) <= set(namespace)
