"""The demos run from a fresh copy, and the SVGs they write are the
committed ones in ``demos/out``, byte for byte."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
COMMITTED = {p.name: p.read_bytes()
             for p in (ROOT / "demos" / "out").glob("*.svg")}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Every SVG that the demos write, by name, after each demo ran with
    exit 0 from a copy of the demos with no ``out`` directory."""
    copy = tmp_path_factory.mktemp("demos")
    for demo in DEMOS:
        shutil.copy(demo, copy)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in DEMOS:
        run = subprocess.run([sys.executable, demo.name], cwd=copy, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, f"{demo.name}: {run.stderr}"
    return {p.name: p.read_bytes() for p in (copy / "out").glob("*.svg")}


def test_there_are_five_demos_and_four_committed_svgs():
    assert len(DEMOS) == 5 and len(COMMITTED) == 4


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_each_committed_svg_is_written_byte_for_byte(written, name):
    assert written.get(name) == COMMITTED[name]


def test_the_demos_write_no_other_svg(written):
    assert sorted(written) == sorted(COMMITTED)
