import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, as bench/run.py uses."""
    path = os.path.join(ROOT, ".bench_run", "test-%d" % os.getpid())
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
