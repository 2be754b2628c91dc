"""The benchmark's store oracle holds the package's unit-norm tolerance.

perfbench/oracles.py checks every store a benchmark step writes without
importing svkit, so it keeps its own copy of the tolerance. It is loaded
here by path, as the benchmark loads it, and checked against the package.
"""

import importlib.util
from pathlib import Path

from svkit import store

ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def test_oracle_norm_tolerance_is_the_store_contract():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES_PATH)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    assert oracles.NORM_TOL == store.NORM_TOL
