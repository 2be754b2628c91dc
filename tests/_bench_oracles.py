"""perfbench/oracles.py, loaded by path as the benchmark loads it.

The benchmark checks every output without importing svkit, so its
oracles are coded apart from the package; the tests hold svkit to them."""

import importlib.util
from pathlib import Path

ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"

_spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES_PATH)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)
