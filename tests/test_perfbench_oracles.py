"""The benchmark's store oracle holds the package's unit-norm tolerance.

perfbench/oracles.py checks every store a benchmark step writes without
importing svkit, so it keeps its own copy of the tolerance. It is loaded
here by path, as the benchmark loads it, and checked against the package.
"""

from _bench_oracles import oracles
from svkit import store


def test_oracle_norm_tolerance_is_the_store_contract():
    assert oracles.NORM_TOL == store.NORM_TOL
