"""Benchmark: sandwich approximation ratio (§IV-D / Fig. 2 as a table)."""
import pytest

from repro.core.sandwich import sandwich_select
from repro.experiments.datasets import load


@pytest.mark.parametrize("score", ["plurality", "copeland"])
def test_sandwich_ratio(benchmark, score):
    g = load("twitter-sd-lite", nodes=200)
    res = benchmark.pedantic(
        lambda: sandwich_select(g, 0, 4, 10, score), rounds=1, iterations=1
    )
    assert 0 < res.ratio <= 1.0 + 1e-9
    print(f"\n{score}: F(S_U)/UB(S_U) = {res.ratio:.3f}  winner={res.source}")
