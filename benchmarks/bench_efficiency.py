"""Benchmark: selection-time scaling of DM / RW / RS with graph size
(§VIII-E / Fig. 17 rendered as a table — the shape claim is DM grows
polynomially while RW/RS grow ~linearly, and RS is the fastest).

Cumulative score, k=5, t=8, on twitter-sd-lite subsamples.
"""
import pytest

from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.rs import RSSelector
from repro.core.rw import RWSelector
from repro.experiments.datasets import load

_K, _T = 5, 8


@pytest.mark.parametrize("n", [250, 500, 1000])
@pytest.mark.parametrize("method", ["DM", "RW", "RS"])
def test_selection_time(benchmark, method, n):
    g = load("twitter-sd-lite", nodes=n)

    def run():
        if method == "DM":
            ev = ExactEvaluator(None, g, 0, _T, "cumulative")
            return greedy_dm(ev, _K, celf=True)[0]
        if method == "RW":
            return RWSelector(None, g, 0, _T, "cumulative", lam=20, seed=0).select(_K)
        return RSSelector(
            None, g, 0, _T, "cumulative", theta=max(256, n // 2), seed=0
        ).select(_K)

    seeds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(seeds) == _K
