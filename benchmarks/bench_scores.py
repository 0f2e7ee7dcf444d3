"""Benchmark: accuracy/efficiency comparison across all 9 methods
(Figures 6–8 rendered as tables; one benchmark per voting score).

Scaled-down runs (dblp-lite @ n=200, t=8, k ≤ 10).  Each benchmark also
prints its comparison table; the EXPERIMENTS.md numbers come from
`jobs/run_scores.py` at the full lite sizes.
"""
import pytest

from repro.experiments.datasets import load
from repro.experiments.tables import METHODS, scores_comparison

_KS = [5, 10]
_T = 8


@pytest.fixture(scope="module")
def graph():
    return load("dblp-lite", nodes=200)


def _run(graph, score):
    return scores_comparison(
        graph, 0, _T, _KS, [score],
        methods=METHODS, lam=20, theta=400, im_theta=2000,
    )


@pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
def test_scores_comparison(graph, benchmark, score):
    df = benchmark.pedantic(lambda: _run(graph, score), rounds=1, iterations=1)
    assert len(df) == len(METHODS) * len(_KS)
    # Shape claim (paper §VIII-C): the proposed methods beat the
    # IC/LT/PR/RWR/DC baselines at the largest k.
    top = df[df["k"] == max(_KS)].set_index("method")["F"]
    assert max(top["DM"], top["RW"], top["RS"]) >= max(
        top["IC"], top["LT"], top["PR"], top["RWR"], top["DC"]
    ) - 1e-9
    print()
    print(df.to_string(index=False))
