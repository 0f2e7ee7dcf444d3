"""Benchmark: Table VI — minimum #seeds to win (DM / RW / RS).

Scaled-down run (dblp-lite @ n=160, t=8); EXPERIMENTS.md records the
jobs/run_table6.py runs at the full lite sizes.
"""
from repro.experiments.datasets import load
from repro.experiments.tables import table6


def test_table6_min_seeds(benchmark):
    g = load("dblp-lite", nodes=160)
    df = benchmark.pedantic(
        lambda: table6(g, 0, 8, "plurality", k_max=40, lam=15, theta=600),
        rounds=1,
        iterations=1,
    )
    assert set(df["method"]) == {"DM", "RW", "RS"}
    print()
    print(df.to_string(index=False))
