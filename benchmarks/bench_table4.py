"""Benchmark: Table IV — case-study pipeline (RW plurality seeds, domain tally).

Scaled-down run (n=240, k=8, t=8); the full Table IV numbers in
EXPERIMENTS.md come from `jobs/run_table4.py` at n=640, k=50, t=20.
"""
import pandas as pd

from repro.experiments.tables import table4


def test_table4_case_study(benchmark):
    df, res = benchmark.pedantic(
        lambda: table4(n=240, k=8, t=8, lam=15), rounds=1, iterations=1
    )
    assert res["overall_with"] >= res["overall_without"]
    print()
    print(df.to_string(index=False))
    print(f"overall: {res['overall_without']} -> {res['overall_with']} / {res['n']}")
