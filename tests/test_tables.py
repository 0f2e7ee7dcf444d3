"""Tests for the table harnesses (repro.experiments.tables)."""
import numpy as np
import pytest

from repro.experiments.tables import (
    METHODS,
    default_rs_theta,
    scores_comparison,
    select_with_method,
    table1,
    table3,
    table6,
)
from repro.graphs.generators import random_instance


class TestTable1:
    def test_matches_paper_exactly(self):
        df = table1()
        assert df["cumulative"].tolist() == [2.55, 3.30, 2.80, 3.15, 2.80, 3.55]
        assert df["plurality"].tolist() == [2, 2, 2, 4, 3, 3]
        assert df["copeland"].tolist() == [0, 0, 0, 1, 1, 1]

    def test_opinion_columns(self):
        df = table1()
        assert df.loc[0, ["user1", "user2", "user3", "user4"]].tolist() == [
            0.40, 0.80, 0.60, 0.75,
        ]


class TestTable3:
    def test_five_rows_with_paper_numbers(self):
        df = table3()
        assert len(df) == 5
        assert df["paper_nodes"].sum() == 63910 + 966240 + 2246604 + 3244762 + 2341769


class TestDispatch:
    def test_unknown_method_raises(self):
        g = random_instance(20, seed=0)
        with pytest.raises(ValueError):
            select_with_method(g, "XX", 0, 2, 2, "cumulative")

    @pytest.mark.parametrize("method", ["DC", "PR", "RWR"])
    def test_centrality_methods_return_k(self, method):
        g = random_instance(30, seed=1)
        seeds = select_with_method(g, method, 0, 2, 3, "cumulative")
        assert len(seeds) == 3 and len(set(seeds)) == 3

    def test_dm_method(self):
        g = random_instance(25, seed=2)
        seeds = select_with_method(g, "DM", 0, 2, 2, "cumulative")
        assert len(seeds) == 2

    def test_default_rs_theta(self):
        assert default_rs_theta(100) == 1024
        assert default_rs_theta(4001) == 2000


@pytest.mark.slow
class TestComparisonHarness:
    def test_scores_comparison_small(self):
        g = random_instance(40, r=2, seed=3, avg_deg=2.5)
        df = scores_comparison(
            g, 0, 2, [1, 2], ["cumulative"],
            methods=("DM", "RW", "DC"), lam=10, theta=200, im_theta=200,
        )
        assert set(df["method"]) == {"DM", "RW", "DC"}
        assert len(df) == 6  # 3 methods × 2 k values
        # F non-decreasing in k for each method (same seed sequence prefix).
        for m in ["DM", "RW", "DC"]:
            sub = df[df["method"] == m].sort_values("k")
            assert sub["F"].is_monotonic_increasing or np.allclose(
                sub["F"].diff().dropna(), 0
            ) or (sub["F"].diff().dropna() >= -1e-9).all()

    def test_dm_dominates_on_cumulative(self):
        g = random_instance(40, r=2, seed=4, avg_deg=2.5)
        df = scores_comparison(
            g, 0, 2, [3], ["cumulative"],
            methods=("DM", "DC"), lam=10, theta=200, im_theta=200,
        )
        f = df.set_index("method")["F"]
        assert f["DM"] >= f["DC"] - 1e-9

    def test_table6_shape(self):
        g = random_instance(40, r=2, seed=5, avg_deg=3.0)
        df = table6(g, 0, 2, "plurality", k_max=20, lam=10, theta=300)
        assert set(df["method"]) == {"DM", "RW", "RS"}
        won = df[df["win_within_budget"]]
        assert (won["k_star"] >= 0).all()


def test_methods_tuple_matches_paper_list():
    assert METHODS == ("DM", "RW", "RS", "IC", "LT", "GED-T", "PR", "RWR", "DC")
