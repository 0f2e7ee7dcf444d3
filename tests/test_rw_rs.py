"""Integration tests for the RW (Alg. 4) and RS (Alg. 5) selectors.

Walks, sketches and RR sets are sampled on the driver and the greedy
rounds run there too (``core.coverage``): no Spark job is launched.
Graphs are kept small (n ≤ 60, t ≤ 4) so the exact DM greedy, which the
quality checks compare against, stays cheap.
"""
import numpy as np
import pytest

from repro.baselines.centrality import degree_seeds, pagerank_seeds, rwr_seeds
from repro.baselines.im import expected_influence_spread, select_seeds_im
from repro.core.coverage import WalkGreedy
from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.rs import RSSelector
from repro.core.rw import RWSelector
from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import opinions_at_horizon_np
from repro.opinion.walks import generate_walks
from repro.voting.scores import score_np


def _exact(g, target, t, seeds, score):
    b = opinions_at_horizon_np(g, t, target, seeds)
    return score_np(b, target, score)


@pytest.fixture(scope="module")
def small_graph():
    return random_instance(50, r=3, seed=42, avg_deg=3.0)


class TestRW:
    def test_gain_pipeline_matches_bruteforce(self, small_graph):
        """Estimated marginal gains ≡ recomputing the estimate per candidate."""
        g = small_graph
        lam = 10
        walks = generate_walks(g, 0, 3, lam=lam, seed=1)
        gains = WalkGreedy(g, 0, 3, "cumulative", walks, unit=walks.start).gains()
        for v in range(15):
            exp = sum(
                (1.0 - op) / lam for path, op in zip(walks.paths(), walks.op) if v in path
            )
            assert np.isclose(gains[v], exp), f"node {v}"

    def test_estimated_score_tracks_truncation(self, spark, small_graph):
        g = small_graph
        sel = RWSelector(spark, g, 0, 3, "cumulative", lam=20, seed=2)
        before = sel.estimated_score()
        seeds = sel.select(2)
        after = sel.estimated_score()
        assert after >= before  # estimates only rise with seeds
        assert len(set(seeds)) == 2

    def test_selects_distinct_seeds(self, spark, small_graph):
        sel = RWSelector(spark, small_graph, 0, 3, "plurality", lam=15, seed=3)
        seeds = sel.select(3)
        assert len(set(seeds)) == 3

    def test_running_example_first_pick(self, spark):
        """With dense walks, RW recovers DM's first pick on the example."""
        g = running_example()
        sel = RWSelector(spark, g, 0, 1, "cumulative", lam=400, seed=4)
        assert sel.select(1) == [0]  # Table I: node 0 maximizes cumulative

    def test_running_example_plurality_pick(self, spark):
        g = running_example()
        sel = RWSelector(spark, g, 0, 1, "plurality", lam=400, seed=5)
        assert sel.select(1) == [2]  # Table I: node 2 maximizes plurality

    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_quality_close_to_dm(self, spark, small_graph, score):
        g = small_graph
        t, k = 3, 3
        sel = RWSelector(spark, g, 0, t, score, lam=60, seed=6)
        rw_seeds = sel.select(k)
        ev = ExactEvaluator(None, g, 0, t, score)
        dm_seeds, dm_trace = greedy_dm(ev, k, celf=(score == "cumulative"))
        f_rw = _exact(g, 0, t, rw_seeds, score)
        f_dm = dm_trace[-1]
        assert f_rw >= 0.8 * f_dm, (rw_seeds, dm_seeds, f_rw, f_dm)

    def test_estimated_score_close_to_exact(self, spark, small_graph):
        g = small_graph
        sel = RWSelector(spark, g, 0, 3, "cumulative", lam=120, seed=7)
        est = sel.estimated_score()
        exact = _exact(g, 0, 3, [], "cumulative")
        assert abs(est - exact) / exact < 0.1


class TestRS:
    def test_cumulative_estimate_scales(self, spark, small_graph):
        g = small_graph
        rs = RSSelector(spark, g, 0, 3, "cumulative", theta=3000, seed=8)
        est = rs.estimated_score()
        exact = _exact(g, 0, 3, [], "cumulative")
        assert abs(est - exact) / exact < 0.15

    def test_gain_pipeline_matches_bruteforce(self, small_graph):
        g = small_graph
        starts = np.random.default_rng(9).choice(g.n, size=300)
        walks = generate_walks(g, 0, 3, starts=starts, seed=10)
        scale = g.n / 300
        gains = WalkGreedy(
            g, 0, 3, "cumulative", walks, unit=np.arange(300), scale=scale
        ).gains()
        for v in range(15):
            exp = scale * sum(
                (1.0 - op) for path, op in zip(walks.paths(), walks.op) if v in path
            )
            assert np.isclose(gains[v], exp), f"node {v}"

    def test_selects_distinct_seeds(self, spark, small_graph):
        rs = RSSelector(spark, small_graph, 0, 3, "plurality", theta=500, seed=10)
        seeds = rs.select(3)
        assert len(set(seeds)) == 3

    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_quality_close_to_dm(self, spark, small_graph, score):
        g = small_graph
        t, k = 3, 3
        rs = RSSelector(spark, g, 0, t, score, theta=2500, seed=11)
        rs_seeds = rs.select(k)
        ev = ExactEvaluator(None, g, 0, t, score)
        _, dm_trace = greedy_dm(ev, k, celf=(score == "cumulative"))
        f_rs = _exact(g, 0, t, rs_seeds, score)
        assert f_rs >= 0.75 * dm_trace[-1], (rs_seeds, f_rs, dm_trace[-1])

    def test_running_example_first_pick(self, spark):
        g = running_example()
        rs = RSSelector(spark, g, 0, 1, "cumulative", theta=2000, seed=12)
        assert rs.select(1) == [0]


class TestEntryPoints:
    """Edge inputs at the selector entry points."""

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_out_of_range_raises(self, spark, small_graph, target):
        with pytest.raises(ValueError):
            RWSelector(spark, small_graph, target, 3, "cumulative", lam=2)
        with pytest.raises(ValueError):
            RSSelector(spark, small_graph, target, 3, "cumulative", theta=10)

    def test_k_above_n_raises(self, spark):
        g = random_instance(8, r=2, seed=1)
        sel = RWSelector(spark, g, 0, 2, "plurality", lam=2, seed=1)
        with pytest.raises(ValueError):
            sel.select(9)

    def test_k_equals_n_returns_every_node(self, spark):
        g = random_instance(8, r=2, seed=2)
        rs = RSSelector(spark, g, 0, 2, "cumulative", theta=5, seed=2)
        assert sorted(rs.select(8)) == list(range(8))

    def test_horizon_zero(self, spark, small_graph):
        """t = 0: every walk is its start node, with estimate b0."""
        g = small_graph
        sel = RWSelector(spark, g, 0, 0, "cumulative", lam=3, seed=3)
        assert np.isclose(sel.estimated_score(), g.b0[0].sum())
        assert len(set(sel.select(3))) == 3


class TestNoSparkJobs:
    def test_sampling_and_selection_launch_no_spark_job(self, spark, small_graph):
        """RW, RS, IMM and centrality selection plus EIS run entirely on the
        driver."""
        sc, g = spark.sparkContext, small_graph
        sc.setJobGroup("no-spark-jobs", "driver-side sampling")
        try:
            RWSelector(spark, g, 0, 3, "plurality", lam=5, seed=1).select(2)
            RSSelector(spark, g, 0, 3, "copeland", theta=200, seed=2).select(2)
            seeds = select_seeds_im(spark, g, "ic", 2, theta=300, seed=3)
            expected_influence_spread(spark, g, "lt", seeds, theta=300)
            pagerank_seeds(g, 2)
            rwr_seeds(g, 2, 0)
            degree_seeds(g, 2)
            jobs = sc.statusTracker().getJobIdsForGroup("no-spark-jobs")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert jobs == []
