"""Tests for the sandwich approximation machinery (§IV, Thms 5–7)."""
import numpy as np
import pytest

from repro.core.dm import ExactEvaluator
from repro.core.sandwich import (
    favorable_users_np,
    greedy_coverage,
    lb_value,
    reach_sets_np,
    sandwich_select,
    ub_value,
    weakly_favorable_users_np,
)
from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np
from repro.voting.scores import rank_np


class TestFavorableSets:
    def test_favorable_matches_rank_definition(self):
        g = random_instance(40, r=3, seed=0)
        t, p = 3, 2
        mask = favorable_users_np(g, 0, t, p)
        b = fj_diffuse_np(g, t)
        assert np.array_equal(mask, rank_np(b, 0) <= p)

    def test_weakly_favorable_definition(self):
        g = random_instance(40, r=4, seed=1)
        mask = weakly_favorable_users_np(g, 1, 3)
        b = fj_diffuse_np(g, 3)
        others = b[[0, 2, 3]]
        assert np.array_equal(mask, b[1] > others.min(axis=0))

    def test_favorable_subset_of_weakly_favorable_r2(self):
        # With r=2 and p=1: strictly-top ⊆ better-than-min.
        g = random_instance(50, r=2, seed=2)
        fav = favorable_users_np(g, 0, 3, 1)
        weak = weakly_favorable_users_np(g, 0, 3)
        assert not (fav & ~weak).any()


class TestReachability:
    def test_reach_sets_running_example(self):
        g = running_example()
        reach = reach_sets_np(g, 1)
        assert reach[0].tolist() == [True, False, True, False]  # 0 → 2
        assert reach[2].tolist() == [False, False, True, True]  # 2 → 3

    def test_reach_t0_is_self(self):
        g = random_instance(30, seed=3)
        for v, mask in enumerate(reach_sets_np(g, 0)):
            assert mask.sum() == 1 and mask[v]

    def test_reach_monotone_in_t(self):
        g = random_instance(30, seed=4)
        r1 = reach_sets_np(g, 1)
        r3 = reach_sets_np(g, 3)
        for a, b in zip(r1, r3):
            assert not (a & ~b).any()

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_reach_matches_adjacency_powers(self, t):
        """N_v^(t) ≡ nonzero entries of row v of (I + A)^t (A: real edges)."""
        g = random_instance(30, seed=5, avg_deg=2.0)
        step = np.eye(g.n, dtype=np.int64)
        real = g.src != g.dst
        step[g.src[real], g.dst[real]] = 1
        hops = np.linalg.matrix_power(step, t) > 0
        assert np.array_equal(np.array(reach_sets_np(g, t)), hops)


class TestCoverageGreedy:
    def test_single_pick_is_max_coverage(self):
        g = random_instance(40, seed=7)
        reach = reach_sets_np(g, 2)
        base = np.zeros(40, dtype=bool)
        seeds, cov = greedy_coverage(reach, base, 1)
        best = max(range(40), key=lambda v: reach[v].sum())
        assert reach[seeds[0]].sum() == reach[best].sum() == cov

    def test_coverage_counts_union(self):
        g = random_instance(40, seed=8)
        reach = reach_sets_np(g, 2)
        base = np.zeros(40, dtype=bool)
        seeds, cov = greedy_coverage(reach, base, 3)
        mask = base.copy()
        for s in seeds:
            mask |= reach[s]
        assert cov == mask.sum()

    def test_base_mask_excluded_from_gain(self):
        g = random_instance(40, seed=9)
        reach = reach_sets_np(g, 2)
        base = np.ones(40, dtype=bool)  # everything already covered
        _, cov = greedy_coverage(reach, base, 2)
        assert cov == 40


class TestBounds:
    """Thm 5/6/7 part (4): LB(S) ≤ F(S) ≤ UB(S) on random instances."""

    @pytest.mark.parametrize("seed", range(4))
    def test_plurality_sandwich_inequality(self, seed):
        g = random_instance(30, r=3, seed=seed, avg_deg=2.5)
        t, p = 2, 1
        rng = np.random.default_rng(seed)
        S = rng.choice(30, size=3, replace=False).tolist()
        fav = favorable_users_np(g, 0, t, p)
        reach = reach_sets_np(g, t)
        ev = ExactEvaluator(None, g, 0, t, "plurality")
        f = ev.score_of(S)
        lb = lb_value(g, 0, t, S, fav)
        ub = ub_value(reach, fav, S, 1.0)
        assert lb <= f + 1e-9 <= ub + 1e-9, (lb, f, ub)

    @pytest.mark.parametrize("seed", range(4))
    def test_copeland_upper_bound(self, seed):
        g = random_instance(30, r=4, seed=seed + 10, avg_deg=2.5)
        t = 2
        rng = np.random.default_rng(seed)
        S = rng.choice(30, size=3, replace=False).tolist()
        weak = weakly_favorable_users_np(g, 0, t)
        reach = reach_sets_np(g, t)
        coeff = (g.r - 1) / (g.n // 2 + 1)
        ev = ExactEvaluator(None, g, 0, t, "copeland")
        f = ev.score_of(S)
        ub = ub_value(reach, weak, S, coeff)
        assert f <= ub + 1e-9, (f, ub)

    def test_lb_monotone_in_seeds(self):
        g = random_instance(30, r=2, seed=20)
        fav = favorable_users_np(g, 0, 2, 1)
        v1 = lb_value(g, 0, 2, [3], fav)
        v2 = lb_value(g, 0, 2, [3, 7], fav)
        assert v2 >= v1 - 1e-12

    def test_ub_submodular_sampled(self):
        g = random_instance(30, seed=21)
        reach = reach_sets_np(g, 2)
        base = favorable_users_np(g, 0, 2, 1)
        X, Y, s = [1], [1, 4], 9
        gx = ub_value(reach, base, X + [s], 1.0) - ub_value(reach, base, X, 1.0)
        gy = ub_value(reach, base, Y + [s], 1.0) - ub_value(reach, base, Y, 1.0)
        assert gx >= gy - 1e-12


class TestSandwichSelect:
    def test_rejects_cumulative(self):
        g = random_instance(20, seed=22)
        with pytest.raises(ValueError):
            sandwich_select(g, 0, 2, 2, "cumulative")

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_runs_and_reports_ratio(self, score):
        g = random_instance(30, r=3, seed=23, avg_deg=2.5)
        res = sandwich_select(g, 0, 2, 2, score)
        assert 0 < res.ratio <= 1.0 + 1e-9
        assert len(res.seeds) == 2
        assert res.source in {"S_U", "S_L", "S_F"}

    def test_result_at_least_feasible_greedy(self):
        g = random_instance(30, r=2, seed=24, avg_deg=2.5)
        res = sandwich_select(g, 0, 2, 2, "plurality")
        # Alg. 3 returns the best of the three → ≥ F(S_F).
        best = max(res.f_su, res.f_sf, res.f_sl)
        ev = ExactEvaluator(None, g, 0, 2, "plurality")
        assert np.isclose(ev.score_of(res.seeds), best)
