"""Tests for the exact (DM) evaluator and greedy/CELF (Alg. 1, §III-C)."""
import itertools

import numpy as np
import pytest

from repro.core.dm import (
    DENSE_N_THRESHOLD,
    EVAL_BLOCK,
    ExactEvaluator,
    batch_scores_np,
    greedy_dm,
    others_at_horizon,
)
from repro.experiments.datasets import load
from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np
from repro.voting.scores import score_np


def _exact_score(g, target, t, seeds, score, **kw):
    b = opinions_at_horizon_np(g, t, target, seeds)
    return score_np(b, target, score, **kw)


class TestBatchScores:
    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_matches_one_at_a_time(self, score):
        g = random_instance(40, r=3, seed=0)
        t, target, S = 3, 0, [5]
        others = None if score == "cumulative" else others_at_horizon(g, target, t)
        cands = np.array([0, 7, 11, 20])
        vals = batch_scores_np(g, target, S, cands, t, score, others=others)
        for v, c in zip(vals, cands):
            assert np.isclose(v, _exact_score(g, target, t, S + [int(c)], score))

    def test_seed_column_pinned(self):
        g = random_instance(30, seed=1)
        cands = np.array([3, 9])
        # Internal invariant: the per-row seed has opinion exactly 1 — the
        # returned cumulative score must therefore be ≥ base + (1 − b_c).
        base = _exact_score(g, 0, 4, [], "cumulative")
        vals = batch_scores_np(g, 0, [], cands, 4, "cumulative")
        assert (vals >= base - 1e-9).all()

    def test_user_mask_restricts_sum(self):
        g = random_instance(30, seed=2)
        mask = np.zeros(30, dtype=bool)
        mask[:10] = True
        vals = batch_scores_np(g, 0, [], np.array([0]), 3, "cumulative", user_mask=mask)
        b = opinions_at_horizon_np(g, 3, 0, [0])[0]
        assert np.isclose(vals[0], b[:10].sum())

    def test_existing_seeds_applied(self):
        g = random_instance(30, seed=3)
        v1 = batch_scores_np(g, 0, [2, 4], np.array([7]), 3, "cumulative")[0]
        assert np.isclose(v1, _exact_score(g, 0, 3, [2, 4, 7], "cumulative"))


class TestOthersAtHorizon:
    def test_shape_and_values(self):
        g = random_instance(25, r=4, seed=4)
        o = others_at_horizon(g, 1, 3)
        full = fj_diffuse_np(g, 3)
        assert o.shape == (3, 25)
        assert np.array_equal(o, full[[0, 2, 3]])


class TestEvaluator:
    def test_local_path_matches_reference(self):
        g = random_instance(35, seed=5)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        vals = ev([1], [0, 2, 3])
        for v, c in zip(vals, [0, 2, 3]):
            assert np.isclose(v, _exact_score(g, 0, 3, [1, int(c)], "cumulative"))

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("score", ["cumulative", "plurality"])
    def test_blocks_match_one_batch(self, monkeypatch, score, sparse):
        """Candidates split over several EVAL_BLOCK blocks, in shuffled order."""
        import repro.core.dm as dm_mod

        if sparse:
            monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", 0)
        g = random_instance(2 * EVAL_BLOCK, r=3, seed=6)
        ev = ExactEvaluator(None, g, 0, 3, score)
        cands = np.random.default_rng(0).permutation(g.n)[: 2 * EVAL_BLOCK - 100]
        whole = batch_scores_np(g, 0, [4], cands, 3, score, others=ev.others)
        np.testing.assert_allclose(ev([4], cands), whole, rtol=1e-12)

    def test_empty_candidate_list(self):
        ev = ExactEvaluator(None, random_instance(20, seed=6), 0, 3, "cumulative")
        assert ev([], []).shape == (0,)

    def test_score_of_matches_reference(self):
        g = random_instance(30, r=3, seed=7)
        for score in ["cumulative", "plurality", "copeland"]:
            ev = ExactEvaluator(None, g, 0, 4, score)
            assert np.isclose(ev.score_of([3, 5]), _exact_score(g, 0, 4, [3, 5], score))

    @pytest.mark.parametrize("target", [-1, 2])
    @pytest.mark.parametrize("score", ["cumulative", "plurality"])
    def test_target_out_of_range_raises(self, target, score):
        """−1 used to wrap to the last candidate; r raised a bare IndexError."""
        g = random_instance(10, r=2, seed=3)
        with pytest.raises(ValueError, match="outside"):
            ExactEvaluator(None, g, target, 2, score)

    def test_score_of_with_mask(self):
        g = random_instance(30, seed=8)
        mask = np.zeros(30, dtype=bool)
        mask[5:15] = True
        ev = ExactEvaluator(None, g, 0, 3, "cumulative", user_mask=mask)
        b = opinions_at_horizon_np(g, 3, 0, [2])[0]
        assert np.isclose(ev.score_of([2]), b[5:15].sum())


class TestGreedy:
    def test_celf_equals_plain_greedy_cumulative(self):
        g = random_instance(50, seed=9)
        ev = ExactEvaluator(None, g, 0, 4, "cumulative")
        s1, t1 = greedy_dm(ev, 4, celf=True)
        s2, t2 = greedy_dm(ev, 4, celf=False)
        assert s1 == s2 and np.allclose(t1, t2)

    def test_trace_is_exact_scores(self):
        g = random_instance(40, seed=10)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, trace = greedy_dm(ev, 3, celf=True)
        for i in range(3):
            assert np.isclose(trace[i], _exact_score(g, 0, 3, seeds[: i + 1], "cumulative"))

    def test_greedy_matches_bruteforce_first_pick(self):
        g = random_instance(25, seed=11)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, _ = greedy_dm(ev, 1)
        best = max(range(25), key=lambda v: _exact_score(g, 0, 3, [v], "cumulative"))
        assert seeds[0] == best

    def test_greedy_near_optimal_small_instance(self):
        """(1−1/e) guarantee on an exhaustively solvable instance."""
        g = random_instance(12, seed=12, avg_deg=2.0)
        t, k = 3, 2
        ev = ExactEvaluator(None, g, 0, t, "cumulative")
        seeds, trace = greedy_dm(ev, k)
        opt = max(
            _exact_score(g, 0, t, list(S), "cumulative")
            for S in itertools.combinations(range(12), k)
        )
        assert trace[-1] >= (1 - 1 / np.e) * opt - 1e-9

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_greedy_runs_for_rank_scores(self, score):
        g = random_instance(30, r=3, seed=13)
        ev = ExactEvaluator(None, g, 0, 3, score)
        seeds, trace = greedy_dm(ev, 2, celf=False)
        assert len(seeds) == 2 and len(set(seeds)) == 2
        assert trace == sorted(trace)  # scores non-decreasing in seeds

    def test_running_example_greedy_picks_node0_for_cumulative(self):
        # Table I: {1} (node 0) maximizes the cumulative score at t=1.
        g = running_example()
        ev = ExactEvaluator(None, g, 0, 1, "cumulative")
        seeds, _ = greedy_dm(ev, 1)
        assert seeds == [0]

    def test_running_example_greedy_picks_node2_for_plurality(self):
        # Table I: {3} (node 2) maximizes the plurality score at t=1.
        g = running_example()
        ev = ExactEvaluator(None, g, 0, 1, "plurality")
        seeds, _ = greedy_dm(ev, 1, celf=False)
        assert seeds == [2]


# greedy_dm seeds (target 0, k = 3) recorded from the Spark-distributed
# evaluator and the reduceat sparse kernel before both were replaced by
# the driver-side blocks and ``spmv_dst``; the driver path of that code
# gave the same lists.  yelp-lite (n = 966) takes the dense-BLAS branch,
# twitter-sd-lite cut to 1 600 nodes the sparse one.  Plurality runs
# plain greedy, cumulative CELF.
GOLDEN_DM = {
    ("yelp-lite", None, 10, "plurality"): [124, 6, 17],
    ("yelp-lite", None, 10, "cumulative"): [0, 3, 2],
    ("twitter-sd-lite", 1600, 5, "plurality"): [1, 6, 0],
    ("twitter-sd-lite", 1600, 5, "cumulative"): [1, 0, 6],
}


class TestGoldenSeeds:
    @pytest.mark.parametrize("name,nodes,t,score", list(GOLDEN_DM))
    def test_greedy_dm(self, name, nodes, t, score):
        g = load(name, nodes=nodes)
        assert (g.n <= DENSE_N_THRESHOLD) == (name == "yelp-lite")
        ev = ExactEvaluator(None, g, 0, t, score)
        seeds, _ = greedy_dm(ev, 3, celf=score == "cumulative")
        assert seeds == GOLDEN_DM[name, nodes, t, score]


class TestKernelPaths:
    """The dense-BLAS and sparse (spmv_dst) aggregation kernels agree."""

    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_sparse_path_matches_dense(self, monkeypatch, score):
        import repro.core.dm as dm_mod

        g = random_instance(40, r=3, seed=30)
        others = None if score == "cumulative" else others_at_horizon(g, 0, 3)
        cands = np.array([1, 5, 9, 22])
        dense = batch_scores_np(g, 0, [2], cands, 3, score, others=others)
        monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", 0)
        sparse = batch_scores_np(g, 0, [2], cands, 3, score, others=others)
        assert np.allclose(dense, sparse)

    def test_positional_vectorization_matches_score_np(self):
        from repro.voting.scores import score_np as snp
        from repro.opinion.fj import opinions_at_horizon_np

        g = random_instance(30, r=4, seed=31)
        om = np.array([1.0, 0.7, 0.3, 0.0])
        others = others_at_horizon(g, 0, 2)
        cands = np.array([0, 4, 8])
        vals = batch_scores_np(
            g, 0, [], cands, 2, "positional_p_approval", others=others, p=3, omega=om
        )
        for v, c in zip(vals, cands):
            b = opinions_at_horizon_np(g, 2, 0, [int(c)])
            assert np.isclose(v, snp(b, 0, "positional_p_approval", p=3, omega=om))


class TestGreedyDMInputs:
    """Edge inputs fail with a clear ValueError."""

    @pytest.fixture(scope="class")
    def ev(self):
        return ExactEvaluator(None, random_instance(8, r=2, seed=3), 0, 2, "cumulative")

    @pytest.mark.parametrize("celf", [True, False])
    def test_k_above_n_raises(self, ev, celf):
        with pytest.raises(ValueError, match="exceeds"):
            greedy_dm(ev, 9, celf=celf)

    def test_k_equals_n_returns_every_node(self, ev):
        assert sorted(greedy_dm(ev, 8, celf=False)[0]) == list(range(8))

    @pytest.mark.parametrize("init", [[1, 1], [0, 3, 0]])
    def test_duplicate_init_seeds_raise(self, ev, init):
        with pytest.raises(ValueError, match="duplicates"):
            greedy_dm(ev, 4, celf=False, init=init)

    @pytest.mark.parametrize("init", [[8], [-1], [2, 10]])
    def test_out_of_range_init_seeds_raise(self, ev, init):
        with pytest.raises(ValueError, match="lie in"):
            greedy_dm(ev, 4, celf=False, init=init)
