"""Tests for the driver-side coverage-greedy engine (``core.coverage``).

No Spark.  The golden seed lists were recorded from the Spark SQL
selectors this engine replaced (RW/RS gain pipelines with
``truncate_at``, the RR-set filter loop, the lazy-heap UB greedy), run on
fixed inputs.  Those inputs — the RW walks (seed 100), the RS sketches
(starts from rng 5, walks seed 101) and the IC/LT RR sets (roots rng 7,
sets rng 8) of every case — were drawn by the alias-table samplers that
preceded ``OpinionGraph.sample_in`` and are frozen in ``golden_samples.npz``,
so the goldens keep checking the engine on the very same inputs.
"""
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.im import greedy_rr_sets
from repro.core.coverage import Coverage, WalkGreedy
from repro.core.sandwich import (
    favorable_users_np,
    greedy_coverage,
    reach_sets_np,
    weakly_favorable_users_np,
)
from repro.graphs.generators import random_instance
from repro.opinion.walks import Walks, generate_walks, truncated_estimate_np
from repro.voting.scores import SCORES

OMEGA = np.array([1.0, 0.5, 0.25])
# name -> (n, r, graph seed, t, λ, θ, k).  "exhaust" runs to k = n, through
# rounds where every remaining node has zero gain; "duel" has a target
# whose Copeland gains are positive.
CASES = {
    "main": (50, 3, 42, 3, 10, 300, 6),
    "exhaust": (12, 3, 7, 2, 2, 6, 12),
    "duel": (20, 3, 10, 2, 5, 60, 6),
}

GOLDEN = {
    "RW/main/cumulative": [0, 19, 12, 3, 14, 16],
    "RW/main/plurality": [0, 1, 3, 14, 5, 8],
    "RW/main/p_approval": [0, 3, 1, 12, 17, 21],
    "RW/main/positional_p_approval": [0, 3, 1, 12, 14, 17],
    "RW/main/copeland": [0, 1, 2, 3, 4, 5],
    "RS/main/cumulative": [0, 19, 12, 3, 17, 9],
    "RS/main/plurality": [0, 19, 3, 12, 17, 10],
    "RS/main/p_approval": [0, 19, 3, 12, 14, 27],
    "RS/main/positional_p_approval": [0, 19, 3, 12, 17, 14],
    "RS/main/copeland": [0, 1, 2, 3, 4, 5],
    "IM/main/ic": [0, 3, 19, 40, 48, 17],
    "IM/main/lt": [0, 3, 19, 8, 44, 48],
    "UB/main/fav": [[0, 3, 8, 10, 37, 44], 49],
    "UB/main/weak": [[0, 3, 44, 37, 1, 2], 50],
    "RW/exhaust/cumulative": [11, 2, 4, 0, 6, 7, 10, 1, 5, 3, 8, 9],
    "RW/exhaust/plurality": [0, 1, 4, 6, 7, 10, 2, 3, 5, 8, 9, 11],
    "RW/exhaust/p_approval": [4, 7, 0, 1, 2, 3, 5, 6, 8, 9, 10, 11],
    "RW/exhaust/positional_p_approval": [0, 1, 4, 7, 6, 10, 2, 3, 5, 8, 9, 11],
    "RW/exhaust/copeland": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    "RS/exhaust/cumulative": [9, 0, 6, 5, 8, 1, 2, 3, 4, 7, 10, 11],
    "RS/exhaust/plurality": [6, 0, 7, 5, 8, 9, 1, 2, 3, 4, 10, 11],
    "RS/exhaust/p_approval": [7, 0, 3, 5, 6, 8, 9, 1, 2, 4, 10, 11],
    "RS/exhaust/positional_p_approval": [9, 0, 6, 5, 8, 1, 2, 3, 4, 7, 10, 11],
    "RS/exhaust/copeland": [6, 0, 5, 7, 8, 9, 1, 2, 3, 4, 10, 11],
    "IM/exhaust/ic": [9, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11],
    "IM/exhaust/lt": [9, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11],
    "UB/exhaust/fav": [[0, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11], 12],
    "UB/exhaust/weak": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 12],
    "RW/duel/cumulative": [8, 2, 1, 17, 6, 9],
    "RW/duel/plurality": [8, 0, 17, 3, 5, 6],
    "RW/duel/p_approval": [4, 0, 3, 17, 5, 6],
    "RW/duel/positional_p_approval": [8, 0, 17, 3, 6, 5],
    "RW/duel/copeland": [0, 4, 17, 1, 2, 3],
    "RS/duel/cumulative": [0, 17, 3, 5, 1, 2],
    "RS/duel/plurality": [0, 3, 17, 5, 6, 8],
    "RS/duel/p_approval": [0, 3, 17, 5, 6, 8],
    "RS/duel/positional_p_approval": [0, 3, 17, 5, 6, 8],
    "RS/duel/copeland": [0, 3, 1, 2, 4, 5],
    "IM/duel/ic": [0, 17, 12, 10, 19, 5],
    "IM/duel/lt": [17, 0, 3, 12, 5, 19],
    "UB/duel/fav": [[1, 12, 17, 3, 5, 0], 20],
    "UB/duel/weak": [[1, 12, 3, 5, 17, 0], 20],
}


SAMPLES = np.load(Path(__file__).with_name("golden_samples.npz"))


def _graph(case):
    n, r, gs, *_ = CASES[case]
    return random_instance(n, r=r, seed=gs, avg_deg=3.0)


def _frozen(case, kind, fields):
    return [SAMPLES[f"{case}.{kind}.{f}"].astype(np.float64 if f == "op" else np.int64)
            for f in fields]


def _walks(case, kind):
    return Walks(*_frozen(case, kind, ("item", "pos", "node", "start", "op")))


def _rw(case, score):
    t = CASES[case][3]
    walks = _walks(case, "rw")
    return WalkGreedy(_graph(case), 0, t, score, walks, unit=walks.start, p=2, omega=OMEGA)


def _rs(case, score):
    n, _, _, t, _, theta, _ = CASES[case]
    return WalkGreedy(
        _graph(case), 0, t, score, _walks(case, "rs"), unit=np.arange(theta),
        scale=n / theta, p=2, omega=OMEGA,
    )


class TestGoldenSeeds:
    """Seed-for-seed equality with the replaced Spark selectors."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("score", SCORES)
    @pytest.mark.parametrize("method", ["RW", "RS"])
    def test_walk_selectors(self, method, case, score):
        sel = (_rw if method == "RW" else _rs)(case, score)
        assert sel.select(CASES[case][-1]) == GOLDEN[f"{method}/{case}/{score}"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_rr_set_greedy(self, case, model):
        n, theta, k = CASES[case][0], CASES[case][5], CASES[case][-1]
        item, node = _frozen(case, model, ("item", "node"))
        assert greedy_rr_sets(n, item, node, theta, k) == GOLDEN[f"IM/{case}/{model}"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("base", ["fav", "weak"])
    def test_upper_bound_greedy(self, case, base):
        n, _, _, t, _, _, k = CASES[case]
        g = _graph(case)
        mask = (
            favorable_users_np(g, 0, t, 1) if base == "fav"
            else weakly_favorable_users_np(g, 0, t)
        )
        seeds, cov = greedy_coverage(reach_sets_np(g, t), mask, k)
        assert [seeds, cov] == GOLDEN[f"UB/{case}/{base}"]


class TestCoverage:
    def test_truncation_mask_matches_reference(self):
        """Seeding ≡ Post-Generation Truncation: estimate 1 on a hit, and the
        walk keeps exactly its prefix up to the first seed."""
        g = random_instance(30, seed=12)
        walks = generate_walks(g, 0, 4, lam=4, seed=6)
        sel = WalkGreedy(g, 0, 4, "cumulative", walks, unit=walks.start)
        for s in (3, 7):
            sel.cov.add(s)
        seeds = {3, 7}
        paths = walks.paths()
        exp_op = [truncated_estimate_np(p, o, seeds) for p, o in zip(paths, walks.op)]
        assert np.allclose(sel._op(), exp_op)
        cov = sel.cov
        present = cov.pos <= cov.cut[cov.item]
        for i, path in enumerate(paths):
            hits = [j for j, v in enumerate(path) if v in seeds]
            prefix = path[: hits[0] + 1] if hits else path
            assert set(cov.node[present & (cov.item == i)]) == set(prefix)

    def test_duplicate_nodes_keep_first_position(self):
        cov = Coverage(5, [0, 0, 0], [1, 2, 1], 1, pos=[0, 1, 2])
        assert cov.node.tolist() == [1, 2] and cov.pos.tolist() == [0, 1]

    def test_tie_breaks_to_smallest_node(self):
        cov = Coverage(4, [0, 1], [3, 1], 2)
        assert cov.pick(np.array([0.0, 1.0, 0.0, 1.0])) == 1

    def test_no_candidate_falls_back_to_smallest_unseeded(self):
        cov = Coverage(4, [0], [2], 1)
        assert cov.select(4, lambda: cov.sums(np.ones(1))) == [2, 0, 1, 3]

    def test_k_above_n_raises(self):
        cov = Coverage(3, [0], [1], 1)
        with pytest.raises(ValueError):
            cov.select(4, lambda: cov.sums(np.ones(1)))


class TestWalkGreedy:
    @pytest.mark.parametrize("score", SCORES)
    @pytest.mark.parametrize("make", [_rw, _rs], ids=["RW", "RS"])
    def test_estimate_rises_by_chosen_gain(self, make, score):
        """F̂ after a pick = F̂ before + the gain it was chosen for."""
        sel = make("duel", score)
        for k in range(1, 7):
            before = sel.estimated_score()
            sel.select(k)
            rec = sel.rounds[-1]
            assert rec["seed"] == sel.seeds[-1]
            assert abs(sel.estimated_score() - (before + rec["gain"])) < 1e-9
            assert rec["f_hat"] == sel.estimated_score()

    def test_rounds_count_truncated_walks(self):
        sel = _rw("main", "cumulative")
        sel.select(3)
        assert [r["seed"] for r in sel.rounds] == sel.seeds
        assert sum(r["items_covered"] for r in sel.rounds) == int((~sel.cov.alive).sum())
        assert all(r["items_covered"] > 0 for r in sel.rounds)

    @pytest.mark.parametrize("score", SCORES)
    def test_k_equals_n_returns_every_node_once(self, score):
        sel = _rw("exhaust", score)
        assert sorted(sel.select(12)) == list(range(12))

    def test_k_above_n_raises(self):
        with pytest.raises(ValueError):
            _rs("exhaust", "plurality").select(13)

    @pytest.mark.parametrize("score", SCORES)
    def test_horizon_zero_estimates_initial_opinions(self, score):
        g = random_instance(15, r=3, seed=3)
        walks = generate_walks(g, 0, 0, lam=3, seed=1)
        assert all(len(p) == 1 for p in walks.paths())
        sel = WalkGreedy(g, 0, 0, score, walks, unit=walks.start)
        assert np.allclose(sel._bhat(sel._op()), g.b0[0])
        assert len(set(sel.select(4))) == 4
