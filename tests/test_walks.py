"""Tests for reverse random walks (§V): the driver-side kernel,
unbiasedness (Thms 8–9) and truncation semantics."""
import numpy as np
import pytest

from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np
from repro.opinion.walks import generate_walks, truncated_estimate_np, walk_kernel


def _paths(g, starts, t, seed):
    walks = generate_walks(g, 0, t, starts=np.asarray(starts), seed=seed)
    return walks.paths()


def _mean_by_start(walks, op):
    return np.bincount(walks.start, weights=op) / np.bincount(walks.start)


class TestKernel:
    def test_path_starts_at_start_node(self):
        paths = _paths(running_example(), [2, 3], 3, seed=0)
        assert paths[0][0] == 2 and paths[1][0] == 3

    @pytest.mark.parametrize("t", [0, 1, 4])
    def test_path_length_bounded(self, t):
        paths = _paths(random_instance(50, seed=1), np.arange(50), t, seed=1)
        assert all(1 <= len(p) <= t + 1 for p in paths)

    def test_fully_stubborn_walks_stop_immediately(self):
        g = random_instance(30, seed=2)
        g.d[:] = 1.0
        assert all(len(p) == 1 for p in _paths(g, np.arange(30), 5, seed=2))

    def test_non_stubborn_walks_run_full_length(self):
        g = random_instance(30, seed=3)
        g.d[:] = 0.0
        assert all(len(p) == 6 for p in _paths(g, np.arange(30), 5, seed=3))

    def test_steps_follow_reverse_edges(self):
        g = random_instance(40, seed=4, avg_deg=3.0)
        g.d[:] = 0.2
        edges = set(zip(g.src.tolist(), g.dst.tolist()))
        for p in _paths(g, np.repeat(np.arange(40), 20), 4, seed=4):
            for a, b in zip(p, p[1:]):
                assert (b, a) in edges

    def test_incidence_positions_follow_paths(self):
        g = random_instance(30, seed=5)
        rng = np.random.default_rng(5)
        item, pos, node, end = walk_kernel(g, np.arange(30), 4, g.d[0], rng)
        paths = [[] for _ in range(30)]
        for i, p, v in sorted(zip(item, pos, node)):
            assert p == len(paths[i])
            paths[i].append(v)
        assert [p[-1] for p in paths] == end.tolist()


class TestSparkPipeline:
    """``generate_walks``, the entry point that replaced the Spark walk
    pipeline; the class and test names are kept from that pipeline."""

    def test_generate_walks_schema_and_count(self):
        w = generate_walks(random_instance(40, seed=6), 0, 3, lam=5, seed=1)
        assert len(w.start) == len(w.op) == 40 * 5
        assert len(w.item) == len(w.pos) == len(w.node)

    def test_walks_per_start(self):
        w = generate_walks(random_instance(30, seed=7), 0, 2, lam=7, seed=2)
        assert (np.bincount(w.start, minlength=30) == 7).all()

    def test_starts_mode(self):
        g = random_instance(30, seed=8)
        w = generate_walks(g, 0, 2, starts=np.array([0, 0, 5, 7]), seed=3)
        assert w.start.tolist() == [0, 0, 5, 7]

    def test_requires_exactly_one_mode(self):
        g = random_instance(10, seed=9)
        with pytest.raises(ValueError):
            generate_walks(g, 0, 2, lam=3, starts=np.array([0]))
        with pytest.raises(ValueError):
            generate_walks(g, 0, 2)

    def test_op_is_b0_of_path_end(self):
        g = random_instance(30, seed=10)
        w = generate_walks(g, 0, 3, lam=3, seed=4)
        ends = [p[-1] for p in w.paths()]
        assert np.array_equal(w.op, g.b0[0, ends])

    def test_deterministic_in_seed(self):
        g = random_instance(20, seed=11)
        a = generate_walks(g, 0, 3, lam=3, seed=5)
        b = generate_walks(g, 0, 3, lam=3, seed=5)
        for f in ("item", "pos", "node", "start", "op"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        c = generate_walks(g, 0, 3, lam=3, seed=6)
        assert a.paths() != c.paths()

    def test_spark_estimates_close_to_exact(self):
        g = random_instance(20, seed=14, avg_deg=3.0)
        t = 3
        w = generate_walks(g, 0, t, lam=400, seed=8)
        exact = fj_diffuse_np(g, t)[0]
        assert np.abs(_mean_by_start(w, w.op) - exact).max() < 0.08


class TestUnbiasedness:
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_direct_generation_unbiased(self, t):
        """Thm 8: E[X] = b^(t).  20k walks/node → Hoeffding bound at 6σ."""
        g = running_example()
        exact = fj_diffuse_np(g, t)[0]
        starts = np.repeat(np.arange(4), 20_000)
        w = generate_walks(g, 0, t, starts=starts, seed=11)
        est = _mean_by_start(w, w.op)
        assert np.abs(est - exact).max() < 0.02

    def test_truncation_unbiased(self):
        """Thm 9: truncated estimate unbiased for b^(t)[S]."""
        g = running_example()
        S = {2}
        exact = fj_diffuse_np(g.with_seeds(0, list(S)), 2)[0]
        starts = np.repeat(np.arange(4), 20_000)
        w = generate_walks(g, 0, 2, starts=starts, seed=12)
        op2 = [truncated_estimate_np(p, o, S) for p, o in zip(w.paths(), w.op)]
        est = _mean_by_start(w, op2)
        assert np.abs(est - exact).max() < 0.02

    def test_truncation_on_random_graph(self):
        g = random_instance(25, seed=5, avg_deg=3.0)
        S = {3, 8}
        t = 3
        exact = fj_diffuse_np(g.with_seeds(0, list(S)), t)[0]
        starts = np.repeat(np.arange(g.n), 4000)
        w = generate_walks(g, 0, t, starts=starts, seed=13)
        op2 = [truncated_estimate_np(p, o, S) for p, o in zip(w.paths(), w.op)]
        est = _mean_by_start(w, op2)
        assert np.abs(est - exact).max() < 0.05


class TestTruncationSemantics:
    def test_no_seed_in_path_keeps_estimate(self):
        assert truncated_estimate_np([1, 2, 3], 0.4, {9}) == 0.4

    def test_seed_anywhere_gives_one(self):
        assert truncated_estimate_np([1, 2, 3], 0.4, {2}) == 1.0

    def test_start_node_as_seed(self):
        assert truncated_estimate_np([5, 1], 0.2, {5}) == 1.0
