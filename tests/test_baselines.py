"""Tests for the baseline seeders (§VIII-A): IC/LT RR sets, PR, RWR, DC, GED-T."""
import numpy as np
import pytest

from repro.baselines.centrality import (
    degree_seeds,
    pagerank_np,
    pagerank_seeds,
    rwr_seeds,
)
from repro.baselines.ged_t import ged_t_seeds
from repro.baselines.im import (
    expected_influence_spread,
    generate_rr_sets,
    rr_sets,
    select_seeds_im,
)
from repro.core.dm import ExactEvaluator, greedy_dm
from repro.experiments.datasets import TARGETS, load
from repro.graphs.generators import random_instance, running_example
from repro.graphs.graph import OpinionGraph


def _sets(item, node, count):
    """RR sets as sorted node lists, one per item."""
    return [sorted(node[item == i].tolist()) for i in range(count)]


class TestRRSets:
    def test_ic_root_always_included(self):
        g = random_instance(30, seed=0)
        rng = np.random.default_rng(0)
        sets = _sets(*rr_sets(g, "ic", np.arange(30), rng), 30)
        for root, s in zip(range(30), sets):
            assert root in s

    def test_lt_is_a_path_of_distinct_nodes(self):
        g = random_instance(30, seed=1)
        rng = np.random.default_rng(1)
        item, node = rr_sets(g, "lt", np.arange(30), rng)
        assert len(set(zip(item.tolist(), node.tolist()))) == len(item)
        edges = set(zip(g.src.tolist(), g.dst.tolist()))
        order = np.argsort(item, kind="stable")  # path order within a set
        for i in range(30):
            path = node[order][item[order] == i].tolist()
            assert path[0] == i
            assert all((b, a) in edges for a, b in zip(path, path[1:]))

    def test_ic_respects_reverse_reachability(self):
        g = running_example()
        rng = np.random.default_rng(2)
        sets = _sets(*rr_sets(g, "ic", np.full(50, 0), rng), 50)
        for s in sets:  # node 0 has no real in-edges: RR set = {0}
            assert s == [0]

    def test_ic_sets_are_reverse_reachable(self):
        g = random_instance(40, seed=3, avg_deg=3.0)
        reach = [set() for _ in range(g.n)]  # reach[v] = nodes that reach v
        for v in range(g.n):
            frontier, seen = [v], {v}
            while frontier:
                u = frontier.pop()
                for x in g.src[g.dst == u].tolist():
                    if x not in seen:
                        seen.add(x)
                        frontier.append(x)
            reach[v] = seen
        sets = _sets(*rr_sets(g, "ic", np.arange(40), np.random.default_rng(4)), 40)
        assert all(set(s) <= reach[root] for root, s in enumerate(sets))

    def test_unknown_model_raises(self):
        g = random_instance(10, seed=2)
        with pytest.raises(ValueError):
            rr_sets(g, "xx", np.array([0]), np.random.default_rng(0))

    def test_generation_counts(self):
        g = random_instance(40, seed=3)
        item, node = generate_rr_sets(g, "ic", 200, seed=0)
        assert np.array_equal(np.unique(item), np.arange(200))

    def test_generation_deterministic(self):
        g = random_instance(30, seed=4)
        for model in ("ic", "lt"):
            a = generate_rr_sets(g, model, 100, seed=5)
            b = generate_rr_sets(g, model, 100, seed=5)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestIMSeedSelection:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_selects_k_distinct(self, model):
        g = random_instance(40, seed=5)
        seeds = select_seeds_im(None, g, model, 3, theta=500, seed=1)
        assert len(seeds) == 3 and len(set(seeds)) == 3

    def test_first_seed_max_coverage(self):
        g = random_instance(40, seed=6)
        theta = 400
        item, node = generate_rr_sets(g, "ic", theta, seed=2)
        counts = np.bincount(node, minlength=g.n)
        best_cov = counts.max()
        seeds = select_seeds_im(None, g, "ic", 1, theta=theta, seed=2)
        assert counts[seeds[0]] == best_cov

    def test_eis_bounds(self):
        g = random_instance(40, seed=7)
        eis = expected_influence_spread(g, "ic", [0, 1, 2], theta=500)
        assert 0 <= eis <= g.n

    def test_eis_monotone_in_seeds(self):
        g = random_instance(40, seed=8)
        e1 = expected_influence_spread(g, "lt", [0], theta=800, seed=3)
        e2 = expected_influence_spread(g, "lt", [0, 5, 9], theta=800, seed=3)
        assert e2 >= e1


# Top-20 lists of the Spark SQL centrality seeders (DataFrame PageRank,
# groupBy out-degree, ``orderBy(desc, v)``), recorded on the five registry
# instances before those jobs were replaced by the NumPy ranking; RWR
# restarts at each instance's registry target.
GOLDEN_CENTRALITY = {
    "dblp-lite": {
        "PR": [0, 1, 2, 3, 4, 5, 11, 6, 9, 12, 8, 7, 10, 14, 13, 16, 18, 15, 22, 26],
        "RWR": [0, 1, 2, 3, 4, 5, 11, 6, 9, 12, 8, 10, 7, 14, 13, 16, 18, 15, 22, 26],
        "DC": [0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 12, 11, 10, 13, 14, 16, 18, 15, 17, 20],
    },
    "yelp-lite": {
        "PR": [0, 1, 646, 3, 5, 4, 14, 2, 6, 7, 35, 103, 18, 493, 245, 483, 174, 86, 16, 15],
        "RWR": [0, 1, 646, 3, 5, 4, 14, 2, 6, 7, 35, 103, 18, 493, 86, 483, 174, 245, 16, 15],
        "DC": [0, 1, 2, 3, 4, 6, 5, 8, 7, 9, 10, 11, 13, 15, 14, 18, 12, 17, 21, 16],
    },
    "twitter-election-lite": {
        "PR": [4, 0, 680, 2, 1519, 1, 954, 5, 3, 304, 26, 1949, 163, 931, 1402, 61, 13, 14, 8, 9],
        "RWR": [4, 0, 680, 2, 1, 1519, 954, 5, 304, 3, 26, 1949, 163, 931, 8, 1402, 9, 12, 61, 13],
        "DC": [0, 1, 2, 4, 3, 5, 9, 7, 16, 8, 12, 14, 27, 6, 11, 18, 10, 25, 28, 22],
    },
    "twitter-sd-lite": {
        "PR": [0, 1, 2, 5, 179, 3, 10, 7, 14, 16, 4, 66, 2014, 6, 297, 8, 242, 15, 1175, 385],
        "RWR": [0, 1, 2, 179, 5, 3, 7, 10, 2014, 16, 66, 14, 242, 297, 1175, 44, 385, 15, 8, 21],
        "DC": [0, 1, 2, 3, 5, 4, 7, 6, 15, 8, 11, 12, 9, 14, 10, 13, 24, 20, 17, 19],
    },
    "twitter-mask-lite": {
        "PR": [1, 0, 3, 5, 2, 4, 7, 78, 12, 27, 784, 11, 19, 6, 8, 23, 25, 9, 33, 16],
        "RWR": [1, 0, 3, 2, 5, 4, 7, 78, 12, 27, 784, 11, 23, 16, 8, 25, 9, 19, 6, 115],
        "DC": [0, 1, 2, 3, 5, 4, 7, 8, 12, 6, 9, 10, 11, 18, 19, 27, 14, 15, 13, 16],
    },
}


def _centrality(method, g, k, target):
    if method == "PR":
        return pagerank_seeds(g, k)
    if method == "RWR":
        return rwr_seeds(g, k, target)
    return degree_seeds(g, k)


class TestCentrality:
    def test_degree_seeds_match_numpy(self):
        g = random_instance(50, seed=9)
        seeds = degree_seeds(g, 5)
        deg = np.zeros(g.n)
        real = g.src != g.dst
        np.add.at(deg, g.src[real], 1)
        # The top-5 returned must all have degree ≥ the 5th largest degree.
        kth = np.sort(deg)[-5]
        assert all(deg[s] >= kth for s in seeds)

    def test_pagerank_np_is_distribution(self):
        g = random_instance(60, seed=11)
        pi = pagerank_np(g)
        assert pi.min() >= 0 and np.isclose(pi.sum(), 1.0, atol=1e-6)

    def test_pagerank_seeds_are_top(self):
        g = random_instance(40, seed=13)
        seeds = pagerank_seeds(g, 3, iters=8)
        pi = pagerank_np(g, iters=8)
        top = set(np.argsort(-pi)[:3].tolist())
        assert set(seeds) == top

    def test_rwr_restart_biases_ranking(self):
        g = random_instance(40, seed=14)
        a = rwr_seeds(g, 5, 0, iters=8)
        b = pagerank_seeds(g, 5, iters=8)
        assert len(a) == 5  # may or may not differ from PR, but must be valid
        assert len(set(a)) == 5

    def test_degree_pads_when_graph_sparse(self):
        # 3 nodes, single real edge → requesting 3 seeds pads deterministically.
        g = OpinionGraph.from_edges(
            3, np.array([0]), np.array([1]), np.array([1.0]),
            [[0.1, 0.2, 0.3]], [[0.5, 0.5, 0.5]],
        )
        seeds = degree_seeds(g, 3)
        assert len(seeds) == 3 and len(set(seeds)) == 3

    @pytest.mark.parametrize("method", ["PR", "RWR", "DC"])
    @pytest.mark.parametrize("name", list(GOLDEN_CENTRALITY))
    def test_golden_seeds(self, name, method):
        """Same top-20 lists as the replaced Spark SQL seeders."""
        g = load(name)
        got = _centrality(method, g, 20, TARGETS[name])
        assert got == GOLDEN_CENTRALITY[name][method]

    @pytest.mark.parametrize("method", ["PR", "RWR", "DC"])
    def test_equal_scores_go_to_smallest_ids(self, method):
        """A directed 6-cycle: every node has the same degree, PR and RWR
        score (uniform restart), so the order is by node id."""
        n = 6
        g = OpinionGraph.from_edges(
            n, np.arange(n), (np.arange(n) + 1) % n, np.ones(n),
            np.full((2, n), 0.5), np.full((2, n), 0.5),
        )
        assert _centrality(method, g, 4, 1) == [0, 1, 2, 3]

    @pytest.mark.parametrize("method", ["PR", "RWR", "DC"])
    def test_k_above_n_raises(self, method):
        g = random_instance(10, seed=16)
        assert len(set(_centrality(method, g, 10, 0))) == 10
        with pytest.raises(ValueError, match="exceeds"):
            _centrality(method, g, 11, 0)

    @pytest.mark.parametrize("target", [-1, 2])
    def test_rwr_target_out_of_range_raises(self, target):
        g = random_instance(10, r=2, seed=17)
        with pytest.raises(ValueError, match="outside"):
            rwr_seeds(g, 3, target)


class TestGEDT:
    def test_matches_dm_cumulative_greedy(self):
        """Paper: GED-T ≡ DM for the cumulative score."""
        g = random_instance(30, seed=15)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        dm, _ = greedy_dm(ev, 3, celf=True)
        assert ged_t_seeds(g, 0, 3, 3) == dm
