"""Unit tests for the OpinionGraph substrate (repro.graphs.graph)."""
import numpy as np
import pytest

from repro.graphs.generators import random_instance, running_example
from repro.graphs.graph import OpinionGraph, spmv_dst


def _tiny(b0=None, d=None):
    src = [0, 1, 2]
    dst = [2, 2, 3]
    w = [2.0, 2.0, 5.0]
    b0 = b0 if b0 is not None else [[0.1, 0.2, 0.3, 0.4]]
    d = d if d is not None else [[0.0, 0.0, 0.5, 1.0]]
    return OpinionGraph.from_edges(4, np.array(src), np.array(dst), np.array(w), b0, d)


class TestConstruction:
    def test_column_stochastic_after_normalization(self):
        g = _tiny()
        g.validate()

    def test_in_degree_zero_nodes_get_self_loops(self):
        g = _tiny()
        loops = set(zip(g.src[g.src == g.dst].tolist(), g.dst[g.src == g.dst].tolist()))
        assert (0, 0) in loops and (1, 1) in loops

    def test_raw_weights_rescaled_per_destination(self):
        g = _tiny()
        mask = g.dst == 2
        assert np.allclose(np.sort(g.w[mask]), [0.5, 0.5])

    def test_zero_weight_edges_dropped(self):
        g = OpinionGraph.from_edges(
            3, np.array([0, 1]), np.array([2, 2]), np.array([1.0, 0.0]),
            [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
        )
        assert not ((g.src == 1) & (g.dst == 2)).any()

    def test_edges_sorted_by_dst(self):
        g = random_instance(50, seed=3)
        assert (np.diff(g.dst) >= 0).all()

    @pytest.mark.parametrize("bad_b0", [[[1.5, 0, 0, 0]], [[-0.1, 0, 0, 0]]])
    def test_rejects_out_of_range_opinions(self, bad_b0):
        with pytest.raises(ValueError):
            _tiny(b0=bad_b0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            OpinionGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([-1.0]),
                [[0.0, 0.0]], [[0.0, 0.0]],
            )

    def test_rejects_out_of_range_node_ids(self):
        with pytest.raises(ValueError):
            OpinionGraph.from_edges(
                2, np.array([0]), np.array([5]), np.array([1.0]),
                [[0.0, 0.0]], [[0.0, 0.0]],
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            OpinionGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([1.0]),
                [[0.0, 0.0]], [[0.0, 0.0, 0.0]],
            )

    def test_candidate_names_default_and_custom(self):
        g = _tiny()
        assert g.candidates == ["c1"]
        e = running_example()
        assert e.candidates == ["c1", "c2"]

    @pytest.mark.parametrize("n,seed", [(20, 0), (57, 1), (123, 2), (200, 3)])
    def test_random_instances_validate(self, n, seed):
        random_instance(n, seed=seed).validate()


class TestSeeds:
    def test_with_seeds_sets_opinion_and_stubbornness(self):
        g = running_example()
        g2 = g.with_seeds(0, [2])
        assert g2.b0[0, 2] == 1.0 and g2.d[0, 2] == 1.0

    def test_with_seeds_does_not_touch_other_candidate(self):
        g = running_example()
        g2 = g.with_seeds(0, [2])
        assert np.array_equal(g2.b0[1], g.b0[1])
        assert np.array_equal(g2.d[1], g.d[1])

    def test_with_seeds_is_pure(self):
        g = running_example()
        b0_before = g.b0.copy()
        g.with_seeds(0, [0, 1, 2])
        assert np.array_equal(g.b0, b0_before)

    def test_empty_seed_set_is_identity(self):
        g = running_example()
        g2 = g.with_seeds(0, [])
        assert np.array_equal(g2.b0, g.b0) and np.array_equal(g2.d, g.d)

    @pytest.mark.parametrize("cand", [-1, 2])
    def test_candidate_out_of_range_raises(self, cand):
        with pytest.raises(ValueError, match="outside"):
            running_example().with_seeds(cand, [0])


class TestSpmv:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_matvec(self, seed):
        g = random_instance(40, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.random(g.n)
        W = np.zeros((g.n, g.n))
        W[g.src, g.dst] += g.w
        assert np.allclose(spmv_dst(g, x), x @ W)

    def test_matrix_batch_matches_per_row(self):
        g = random_instance(30, seed=9)
        rng = np.random.default_rng(0)
        X = rng.random((4, g.n))
        batched = spmv_dst(g, X)
        for i in range(4):
            assert np.allclose(batched[i], spmv_dst(g, X[i]))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_bit_identical_to_add_at(self, seed, shape):
        g = random_instance(80, seed=seed, avg_deg=4.0)
        x = np.random.default_rng(seed).random(shape + (g.n,))
        contrib = x[..., g.src] * g.w
        y = np.zeros(shape + (g.n,))
        np.add.at(y.swapaxes(-1, 0), g.dst, contrib.swapaxes(-1, 0))
        assert np.array_equal(spmv_dst(g, x), y)

    def test_stochasticity_preserves_ones(self):
        g = random_instance(25, seed=4)
        assert np.allclose(spmv_dst(g, np.ones(g.n)), 1.0)


def _star(weights):
    """Node 0 with in-edges of the given weights from nodes 1..len(weights),
    stored as given (no renormalisation)."""
    k = len(weights)
    src = np.r_[np.arange(1, k + 1), np.arange(1, k + 1)].astype(np.int32)
    dst = np.r_[np.zeros(k), np.arange(1, k + 1)].astype(np.int32)
    w = np.r_[weights, np.ones(k)]
    z = np.zeros((1, k + 1))
    return OpinionGraph(k + 1, src, dst, w, z, z)


class TestInverseCDF:
    @pytest.mark.parametrize("probs", [[1.0], [0.5, 0.5], [0.9, 0.1], [0.2, 0.3, 0.5]])
    def test_row_distribution(self, probs):
        """Degree-1, equal and skewed rows draw with frequencies ≈ weights."""
        g = _star(probs)
        draws = g.sample_in(np.zeros(200_000, dtype=np.int64), np.random.default_rng(1))
        freq = np.bincount(draws, minlength=g.n)[1:] / 200_000
        assert np.allclose(freq, probs, atol=0.01)

    def test_sampling_matches_weights(self):
        g = running_example()
        draws = g.sample_in(np.full(100_000, 2), np.random.default_rng(2))
        freq = np.bincount(draws, minlength=4) / 100_000
        assert np.allclose(freq[[0, 1]], [0.5, 0.5], atol=0.01)

    def test_row_rounding_below_one_stays_in_row(self):
        """Ten weights of 0.1 sum to 0.9999999999999999: a draw above the
        row's last cumulative weight must still land in the row."""
        weights = [0.1] * 10
        assert np.cumsum(weights)[-1] < 1.0
        g = _star(weights)
        nodes = np.r_[np.zeros(100_000), np.arange(1, 11)].astype(np.int64)
        draws = g.sample_in(nodes, np.random.default_rng(3))
        assert (draws[:100_000] >= 1).all()
        assert draws[100_000:].tolist() == list(range(1, 11))  # self-loops
        freq = np.bincount(draws[:100_000], minlength=11)[1:] / 100_000
        assert np.allclose(freq, 0.1, atol=0.01)

        class TopDraw:  # the largest double in [0, 1), for every draw
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        assert g.sample_in(np.arange(11), TopDraw()).tolist() == [10, *range(1, 11)]

    def test_draws_stay_in_segment_on_random_graphs(self):
        g = random_instance(300, seed=6, avg_deg=4.0)
        nodes = np.repeat(np.arange(g.n), 50)
        draws = g.sample_in(nodes, np.random.default_rng(4))
        edges = set(zip(g.src.tolist(), g.dst.tolist()))
        assert all((u, v) in edges for u, v in zip(draws.tolist(), nodes.tolist()))


class TestAdjacencyAndExport:
    def test_out_adjacency_excludes_self_loops(self):
        g = running_example()
        indptr, indices = g.out_adjacency()
        assert indptr[-1] == 3  # only the 3 real edges

    def test_out_adjacency_neighbors(self):
        g = running_example()
        indptr, indices = g.out_adjacency()
        assert list(indices[indptr[0] : indptr[1]]) == [2]
        assert list(indices[indptr[2] : indptr[3]]) == [3]
