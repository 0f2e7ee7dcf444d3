"""Tests for FJ/DeGroot diffusion (the NumPy kernel)."""
import numpy as np
import pytest

from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np


class TestNumpyReference:
    def test_t0_is_initial(self):
        g = running_example()
        assert np.array_equal(fj_diffuse_np(g, 0), g.b0)

    def test_example1_user3_recurrence(self):
        # b3^(1) = ½[b3^(0) + ½(b1^(0)+b2^(0))] per Example 1.
        g = running_example()
        b1 = fj_diffuse_np(g, 1)
        for q in range(2):
            expected = 0.5 * (g.b0[q, 2] + 0.5 * (g.b0[q, 0] + g.b0[q, 1]))
            assert np.isclose(b1[q, 2], expected)

    def test_example1_user4_recurrence(self):
        g = running_example()
        b1 = fj_diffuse_np(g, 1)
        b2 = fj_diffuse_np(g, 2)
        for q in range(2):
            # FJ: b4^(2) = ½·b3^(1) + ½·b4^(0) (stubbornness anchors to b0).
            assert np.isclose(b2[q, 3], 0.5 * b1[q, 2] + 0.5 * g.b0[q, 3])

    def test_no_in_neighbor_users_retain_initial(self):
        g = running_example()
        b = fj_diffuse_np(g, 7)
        assert np.allclose(b[:, [0, 1]], g.b0[:, [0, 1]])

    @pytest.mark.parametrize("t", [1, 3, 10])
    def test_opinions_stay_in_unit_interval(self, t):
        g = random_instance(60, r=3, seed=2)
        b = fj_diffuse_np(g, t)
        assert (b >= -1e-12).all() and (b <= 1 + 1e-12).all()

    def test_fully_stubborn_never_move(self):
        g = random_instance(40, seed=1)
        g.d[:] = 1.0
        assert np.allclose(fj_diffuse_np(g, 5), g.b0)

    def test_degroot_special_case_averages(self):
        # d == 0: a uniform opinion vector is a fixed point.
        g = random_instance(40, seed=3)
        g.d[:] = 0.0
        g.b0[:] = 0.7
        assert np.allclose(fj_diffuse_np(g, 6), 0.7)

    def test_single_candidate_slice_matches(self):
        g = random_instance(50, r=3, seed=4)
        full = fj_diffuse_np(g, 4)
        for q in range(3):
            assert np.allclose(fj_diffuse_np(g, 4, cand=q), full[q])

    def test_seed_pins_opinion_to_one(self):
        g = random_instance(50, seed=5)
        b = opinions_at_horizon_np(g, 6, 0, [7, 13])
        assert np.allclose(b[0, [7, 13]], 1.0)

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_monotone_in_seeds(self, t):
        g = random_instance(60, seed=6)
        base = opinions_at_horizon_np(g, t, 0, [])[0]
        seeded = opinions_at_horizon_np(g, t, 0, [0, 5, 9])[0]
        assert (seeded >= base - 1e-12).all()

    def test_b_init_override(self):
        g = random_instance(30, seed=7)
        ones = np.ones((g.r, g.n))
        b = fj_diffuse_np(g, 3, b_init=ones)
        # Aggregation of 1s is 1; stubbornness mixes back toward b0 ≤ 1.
        assert (b <= 1 + 1e-12).all() and (b >= g.b0.min() - 1e-12).all()

    @pytest.mark.parametrize("n,r,t,seed", [(40, 2, 1, 0), (40, 2, 3, 1), (80, 3, 4, 2)])
    def test_matches_dense_matrix_recurrence(self, n, r, t, seed):
        """Eq. 2 written with the dense W: b ← (1 − d)·(b W) + d·b0."""
        g = random_instance(n, r=r, seed=seed)
        W = g.dense_w()
        b = g.b0.copy()
        for _ in range(t):
            b = (1.0 - g.d) * (b @ W) + g.d * g.b0
        assert np.allclose(fj_diffuse_np(g, t), b)
