"""Tests for the five voting scores — NumPy semantics, brute-force loops
and the exact reproduction of paper Table I."""
import numpy as np
import pytest

from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np
from repro.voting.scores import (
    copeland_np,
    cumulative_np,
    p_approval_np,
    plurality_np,
    positional_p_approval_np,
    rank_contrib_np,
    rank_np,
    score_np,
    winner_np,
)

# ------------------------------------------------------------------ #
# Table I — exact reproduction
# ------------------------------------------------------------------ #
TABLE1 = {
    (): ([0.40, 0.80, 0.60, 0.75], 2.55, 2, 0),
    (0,): ([1.00, 0.80, 0.75, 0.75], 3.30, 2, 0),
    (1,): ([0.40, 1.00, 0.65, 0.75], 2.80, 2, 0),
    (2,): ([0.40, 0.80, 1.00, 0.95], 3.15, 4, 1),
    (3,): ([0.40, 0.80, 0.60, 1.00], 2.80, 3, 1),
    (0, 1): ([1.00, 1.00, 0.80, 0.75], 3.55, 3, 1),
}


@pytest.mark.parametrize("seed_set", list(TABLE1))
class TestTable1:
    def test_opinions(self, seed_set):
        g = running_example()
        b = opinions_at_horizon_np(g, 1, 0, seed_set)
        assert np.allclose(np.round(b[0], 2), TABLE1[seed_set][0])

    def test_cumulative(self, seed_set):
        b = opinions_at_horizon_np(running_example(), 1, 0, seed_set)
        assert np.isclose(cumulative_np(b, 0), TABLE1[seed_set][1])

    def test_plurality(self, seed_set):
        b = opinions_at_horizon_np(running_example(), 1, 0, seed_set)
        assert plurality_np(b, 0) == TABLE1[seed_set][2]

    def test_copeland(self, seed_set):
        b = opinions_at_horizon_np(running_example(), 1, 0, seed_set)
        assert copeland_np(b, 0) == TABLE1[seed_set][3]


def test_table1_competitor_opinions_at_t1():
    """Paper caption: c2 opinions at t=1 are 0.35, 0.75, ~0.78, 0.90."""
    b = fj_diffuse_np(running_example(), 1)
    assert np.allclose(np.round(b[1], 2), [0.35, 0.75, 0.78, 0.90], atol=0.005)


# ------------------------------------------------------------------ #
# NumPy semantics
# ------------------------------------------------------------------ #
class TestNumpyScores:
    def test_rank_counts_ties_as_at_least(self):
        b = np.array([[0.5, 0.3], [0.5, 0.6], [0.2, 0.1]])
        # User 0: b_q=0.5 tied with candidate 1 → β = 2.
        assert rank_np(b, 0).tolist() == [2, 2]

    def test_plurality_requires_strict_top(self):
        b = np.array([[0.5], [0.5]])
        assert plurality_np(b, 0) == 0  # tie is not a win (β = 2 > 1)

    def test_p_approval_generalizes_plurality(self):
        g = random_instance(50, r=4, seed=0)
        b = fj_diffuse_np(g, 3)
        assert plurality_np(b, 1) == p_approval_np(b, 1, 1)

    def test_p_approval_monotone_in_p(self):
        g = random_instance(50, r=4, seed=1)
        b = fj_diffuse_np(g, 3)
        vals = [p_approval_np(b, 0, p) for p in range(1, 5)]
        assert vals == sorted(vals)

    def test_p_approval_at_r_counts_everyone(self):
        g = random_instance(50, r=3, seed=2)
        b = fj_diffuse_np(g, 2)
        assert p_approval_np(b, 0, 3) == g.n

    def test_positional_weights_reduce_score(self):
        g = random_instance(50, r=3, seed=3)
        b = fj_diffuse_np(g, 2)
        full = p_approval_np(b, 0, 2)
        weighted = positional_p_approval_np(b, 0, 2, np.array([1.0, 0.5, 0.0]))
        assert weighted <= full

    @pytest.mark.parametrize(
        "score", ["plurality", "p_approval", "positional_p_approval"]
    )
    @pytest.mark.parametrize("q", [0, 2])
    def test_rank_contrib_sums_to_score(self, score, q):
        """Per-voter contributions (shared by DM and RW/RS) sum to F."""
        g = random_instance(60, r=4, seed=5)
        b = fj_diffuse_np(g, 2)
        b[:, :5] = 0.5  # ties count against the target
        omega = np.array([1.0, 0.5, 0.25, 0.0])
        contrib = rank_contrib_np(b[q], np.delete(b, q, axis=0), score, p=2, omega=omega)
        assert np.isclose(contrib.sum(), score_np(b, q, score, p=2, omega=omega))

    def test_positional_omega_zero_tail_equals_lower_p(self):
        g = random_instance(60, r=3, seed=4)
        b = fj_diffuse_np(g, 2)
        # ω = [1, 0, ...] with p=2 ≡ 1-approval (paper §VIII-C: ω[p]=0).
        assert positional_p_approval_np(
            b, 0, 2, np.array([1.0, 0.0, 0.0])
        ) == p_approval_np(b, 0, 1)

    def test_copeland_bounded_by_r_minus_1(self):
        g = random_instance(50, r=5, seed=5)
        b = fj_diffuse_np(g, 2)
        for q in range(5):
            assert 0 <= copeland_np(b, q) <= 4

    def test_copeland_condorcet_winner(self):
        b = np.array([[0.9, 0.9, 0.9], [0.1, 0.5, 0.2], [0.2, 0.1, 0.3]])
        assert copeland_np(b, 0) == 2  # beats everyone → Condorcet winner

    def test_copeland_strict_majority_needed(self):
        # 1 user above, 1 below → no win (Eq. 7 uses strict >).
        b = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert copeland_np(b, 0) == 0

    def test_cumulative_is_row_sum(self):
        g = random_instance(40, seed=6)
        b = fj_diffuse_np(g, 2)
        assert np.isclose(cumulative_np(b, 1), b[1].sum())

    def test_winner_np_picks_max(self):
        b = np.array([[0.9, 0.9], [0.1, 0.2]])
        assert winner_np(b, "plurality") == 0
        assert winner_np(b, "cumulative") == 0

    def test_score_np_dispatch_unknown(self):
        with pytest.raises(ValueError):
            score_np(np.zeros((2, 3)), 0, "borda")

    @pytest.mark.parametrize(
        "score",
        ["cumulative", "plurality", "p_approval", "positional_p_approval", "copeland"],
    )
    def test_brute_force_equivalence(self, score):
        """Score semantics vs a direct per-user loop."""
        g = random_instance(30, r=3, seed=7)
        b = fj_diffuse_np(g, 2)
        q, p = 0, 2
        omega = np.array([1.0, 0.4, 0.0])
        if score == "cumulative":
            exp = sum(b[q, v] for v in range(g.n))
        elif score in ("plurality", "p_approval", "positional_p_approval"):
            pp = 1 if score == "plurality" else p
            om = omega if score == "positional_p_approval" else np.ones(g.r)
            exp = 0.0
            for v in range(g.n):
                beta = sum(b[x, v] >= b[q, v] for x in range(g.r))
                exp += om[beta - 1] if beta <= pp else 0.0
        else:
            exp = sum(
                1
                for x in range(g.r)
                if x != q
                and sum(b[q, v] > b[x, v] for v in range(g.n))
                > sum(b[q, v] < b[x, v] for v in range(g.n))
            )
        assert np.isclose(score_np(b, q, score, p=p, omega=omega), exp)
