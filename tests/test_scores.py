"""Tests for the five voting scores — NumPy, Spark SQL, DuckDB oracle,
and the exact reproduction of paper Table I."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np
from repro.oracle import assert_equivalent
from repro.voting.scores import (
    copeland_np,
    cumulative_np,
    p_approval_np,
    plurality_np,
    positional_p_approval_np,
    rank_contrib_np,
    rank_np,
    score_df,
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
        "score", ["cumulative", "plurality", "p_approval", "copeland"]
    )
    def test_brute_force_equivalence(self, score):
        """Score semantics vs a direct per-user loop."""
        g = random_instance(30, r=3, seed=7)
        b = fj_diffuse_np(g, 2)
        q, p = 0, 2
        if score == "cumulative":
            exp = sum(b[q, v] for v in range(g.n))
        elif score in ("plurality", "p_approval"):
            pp = 1 if score == "plurality" else p
            exp = sum(
                1
                for v in range(g.n)
                if sum(b[x, v] >= b[q, v] for x in range(g.r)) <= pp
            )
        else:
            exp = sum(
                1
                for x in range(g.r)
                if x != q
                and sum(b[q, v] > b[x, v] for v in range(g.n))
                > sum(b[q, v] < b[x, v] for v in range(g.n))
            )
        assert np.isclose(score_np(b, q, score, p=p), exp)


# ------------------------------------------------------------------ #
# Spark SQL vs NumPy and vs the DuckDB oracle
# ------------------------------------------------------------------ #
def _opinions_df(spark, g, t):
    b = fj_diffuse_np(g, t)
    pdf = pd.concat(
        [
            pd.DataFrame(
                {"node": np.arange(g.n, dtype="int64"), "cand": np.int32(q), "b": b[q]}
            )
            for q in range(g.r)
        ],
        ignore_index=True,
    )
    return spark.createDataFrame(pdf), pdf, b


@pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
def test_score_df_matches_numpy(spark, score):
    g = random_instance(60, r=3, seed=8)
    df, _, b = _opinions_df(spark, g, 3)
    assert np.isclose(score_df(df, 1, score), score_np(b, 1, score))


def test_p_approval_df_matches_numpy(spark):
    g = random_instance(60, r=4, seed=9)
    df, _, b = _opinions_df(spark, g, 2)
    assert np.isclose(score_df(df, 0, "p_approval", p=2), p_approval_np(b, 0, 2))


def test_positional_df_matches_numpy(spark):
    g = random_instance(60, r=3, seed=10)
    df, _, b = _opinions_df(spark, g, 2)
    om = [1.0, 0.4, 0.0]
    assert np.isclose(
        score_df(df, 0, "positional_p_approval", p=2, omega=om),
        positional_p_approval_np(b, 0, 2, np.array(om)),
    )


def test_cumulative_oracle(spark):
    g = random_instance(50, r=2, seed=11)
    df, pdf, _ = _opinions_df(spark, g, 2)
    from pyspark.sql import functions as F

    agg = df.where(F.col("cand") == 0).agg(F.sum("b").alias("s"))
    assert_equivalent(agg, "SELECT SUM(b) AS s FROM ops WHERE cand = 0", ops=pdf)


def test_rank_aggregate_oracle(spark):
    """The β-rank self-aggregate (basis of the plurality variants)."""
    from repro.voting.scores import ranks_df

    g = random_instance(40, r=3, seed=12)
    df, pdf, _ = _opinions_df(spark, g, 2)
    got = ranks_df(df).select("node", "cand", "beta")
    sql = """
        SELECT o.node AS node, o.cand AS cand,
               SUM(CASE WHEN x.b >= o.b THEN 1 ELSE 0 END) AS beta
        FROM ops o JOIN ops x ON o.node = x.node
        GROUP BY o.node, o.cand
    """
    assert_equivalent(got, sql, ops=pdf)


def test_copeland_duel_oracle(spark):
    from pyspark.sql import functions as F

    g = random_instance(40, r=4, seed=13)
    df, pdf, _ = _opinions_df(spark, g, 2)
    q = 0
    mine = df.where(F.col("cand") == q).select("node", F.col("b").alias("b_q"))
    duel = (
        df.where(F.col("cand") != q)
        .join(mine, on="node")
        .groupBy("cand")
        .agg(
            F.sum(F.when(F.col("b_q") > F.col("b"), 1).otherwise(0)).alias("above"),
            F.sum(F.when(F.col("b_q") < F.col("b"), 1).otherwise(0)).alias("below"),
        )
    )
    sql = """
        SELECT x.cand AS cand,
               SUM(CASE WHEN q.b > x.b THEN 1 ELSE 0 END) AS above,
               SUM(CASE WHEN q.b < x.b THEN 1 ELSE 0 END) AS below
        FROM ops x JOIN (SELECT node, b FROM ops WHERE cand = 0) q
          ON x.node = q.node
        WHERE x.cand <> 0
        GROUP BY x.cand
    """
    assert_equivalent(duel, sql, ops=pdf)
