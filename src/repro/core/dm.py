"""Exact greedy seed selection via direct opinion computation ("DM").

Paper Alg. 1 + §III-C: each greedy round scores every candidate seed by
recomputing exact opinions at the horizon (t FJ steps) with the candidate
added to the current seed set, and picks the max marginal gain.  CELF [49]
is layered on top for the (submodular) cumulative score.

Evaluation runs on the driver, as the paper's single-core DM does: each
block of ``EVAL_BLOCK`` candidate seeds is one *batched* FJ iteration — a
dense ``(block × n)`` opinion matrix advanced jointly, with each row's own
seed column pinned to 1 — followed by the voting score of every row
against the non-target candidates' exact horizon opinions (see DESIGN.md
§2).
"""
from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.graphs.graph import OpinionGraph, spmv_dst
from repro.opinion.fj import fj_diffuse_np
from repro.voting.scores import rank_contrib_np, score_np

# Below this node count the batched FJ iteration uses a dense W (BLAS);
# above it, ``spmv_dst`` over the dst-sorted sparse COO arrays.
DENSE_N_THRESHOLD = 1500

# Candidates per ``batch_scores_np`` call: bounds the (block × n) opinion
# matrix that one evaluation advances through the t FJ steps.
EVAL_BLOCK = 512


def batch_scores_np(
    graph: OpinionGraph,
    target: int,
    seeds: Sequence[int],
    cand_seeds: np.ndarray,
    t: int,
    score: str,
    *,
    others: np.ndarray | None = None,
    p: int = 1,
    omega: np.ndarray | None = None,
    user_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Exact ``F(S ∪ {v})`` for every v in ``cand_seeds`` (vectorized).

    ``others`` is the (r-1, n) matrix of non-target candidates' exact
    opinions at the horizon (they have no seeds, so it is constant across
    the greedy run).  ``user_mask`` restricts the cumulative sum to a user
    subset (used by the sandwich LB, Def. 3).
    """
    g = graph.with_seeds(target, seeds)
    b0, d = g.b0[target], g.d[target]
    nb = len(cand_seeds)
    rows = np.arange(nb)
    M = np.tile(b0, (nb, 1))
    M[rows, cand_seeds] = 1.0
    # Two aggregation kernels for M·W: dense BLAS for small n (the lite
    # scale), one bincount per row over the dst-sorted COO otherwise.
    W = graph.dense_w() if graph.n <= DENSE_N_THRESHOLD else None
    for _ in range(t):
        agg = M @ W if W is not None else spmv_dst(graph, M)
        M = (1.0 - d) * agg + d * b0
        M[rows, cand_seeds] = 1.0  # seed row: d=1, b0=1 ⇒ stays 1
    if score == "cumulative":
        if user_mask is not None:
            return M[:, user_mask].sum(axis=1)
        return M.sum(axis=1)
    assert others is not None, "rank-based scores need the others matrix"
    if score in ("plurality", "p_approval", "positional_p_approval"):
        # β per (candidate-row, user), vectorized over the (small) number
        # of non-target candidates; each others row broadcasts over M.
        return rank_contrib_np(M, others, score, p=p, omega=omega).sum(axis=1)
    # Copeland: per opponent, compare win/loss counts across users.
    wins = np.zeros(nb)
    for o in others:
        above = (M > o[None, :]).sum(axis=1)
        below = (M < o[None, :]).sum(axis=1)
        wins += (above > below).astype(np.float64)
    return wins


def others_at_horizon(graph: OpinionGraph, target: int, t: int) -> np.ndarray:
    """Exact horizon opinions of all non-target candidates (no seeds).

    Only the r − 1 non-target rows are diffused.
    """
    keep = np.delete(np.arange(graph.r), target)
    rows = OpinionGraph(graph.n, graph.src, graph.dst, graph.w, graph.b0[keep], graph.d[keep])
    return fj_diffuse_np(rows, t)


class ExactEvaluator:
    """Batched exact F(S ∪ {v}) evaluation on the driver.

    ``__call__(seeds, cand_seeds)`` returns a NumPy array of scores
    aligned with ``cand_seeds``, computed by ``batch_scores_np`` over
    blocks of ``EVAL_BLOCK`` candidates.  ``spark`` is not used; it stays
    first in the signature for callers that pass a session to every
    selector.
    """

    def __init__(
        self,
        spark,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        *,
        p: int = 1,
        omega: np.ndarray | None = None,
        user_mask: np.ndarray | None = None,
    ):
        graph.check_candidate(target)
        self.graph = graph
        self.target = target
        self.t = t
        self.score = score
        self.p = p
        self.omega = omega
        self.user_mask = user_mask
        self.others = (
            None if score == "cumulative" else others_at_horizon(graph, target, t)
        )

    def __call__(self, seeds: Sequence[int], cand_seeds: Sequence[int]) -> np.ndarray:
        cand_seeds = np.asarray(cand_seeds, dtype=np.int64)
        out = np.empty(len(cand_seeds))
        for lo in range(0, len(cand_seeds), EVAL_BLOCK):
            out[lo : lo + EVAL_BLOCK] = batch_scores_np(
                self.graph,
                self.target,
                seeds,
                cand_seeds[lo : lo + EVAL_BLOCK],
                self.t,
                self.score,
                others=self.others,
                p=self.p,
                omega=self.omega,
                user_mask=self.user_mask,
            )
        return out

    def score_of(self, seeds: Sequence[int]) -> float:
        """Exact F(S) (no extra candidate)."""
        g = self.graph.with_seeds(self.target, seeds)
        bq = fj_diffuse_np(g, self.t, cand=self.target)
        if self.score == "cumulative":
            if self.user_mask is not None:
                return float(bq[self.user_mask].sum())
            return float(bq.sum())
        stacked = np.vstack([bq[None, :], self.others])
        return score_np(stacked, 0, self.score, p=self.p, omega=self.omega)


def greedy_dm(
    evaluator: ExactEvaluator,
    k: int,
    *,
    celf: bool = True,
    init: list[int] | None = None,
) -> tuple[list[int], list[float]]:
    """Alg. 1 (greedy) with optional CELF lazy evaluation.

    Returns (seed list in selection order, exact F after each pick).
    CELF is valid for the submodular cumulative score; for the
    non-submodular scores pass ``celf=False`` (plain greedy), matching the
    paper's use of CELF for cumulative only.  ``init`` resumes a plain
    greedy run from an already-selected prefix (greedy is incremental).
    """
    n = evaluator.graph.n
    seeds: list[int] = [int(s) for s in init or []]
    if k > n:
        raise ValueError(f"k={k} exceeds the number of nodes n={n}")
    if any(not 0 <= s < n for s in seeds):
        raise ValueError(f"init seeds {seeds} must lie in [0, n={n})")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"init seeds {seeds} contain duplicates")
    trace: list[float] = []
    base = evaluator.score_of(seeds)

    if not celf:
        for _ in range(len(seeds), k):
            cands = np.setdiff1d(np.arange(n), seeds)
            vals = evaluator(seeds, cands)
            best = int(cands[np.argmax(vals)])
            seeds.append(best)
            base = float(np.max(vals))
            trace.append(base)
        return seeds, trace

    if seeds:
        raise ValueError("init resume is only supported with celf=False")
    # CELF: heap of (-gain, node, round_computed)
    vals = evaluator(seeds, np.arange(n))
    heap = [(-(v - base), c, 0) for c, v in enumerate(vals)]
    heapq.heapify(heap)
    for rnd in range(1, k + 1):
        while True:
            negg, node, computed = heapq.heappop(heap)
            if computed == rnd:
                seeds.append(node)
                base += -negg
                trace.append(base)
                break
            # Re-evaluate lazily, in a small batch with the next stalest.
            stale = [(negg, node)]
            while heap and len(stale) < 32 and heap[0][2] != rnd:
                ng, nd, _ = heapq.heappop(heap)
                stale.append((ng, nd))
            nodes = np.array([nd for _, nd in stale])
            new_vals = evaluator(seeds, nodes)
            for nv, nd in zip(new_vals, nodes):
                heapq.heappush(heap, (-(float(nv) - base), int(nd), rnd))
    return seeds, trace
