"""Centrality-based seed-selection baselines (paper §VIII-A).

* ``degree_seeds`` — Degree Centrality (DC): top-k by out-degree (the
  count of users a node directly influences; self-loops excluded).
* ``pagerank_seeds`` — PR on the *reverse* graph, so mass accumulates at
  nodes that reach many others ("more frequently reached nodes in a
  random traversal are more likely to influence other users").
* ``rwr_seeds`` — Random Walk with Restart [25]: personalized PageRank
  whose restart vector is proportional to the target candidate's initial
  opinions, biasing the ranking toward the target's support base.

All three score every node with NumPy on the driver (``pagerank_np``,
``np.bincount``) and take the top k by (−score, node id), so equal
scores go to the smallest ids.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import OpinionGraph


def _top_k(score: np.ndarray, k: int) -> list[int]:
    """The k nodes of highest ``score``, smallest id first on ties."""
    n = len(score)
    if k > n:
        raise ValueError(f"k={k} exceeds the number of nodes n={n}")
    return np.lexsort((np.arange(n), -score))[:k].tolist()


def degree_seeds(graph: OpinionGraph, k: int) -> list[int]:
    """Top-k out-degree nodes."""
    real = graph.src != graph.dst
    return _top_k(np.bincount(graph.src[real], minlength=graph.n), k)


def pagerank_np(
    graph: OpinionGraph,
    *,
    damping: float = 0.85,
    iters: int = 20,
    restart: np.ndarray | None = None,
) -> np.ndarray:
    """PR/RWR power iteration on the reverse graph.

    π ← c·πP + (1−c)·restart, where P moves mass from each node uniformly
    to its in-neighbors (self-loops excluded) and dangling mass restarts.
    """
    n = graph.n
    real = graph.src != graph.dst
    src, dst = graph.dst[real], graph.src[real]
    w = 1.0 / np.bincount(src, minlength=n)[src]
    r = np.full(n, 1.0 / n) if restart is None else restart / restart.sum()
    pi = r.copy()
    has_out = np.zeros(n, dtype=bool)
    has_out[src] = True
    for _ in range(iters):
        out = np.zeros(n)
        np.add.at(out, dst, pi[src] * w)
        dangling = pi[~has_out].sum()
        pi = damping * (out + dangling * r) + (1.0 - damping) * r
    return pi


def pagerank_seeds(
    graph: OpinionGraph,
    k: int,
    *,
    damping: float = 0.85,
    iters: int = 20,
) -> list[int]:
    """Top-k PageRank (reverse-graph) nodes."""
    return _top_k(pagerank_np(graph, damping=damping, iters=iters), k)


def rwr_seeds(
    graph: OpinionGraph,
    k: int,
    target: int,
    *,
    damping: float = 0.85,
    iters: int = 20,
) -> list[int]:
    """Top-k Random-Walk-with-Restart nodes (restart ∝ target's b0)."""
    graph.check_candidate(target)
    restart = graph.b0[target] + 1e-9
    return _top_k(pagerank_np(graph, damping=damping, iters=iters, restart=restart), k)
