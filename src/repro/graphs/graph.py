"""Opinion-graph substrate (paper §II).

``OpinionGraph`` is the canonical in-memory representation of one problem
instance: a directed graph with a column-stochastic influence matrix ``W``
(``w[i, j]`` = influence of user *i* on user *j*; incoming weights of every
node sum to 1), an initial-opinion matrix ``b0 ∈ [0,1]^{r×n}`` and a
stubbornness matrix ``d ∈ [0,1]^{r×n}`` — one row per candidate.

Storage is NumPy (edges as COO sorted by ``dst``) so that instances are
deterministic, cheap to broadcast to the Spark executors of the exact
evaluator, and read directly by every NumPy kernel (FJ steps, samplers,
reachable sets, centrality).

Normalization convention: the paper states that users without in-neighbors
retain their initial opinions (DeGroot); we realize this with an implicit
self-loop of weight 1 on every in-degree-0 node, which makes ``W`` truly
column-stochastic and lets every kernel treat all nodes uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class OpinionGraph:
    """One FJ-Vote problem instance (graph + opinions + stubbornness)."""

    n: int
    src: np.ndarray  # (m,) int32 — edge sources, sorted by dst
    dst: np.ndarray  # (m,) int32 — edge destinations (sorted)
    w: np.ndarray  # (m,) float64 — column-stochastic: sum of w per dst == 1
    b0: np.ndarray  # (r, n) float64 in [0,1] — initial opinions per candidate
    d: np.ndarray  # (r, n) float64 in [0,1] — stubbornness per candidate
    candidates: list[str] = field(default_factory=list)
    _in_cdf: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Construction & validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_edges(
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        b0: np.ndarray,
        d: np.ndarray,
        candidates: list[str] | None = None,
    ) -> "OpinionGraph":
        """Build an instance, normalizing ``weight`` to be column-stochastic.

        Raw non-negative weights are accepted; per-destination they are
        rescaled to sum to 1.  In-degree-0 nodes get a weight-1 self-loop
        (paper: such users retain their initial opinions).
        """
        src = np.asarray(src, dtype=np.int32)
        dst = np.asarray(dst, dtype=np.int32)
        weight = np.asarray(weight, dtype=np.float64)
        if (weight < 0).any():
            raise ValueError("edge weights must be non-negative")
        if len(src) and (max(src.max(), dst.max()) >= n or min(src.min(), dst.min()) < 0):
            raise ValueError("node ids out of range")
        # Drop zero-weight edges (paper: E is the union of non-zero edges).
        keep = weight > 0
        src, dst, weight = src[keep], dst[keep], weight[keep]
        in_sum = np.zeros(n)
        np.add.at(in_sum, dst, weight)
        orphans = np.flatnonzero(in_sum == 0)
        if len(orphans):
            src = np.concatenate([src, orphans.astype(np.int32)])
            dst = np.concatenate([dst, orphans.astype(np.int32)])
            weight = np.concatenate([weight, np.ones(len(orphans))])
            in_sum[orphans] = 1.0
        weight = weight / in_sum[dst]
        order = np.lexsort((src, dst))
        b0 = np.atleast_2d(np.asarray(b0, dtype=np.float64))
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        if b0.shape != d.shape or b0.shape[1] != n:
            raise ValueError(f"b0/d shape mismatch: {b0.shape} vs {d.shape}, n={n}")
        if ((b0 < 0) | (b0 > 1)).any() or ((d < 0) | (d > 1)).any():
            raise ValueError("b0 and d entries must lie in [0, 1]")
        cands = candidates or [f"c{i+1}" for i in range(b0.shape[0])]
        if len(cands) != b0.shape[0]:
            raise ValueError("candidate count must match b0 rows")
        return OpinionGraph(
            n=n,
            src=src[order],
            dst=dst[order],
            w=weight[order],
            b0=b0,
            d=d,
            candidates=list(cands),
        )

    @property
    def r(self) -> int:
        """Number of candidates."""
        return self.b0.shape[0]

    @property
    def m(self) -> int:
        """Number of (normalized) edges, self-loops included."""
        return len(self.src)

    def check_candidate(self, cand: int) -> None:
        """Raise ``ValueError`` unless ``cand`` indexes a candidate row.

        Guards against NumPy's negative-index wrap: ``b0[-1]`` would
        silently select the last candidate.
        """
        if not 0 <= cand < self.r:
            raise ValueError(f"candidate {cand} outside [0, r={self.r})")

    def validate(self) -> None:
        """Assert the column-stochastic invariant (used by tests)."""
        in_sum = np.zeros(self.n)
        np.add.at(in_sum, self.dst, self.w)
        if not np.allclose(in_sum, 1.0):
            raise AssertionError("W is not column-stochastic")

    # ------------------------------------------------------------------ #
    # Seeds
    # ------------------------------------------------------------------ #
    def with_seeds(self, cand: int, seeds) -> "OpinionGraph":
        """Return a copy with ``b0[cand, S] = d[cand, S] = 1`` (paper §II-C)."""
        self.check_candidate(cand)
        b0 = self.b0.copy()
        d = self.d.copy()
        seeds = np.asarray(list(seeds), dtype=np.int64)
        if len(seeds):
            b0[cand, seeds] = 1.0
            d[cand, seeds] = 1.0
        return OpinionGraph(
            self.n, self.src, self.dst, self.w, b0, d, list(self.candidates)
        )

    def dst_indptr(self) -> np.ndarray:
        """Segment boundaries of the dst-sorted edge arrays (the reverse CSR).

        Every node has ≥1 in-edge after self-loop normalization, so the
        segments enumerate all n nodes in order.
        """
        return np.r_[0, np.cumsum(np.bincount(self.dst, minlength=self.n))]

    def dense_w(self) -> np.ndarray:
        """Dense (n×n) influence matrix — BLAS path for small graphs."""
        W = np.zeros((self.n, self.n))
        np.add.at(W, (self.src, self.dst), self.w)
        return W

    # ------------------------------------------------------------------ #
    # Reverse-graph structures (for random walks)
    # ------------------------------------------------------------------ #
    def sample_in(self, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one in-neighbor ``u`` of each node ``v`` with probability ``w[u, v]``.

        Inverse-CDF over the dst-sorted edges: the key of edge ``e`` is
        ``dst[e]`` plus the cumulative weight of ``dst[e]``'s in-edges up
        to ``e``, so ``v + U[0, 1)`` falls inside ``v``'s segment.  The
        index is clipped to the segment, so a row whose weights round
        to a total just off 1 still draws only its own in-neighbors.
        """
        if self._in_cdf is None:
            indptr = self.dst_indptr()
            cum = np.cumsum(self.w)
            within = cum - np.r_[0.0, cum][indptr[:-1]][self.dst]
            self._in_cdf = indptr, self.dst + within
        indptr, key = self._in_cdf
        e = np.searchsorted(key, nodes + rng.random(len(nodes)), side="right")
        return self.src[np.clip(e, indptr[nodes], indptr[nodes + 1] - 1)]

    def out_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Forward-CSR (indptr, indices) over the *original* edge direction,
        self-loops excluded — used for t-hop reachable sets (Def. 2)."""
        keep = self.src != self.dst
        src, dst = self.src[keep], self.dst[keep]
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        return np.cumsum(indptr), dst.astype(np.int32)


def spmv_dst(graph: OpinionGraph, x: np.ndarray) -> np.ndarray:
    """``y[j] = Σ_i x[i]·w[i,j]`` — one FJ aggregation, edges sorted by dst.

    Pure NumPy (no scipy): one ``np.bincount`` per row of ``x``, which adds
    the edge contributions in edge order — the same sums as ``np.add.at``.
    """
    rows = x.reshape(-1, graph.n)
    y = np.empty(rows.shape)
    for i, row in enumerate(rows):
        y[i] = np.bincount(graph.dst, weights=row[graph.src] * graph.w, minlength=graph.n)
    return y.reshape(x.shape)
