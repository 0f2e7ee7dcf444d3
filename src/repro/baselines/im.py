"""IC/LT influence-maximization baselines via RR-set sketches (paper §VIII-A).

The paper compares against seed selection under the Independent Cascade
and Linear Threshold diffusion models, each coupled with IMM [3].  We
implement the reverse-reachable (RR) set machinery:

* IC RR set from a uniformly random root: randomized reverse BFS — each
  incoming edge (u → v) is live with probability w_uv.
* LT RR set: a reverse path — at each node pick exactly one in-neighbor
  with probability equal to its edge weight (in-weights sum to 1), stop on
  a revisit.  (Our graphs carry a self-loop on in-degree-0 nodes, which
  simply ends the path.)
* Seed selection: greedy max-coverage over θ_im RR sets, on the driver
  in the shared coverage engine (``core.coverage``).

RR sets are sampled on the driver, all roots at once: each BFS level (IC)
or path step (LT) is one vectorised draw from a single
``np.random.default_rng(seed)`` stream, so a given ``seed`` gives the same
sets on any machine.  They come out as a flat (item, node) incidence.
``select_seeds_im`` keeps an unused first ``spark`` parameter, the
signature of the RW/RS selectors.

Substitution vs the paper (DESIGN.md §3): IMM's adaptive martingale
stopping rule is replaced by a fixed, generous θ_im; at our scale the
selected seeds coincide with IMM's with high probability.

``expected_influence_spread`` reproduces the §VIII-C EIS metric:
n/θ · #RR sets hit by S.
"""
from __future__ import annotations

import numpy as np

from repro.core.coverage import Coverage
from repro.graphs.graph import OpinionGraph


def _unseen(seen: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the sorted ``key`` values not in the sorted ``seen``, and
    ``seen`` with them inserted."""
    i = np.searchsorted(seen, key)
    new = seen[np.minimum(i, len(seen) - 1)] != key
    return new, np.insert(seen, i[new], key[new])


def rr_sets(
    graph: OpinionGraph, model: str, roots: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(item, node)`` incidence of one RR set per root, all roots at once."""
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown IM model: {model}")
    n = graph.n
    node = np.asarray(roots, dtype=np.int64)
    item = np.arange(len(node))
    seen = item * n + node
    items, nodes = [item], [node]
    # Edges are stored sorted by dst: they already form the reverse CSR.
    indptr = graph.dst_indptr()
    while len(item):
        if model == "ic":
            deg = indptr[node + 1] - indptr[node]
            e = np.repeat(indptr[node] - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
            live = rng.random(len(e)) < graph.w[e]
            key = np.unique(np.repeat(item, deg)[live] * n + graph.src[e[live]])
        else:
            key = item * n + graph.sample_in(node, rng)
        new, seen = _unseen(seen, key)
        item, node = key[new] // n, key[new] % n
        items.append(item)
        nodes.append(node)
    return np.concatenate(items), np.concatenate(nodes)


def generate_rr_sets(
    graph: OpinionGraph, model: str, theta: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """θ RR sets from uniformly random roots, as ``(item, node)``."""
    rng = np.random.default_rng(seed)
    return rr_sets(graph, model, rng.integers(0, graph.n, size=theta), rng)


def greedy_rr_sets(n: int, item: np.ndarray, node: np.ndarray, theta: int, k: int) -> list[int]:
    """Greedy max-coverage over ``theta`` RR sets given as ``(item, node)``.

    Each round picks the node in the most uncovered RR sets (smallest id
    on ties); covered sets drop out entirely.
    """
    cov = Coverage(n, item, node, theta)
    ones = np.ones(theta)
    return cov.select(k, lambda: cov.sums(ones))


def select_seeds_im(
    spark,
    graph: OpinionGraph,
    model: str,
    k: int,
    *,
    theta: int = 20000,
    seed: int = 0,
) -> list[int]:
    """Greedy max-coverage over RR sets (IMM-lite seed selection)."""
    item, node = generate_rr_sets(graph, model, theta, seed=seed)
    return greedy_rr_sets(graph.n, item, node, theta, k)


def expected_influence_spread(
    graph: OpinionGraph,
    model: str,
    seeds,
    *,
    theta: int = 20000,
    seed: int = 7,
) -> float:
    """EIS(S) ≈ n/θ · #{RR sets intersecting S} (§VIII-C)."""
    item, node = generate_rr_sets(graph, model, theta, seed=seed)
    hit = np.zeros(theta, dtype=bool)
    hit[item[np.isin(node, np.asarray(list(seeds), dtype=np.int64))]] = True
    return graph.n * int(hit.sum()) / float(theta)
