"""Reverse random-walk opinion estimation (paper §V).

Direct Generation (§V-A): a walk starts at ``u`` on the *reverse* graph;
at each of ``t`` steps it terminates at the current node ``v`` with
probability ``d_v`` (stubbornness), otherwise moves to one in-neighbor
sampled with probability ``w_uv``.  The start node's estimated opinion is
the *initial* opinion of the end node (Thm 8: unbiased for ``b^(t)``).

Post-Generation Truncation (§V-B): walks are generated **once** with the
empty seed set; for a seed set ``S`` a walk is truncated at the first
occurrence of a node in ``S`` and its estimate becomes 1 (Thm 9: still
unbiased).  The greedy algorithms truncate them as a mask on the driver
(``core.coverage``) — no regeneration.

Sampling runs on the driver: one vectorised kernel advances every walk
by one step at a time with a single ``np.random.default_rng(seed)``
stream, so a given ``seed`` gives the same walks on any machine.  The
walks come out as a flat incidence (no per-walk lists, no padding).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import OpinionGraph


@dataclass
class Walks:
    """Reverse walks as a flat incidence, ordered by step.

    Entry ``i`` says walk ``item[i]`` is at ``node[i]`` after ``pos[i]``
    steps; ``start`` and ``op`` (initial opinion of the end node) hold one
    value per walk.
    """

    item: np.ndarray
    pos: np.ndarray
    node: np.ndarray
    start: np.ndarray
    op: np.ndarray

    def paths(self) -> list[list[int]]:
        """Node sequence of every walk (tests and reference checks)."""
        node = self.node[np.argsort(self.item, kind="stable")]
        ends = np.cumsum(np.bincount(self.item, minlength=len(self.start)))
        return [p.tolist() for p in np.split(node, ends[:-1])]


def walk_kernel(
    graph: OpinionGraph,
    starts: np.ndarray,
    t: int,
    d: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One t-step reverse walk per start node: ``(item, pos, node, end)``.

    Every step draws a stop for each live walk, then one in-neighbor for
    each walk that moves.  A walk that stops simply stops extending.
    """
    cur = np.asarray(starts, dtype=np.int64)
    live = np.arange(len(cur))
    end = cur.copy()
    items, nodes = [live], [cur]
    for _ in range(t):
        move = rng.random(len(live)) >= d[cur]
        live, cur = live[move], cur[move]
        if len(live) == 0:
            break
        cur = graph.sample_in(cur, rng)
        end[live] = cur
        items.append(live)
        nodes.append(cur)
    pos = np.repeat(np.arange(len(items)), [len(x) for x in items])
    return np.concatenate(items), pos, np.concatenate(nodes), end


def generate_walks(
    graph: OpinionGraph,
    cand: int,
    t: int,
    *,
    lam: int | None = None,
    starts: np.ndarray | None = None,
    seed: int = 0,
) -> Walks:
    """Either ``lam`` walks from *every* node (RW, Alg. 4) or exactly one
    walk per entry of ``starts`` (RS sketches, Alg. 5)."""
    if (lam is None) == (starts is None):
        raise ValueError("pass exactly one of lam= or starts=")
    graph.check_candidate(cand)
    if starts is None:
        starts = np.repeat(np.arange(graph.n, dtype=np.int64), lam)
    starts = np.asarray(starts, dtype=np.int64)
    rng = np.random.default_rng(seed)
    item, pos, node, end = walk_kernel(graph, starts, t, graph.d[cand], rng)
    return Walks(item, pos, node, starts, graph.b0[cand, end])


def truncated_estimate_np(path: list[int], op: float, seeds: set[int]) -> float:
    """Reference truncation for one walk (tests): first seed hit → 1."""
    for v in path:
        if v in seeds:
            return 1.0
    return op
