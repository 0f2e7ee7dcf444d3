"""Sketch-based greedy seed selection ("RS", paper Alg. 5, §VI).

θ sketches = θ reverse t-step walks, each from a start node drawn
uniformly at random (with replacement); following the paper's final
choice λ_v = 1 (footnote 6), each sketch is a *single* walk and its
estimate is that walk's (truncated) end opinion.

Estimators (Eqs. 35, 42, 47):
* cumulative:  F̂(S) = (n/θ) Σ_j op_j[S]
* plurality variants:  F̂(S) = (n/θ) Σ_j ω[β(op_j)]·1[β(op_j) ≤ p]
* Copeland: pairwise duel counts over the θ samples.

The sketches are generated once on the driver (``opinion.walks``);
greedy rounds run in the same engine as RW (``core.coverage``), with
per-*sketch* (not per-user) units.  No step launches a Spark job.
"""
from __future__ import annotations

import numpy as np

from repro.core.coverage import WalkGreedy
from repro.graphs.graph import OpinionGraph
from repro.opinion.walks import generate_walks


class RSSelector(WalkGreedy):
    """Greedy seed selection on θ uniformly-sampled sketches.

    ``spark`` is accepted for a uniform selector signature; sampling and
    selection do not use it.
    """

    def __init__(
        self,
        spark,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        *,
        theta: int,
        p: int = 1,
        omega=None,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        starts = rng.choice(np.arange(graph.n), size=theta, replace=True)
        walks = generate_walks(graph, target, t, starts=starts, seed=seed + 1)
        super().__init__(
            graph, target, t, score, walks,
            unit=np.arange(theta), scale=graph.n / float(theta), p=p, omega=omega,
        )
