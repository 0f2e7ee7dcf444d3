"""Random-walk-based greedy seed selection ("RW", paper Alg. 4, §V).

λ reverse walks are generated once per node (empty seed set) on the
driver (``opinion.walks``); every greedy round then computes *estimated*
marginal gains (``core.coverage``) and truncates the walks at the chosen
seed (Post-Generation Truncation, a mask — no regeneration).  No step
launches a Spark job.

Gains, with ``b̂_u`` the mean of user ``u``'s walk estimates:

* cumulative — a walk containing candidate ``v`` would be truncated at
  ``v`` and its estimate jumps from ``op`` to 1, so
  ``gain(v) = Σ_{walks ∋ v} (1 − op) / λ`` (weighted max coverage).
* plurality / p-approval / positional-p-approval — ``b̂_u`` rises by
  ``δ_u(v) = Σ_{walks from u ∋ v} (1 − op)/λ``; the user's score
  contribution is recomputed against the exact non-target opinions.
* Copeland — the same rises applied to the per-opponent win/loss counts.

The non-target candidates' opinions at the horizon are exact (direct
matrix–vector products), matching the paper's complexity analysis
(§V-B: extra O((r−1)tm)).
"""
from __future__ import annotations

from repro.core.coverage import WalkGreedy
from repro.graphs.graph import OpinionGraph
from repro.opinion.walks import generate_walks


class RWSelector(WalkGreedy):
    """Greedy seed selection on λ pre-generated reverse walks per user.

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
        lam: int = 50,
        p: int = 1,
        omega=None,
        seed: int = 0,
    ):
        walks = generate_walks(graph, target, t, lam=lam, seed=seed)
        super().__init__(graph, target, t, score, walks, unit=walks.start, p=p, omega=omega)
