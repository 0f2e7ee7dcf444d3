"""One driver-side greedy engine for every coverage-shaped seed selection.

After Post-Generation Truncation (Thm 9) a walk that contains a seed has
estimate 1, so every later gain term ``(1 − op)`` of that walk is 0: the
RW and RS greedy rounds (Alg. 4/5) are weighted max coverage over walks,
the same shape as the RR-set greedy of IMM [3] (``baselines/im.py``) and
the sandwich upper bound's t-hop coverage (``core/sandwich.py``).  All of
them run here, in NumPy, on items sampled once on the driver
(``opinion/walks.py``, ``baselines/im.py``) and handed over as a flat
(item, node[, position]) incidence.

``Coverage`` holds the distinct (item, node) incidence, a node → items CSR
and an ``alive`` mask; seeding ``u`` clears ``alive`` for the items in
``u``'s row.  ``WalkGreedy`` adds the walk estimators on top: per-unit
estimates ``b̂`` (a unit is a user for RW, a sketch for RS), per-(unit,
node) rises ``δ`` and the five voting scores' marginal gains.

Tie-break in every round: highest gain, then smallest node id.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.dm import others_at_horizon
from repro.graphs.graph import OpinionGraph
from repro.opinion.walks import Walks
from repro.voting.scores import rank_contrib_np

_UNCUT = np.iinfo(np.int64).max


class Coverage:
    """Greedy max-coverage state over ``n_items`` items, each a set of nodes.

    ``pos`` (position of a node in its item) decides which nodes of a
    covered item stay candidates, matching how each consumer drops
    covered items:

    * ``pos`` given — the item keeps its prefix up to the first seed it
      contains (Post-Generation Truncation keeps the truncated path);
    * ``pos=None`` — a covered item drops out entirely (covered RR sets).

    ``covered`` marks items covered before any seed (the sandwich base).
    """

    def __init__(
        self,
        n: int,
        item: np.ndarray,
        node: np.ndarray,
        n_items: int,
        *,
        pos: np.ndarray | None = None,
        covered: np.ndarray | None = None,
    ):
        item = np.asarray(item, dtype=np.int64)
        node = np.asarray(node, dtype=np.int64)
        key = node * n_items + item
        # Sorted by (node, item, pos): the first entry of each key is the
        # node's first position in the item.
        order = np.lexsort((pos, key)) if pos is not None else np.argsort(key, kind="stable")
        key = key[order]
        first = order[np.r_[True, key[1:] != key[:-1]]] if len(key) else order
        self.n = n
        self.item = item[first]
        self.node = node[first]
        self.pos = None if pos is None else np.asarray(pos, dtype=np.int64)[first]
        self.indptr = np.r_[0, np.cumsum(np.bincount(self.node, minlength=n))]
        self.alive = np.ones(n_items, dtype=bool) if covered is None else ~covered
        self.cut = np.full(n_items, _UNCUT)
        self.seeded = np.zeros(n, dtype=bool)
        self.seeds: list[int] = []

    def sums(self, weight: np.ndarray) -> np.ndarray:
        """Per node: Σ of ``weight`` over the alive items containing it."""
        w = np.where(self.alive, weight, 0.0)[self.item]
        return np.bincount(self.node, weights=w, minlength=self.n)

    def candidates(self) -> np.ndarray:
        """Unseeded nodes still present in some (possibly truncated) item."""
        if self.pos is None:
            present = self.alive[self.item]
        else:
            present = self.pos <= self.cut[self.item]
        mask = np.zeros(self.n, dtype=bool)
        mask[self.node[present]] = True
        return mask & ~self.seeded

    def pick(self, gain: np.ndarray) -> int:
        """Highest-gain candidate, smallest id on ties; with no candidate
        left, the smallest unseeded node."""
        cand = np.flatnonzero(self.candidates())
        if len(cand) == 0:
            return int(np.flatnonzero(~self.seeded)[0])
        return int(cand[np.argmax(gain[cand])])

    def add(self, u: int) -> np.ndarray:
        """Seed ``u``: cover its items; return the ones it newly covered."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        items = self.item[lo:hi]
        if self.pos is not None:
            self.cut[items] = np.minimum(self.cut[items], self.pos[lo:hi])
        new = items[self.alive[items]]
        self.alive[items] = False
        self.seeded[u] = True
        self.seeds.append(u)
        return new

    def select(
        self,
        k: int,
        gains: Callable[[], np.ndarray],
        on_pick: Callable[[int, float, np.ndarray], None] | None = None,
    ) -> list[int]:
        """Extend the seed list greedily to ``k`` seeds (resumable).

        ``gains()`` returns the per-node marginal gain for the current
        state; ``on_pick(seed, gain, newly_covered_items)`` runs after
        each pick.
        """
        if not 0 <= k <= self.n:
            raise ValueError(f"k={k} must lie in [0, n={self.n}]")
        while len(self.seeds) < k:
            gain = gains()
            u = self.pick(gain)
            new = self.add(u)
            if on_pick is not None:
                on_pick(u, float(gain[u]), new)
        return list(self.seeds)


class WalkGreedy:
    """Greedy seed selection on pre-generated reverse walks (Alg. 4/5).

    ``walks`` comes from ``generate_walks``.  ``unit`` gives each walk the
    id of the estimate it feeds: ``walks.start`` averages a user's λ walks
    (RW), the walk index makes every walk its own sketch (RS).  ``scale``
    multiplies every score but Copeland (RS: n/θ).

    ``rounds`` gets one record per pick: ``seed``, its estimated ``gain``,
    the estimate ``f_hat`` after the pick and ``items_covered``, the
    number of walks the seed truncated.
    """

    def __init__(
        self,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        walks: Walks,
        *,
        unit: np.ndarray,
        scale: float = 1.0,
        p: int = 1,
        omega=None,
    ):
        self.graph = graph
        self.score = score
        self.scale = scale
        self.p = p
        self.omega = omega
        self.op0 = walks.op
        _, first, self.unit = np.unique(unit, return_index=True, return_inverse=True)
        self.count = np.bincount(self.unit).astype(np.float64)
        self.cov = Coverage(graph.n, walks.item, walks.node, len(walks.op), pos=walks.pos)
        self.rounds: list[dict] = []
        self.others = None
        if score != "cumulative":
            # (r−1, units): exact non-target opinions at each unit's user.
            self.others = others_at_horizon(graph, target, t)[:, walks.start[first]]
            # Distinct (unit, node) pairs of the incidence, built once.
            pair_key = self.unit[self.cov.item] * graph.n + self.cov.node
            keys, self.pair_of = np.unique(pair_key, return_inverse=True)
            self.pair_unit = keys // graph.n
            self.pair_node = keys % graph.n
            self.pair_others = self.others[:, self.pair_unit]

    @property
    def seeds(self) -> list[int]:
        return list(self.cov.seeds)

    # ------------------------------------------------------------------ #
    def _op(self) -> np.ndarray:
        """Current per-walk estimate: 1 once truncated at a seed."""
        return np.where(self.cov.alive, self.op0, 1.0)

    def _bhat(self, op: np.ndarray) -> np.ndarray:
        return np.bincount(self.unit, weights=op) / self.count

    def _contrib(self, b: np.ndarray, others: np.ndarray) -> np.ndarray:
        return rank_contrib_np(b, others, self.score, p=self.p, omega=self.omega)

    def _duels(self, bhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per opponent: #units estimated above it, #units below it."""
        return (bhat > self.others).sum(axis=1), (bhat < self.others).sum(axis=1)

    def gains(self) -> np.ndarray:
        """Estimated marginal gain of every node for the current seeds."""
        n = self.graph.n
        op = self._op()
        rise = (1.0 - op) / self.count[self.unit]  # 0 on truncated walks
        if self.score == "cumulative":
            return self.cov.sums(rise) * self.scale
        bhat = self._bhat(op)
        cur = bhat[self.pair_unit]
        new = np.minimum(cur + np.bincount(self.pair_of, weights=rise[self.cov.item]), 1.0)
        if self.score != "copeland":
            diff = self._contrib(new, self.pair_others) - self._contrib(cur, self.pair_others)
            return np.bincount(self.pair_node, weights=diff, minlength=n) * self.scale
        # Copeland: per opponent x, the seed moves the above/below counts.
        above, below = self._duels(bhat)
        d_above = (new > self.pair_others).astype(np.float64) - (cur > self.pair_others)
        d_below = (new < self.pair_others).astype(np.float64) - (cur < self.pair_others)
        wins = np.zeros(n)
        for x in range(len(above)):
            da = np.bincount(self.pair_node, weights=d_above[x], minlength=n)
            db = np.bincount(self.pair_node, weights=d_below[x], minlength=n)
            wins += above[x] + da > below[x] + db
        return wins - float((above > below).sum())

    def estimated_score(self) -> float:
        """F̂ for the current seeds (truncated walks)."""
        bhat = self._bhat(self._op())
        if self.score == "cumulative":
            return float(bhat.sum()) * self.scale
        if self.score == "copeland":
            above, below = self._duels(bhat)
            return float((above > below).sum())
        return float(self._contrib(bhat, self.others).sum()) * self.scale

    def _record(self, seed: int, gain: float, new: np.ndarray) -> None:
        self.rounds.append(
            {
                "seed": seed,
                "gain": gain,
                "f_hat": self.estimated_score(),
                "items_covered": len(new),
            }
        )

    def select(self, k: int) -> list[int]:
        """Greedy top-k seeds by estimated marginal gain.

        Resumable: a later call with a larger ``k`` extends the already
        selected prefix (greedy is incremental).
        """
        return self.cov.select(k, self.gains, self._record)

    def close(self) -> None:
        """Nothing to release: the walks live in driver memory only."""
