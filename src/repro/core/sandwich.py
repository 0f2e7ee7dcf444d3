"""Sandwich approximation for the non-submodular scores (paper §IV).

For the plurality variants (positional-p-approval and special cases):

* LB(S) = ω[p] · Σ_{v ∈ V_q^(t)} b_qv^(t)[S]   (Def. 3) — a cumulative
  score restricted to the favorable users set; submodular, so greedy via
  the exact evaluator with a user mask.
* UB(S) = ω[1] · |N_S^(t) ∪ V_q^(t)|           (Def. 4) — a coverage
  function over t-hop forward-reachable sets; maximized by greedy
  max-coverage in the shared coverage engine (``core.coverage``).

For Copeland:

* UB(S) = (r−1)/(⌊n/2⌋+1) · |N_S^(t) ∪ U_q^(t)| (Def. 6) with the weakly
  favorable users set U_q^(t) (Def. 5).

Algorithm 3 then returns argmax_F over {S_U, S_L, S_F}; the empirical
quality ratio F(S_U)/UB(S_U) (§IV-D) is reported alongside.

Favorable sets come from the exact FJ diffusion (``fj_diffuse_np``) and
reachable sets from a per-node NumPy BFS (``reach_sets_np``); both run on
the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coverage import Coverage
from repro.core.dm import ExactEvaluator, greedy_dm
from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import fj_diffuse_np
from repro.voting.scores import rank_np


# --------------------------------------------------------------------- #
# Favorable / weakly favorable users (Defs. 1 and 5)
# --------------------------------------------------------------------- #
def favorable_users_np(graph: OpinionGraph, target: int, t: int, p: int) -> np.ndarray:
    """Boolean mask of V_q^(t): β(b_qv^(t)) ≤ p without any target seeds."""
    b = fj_diffuse_np(graph, t)
    return rank_np(b, target) <= p


def weakly_favorable_users_np(graph: OpinionGraph, target: int, t: int) -> np.ndarray:
    """Boolean mask of U_q^(t): b_qv^(t) > min over other candidates."""
    b = fj_diffuse_np(graph, t)
    others = np.delete(b, target, axis=0)
    return b[target] > others.min(axis=0)


# --------------------------------------------------------------------- #
# Reachable sets (Def. 2)
# --------------------------------------------------------------------- #
def reach_sets_np(graph: OpinionGraph, t: int) -> list[np.ndarray]:
    """For every node v, the boolean mask of N_{v}^(t) (≤ t forward hops).

    BFS per node over the forward adjacency (self-loops excluded); the
    node itself is included (h = 0 in Eq. 22).  O(n·m) worst case — used
    at sandwich-experiment scale only.
    """
    indptr, indices = graph.out_adjacency()
    out: list[np.ndarray] = []
    for v in range(graph.n):
        mask = np.zeros(graph.n, dtype=bool)
        mask[v] = True
        frontier = np.array([v])
        for _ in range(t):
            nxt: list[int] = []
            for u in frontier:
                nxt.extend(indices[indptr[u] : indptr[u + 1]])
            if not nxt:
                break
            nxt_arr = np.unique(np.array(nxt))
            nxt_arr = nxt_arr[~mask[nxt_arr]]
            if len(nxt_arr) == 0:
                break
            mask[nxt_arr] = True
            frontier = nxt_arr
        out.append(mask)
    return out


# --------------------------------------------------------------------- #
# Coverage greedy for the UB functions
# --------------------------------------------------------------------- #
def greedy_coverage(
    reach: list[np.ndarray], base_mask: np.ndarray, k: int
) -> tuple[list[int], int]:
    """Greedy max-coverage of |N_S ∪ base| (UB maximization).

    Returns (seeds, |N_S^(t) ∪ base| for the final S).  Items are users,
    covered by ``base`` or by a seed's reachable set; every unseeded node
    stays a candidate (``pos`` 0 keeps covered users' reach entries).
    """
    n = len(reach)
    node, user = np.nonzero(np.asarray(reach))
    cov = Coverage(n, user, node, n, pos=np.zeros(len(node)), covered=base_mask)
    ones = np.ones(n)
    seeds = cov.select(k, lambda: cov.sums(ones))
    return seeds, int((~cov.alive).sum())


# --------------------------------------------------------------------- #
# Bound values
# --------------------------------------------------------------------- #
def lb_value(
    graph: OpinionGraph,
    target: int,
    t: int,
    seeds,
    fav_mask: np.ndarray,
    omega_p: float = 1.0,
) -> float:
    """LB(S) per Def. 3 (exact)."""
    bq = fj_diffuse_np(graph.with_seeds(target, seeds), t, cand=target)
    return omega_p * float(bq[fav_mask].sum())


def ub_value(
    reach: list[np.ndarray], base_mask: np.ndarray, seeds, coeff: float
) -> float:
    """UB(S) per Defs. 4/6: coeff · |N_S^(t) ∪ base|."""
    covered = base_mask.copy()
    for s in seeds:
        covered = covered | reach[s]
    return coeff * float(covered.sum())


@dataclass
class SandwichResult:
    seeds: list[int]  # the returned S#
    source: str  # which of S_U / S_L / S_F won
    f_su: float  # exact F(S_U)
    f_sl: float | None  # exact F(S_L) (None for Copeland: no LB)
    f_sf: float  # exact F(S_F)
    ratio: float  # F(S_U)/UB(S_U) — the §IV-D empirical factor


def sandwich_select(
    graph: OpinionGraph,
    target: int,
    t: int,
    k: int,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
    selector=None,
) -> SandwichResult:
    """Algorithm 3 for the plurality variants and the Copeland score.

    ``selector(k) -> seeds`` supplies S_F (defaults to exact greedy);
    S_L / S_U come from greedy on the bound functions.  All three are
    compared under the *exact* F.
    """
    if score == "cumulative":
        raise ValueError("cumulative is submodular — no sandwich needed")
    omega_arr = np.ones(graph.r) if omega is None else np.asarray(omega)
    pp = 1 if score == "plurality" else p

    reach = reach_sets_np(graph, t)
    if score == "copeland":
        base = weakly_favorable_users_np(graph, target, t)
        coeff = (graph.r - 1) / (graph.n // 2 + 1)
        fav = None
    else:
        base = favorable_users_np(graph, target, t, pp)
        coeff = float(omega_arr[0])
        fav = base

    # S_U: greedy max-coverage on UB.
    s_u, _ = greedy_coverage(reach, base, k)

    # S_L: greedy on the masked cumulative LB (plurality variants only).
    s_l = None
    if score != "copeland":
        ev_lb = ExactEvaluator(None, graph, target, t, "cumulative", user_mask=fav)
        s_l, _ = greedy_dm(ev_lb, k, celf=True)

    # S_F: feasible greedy on F itself.
    if selector is not None:
        s_f = selector(k)
    else:
        ev_f = ExactEvaluator(None, graph, target, t, score, p=pp, omega=omega_arr)
        s_f, _ = greedy_dm(ev_f, k, celf=False)

    ev_exact = ExactEvaluator(None, graph, target, t, score, p=pp, omega=omega_arr)
    f_su = ev_exact.score_of(s_u)
    f_sf = ev_exact.score_of(s_f)
    f_sl = ev_exact.score_of(s_l) if s_l is not None else None

    options = {"S_U": (s_u, f_su), "S_F": (s_f, f_sf)}
    if s_l is not None:
        options["S_L"] = (s_l, f_sl)
    source = max(options, key=lambda nm: options[nm][1])
    ub_su = ub_value(reach, base, s_u, coeff)
    return SandwichResult(
        seeds=options[source][0],
        source=source,
        f_su=f_su,
        f_sl=f_sl,
        f_sf=f_sf,
        ratio=f_su / ub_su if ub_su > 0 else 1.0,
    )
