"""Voting-based scores (paper §II-B, Eqs. 3–7).

All five scores are NumPy functions over the dense ``(r, n)`` opinion
matrix at the time horizon (``score_np`` dispatches by name).  Ranks are
``β(b_qv) = #{c_x : b_xv ≥ b_qv}``, ties counted as in the paper's
definition; ``rank_contrib_np`` is the per-voter form shared by the DM
batch kernel and the walk estimators.

Conventions: ``plurality = p_approval(p=1)``;
``p_approval = positional_p_approval`` with ω ≡ 1; the Copeland win rule is
strict (``>`` of win counts, Eq. 7).
"""
from __future__ import annotations

import numpy as np

SCORES = ("cumulative", "plurality", "p_approval", "positional_p_approval", "copeland")


def rank_np(b: np.ndarray, q: int) -> np.ndarray:
    """β(b_qv) per user v: number of candidates with b_xv ≥ b_qv (incl. q)."""
    return (b >= b[q][None, :]).sum(axis=0)


def rank_contrib_np(
    b: np.ndarray,
    others,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
) -> np.ndarray:
    """Per-voter rank-score contribution ``ω[β]·1[β ≤ p]`` of opinion ``b``.

    ``β = 1 + #{x ≠ q : b_x ≥ b}`` (Eq. 4, ties count against ``q``);
    ``others`` iterates the non-target candidates' opinion rows, each
    broadcastable against ``b``.  Plurality uses ``p = 1``; ``ω ≡ 1``
    unless ``score`` is positional-p-approval with an ``omega``.
    """
    pp = 1 if score == "plurality" else p
    beta = 1 + sum((o >= b).astype(np.int64) for o in others)
    if score == "positional_p_approval" and omega is not None:
        om = np.asarray(omega)
        return np.where(beta <= pp, om[np.minimum(beta, len(om)) - 1], 0.0)
    return (beta <= pp).astype(np.float64)


def cumulative_np(b: np.ndarray, q: int) -> float:
    return float(b[q].sum())


def positional_p_approval_np(
    b: np.ndarray, q: int, p: int, omega: np.ndarray | None = None
) -> float:
    r = b.shape[0]
    if omega is None:
        omega = np.ones(r)
    beta = rank_np(b, q)
    mask = beta <= p
    return float(omega[beta[mask] - 1].sum())


def p_approval_np(b: np.ndarray, q: int, p: int) -> float:
    return positional_p_approval_np(b, q, p)


def plurality_np(b: np.ndarray, q: int) -> float:
    """#users with b_qv strictly above every other candidate (Eq. 4: β ≤ 1)."""
    return p_approval_np(b, q, 1)


def copeland_np(b: np.ndarray, q: int) -> float:
    wins = 0
    for x in range(b.shape[0]):
        if x == q:
            continue
        above = int((b[q] > b[x]).sum())
        below = int((b[q] < b[x]).sum())
        wins += int(above > below)
    return float(wins)


def score_np(
    b: np.ndarray,
    q: int,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
) -> float:
    """Dispatch one of the five scores on a dense (r, n) opinion matrix."""
    if score == "cumulative":
        return cumulative_np(b, q)
    if score == "plurality":
        return plurality_np(b, q)
    if score == "p_approval":
        return p_approval_np(b, q, p)
    if score == "positional_p_approval":
        return positional_p_approval_np(b, q, p, omega)
    if score == "copeland":
        return copeland_np(b, q)
    raise ValueError(f"unknown score: {score}")


def winner_np(b: np.ndarray, score: str, **kw) -> int:
    """Index of the candidate with the maximum score (first on ties)."""
    vals = [score_np(b, q, score, **kw) for q in range(b.shape[0])]
    return int(np.argmax(vals))
