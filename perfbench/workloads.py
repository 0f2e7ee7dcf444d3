"""The benchmark's three seed-selection workloads.

Each workload builds one instance with ``graphs.generators.random_instance``
and runs one full selection per call of ``select``, driving the program
only through the entry points ``experiments/tables.py`` uses.  Greedy
selectors are resumed one seed per call, as ``tables.table6`` extends a
selection, so every round is timed from outside the program.

Why these three (the costs the paper separates, §V-B, §VI-D, §VI-E):

* ``sd-cumulative`` -- many walks on a tiny graph; Spark job launches
  dominate.  Exercises walk generation, the RW greedy and the IMM-lite
  RR-set greedy; DM and the graph layer do almost nothing.
* ``yelp-dm-plurality`` -- compute-bound exact evaluation (batched FJ
  through the ``mapInPandas`` evaluator), no walks at all.  A walk, RW or
  RS change should leave it unchanged.
* ``election-rs-64k`` -- the theta << n regime at 64 000 nodes: few
  sketches over a large graph, rank score.  Instance build, reverse
  tables and exact FJ to the horizon are large enough to show here.

k = 3 and n = 64 000 keep 70 runs inside the benchmark's time budget;
``perfbench/README.md`` gives the measurements behind both choices.

The instance comes from the shape's registry seed in
``experiments/datasets.SPECS``; the workload seed drives the selectors'
randomness (walks, sketch starts, RR sets).  Instances drawn from the
workload seed were measured to move F(empty set) by 30-60 % between
seeds, which no bound on ``F_exact`` could absorb.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

T_HORIZON = 20
K = 3


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # key of experiments.datasets.SPECS
    n: int
    score: str
    method: str  # "RW" (plus IMM-lite IC), "DM" or "RS"
    target: str  # "0" or "trailing"
    why: str
    warmup_k: int  # seeds picked by the untimed warm-up selection
    lam: int = 40
    theta: int = 0
    im_theta: int = 8000


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sd-cumulative", "twitter-sd-lite", 3245, "cumulative", "RW", "0",
            "many walks on a tiny graph: walk generation, RW and IMM greedy "
            "rounds, Spark job overhead",
            warmup_k=K,
        ),
        Workload(
            "yelp-dm-plurality", "yelp-lite", 966, "plurality", "DM", "trailing",
            "compute-bound exact DM evaluation, no walks: walk/RW/RS changes "
            "must leave it unchanged",
            warmup_k=1,
        ),
        Workload(
            "election-rs-64k", "twitter-election-lite", 64_000, "plurality",
            "RS", "0",
            "theta << n at 64k nodes: RS rank-score rounds, instance build, "
            "reverse tables, exact FJ",
            warmup_k=K,
            theta=2**13,
        ),
    ]
}


@dataclass
class Selection:
    """One timed selection: seeds in pick order plus per-round times."""

    seeds: list[int]
    select_s: float
    round_s: list[float]
    others: dict[str, list[int]] = field(default_factory=dict)
    trace_last: float | None = None  # DM's own exact F after round k


def build_instance(w: Workload):
    from repro.experiments import datasets
    from repro.graphs import generators

    spec = datasets.SPECS[w.shape]
    return generators.random_instance(
        w.n, r=spec.r, avg_deg=spec.avg_deg, seed=spec.seed,
        stubbornness=spec.stubbornness,
    )


def choose_target(w: Workload, graph) -> int:
    from repro.experiments import tables

    if w.target == "trailing":
        return tables.trailing_candidate(graph, T_HORIZON, w.score)
    return int(w.target)


def select(w: Workload, spark, graph, target: int, seed: int, k: int = K) -> Selection:
    """Run one selection of ``k`` seeds, timed from selector construction."""
    from repro.baselines import im
    from repro.core import dm, rs, rw

    rounds: list[float] = []
    start = time.perf_counter()
    if w.method == "DM":
        ev = dm.ExactEvaluator(spark, graph, target, T_HORIZON, w.score)
        seeds: list[int] = []
        for i in range(1, k + 1):
            r0 = time.perf_counter()
            seeds, trace = dm.greedy_dm(ev, i, celf=False, init=seeds)
            rounds.append(time.perf_counter() - r0)
        return Selection(
            list(seeds), time.perf_counter() - start, rounds, trace_last=trace[-1]
        )
    if w.method == "RW":
        sel = rw.RWSelector(
            spark, graph, target, T_HORIZON, w.score, lam=w.lam, seed=seed
        )
    else:
        sel = rs.RSSelector(
            spark, graph, target, T_HORIZON, w.score, theta=w.theta, seed=seed
        )
    try:
        for i in range(1, k + 1):
            r0 = time.perf_counter()
            seeds = sel.select(i)
            rounds.append(time.perf_counter() - r0)
    finally:
        sel.close()
    others = {}
    if w.method == "RW":
        others["IC"] = im.select_seeds_im(
            spark, graph, "ic", k, theta=w.im_theta, seed=seed
        )
    return Selection(list(seeds), time.perf_counter() - start, rounds, others)
