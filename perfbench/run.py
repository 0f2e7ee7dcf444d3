"""Seed-selection benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sd-cumulative --seed 1 --seconds 3 --trace 0

Run from the root of a source checkout.  The run starts a local Spark
session, builds the workload's instance, warms up, then repeats full
selections (selector construction to the k-th seed) until ``--seconds``
have passed, checks every selection's output, and prints a summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs traced
and untraced selections in T U U T order and reports the per-layer
metrics, the tracing overhead among them.  Spans go to ``.bench_work/`` as JSON lines.
Workloads and metrics are described in ``perfbench/README.md``.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402  (perfbench/ is sys.path[0])
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent

# Instances are rebuilt this many times during set-up; graphs.build_s and
# the build share of setup_s are the median.
BUILD_REPS = 3
# Per-layer metrics of a traced run, in report order, with their units.
LAYER_UNITS = {
    "graphs.build_s": "s",
    "opinion.walks.init_s": "s",
    "opinion.walks.count": "count",
    "opinion.walks.spark_jobs": "count",
    "core.rw.round_s_p50": "s",
    "core.rw.round_s_p95": "s",
    "core.rw.spark_jobs": "count",
    "core.rs.round_s_p50": "s",
    "core.rs.round_s_p95": "s",
    "core.rs.spark_jobs": "count",
    "core.dm.round_s_p50": "s",
    "core.dm.round_s_p95": "s",
    "core.dm.eval_s": "s",
    "core.dm.evals": "count",
    "core.dm.spark_jobs": "count",
    "opinion.fj.s": "s",
    "opinion.fj.calls": "count",
    "voting.exact_s": "s",
    "baselines.im.select_s": "s",
    "baselines.im.spark_jobs": "count",
    "spark.jobs": "count",
    "spark.tasks": "count",
    "driver.rss_mb": "MB",
    "jvm.rss_mb": "MB",
    "trace.select_s_traced": "s",
    "trace.select_s_untraced": "s",
    "trace.overhead_frac": "ratio",
}


def configure_environment() -> dict:
    """Spark and BLAS settings; must run before numpy or pyspark import.

    Compute threads stay within nproc: (nproc - 1) Spark task slots, each
    Python worker single-threaded in BLAS, plus the driver thread.
    """
    nproc = len(os.sched_getaffinity(0))
    slots = max(1, nproc - 1)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep JVM temp and perf-data files out of /tmp: the run writes only
    # inside the checkout.
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    env = {
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        # Spark Python workers import repro from the checkout's src/.
        "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ),
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_DRIVER_PYTHON": sys.executable,
        "TMPDIR": str(tmp),
        "SPARK_LOCAL_DIRS": str(WORK / "spark"),
        "SPARK_LAUNCHER_OPTS": jvm_opts,
        "PYSPARK_SUBMIT_ARGS": " ".join(
            [
                f"--master local[{slots}]",
                "--driver-memory 1g",
                f"--driver-java-options '{jvm_opts} -Xms1g'",
                "--conf spark.driver.host=127.0.0.1",
                "--conf spark.ui.enabled=false",
                "--conf spark.ui.showConsoleProgress=false",
                f"--conf spark.local.dir={WORK / 'spark'}",
                f"--conf spark.sql.warehouse.dir={WORK / 'warehouse'}",
                "pyspark-shell",
            ]
        ),
    }
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    return {"nproc": nproc, "spark_slots": slots}


def start_spark():
    from pyspark.sql import SparkSession

    # Same session settings as jobs/_session.get_spark and the test fixture.
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_process():
    from pyspark import SparkContext

    return SparkContext._gateway.proc


def descendants(pid: int) -> list[int]:
    """Pids of every live process below ``pid`` (from /proc)."""
    parent = {}
    for p in Path("/proc").iterdir():
        if p.name.isdigit():
            try:
                stat = (p / "stat").read_text()
            except OSError:
                continue
            parent[int(p.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, frontier = [], [pid]
    while frontier:
        kids = [c for c, pp in parent.items() if pp in frontier]
        out += kids
        frontier = kids
    return out


def alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def stop_spark(spark) -> None:
    """Stop Spark, then wait for the JVM and its Python workers to end."""
    import signal
    import subprocess

    proc = jvm_process()
    workers = descendants(proc.pid)
    spark.stop()
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while any(alive(p) for p in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in workers:
        if alive(p):
            with contextlib.suppress(OSError):
                os.kill(p, signal.SIGKILL)


def tree_cpu_s(jvm_pid: int) -> float:
    """CPU seconds used so far by the driver, the JVM and its workers.

    utime + stime + cutime + cstime from /proc: reaped workers count
    through their parent, and time the hypervisor steals counts nowhere.
    """
    ticks = 0
    for pid in [os.getpid(), jvm_pid, *descendants(jvm_pid)]:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += sum(int(x) for x in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_ticks() -> list[int]:
    """Machine-wide CPU time counters from /proc/stat (user .. steal)."""
    return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def p95(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=20, method="inclusive")[-1]


class Checker:
    """Output checks applied to every timed selection.

    * k distinct seeds, all in range;
    * the same seed lists as every other run of this code and seed: the
      warm-up's in this process, and a record kept per code hash and
      Spark parallelism under ``.bench_work/seeds`` for later processes
      (the walk RNG streams depend on the partition count);
    * F(S) >= F(empty) for all five scores (Table II monotonicity);
    * on DM, F_exact equals the last value of greedy_dm's own trace.
    """

    def __init__(self, w, graph, target, record: Path):
        import numpy as np

        from repro.opinion import fj
        from repro.voting import scores

        self.omega = np.array([1.0, 0.5])
        self.w, self.graph, self.target = w, graph, target
        self.fj, self.scores = fj, scores
        self.record = record
        self.reference: dict | None = None
        self.exact_s: list[float] = []
        self._memo: dict[tuple, dict] = {}
        self.base = self._all_scores([])

    def _all_scores(self, seeds) -> dict:
        key = tuple(seeds)
        if key not in self._memo:
            t0 = time.perf_counter()
            b = self.fj.opinions_at_horizon_np(self.graph, wl.T_HORIZON, self.target, seeds)
            self._memo[key] = {
                s: self.scores.score_np(b, self.target, s, p=2, omega=self.omega)
                for s in self.scores.SCORES
            }
            if seeds:
                self.exact_s.append(time.perf_counter() - t0)
        return self._memo[key]

    def lists(self, sel) -> dict:
        return {self.w.method: sel.seeds, **sel.others}

    def set_reference(self, sel) -> None:
        self.reference = self.lists(sel)
        if self.record.exists():
            self.reference = json.loads(self.record.read_text())
        else:
            self.record.parent.mkdir(parents=True, exist_ok=True)
            self.record.write_text(json.dumps(self.reference))

    def check(self, sel, tracer=None) -> tuple[float, list[str]]:
        if self.reference is None:
            self.set_reference(sel)
        problems = []
        for name, seeds in self.lists(sel).items():
            if len(seeds) != wl.K or len(set(seeds)) != wl.K:
                problems.append(f"{name}: {len(seeds)} seeds, {len(set(seeds))} distinct")
            if any(not 0 <= s < self.graph.n for s in seeds):
                problems.append(f"{name}: seed out of range")
            if seeds != self.reference.get(name):
                problems.append(f"{name}: seeds {seeds} != earlier run {self.reference.get(name)}")
            span = tracer.span("voting.exact") if tracer else contextlib.nullcontext()
            with span:
                got = self._all_scores(seeds)
            for s, base in self.base.items():
                if got[s] < base - 1e-9 * self.graph.n:
                    problems.append(f"{name}: {s} fell from {base} to {got[s]}")
        f_exact = self._all_scores(sel.seeds)[self.w.score]
        if sel.trace_last is not None and abs(sel.trace_last - f_exact) > 1e-6:
            problems.append(f"F_exact {f_exact} != greedy_dm trace {sel.trace_last}")
        return f_exact, problems


def trace_targets():
    """The layer boundaries timed in a traced run, by attribute."""
    import inspect

    from repro.baselines import im
    from repro.core import dm, rs, rw
    from repro.graphs import generators
    from repro.opinion import fj

    def walks(fn, per_node):
        sig = inspect.signature(fn)

        def count(*args, **kwargs):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            a = a.arguments
            return {"walks": a["graph"].n * a["lam"] if per_node else a["theta"]}

        return count

    return [
        (generators, "random_instance", "graphs.build", None),
        (rw.RWSelector, "__init__", "opinion.walks.init", walks(rw.RWSelector.__init__, True)),
        (rs.RSSelector, "__init__", "opinion.walks.init", walks(rs.RSSelector.__init__, False)),
        (rw.RWSelector, "select", "core.rw.round", None),
        (rs.RSSelector, "select", "core.rs.round", None),
        (dm, "greedy_dm", "core.dm.round", None),
        (dm.ExactEvaluator, "__call__", "core.dm.eval",
         lambda self, seeds, cands: {"evals": len(cands)}),
        (fj, "fj_diffuse_np", "opinion.fj", None),
        (im, "select_seeds_im", "baselines.im.select", None),
    ]


def layer_metrics(spans: list[dict], traced_runs: list[str]) -> dict:
    """Per-layer values: medians over traced selections, rounds pooled."""
    incl = {s["id"]: s["jobs"] for s in spans}
    for s in sorted(spans, key=lambda s: -s["id"]):
        if s["parent"] is not None:
            incl[s["parent"]] += incl[s["id"]]

    def per_run(fn):
        return statistics.median(fn([s for s in spans if s["run"] == r]) for r in traced_runs)

    def total(name, field):
        return lambda ss: sum(
            (s["end"] - s["start"]) if field == "s"
            else incl[s["id"]] if field == "jobs" else s.get(field, 0)
            for s in ss if s["name"] == name
        )

    def rounds(name, stat):
        xs = [s["end"] - s["start"] for s in spans
              if s["name"] == name and s["run"] in traced_runs]
        return stat(xs) if xs else 0.0

    m = {
        "opinion.walks.init_s": per_run(total("opinion.walks.init", "s")),
        "opinion.walks.count": per_run(total("opinion.walks.init", "walks")),
        "opinion.walks.spark_jobs": per_run(total("opinion.walks.init", "jobs")),
    }
    for layer in ("rw", "rs", "dm"):
        m[f"core.{layer}.round_s_p50"] = rounds(f"core.{layer}.round", statistics.median)
        m[f"core.{layer}.round_s_p95"] = rounds(f"core.{layer}.round", p95)
        m[f"core.{layer}.spark_jobs"] = per_run(total(f"core.{layer}.round", "jobs"))
    m["core.dm.eval_s"] = per_run(total("core.dm.eval", "s"))
    m["core.dm.evals"] = per_run(total("core.dm.eval", "evals"))
    m["opinion.fj.s"] = per_run(total("opinion.fj", "s"))
    m["opinion.fj.calls"] = per_run(lambda ss: sum(s["name"] == "opinion.fj" for s in ss))
    m["baselines.im.select_s"] = per_run(total("baselines.im.select", "s"))
    m["baselines.im.spark_jobs"] = per_run(total("baselines.im.select", "jobs"))
    m["spark.jobs"] = per_run(lambda ss: sum(s["jobs"] for s in ss))
    m["spark.tasks"] = per_run(lambda ss: sum(s["tasks"] for s in ss))
    return m


def signature(spark, sig: dict, w, graph, target: int, seed: int) -> dict:
    """Machine, Spark and workload facts printed with every result."""
    import numpy as np
    import pyspark

    sc = spark.sparkContext
    meminfo = Path("/proc/meminfo").read_text().splitlines()
    return {
        **sig,
        "mem_total_kb": int(next(x for x in meminfo if x.startswith("MemTotal")).split()[1]),
        "spark_master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": w.name,
        "seed": seed,
        "instance": {"n": graph.n, "m": graph.m, "r": graph.r, "target": target},
        "walk_rng_note": "walk and RR-set RNG streams are keyed per Arrow "
        "batch, so seed lists depend on default_parallelism",
        "warmup_k": w.warmup_k,
    }


def run(args) -> int:
    sig = configure_environment()
    w = wl.WORKLOADS[args.workload]
    spark = start_spark()
    try:
        tracer = Tracer(spark.sparkContext) if args.trace else None
        targets = trace_targets() if tracer else []

        def installed():
            return tracer.installed(targets) if tracer else contextlib.nullcontext()

        if tracer:
            tracer.run_id = "setup"
        build_s = []
        for _ in range(BUILD_REPS):
            t0 = time.perf_counter()
            with installed():
                graph = wl.build_instance(w)
            build_s.append(time.perf_counter() - t0)
        with installed():
            target = wl.choose_target(w, graph)
        env = signature(spark, sig, w, graph, target, args.seed)
        env["code_hash"] = code_hash()
        checker = Checker(w, graph, target, WORK / "seeds" / (
            f"{w.name}-s{args.seed}-{env['code_hash']}-dp{env['default_parallelism']}.json"
        ))
        sel = wl.select(w, spark, graph, target, args.seed, k=w.warmup_k)
        if w.warmup_k == wl.K:
            checker.set_reference(sel)
        setup_s = time.perf_counter() - T_PROCESS
        # setup_s counts one instance build; the others are extra reps.
        setup_s -= sum(build_s) - statistics.median(build_s)

        sels, cpus, fs, failed, attempted = [], [], [], 0, 0
        jvm_pid = jvm_process().pid
        traced_runs, traced_s, untraced_s = [], [], []
        ticks0 = cpu_ticks()
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            # Traced and untraced selections in T U U T order, so drift
            # left after the warm-up cancels in the overhead estimate.
            traced = tracer is not None and i % 4 in (0, 3)
            attempted += 1
            run_id = f"{w.name}-s{args.seed}-{i}"
            cpu0 = tree_cpu_s(jvm_pid)
            try:
                with installed() if traced else contextlib.nullcontext():
                    if traced:
                        tracer.run_id = run_id
                        with tracer.span("bench.select"):
                            sel = wl.select(w, spark, graph, target, args.seed)
                    else:
                        sel = wl.select(w, spark, graph, target, args.seed)
                    sel_cpu = tree_cpu_s(jvm_pid) - cpu0
                    f_exact, problems = checker.check(sel, tracer if traced else None)
            except Exception:  # noqa: BLE001 -- a failed run is counted, not fatal
                traceback.print_exc()
                failed += 1
            else:
                if problems:
                    print(f"run {i} failed checks: {problems}", file=sys.stderr)
                    failed += 1
                else:
                    sels.append(sel)
                    cpus.append(sel_cpu)
                    fs.append(f_exact)
                    (traced_s if traced else untraced_s).append(sel.select_s)
                    if traced:
                        traced_runs.append(run_id)
            i += 1
            if time.perf_counter() >= deadline and (tracer is None or i >= 4):
                break

        ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
        # Share of CPU time the hypervisor gave to other guests while
        # timing: high values explain slow runs on a shared host.
        env["steal_frac"] = ticks[7] / max(1, sum(ticks))
        env["idle_frac"] = ticks[3] / max(1, sum(ticks))
        env["seed_lists"] = checker.reference
        driver_mb = vm_hwm_mb("self")
        jvm_mb = vm_hwm_mb(jvm_process().pid)
        if not sels or (tracer and not (traced_s and untraced_s)):
            print("too few selections passed their checks", file=sys.stderr)
            return 1
        rounds = [r for s in sels for r in s.round_s]
        info = {}
        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "select_cpu_s": (statistics.median(cpus), "s"),
                "F_exact": (statistics.median(fs), "score"),
                "peak_rss_mb": (driver_mb + jvm_mb, "MB"),
            }
            # Printed, not declared: wall times follow the host's CPU steal
            # and k rounds per run are too few to hold a bound.
            info["select_s"] = (statistics.median(s.select_s for s in sels), "s")
            info["round_s_p50"] = (statistics.median(rounds), "s")
            info["round_s_p95"] = (p95(rounds), "s")
        else:
            tracer.write_jsonl(WORK / f"trace-{w.name}-s{args.seed}.jsonl")
            layer = layer_metrics(tracer.spans, traced_runs)
            layer["graphs.build_s"] = statistics.median(build_s)
            layer["voting.exact_s"] = statistics.median(checker.exact_s)
            layer["driver.rss_mb"] = driver_mb
            layer["jvm.rss_mb"] = jvm_mb
            layer["trace.select_s_traced"] = statistics.median(traced_s)
            layer["trace.select_s_untraced"] = statistics.median(untraced_s)
            layer["trace.overhead_frac"] = (
                layer["trace.select_s_traced"] / layer["trace.select_s_untraced"] - 1.0
            )
            metrics = {k: (layer[k], u) for k, u in LAYER_UNITS.items()}
        env["select_s"] = [s.select_s for s in sels]
        env["select_cpu_s"] = cpus
        env["round_s"] = [s.round_s for s in sels]
        print("env " + json.dumps(env))
        for k, (v, u) in {**metrics, **info}.items():
            print(f"{k:32s} {v:14.6g} {u}")
        print(f"{'failed_frac':32s} {failed / attempted:14.6g} "
              f"({failed} of {attempted} selections; {len(sels)} passed, "
              f"{len(rounds)} rounds pooled)")
        (WORK / f"report-{w.name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"env": env, "metrics": {**metrics, **info}}, indent=1)
        )
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        stop_spark(spark)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
