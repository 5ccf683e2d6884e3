"""Benchmark of the two query engines, the cost model and the Spark
morsel layer, run from the root of a checkout:

    python3 perfbench/run.py --workload tpch-sim --seed 0 --seconds 10 --trace 0

A run sets the workload up ``SETUP_REPEATS`` times from ``--seed``,
discards one warm-up pass over its (query, engine) pairs, then runs
whole passes until ``--seconds`` have gone by. Every execution is
checked against DuckDB. Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.

A traced run spends the first half of its time untraced and the second
half with every layer entry point wrapped (see ``layers.py``), and also
prints each (query, engine) pair's simulated counters.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MAX_SPARK_CORES = 4


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def spark_cores() -> int:
    return min(MAX_SPARK_CORES, len(os.sched_getaffinity(0)))


def configure_env(tmp: str, cores: int) -> None:
    """Keep temporary files inside ``tmp`` and make ``src/`` importable
    in Spark's Python workers, which start from the JVM's environment."""
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["SPARK_MASTER"] = f"local[{cores}]"
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(cores)
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
        "--master", f"local[{cores}]",
        "--driver-memory", "2g",
        "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])


def start_spark():
    import pandas as pd
    from repro import sparkutil

    spark = sparkutil.get_spark("perfbench")
    # the JVM's first job loads the query path's classes; pay it here
    spark.createDataFrame(pd.DataFrame({"x": [0]})).count()
    return spark


def _children() -> dict:
    kids = defaultdict(list)
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            kids[ppid].append(int(d))
    return kids


def _descendants(pid: int) -> list:
    kids, out, todo = _children(), [], [pid]
    while todo:
        p = todo.pop()
        out.extend(kids[p])
        todo.extend(kids[p])
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _wait_ended(pids, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids):
        if time.monotonic() > deadline:
            for p in filter(_alive, pids):
                os.kill(p, signal.SIGKILL)
            deadline = time.monotonic() + timeout
        time.sleep(0.1)


def stop_spark() -> None:
    """Stop the Spark context, then the gateway JVM and every process
    under it (Spark's Python daemon and workers), waiting until each has
    ended."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    tree = _descendants(proc.pid) if proc is not None else []
    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    _wait_ended(tree)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(state, tally, latencies=None, tracer=None, pass_no=0) -> None:
    """Execute and check every (query, engine) pair once."""
    for q, e in state.pairs():
        if tracer is not None:
            tracer.execution = (q, e, pass_no)
        tally.attempted += 1
        try:
            dt, df, counters = state.execute(q, e)
            state.check(q, e, df, counters)
        except Exception:  # a failed execution is counted; the run goes on
            tally.failed += 1
            print(f"perfbench: {q}/{e} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        if latencies is not None:
            latencies[(q, e)].append(dt)


def measure(state, tally, seconds: float, tracer=None):
    """Whole passes until ``seconds`` have gone by; at least one."""
    latencies = defaultdict(list)
    passes = 0
    t0 = perf_counter()
    while passes == 0 or perf_counter() - t0 < seconds:
        run_pass(state, tally, latencies, tracer, passes)
        passes += 1
    return passes, latencies


def summarize(state, latencies) -> dict:
    """Throughput over every timed execution, and latency percentiles
    over each (query, engine) pair's mean latency: means average over the
    whole run, which keeps a run's figures steady on a noisy host."""
    mean = {p: statistics.fmean(v) for p, v in latencies.items()}
    if not mean:
        raise RuntimeError("no execution succeeded")
    ms = sorted(v * 1000 for v in mean.values())
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    tuples = sum(state.tuples[q] * len(v) for (q, _), v in latencies.items())
    return {
        "tuples_per_s": tuples / sum(map(sum, latencies.values())),
        "exec_ms_p50": statistics.median(ms),
        "exec_ms_p90": p90,
        "samples": sum(map(len, latencies.values())),
        "pairs": len(mean),
    }


def cycles_per_tuple(state) -> dict:
    """Simulated cycles per tuple of every (query, engine) pair, as
    Table 1 normalises them; 0 for a pair the workload does not run."""
    from repro.simcpu.model import Counters
    from workloads import BOTH, QUERIES

    out = {}
    for q in QUERIES:
        for e in BOTH:
            c = state.first_counters.get((q, e))
            v = 0.0
            if c is not None:
                v = Counters(**c).per_tuple(int(state.modelled_tuples(q)))["cycles"]
            out[f"simcpu.cycles_per_tuple.{q}.{e}"] = (v, "cycles/tuple")
    return out


def run(args, tmp: str) -> dict:
    import layers
    from tracer import Tracer, patched
    from workloads import WORKLOADS, State

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    cores = spark_cores()
    configure_env(tmp, cores)
    spark, session_s = None, 0.0
    tally = Tally()
    try:
        if w.spark:
            t0 = perf_counter()
            spark = start_spark()
            session_s = perf_counter() - t0
        state = State(w, args.seed, spark, cores)
        setups = [state.setup() for _ in range(SETUP_REPEATS)]
        run_pass(state, tally)  # warm-up, checked but not timed
        if args.trace:
            _, plain = measure(state, tally, args.seconds / 2)
            tr = Tracer()
            probes = layers.targets(
                tr,
                type(spark.sparkContext) if spark else None,
                type(next(iter(state.probe.values()))) if spark else None,
            )
            with patched(probes):
                traced_passes, traced = measure(state, tally, args.seconds / 2, tr)
        else:
            passes, lat = measure(state, tally, args.seconds)
        state.release_probes()
    finally:
        if w.spark:
            stop_spark()

    print(f"perfbench workload={w.name} seed={args.seed} sf={w.sf} "
          f"vector_size={w.vector_size} model_sf={w.model_sf} "
          f"spark_cores={cores if w.spark else 0} set-ups={SETUP_REPEATS}")
    print(f"  error_rate      {tally.failed / tally.attempted:.6g}  "
          f"({tally.failed} of {tally.attempted} executions failed, warm-up included)")
    setup_total = session_s + statistics.median(sum(s.values()) for s in setups)
    if args.trace:
        metrics = {
            k: (statistics.median(s[k] for s in setups), "s")
            for k in layers.SETUP_LAYERS if k != "spark.session_s"
        }
        metrics["spark.session_s"] = (session_s, "s")
        metrics.update(layers.metrics(tr, traced_passes))
        ratio = summarize(state, traced)["tuples_per_s"] / summarize(state, plain)["tuples_per_s"]
        metrics["trace.tuples_per_s_ratio"] = (ratio, "ratio")
        metrics.update(cycles_per_tuple(state))
        for (q, e), c in sorted(state.first_counters.items()):
            if c is not None:
                print("  counters " + json.dumps({
                    "query": q, "engine": e,
                    "norm_tuples": state.modelled_tuples(q), "counters": c,
                }))
        for k, (v, unit) in metrics.items():
            print(f"  {k:<40} {v:.6g} {unit}")
        print(f"  ({traced_passes} traced passes; per-pass values are means)")
    else:
        s = summarize(state, lat)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (setup_total, "s"),
            "tuples_per_s": (s["tuples_per_s"], "1/s"),
            "exec_ms_p50": (s["exec_ms_p50"], "ms"),
            "exec_ms_p90": (s["exec_ms_p90"], "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        n = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups"
                       + (f" + {session_s:.3g} s Spark start" if spark else ""),
            "tuples_per_s": f"n={s['samples']} executions in {passes} passes",
            "exec_ms_p50": f"n={s['samples']}, over {s['pairs']} pair means",
            "exec_ms_p90": f"n={s['samples']}, over {s['pairs']} pair means",
            "peak_rss_mb": "n=1 process",
        }
        for k, (v, unit) in metrics.items():
            print(f"  {k:<15} {v:.6g} {unit}  ({n[k]})")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tmp = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
