"""Paper Table 3 — multi-threaded morsel execution, TPC-H SF=100.

Two complementary reproductions (DESIGN.md §2):

* ``rows()``     — the paper's exact setting, simulated: Skylake
  10 cores / 20 hyper-threads at SF=100, runtime + speedup + TW/Typer
  ratio for 1/10/20 threads;
* ``measured_rows(spark)`` — real morsel-parallel execution of both
  engines inside Spark executors (``core.spark_exec``) at SF=0.1 with
  1/8/16 partitions, wall-clock. Python wall-time compares scaling, not
  absolute paradigm cost (which the simulator covers).
"""
from __future__ import annotations

import time

from ..core import spark_exec
from ..simcpu import parallel
from ..simcpu.hardware import SKYLAKE
from . import common, fmt

# (threads -> (typer_ms, typer_speedup, tw_ms, tw_speedup, ratio))
PAPER = {
    ("q1", 1): (4426, 1.0, 7871, 1.0, 0.56),
    ("q1", 10): (496, 8.9, 867, 9.1, 0.57),
    ("q1", 20): (466, 9.5, 708, 11.1, 0.66),
    ("q6", 1): (1511, 1.0, 1443, 1.0, 1.05),
    ("q6", 10): (243, 6.2, 213, 6.8, 1.14),
    ("q6", 20): (236, 6.4, 196, 7.4, 1.20),
    ("q3", 1): (9754, 1.0, 7627, 1.0, 1.28),
    ("q3", 10): (1119, 8.7, 913, 8.4, 1.23),
    ("q3", 20): (842, 11.6, 743, 10.3, 1.13),
    ("q9", 1): (28086, 1.0, 20371, 1.0, 1.38),
    ("q9", 10): (3047, 9.2, 2394, 8.5, 1.27),
    ("q9", 20): (2525, 11.1, 2083, 9.8, 1.21),
    ("q18", 1): (13620, 1.0, 18072, 1.0, 0.75),
    ("q18", 10): (2099, 6.5, 2432, 7.4, 0.86),
    ("q18", 20): (1955, 7.0, 2026, 8.9, 0.97),
}

QUERIES = ("q1", "q6", "q3", "q9", "q18")
THREADS = (1, 10, 20)


def rows(sf_exec: float = 0.05, model_sf: float = 100.0) -> list[dict]:
    data = common.counters_for("tpch", sf_exec, model_sf)
    out = []
    base = {}
    for q in QUERIES:
        for t in THREADS:
            ty = parallel.runtime_ms(data[(q, "typer")][0], SKYLAKE, t)
            tw = parallel.runtime_ms(data[(q, "tectorwise")][0], SKYLAKE, t)
            if t == 1:
                base[q] = (ty, tw)
            p = PAPER[(q, t)]
            out.append(
                {
                    "query": q,
                    "thr": t,
                    "typer_ms": ty, "p_typer_ms": p[0],
                    "typer_spd": base[q][0] / ty, "p_spd": p[1],
                    "tw_ms": tw, "p_tw_ms": p[2],
                    "tw_spd": base[q][1] / tw, "p_tw_spd": p[3],
                    "ratio": ty / tw, "p_ratio": p[4],
                }
            )
    return out


def measured_rows(
    spark, sf: float = 0.1, partitions=(1, 8, 16), q18_threshold: float = 300.0,
    runs: int = 2, queries_subset=None,
) -> list[dict]:
    """Real Spark morsel-parallel wall-clock scaling at SF=``sf``.

    The probe table is uploaded + cached per partition count, and each
    configuration is warmed up once and timed best-of-``runs``, so the
    numbers measure morsel execution, not driver->JVM serialization.
    Each query is one ``mapInPandas`` stage over the cached probe (its
    partial aggregates are merged on the driver), plus one sub-stage per
    group-by build side (Q18). At laptop scale Spark's constant per-stage
    cost still masks scaling unless the per-morsel work is large — use
    SF >= 0.4 and a ``queries_subset`` like ('q1', 'q9') for meaningful
    curves.
    """
    _, enc, queries = common.load_workload("tpch", sf, q18_threshold)
    if queries_subset:
        queries = {k: v for k, v in queries.items() if k in queries_subset}
    out = []
    base: dict = {}
    for qname, q in queries.items():
        for n in partitions:
            sdf = spark_exec.cached_probe_df(spark, q.plan, enc, n)
            times = {}
            try:
                for eng in ("typer", "tectorwise"):
                    best = float("inf")
                    for r in range(runs + 1):  # first run is warmup
                        t0 = time.perf_counter()
                        spark_exec.run_plan_spark(
                            spark, q.plan, enc, engine=eng,
                            n_partitions=n, probe_sdf=sdf,
                        )
                        dt = (time.perf_counter() - t0) * 1000
                        if r > 0:
                            best = min(best, dt)
                    times[eng] = best
            finally:
                sdf.unpersist()
            if n == partitions[0]:
                base[qname] = dict(times)
            out.append(
                {
                    "query": qname,
                    "partitions": n,
                    "typer_ms": times["typer"],
                    "typer_spd": base[qname]["typer"] / times["typer"],
                    "tw_ms": times["tectorwise"],
                    "tw_spd": base[qname]["tectorwise"] / times["tectorwise"],
                }
            )
    return out


def render(sf_exec: float = 0.05) -> str:
    return fmt.render(
        rows(sf_exec),
        "Table 3 — multi-threaded execution, TPC-H SF=100, Skylake "
        "(simulated vs paper)",
    )
