"""Run the workload through production engines (paper Table 2 analogs).

* Spark SQL with whole-stage codegen — a production *data-centric
  compiled* engine (the paper cites Spark as such);
* DuckDB, single-threaded — a production *vectorized* push-based engine
  (the VectorWise lineage).

Both consume the identical converted tables the oracle uses.
"""
from __future__ import annotations

import time

import duckdb
import pandas as pd
from pyspark.sql import SparkSession


def register_views(spark: SparkSession, tables: dict[str, pd.DataFrame]) -> None:
    """Register cached temp views (materialized once, so query timings
    measure execution, not driver->JVM serialization)."""
    for name, pdf in tables.items():
        df = spark.createDataFrame(pdf)
        df.persist()
        df.count()
        df.createOrReplaceTempView(name)


def time_spark_sql(spark: SparkSession, sql: str, runs: int = 2) -> float:
    """Best-of-``runs`` wall milliseconds for ``sql`` on Spark SQL."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        spark.sql(sql).collect()
        best = min(best, (time.perf_counter() - t0) * 1000)
    return best


def time_duckdb(
    sql: str, tables: dict[str, pd.DataFrame], runs: int = 3, threads: int = 1
) -> float:
    """Best-of-``runs`` wall milliseconds for ``sql`` on DuckDB."""
    con = duckdb.connect()
    try:
        con.execute(f"PRAGMA threads={threads}")
        for name, pdf in tables.items():
            con.register(name, pdf)
        best = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            con.execute(sql).fetchall()
            best = min(best, (time.perf_counter() - t0) * 1000)
        return best
    finally:
        con.close()
