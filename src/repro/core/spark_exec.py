"""Morsel-driven parallel execution of both engines inside Spark (§6).

The paper parallelizes both engines with morsel-driven parallelism:
workers grab morsels of the probe-side table and share hash tables. The
Spark mapping (DESIGN.md §7):

* morsels   = Arrow record batches of the probe table's partitions,
  delivered to `mapInPandas` workers;
* shared hash tables = driver-built `ChainingHashTable`s shipped as
  Spark broadcasts (shared-nothing tasks replace shared memory — the
  build is replicated-read instead of contended-write, which preserves
  the probe-side behaviour under study);
* pipeline-breaking barrier = Spark's stage boundary;
* parallel aggregation = per-morsel partial aggregates, collected with
  ``toPandas`` and merged on the driver by ``finalize_partials`` (the
  partial/final split from ``common.aggregate``), so a root pipeline is
  one ``mapInPandas`` stage with no shuffle.

The partial output's Spark schema is typed statically from the plan and
the table dtypes (``partial_dtypes``), and a Typer task compiles its
query once for all its morsels.

Build sides containing a group-by (Q18's 1.5M-group aggregation — the
query's actual bottleneck) are themselves executed as a parallel
sub-stage, recursively.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from .common import plan as PL
from .common.aggregate import finalize_partials, partial_dtypes
from .common.hashtable import ChainingHashTable
from .common.table import Table
from .vectorized import engine as vec_engine
from .vectorized import primitives as P

_HASH_FN = {"typer": "crc", "compiled": "crc",
            "tectorwise": "murmur", "tw": "murmur", "vectorized": "murmur"}


def _run_partition(
    plan, engine: str, prebuilt: dict, probe_name: str, vector_size: int,
    dtypes: dict,
):
    """Closure executed by each Spark task over its morsel stream.

    ``dtypes`` is the partial output's static schema. Int columns are
    cast to pandas' nullable ``Int64``: a global aggregate over a morsel
    that keeps no row yields NaN, which must reach the driver as null.
    """
    cast = {c: "Int64" if t == "int64" else t for c, t in dtypes.items()}

    def fn(batches):
        from .compiled import engine as comp_engine

        typer = engine in ("typer", "compiled")
        if typer:
            query = comp_engine.compile_plan(plan, partial=True)
        for pdf in batches:
            if len(pdf) == 0:
                continue
            chunk = Table({c: pdf[c].to_numpy() for c in pdf.columns})
            tables = {probe_name: chunk}
            if typer:
                out = query.run(tables, prebuilt=prebuilt.value)
            else:
                out = vec_engine.run_plan(
                    plan, tables, prebuilt=prebuilt.value,
                    vector_size=vector_size, partial=True,
                )
            yield out.astype(cast)

    return fn


def _pandas_select(df: pd.DataFrame, conjuncts) -> pd.DataFrame:
    cols = {c: df[c].to_numpy() for c in df.columns}
    mask = np.ones(len(df), dtype=bool)
    for c in conjuncts:
        mask &= np.asarray(P.eval_expr(P.None_ctx, c, cols, None), dtype=bool)
    return df[mask].reset_index(drop=True)


def _pandas_project(df: pd.DataFrame, outputs) -> pd.DataFrame:
    cols = {c: df[c].to_numpy() for c in df.columns}
    return pd.DataFrame(
        {name: P.eval_expr(P.None_ctx, e, cols, None) for name, e in outputs}
    )


def _materialize(spark, plan, tables, engine, n_partitions, vector_size) -> pd.DataFrame:
    """Materialize a build-side subplan; group-bys recurse into a
    parallel Spark sub-stage, the rest runs on the driver."""
    if isinstance(plan, PL.HashGroupBy):
        return run_plan_spark(
            spark, plan, tables, engine=engine,
            n_partitions=n_partitions, vector_size=vector_size,
        )
    if isinstance(plan, PL.Select):
        return _pandas_select(
            _materialize(spark, plan.child, tables, engine, n_partitions, vector_size),
            plan.conjuncts,
        )
    if isinstance(plan, PL.Project):
        return _pandas_project(
            _materialize(spark, plan.child, tables, engine, n_partitions, vector_size),
            plan.outputs,
        )
    if isinstance(plan, PL.HashJoin):
        # recurse into the build (it may hide a big group-by — Q18);
        # the probe side of a build pipeline runs on the driver
        bdf = _materialize(
            spark, plan.build, tables, engine, n_partitions, vector_size
        )
        pre = {plan.name: _build_ht(bdf, plan, _HASH_FN[engine])}
        return vec_engine.run_plan(
            plan, tables, prebuilt=pre, vector_size=vector_size
        )
    # plain scans: driver-side engine run
    return vec_engine.run_plan(plan, tables, vector_size=vector_size)


def _build_ht(df: pd.DataFrame, join: PL.HashJoin, hash_fn: str) -> ChainingHashTable:
    ht = ChainingHashTable(len(join.build_keys), list(join.payload), hash_fn=hash_fn)
    ht.build_bulk(
        [df[k].to_numpy().astype(np.int64) for k in join.build_keys],
        {p: df[p].to_numpy() for p in join.payload},
    )
    ht.freeze()
    return ht


def _root_pipeline_joins(plan) -> list:
    out = []
    node = plan
    while not isinstance(node, PL.Scan):
        if isinstance(node, PL.HashJoin):
            out.append(node)
            node = node.probe
        else:
            node = node.child
    return out


def cached_probe_df(spark, plan, tables, n_partitions: int):
    """Pre-upload + cache the probe table for repeated timed runs."""
    probe = PL.leaf_scan(plan)
    pdf = pd.DataFrame({c: tables[probe.table].columns[c] for c in probe.cols})
    sdf = spark.createDataFrame(pdf).repartition(n_partitions).persist()
    sdf.count()
    return sdf


def run_plan_spark(
    spark: SparkSession,
    plan,
    tables: dict[str, Table],
    engine: str = "tectorwise",
    n_partitions: int = 8,
    vector_size: int = 1000,
    probe_sdf=None,
) -> pd.DataFrame:
    """Execute a root-aggregation plan morsel-parallel; returns the
    final (coded) result as pandas. Decode with ``plan.decode_result``.
    Pass a ``cached_probe_df`` result as ``probe_sdf`` when timing
    repeated runs (skips the driver->JVM upload of the probe table)."""
    assert isinstance(plan, PL.HashGroupBy), "root must be an aggregation"
    hash_fn = _HASH_FN[engine]

    hts = {}
    for join in _root_pipeline_joins(plan):
        df = _materialize(
            spark, join.build, tables, engine, n_partitions, vector_size
        )
        hts[join.name] = _build_ht(df, join, hash_fn)

    probe = PL.leaf_scan(plan)
    dtypes = partial_dtypes(plan, tables)
    schema = StructType(
        [
            StructField(c, LongType() if t == "int64" else DoubleType())
            for c, t in dtypes.items()
        ]
    )

    if probe_sdf is not None:
        sdf = probe_sdf
    else:
        sdf = spark.createDataFrame(
            pd.DataFrame({c: tables[probe.table].columns[c] for c in probe.cols})
        ).repartition(n_partitions)
    bc = spark.sparkContext.broadcast(hts)
    partials = sdf.mapInPandas(
        _run_partition(plan, engine, bc, probe.table, vector_size, dtypes),
        schema,
    ).toPandas()
    bc.unpersist()
    return finalize_partials(partials, plan.keys, plan.aggs)
