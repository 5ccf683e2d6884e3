"""Morsel-parallel execution inside Spark executors vs the oracle."""
import inspect
from types import SimpleNamespace

import pandas as pd
import pytest

from repro import synth_data
from repro.core import spark_exec
from repro.core.common.aggregate import partial_dtypes
from repro.core.common.expr import Cmp, Col, Const
from repro.core.common.plan import (
    Agg, HashGroupBy, HashJoin, Scan, Select, decode_result, leaf_scan,
)
from repro.core.common.table import Table, to_oracle_pandas
from repro.core.compiled import engine as comp_engine
from repro.core.vectorized import engine as vec_engine
from repro.oracle import assert_pandas_equivalent
from repro.queries import ssb, tpch
from repro.runner import prepare_ssb, prepare_tpch

SF = 0.005


@pytest.fixture(scope="module")
def tpch_wl():
    oracle, enc = prepare_tpch(SF)
    return oracle, enc, tpch.all_queries(enc, q18_threshold=150.0)


@pytest.fixture(scope="module")
def ssb_wl():
    oracle, enc = prepare_ssb(SF)
    return oracle, enc, ssb.all_queries(enc)


@pytest.mark.parametrize("qname", ["q1", "q6", "q3", "q9", "q18"])
@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_tpch_parallel_vs_oracle(spark, tpch_wl, qname, engine):
    oracle, enc, queries = tpch_wl
    q = queries[qname]
    got = spark_exec.run_plan_spark(spark, q.plan, enc, engine=engine, n_partitions=4)
    got = decode_result(got, q.plan, enc)
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


@pytest.mark.parametrize("qname", ["q1.1", "q2.1", "q3.1", "q4.1"])
def test_ssb_parallel_vs_oracle(spark, ssb_wl, qname):
    oracle, enc, queries = ssb_wl
    q = queries[qname]
    got = spark_exec.run_plan_spark(
        spark, q.plan, enc, engine="tectorwise", n_partitions=4
    )
    got = decode_result(got, q.plan, enc)
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


def test_single_partition_matches_serial(spark, tpch_wl):
    from repro.runner import run_query

    oracle, enc, queries = tpch_wl
    q = queries["q3"]
    par = decode_result(
        spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=1), q.plan, enc
    )
    ser = run_query(q, enc, "tectorwise")
    cols = sorted(par.columns)
    pd.testing.assert_frame_equal(
        par[cols].sort_values(cols).reset_index(drop=True),
        ser[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )


def test_partition_count_does_not_change_result(spark, tpch_wl):
    _, enc, queries = tpch_wl
    q = queries["q1"]
    a = spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=2)
    b = spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=8)
    cols = sorted(a.columns)
    pd.testing.assert_frame_equal(
        a[cols].sort_values(cols).reset_index(drop=True),
        b[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
        atol=1e-9,
    )


def test_avg_partials_merge_correctly(spark, tpch_wl):
    """Q1's avg columns decompose into sum/count partials and must be
    exact after the driver-side merge."""
    oracle, enc, queries = tpch_wl
    q = queries["q1"]
    got = decode_result(
        spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=8), q.plan, enc
    )
    assert_pandas_equivalent(got, q.sql, lineitem=oracle["lineitem"])


def test_cached_probe_df_path(spark, tpch_wl):
    """The timed-run path (pre-uploaded probe DataFrame) must give the
    same answer as the upload-per-call path."""
    _, enc, queries = tpch_wl
    q = queries["q6"]
    sdf = spark_exec.cached_probe_df(spark, q.plan, enc, 4)
    try:
        a = spark_exec.run_plan_spark(spark, q.plan, enc, probe_sdf=sdf)
        b = spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=4)
        assert a["revenue"][0] == pytest.approx(b["revenue"][0])
    finally:
        sdf.unpersist()


def test_requires_aggregation_root(spark, tpch_wl):
    from repro.core.common.plan import Scan

    _, enc, _ = tpch_wl
    with pytest.raises(AssertionError):
        spark_exec.run_plan_spark(spark, Scan("lineitem", ("l_orderkey",)), enc)


ENGINES = ["typer", "tectorwise"]
_NONE = (Cmp("<", Col("l_quantity"), Const(-1.0)),)


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_global_aggregate_matches_duckdb(spark, tpch_wl, engine):
    """A filter that keeps no row: counts are 0, sum/avg/min are NULL."""
    oracle, enc, _ = tpch_wl
    plan = HashGroupBy(
        Select(Scan("lineitem", ("l_orderkey", "l_quantity", "l_extendedprice")), _NONE),
        (),
        (
            Agg("s", "sum", Col("l_quantity")),
            Agg("c", "count"),
            Agg("a", "avg", Col("l_extendedprice")),
            Agg("mn", "min", Col("l_orderkey")),
        ),
    )
    got = spark_exec.run_plan_spark(spark, plan, enc, engine=engine, n_partitions=4)
    assert len(got) == 1
    sql = """
        SELECT sum(l_quantity) AS s, count(*) AS c,
               avg(l_extendedprice) AS a, min(l_orderkey) AS mn
        FROM lineitem WHERE l_quantity < -1
    """
    assert_pandas_equivalent(got, sql, lineitem=oracle["lineitem"])


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_keyed_aggregate_matches_duckdb(spark, tpch_wl, engine):
    oracle, enc, _ = tpch_wl
    plan = HashGroupBy(
        Select(Scan("lineitem", ("l_returnflag", "l_quantity")), _NONE),
        ("l_returnflag",),
        (Agg("s", "sum", Col("l_quantity")), Agg("c", "count")),
    )
    got = decode_result(
        spark_exec.run_plan_spark(spark, plan, enc, engine=engine, n_partitions=4),
        plan, enc,
    )
    assert len(got) == 0
    sql = """
        SELECT l_returnflag, sum(l_quantity) AS s, count(*) AS c
        FROM lineitem WHERE l_quantity < -1 GROUP BY l_returnflag
    """
    assert_pandas_equivalent(got, sql, lineitem=oracle["lineitem"])


@pytest.mark.parametrize("seed_offset", [5000, 6000])
@pytest.mark.parametrize("engine", ENGINES)
def test_q18_totalprice_not_truncated(spark, engine, seed_offset):
    """Seeds on which typing the partial schema from a 64-row sample
    found no group and truncated Q18's float key o_totalprice."""
    raw = {
        name: gen(0.05, inspect.signature(gen).parameters["seed"].default + seed_offset)
        for name, gen in synth_data.TPCH_GENERATORS.items()
        if name in ("customer", "orders", "lineitem")
    }
    enc = {n: Table.from_pandas(pdf) for n, pdf in raw.items()}
    q = tpch.q18(enc)
    got = decode_result(
        spark_exec.run_plan_spark(spark, q.plan, enc, engine=engine, n_partitions=4),
        q.plan, enc,
    )
    assert_pandas_equivalent(
        got, q.sql, **{t: to_oracle_pandas(raw[t]) for t in q.tables}
    )


def test_typer_compiles_once_per_task(tpch_wl, monkeypatch):
    """One Typer compilation serves every morsel of a Spark task."""
    _, enc, queries = tpch_wl
    plan = queries["q1"].plan
    cols = leaf_scan(plan).cols
    lineitem = pd.DataFrame({c: enc["lineitem"].columns[c] for c in cols})
    batches = [lineitem.iloc[:700], lineitem.iloc[:0], lineitem.iloc[700:2000]]

    calls = []
    compile_plan = comp_engine.compile_plan

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(comp_engine, "compile_plan", counting)
    fn = spark_exec._run_partition(
        plan, "typer", SimpleNamespace(value={}), "lineitem", 1000,
        partial_dtypes(plan, enc),
    )
    got = list(fn(iter(batches)))
    assert len(calls) == 1

    monkeypatch.setattr(comp_engine, "compile_plan", compile_plan)
    want = [
        comp_engine.run_plan(
            plan, {"lineitem": Table({c: b[c].to_numpy() for c in b})}, partial=True
        )
        for b in batches
        if len(b)
    ]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_rejects_engine_alias_before_touching_spark(tpch_wl):
    """Only canonical engine names; the check precedes any Spark call."""
    _, enc, queries = tpch_wl
    with pytest.raises(ValueError):
        spark_exec.run_plan_spark(None, queries["q1"].plan, enc, engine="tw")


@pytest.mark.parametrize("engine", ENGINES)
def test_materialize_lifts_groupby(tpch_wl, monkeypatch, engine):
    """Q18's build runs its l_orderkey group-by as one sub-stage and the
    rest serially, giving the serial build's rows."""
    _, enc, queries = tpch_wl
    join = queries["q18"].plan.child
    assert isinstance(join, HashJoin)

    stages = []

    def serial_stage(spark, plan, tables, engine, n_partitions, vector_size):
        stages.append(plan)
        return vec_engine.run_plan(plan, tables, vector_size=vector_size)

    monkeypatch.setattr(spark_exec, "run_plan_spark", serial_stage)
    got = spark_exec._materialize(None, join.build, enc, engine, 4, 1000)
    assert len(stages) == 1
    assert isinstance(stages[0], HashGroupBy)
    assert stages[0].keys == ("l_orderkey",)

    want = vec_engine.run_plan(join.build, enc)
    cols = list(want.columns)
    assert list(got.columns) == cols
    pd.testing.assert_frame_equal(
        got.sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True),
    )
