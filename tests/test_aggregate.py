"""Shared aggregation kernel: direct, partial, and merge paths."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common.aggregate import (
    aggregate_pandas,
    finalize_partials,
    partial_columns,
    partial_dtypes,
)
from repro.core.common.plan import Agg, HashGroupBy, HashJoin, Project, Scan
from repro.core.common.expr import Arith, Cmp, Col, Const
from repro.core.common.table import Table

AGGS = (
    Agg("s", "sum", Col("v")),
    Agg("c", "count"),
    Agg("mn", "min", Col("v")),
    Agg("mx", "max", Col("v")),
    Agg("a", "avg", Col("v")),
)


def _data(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 7, n), rng.random(n).round(4)


def test_grouped_direct():
    k, v = _data()
    got = aggregate_pandas({"k": k}, {x.out: v for x in AGGS if x.fn != "count"}, AGGS, ["k"])
    ref = (
        pd.DataFrame({"k": k, "v": v}).groupby("k")
        .agg(s=("v", "sum"), c=("v", "size"), mn=("v", "min"), mx=("v", "max"), a=("v", "mean"))
        .reset_index()
    )
    got = got.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref.sort_values("k").reset_index(drop=True), check_dtype=False)


def test_global_direct():
    _, v = _data()
    got = aggregate_pandas({}, {x.out: v for x in AGGS if x.fn != "count"}, AGGS, [])
    assert got["s"][0] == pytest.approx(v.sum())
    assert got["c"][0] == len(v)
    assert got["a"][0] == pytest.approx(v.mean())


def test_global_empty():
    got = aggregate_pandas({}, {"s": np.empty(0)}, (Agg("s", "sum", Col("v")), Agg("c", "count")), [])
    assert np.isnan(got["s"][0]) and got["c"][0] == 0


def test_partial_columns_spec():
    assert partial_columns(Agg("a", "avg", Col("v"))) == [("a__sum", "sum"), ("a__cnt", "sum")]
    assert partial_columns(Agg("c", "count")) == [("c", "sum")]
    assert partial_columns(Agg("m", "min", Col("v"))) == [("m", "min")]


@pytest.mark.parametrize("n_splits", [1, 2, 5])
def test_partial_then_finalize_equals_direct(n_splits):
    """Morsel split: partial aggregates per chunk + merge == one pass."""
    k, v = _data(600, seed=3)
    direct = aggregate_pandas(
        {"k": k}, {x.out: v for x in AGGS if x.fn != "count"}, AGGS, ["k"]
    ).sort_values("k").reset_index(drop=True)
    parts = []
    for chunk in np.array_split(np.arange(len(k)), n_splits):
        parts.append(
            aggregate_pandas(
                {"k": k[chunk]},
                {x.out: v[chunk] for x in AGGS if x.fn != "count"},
                AGGS, ["k"], partial=True,
            )
        )
    merged = finalize_partials(pd.concat(parts, ignore_index=True), ["k"], AGGS)
    merged = merged.sort_values("k").reset_index(drop=True)[direct.columns]
    pd.testing.assert_frame_equal(merged, direct, check_dtype=False)


def test_partial_then_finalize_global():
    k, v = _data(100, seed=5)
    aggs = (Agg("s", "sum", Col("v")), Agg("a", "avg", Col("v")), Agg("c", "count"))
    parts = []
    for chunk in np.array_split(np.arange(len(v)), 3):
        parts.append(
            aggregate_pandas({}, {"s": v[chunk], "a": v[chunk]}, aggs, [], partial=True)
        )
    merged = finalize_partials(pd.concat(parts, ignore_index=True), [], aggs)
    assert merged["s"][0] == pytest.approx(v.sum())
    assert merged["a"][0] == pytest.approx(v.mean())
    assert merged["c"][0] == len(v)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(-100, 100, allow_nan=False)),
        min_size=1, max_size=60,
    ),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_merge_associativity_hypothesis(rows, n_splits):
    k = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    aggs = (Agg("s", "sum", Col("v")), Agg("mx", "max", Col("v")), Agg("c", "count"))
    direct = aggregate_pandas({"k": k}, {"s": v, "mx": v}, aggs, ["k"])
    parts = [
        aggregate_pandas({"k": k[c]}, {"s": v[c], "mx": v[c]}, aggs, ["k"], partial=True)
        for c in np.array_split(np.arange(len(k)), min(n_splits, len(k)))
        if len(c)
    ]
    merged = finalize_partials(pd.concat(parts, ignore_index=True), ["k"], aggs)
    d = direct.sort_values("k").reset_index(drop=True)
    m = merged.sort_values("k").reset_index(drop=True)[d.columns]
    pd.testing.assert_frame_equal(m, d, check_dtype=False, atol=1e-9)


def test_composite_group_keys():
    rng = np.random.default_rng(9)
    k1, k2 = rng.integers(0, 3, 200), rng.integers(0, 4, 200)
    v = rng.random(200)
    aggs = (Agg("s", "sum", Col("v")),)
    got = aggregate_pandas({"a": k1, "b": k2}, {"s": v}, aggs, ["a", "b"])
    ref = pd.DataFrame({"a": k1, "b": k2, "v": v}).groupby(["a", "b"])["v"].sum().reset_index(name="s")
    got = got.sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref.sort_values(["a", "b"]).reset_index(drop=True), check_dtype=False)


def test_finalize_global_over_empty_partials():
    """No partial row (every morsel empty): counts are 0, the rest NaN,
    as SQL gives NULL for sum/min/max/avg over no row."""
    aggs = AGGS
    cols = [c for a in aggs for c, _ in partial_columns(a)]
    got = finalize_partials(pd.DataFrame({c: [] for c in cols}), [], aggs)
    assert got["c"][0] == 0
    for out in ("s", "mn", "mx", "a"):
        assert np.isnan(got[out][0]), out


def test_finalize_global_skips_empty_morsel_partials():
    """A morsel whose filter keeps no row contributes NaN partials that
    must not turn the merged sum/min/max into NaN or 0."""
    v = np.array([2.0, 5.0, 3.0])
    parts = pd.concat(
        [
            aggregate_pandas({}, {x.out: v for x in AGGS if x.fn != "count"}, AGGS, [], partial=True),
            aggregate_pandas({}, {x.out: v[:0] for x in AGGS if x.fn != "count"}, AGGS, [], partial=True),
        ],
        ignore_index=True,
    )
    got = finalize_partials(parts, [], AGGS)
    assert (got["s"][0], got["c"][0], got["mn"][0], got["mx"][0]) == (10.0, 3, 2.0, 5.0)
    assert got["a"][0] == pytest.approx(10.0 / 3)


def test_finalize_keyed_over_empty_partials():
    cols = ["k"] + [c for a in AGGS for c, _ in partial_columns(a)]
    got = finalize_partials(pd.DataFrame({c: [] for c in cols}), ["k"], AGGS)
    assert len(got) == 0
    assert list(got.columns) == ["k"] + [a.out for a in AGGS]


def test_partial_dtypes_rules():
    tables = {
        "t": Table({"i": np.arange(3, dtype="int32"), "f": np.ones(3)}),
        "b": Table({"bk": np.arange(3), "bf": np.ones(3), "bi": np.arange(3)}),
    }
    proj = Project(
        HashJoin(Scan("b", ("bk", "bf", "bi")), Scan("t", ("i", "f")),
                 ("bk",), ("i",), ("bf", "bi")),
        (
            ("k", Col("i")),
            ("div", Arith("/", Col("i"), Const(2))),
            ("isum", Arith("+", Col("i"), Col("bi"))),
            ("fsum", Arith("*", Col("i"), Col("f"))),
            ("fconst", Arith("-", Const(1.0), Col("i"))),
            ("flag", Cmp("<", Col("f"), Const(0.5))),
            ("bf", Col("bf")),
            ("bi", Col("bi")),
        ),
    )
    plan = HashGroupBy(
        proj,
        ("k", "flag"),
        (
            Agg("c", "count"),
            Agg("s_div", "sum", Col("div")),
            Agg("mn_isum", "min", Col("isum")),
            Agg("mx_fsum", "max", Col("fsum")),
            Agg("a_bi", "avg", Col("bi")),
            Agg("s_fconst", "sum", Col("fconst")),
            Agg("s_bf", "sum", Col("bf")),
        ),
    )
    assert partial_dtypes(plan, tables) == {
        "k": "int64",
        "flag": "int64",
        "c": "int64",
        "s_div": "float64",
        "mn_isum": "int64",
        "mx_fsum": "float64",
        "a_bi__sum": "int64",
        "a_bi__cnt": "int64",
        "s_fconst": "float64",
        "s_bf": "float64",
    }


@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_partial_dtypes_match_engine_partials(engine):
    """The static schema names the engines' partial columns, in order,
    with the kinds the engines produce on a non-empty input."""
    from repro.queries import tpch
    from repro.runner import prepare_tpch, run_query

    _, enc = prepare_tpch(0.005)
    for name, q in tpch.all_queries(enc, q18_threshold=150.0).items():
        got = run_query(q, enc, engine, decode=False, partial=True)
        assert len(got), name
        dtypes = partial_dtypes(q.plan, enc)
        assert list(dtypes) == list(got.columns), name
        kinds = {c: "int64" if got[c].dtype.kind in "iub" else "float64" for c in got}
        assert kinds == dtypes, name


def test_q18_partial_schema_types_totalprice_float():
    """Q18's o_totalprice reaches the root group-by as a join payload;
    typing it from a sample that found no group truncated it to int."""
    from repro.queries import tpch
    from repro.runner import prepare_tpch

    _, enc = prepare_tpch(0.005)
    dtypes = partial_dtypes(tpch.all_queries(enc)["q18"].plan, enc)
    assert dtypes["o_totalprice"] == "float64"
    assert dtypes["total_qty"] == "float64"
    assert dtypes["o_orderkey"] == "int64"
