"""Typer code generation: structure of the generated source, region
bookkeeping, and correctness of each operator on micro-plans."""
import numpy as np
import pandas as pd
import pytest

from repro.core.common import expr as E
from repro.core.common.plan import Agg, HashGroupBy, HashJoin, Project, Scan, Select
from repro.core.common.table import Table
from repro.core.compiled import codegen, engine as C
from repro.core.vectorized import engine as V
from repro.queries import ssb, tpch
from repro.runner import prepare_ssb, prepare_tpch
from repro.simcpu import CostModel


@pytest.fixture()
def tables():
    rng = np.random.default_rng(3)
    n = 2000
    r = pd.DataFrame(
        {
            "k": rng.integers(0, 60, n),
            "k2": rng.integers(0, 4, n),
            "v": rng.random(n).round(4),
        }
    )
    s = pd.DataFrame(
        {"sk": rng.integers(0, 60, 150), "sk2": rng.integers(0, 4, 150),
         "pay": rng.random(150).round(4)}
    )
    return {"r": Table.from_pandas(r), "s": Table.from_pandas(s)}, {"r": r, "s": s}


def _micro_plans():
    join = HashJoin(
        build=Scan("s", ("sk", "pay")),
        probe=Scan("r", ("k", "v")),
        build_keys=("sk",),
        probe_keys=("k",),
        payload=("pay",),
    )
    return {
        "scan_project": Project(
            Scan("r", ("k", "v")),
            (("x", E.Arith("+", E.Col("k"), E.Const(1))),),
        ),
        "select": Select(Scan("r", ("k", "v")), (E.Cmp("<", E.Col("k"), E.Const(30)),)),
        "select_pred": Select(
            Scan("r", ("k", "v")),
            (E.Cmp("<", E.Col("k"), E.Const(30)),),
            predicated=True,
        ),
        "join": join,
        "composite_join": HashJoin(
            build=Scan("s", ("sk", "sk2", "pay")),
            probe=Scan("r", ("k", "k2")),
            build_keys=("sk", "sk2"),
            probe_keys=("k", "k2"),
            payload=("pay",),
        ),
        "groupby": HashGroupBy(
            Scan("r", ("k2", "v")),
            ("k2",),
            (Agg("s", "sum", E.Col("v")), Agg("c", "count"),
             Agg("a", "avg", E.Col("v"))),
        ),
        "global_agg": HashGroupBy(
            Scan("r", ("v",)), (), (Agg("s", "sum", E.Col("v")),)
        ),
        "join_groupby": HashGroupBy(
            join, ("k",), (Agg("p", "sum", E.Col("pay")),)
        ),
        "having": Select(
            HashGroupBy(Scan("r", ("k2", "v")), ("k2",), (Agg("s", "sum", E.Col("v")),)),
            (E.Cmp(">", E.Col("s"), E.Const(1.0)),),
        ),
    }


@pytest.mark.parametrize("name", list(_micro_plans()))
def test_micro_plan_matches_vectorized(tables, name):
    enc, _ = tables
    plan = _micro_plans()[name]
    got = C.run_plan(plan, enc)
    ref = V.run_plan(plan, enc)
    assert sorted(got.columns) == sorted(ref.columns)
    g = got[sorted(got.columns)].sort_values(sorted(got.columns)).reset_index(drop=True)
    r = ref[sorted(ref.columns)].sort_values(sorted(ref.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, r, check_dtype=False)


@pytest.mark.parametrize("workload,builder", [
    ("tpch", tpch.all_queries), ("ssb", ssb.all_queries),
])
def test_query_plans_compile(workload, builder):
    _, enc = prepare_tpch(0.002) if workload == "tpch" else prepare_ssb(0.002)
    for q in builder(enc).values():
        cq = C.compile_plan(q.plan)
        assert "def __run" in cq.source
        assert callable(cq._fn)


def test_generated_source_structure(tables):
    enc, _ = tables
    plan = _micro_plans()["join_groupby"]
    cq = C.compile_plan(plan)
    src = cq.source
    # one fused probe loop, inlined hash + tag check + chain walk
    assert "while _e" in src
    assert "tags_l" in src
    assert ".insert_scalar(" in src
    assert "rt.finalize_groupby" in src
    # region counters initialized and stored
    assert "_c_r0 = 0" in src
    assert "C['r0'] = _c_r0" in src


def test_region_counts_monotone(tables):
    """Counts along a filter chain can only shrink."""
    enc, _ = tables
    plan = Select(
        Scan("r", ("k", "v")),
        (E.Cmp("<", E.Col("k"), E.Const(30)), E.Cmp("<", E.Col("v"), E.Const(0.5))),
    )
    cq = C.compile_plan(plan)
    C_ = {}
    cq._fn(dict(enc), __import__("repro.core.compiled.runtime", fromlist=["x"]), {}, C_, {})
    counts = [C_[r.key] for r in cq.cg.regions]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == enc["r"].n


def test_predicated_select_single_region(tables):
    plan_b = _micro_plans()["select"]
    plan_p = _micro_plans()["select_pred"]
    n_branch = sum(r.branch for r in C.compile_plan(plan_b).cg.regions)
    n_pred = sum(r.branch for r in C.compile_plan(plan_p).cg.regions)
    assert n_pred <= n_branch


def test_and_conjuncts_flattened_to_branches(tables):
    plan = Select(
        Scan("r", ("k", "v")),
        (E.between(E.Col("k"), 10, 40),),
    )
    cq = C.compile_plan(plan)
    assert sum(r.branch for r in cq.cg.regions) == 2  # two compares, two ifs


def test_prebuilt_skips_build(tables):
    enc, raw = tables
    plan = _micro_plans()["join"]
    # build the HT once via the compiled engine itself
    hts = {}
    cq = C.compile_plan(plan)
    import repro.core.compiled.runtime as rt

    cq._fn(dict(enc), rt, hts, {}, {})
    ht = hts[plan.name]
    got = C.run_plan(plan, enc, prebuilt={plan.name: ht})
    ref = raw["r"].merge(raw["s"][["sk", "pay"]], left_on="k", right_on="sk")
    assert len(got) == len(ref)


def test_partial_mode(tables):
    enc, _ = tables
    plan = HashGroupBy(
        Scan("r", ("k2", "v")), ("k2",),
        (Agg("a", "avg", E.Col("v")),),
    )
    got = C.run_plan(plan, enc, partial=True)
    assert set(got.columns) == {"k2", "a__sum", "a__cnt"}


def test_cost_charging(tables):
    enc, _ = tables
    cm = CostModel()
    C.run_plan(_micro_plans()["join_groupby"], enc, cm=cm)
    assert cm.counters.instr > 0
    assert cm.counters.cycles > 0
    # compiled engine never pays primitive-call dispatch
    assert cm.counters.calls == 0


def test_typer_fewer_instructions_than_tw(tables):
    """The paper's core instruction-count claim, on a join micro-plan."""
    enc, _ = tables
    plan = _micro_plans()["join_groupby"]
    cm_t, cm_v = CostModel(), CostModel()
    C.run_plan(plan, enc, cm=cm_t)
    V.run_plan(plan, enc, cm=cm_v)
    assert cm_t.counters.instr < cm_v.counters.instr


def test_empty_inset_filters_everything(tables):
    enc, _ = tables
    plan = Select(Scan("r", ("k",)), (E.InSet(E.Col("k"), frozenset()),))
    assert len(C.run_plan(plan, enc)) == 0


def test_codegen_deterministic():
    plan = _micro_plans()["join"]
    a = codegen.generate(plan).source()
    b = codegen.generate(plan).source()
    assert a == b
