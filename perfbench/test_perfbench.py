"""Tests of the benchmark itself: seeded inputs, the counter record,
the tracer, and the output contract of ``run.py``.

Run from the repository root with ``python -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

from repro import runner
from repro.tables import common
from tracer import Tracer, patched
from workloads import WORKLOADS, State, encode, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _assert_same_tables(ours, theirs):
    (o_oracle, o_enc), (t_oracle, t_enc) = ours, theirs
    assert o_oracle.keys() == t_oracle.keys() == o_enc.keys() == t_enc.keys()
    for name in o_oracle:
        pd.testing.assert_frame_equal(o_oracle[name], t_oracle[name])
        assert o_enc[name].columns.keys() == t_enc[name].columns.keys()
        for c, arr in o_enc[name].columns.items():
            np.testing.assert_array_equal(arr, t_enc[name].columns[c])
            assert arr.dtype == t_enc[name].columns[c].dtype
        assert o_enc[name].dicts.keys() == t_enc[name].dicts.keys()
        for c, d in o_enc[name].dicts.items():
            np.testing.assert_array_equal(d, t_enc[name].dicts[c])


@pytest.mark.parametrize("family,prepare", [
    ("tpch", runner.prepare_tpch), ("ssb", runner.prepare_ssb),
])
def test_seed_zero_reproduces_prepared_data(family, prepare):
    _assert_same_tables(encode(generate(family, 0.01, 0)), prepare(0.01))


def test_other_seeds_give_other_data():
    a = generate("tpch", 0.01, 0)["lineitem"]
    b = generate("tpch", 0.01, 1)["lineitem"]
    assert len(a) == len(b)
    assert not a.equals(b)
    pd.testing.assert_frame_equal(b, generate("tpch", 0.01, 1)["lineitem"])


def test_tpch_sim_counters_match_table_harness():
    """The benchmark's tpch-sim executions are the Table 1 harness path."""
    w = WORKLOADS["tpch-sim"]
    state = State(w, 0)
    state.setup()
    for q, e in state.pairs():
        _, df, counters = state.execute(q, e)
        state.check(q, e, df, counters)
    harness = common.counters_for("tpch", w.sf, w.model_sf)
    assert set(harness) == set(state.first_counters)
    for (q, e), (scaled, norm) in harness.items():
        assert state.first_counters[(q, e)] == vars(scaled), (q, e)
        assert state.modelled_tuples(q) == norm


def test_check_rejects_wrong_result_and_changed_counters():
    from workloads import Failure

    state = State(WORKLOADS["tpch-sim"], 0)
    state.setup()
    _, df, counters = state.execute("q6", "tectorwise")
    state.check("q6", "tectorwise", df, counters)
    with pytest.raises(Failure):
        state.check("q6", "tectorwise", df * 2, counters)
    with pytest.raises(Failure):
        state.check("q6", "tectorwise", df, dict(counters, instr=0.0))


def _fake_clock(monkeypatch):
    import tracer as tracer_mod

    ticks = iter(range(1000))
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: float(next(ticks)))


def test_self_time_subtracts_spans_and_counted_probes(monkeypatch):
    _fake_clock(monkeypatch)
    tr = Tracer()
    tr.execution = ("q1", "typer", 0)
    leaf = tr.wrap("leaf", lambda: None, counted=True)
    inner = tr.wrap("inner", lambda: leaf())
    outer = tr.wrap("outer", lambda: (inner(), leaf()))
    outer()
    # clock: outer 0-7, inner 1-4, leaf 2-3, leaf 5-6
    assert (tr.calls["leaf"], tr.call_s["leaf"]) == (2, 2.0)
    assert [s.name for s in tr.spans] == ["inner", "outer"]
    assert (tr.total_s("inner"), tr.self_s("inner")) == (3.0, 2.0)
    assert (tr.total_s("outer"), tr.self_s("outer")) == (7.0, 3.0)
    assert tr.spans[0].parent is tr.spans[1]
    assert {s.execution for s in tr.spans} == {("q1", "typer", 0)}
    assert tr.total_s_under("inner", "outer") == 3.0


def test_recursive_span_is_counted_once(monkeypatch):
    _fake_clock(monkeypatch)
    tr = Tracer()
    rec = tr.wrap("rec", lambda n: rec(n - 1) if n else None)
    rec(1)
    # clock: rec(1) 0-3, rec(0) 1-2
    assert tr.total_s("rec") == 3.0
    assert tr.self_s("rec") == 3.0


def test_patched_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    with patched([(Child, "f", lambda self: "p"), (Child, "g", lambda self: "q")]):
        assert (Child().f(), Child().g()) == ("p", "q")
    assert (Child().f(), Child().g()) == ("base", "child")
    assert "f" not in vars(Child)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_of_the_spec(trace, section):
    out = _run("--workload", "tpch-sim", "--seed", "2", "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (20 if trace == "0" else 30)
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if trace == "1":
        lines = [ln for ln in out.stdout.splitlines() if ln.strip().startswith("counters ")]
        assert len(lines) == 10


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _run("--workload", "tpch-sim", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
