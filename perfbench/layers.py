"""Which of the program's entry points the traced run wraps, and the
per-layer metrics computed from what the wrappers record.

Every function is wrapped where the program looks it up: a module
attribute read at call time, or a class attribute. ``aggregate_pandas``
is imported by name into two modules, and ``decode_result`` and
``run_plan`` are reachable under two names each, so each of those names
is wrapped. Calls made inside Spark's Python workers run in other
processes and are not seen; only the driver's side of the Spark path is.

``vectorized.pipeline_s`` is the self time of all three Tectorwise
spans, not of ``run_plan`` alone: a root group-by runs its whole
pipeline inside ``groupby_df``, so ``run_plan``'s own self time is
near zero.
"""
from __future__ import annotations

from repro import runner
from repro.core import spark_exec
from repro.core import vectorized as vectorized_pkg
from repro.core.common import hashtable
from repro.core.common import plan as PL
from repro.core.compiled import engine as compiled_engine
from repro.core.compiled import runtime as compiled_runtime
from repro.core.vectorized import engine as vectorized_engine
from repro.core.vectorized import operators, primitives
from repro.simcpu import model

#: per-layer metrics timed once per set-up repeat, not per pass
SETUP_LAYERS = (
    "synth_data.gen_s",
    "table.encode_s",
    "oracle.expected_s",
    "spark.session_s",
    "spark.probe_cache_s",
)
TW_SPANS = ("vectorized.run_plan", "vectorized.build", "vectorized.groupby")


def _source_lines(tr, args, compiled_query):
    tr.counts["compiled.source_lines"] += compiled_query.source.count("\n") + 1


def _aggregate_rows(tr, args, result):
    key_arrays, input_arrays = args[0], args[1]
    arrays = key_arrays or input_arrays
    tr.counts["aggregate.rows_in"] += len(next(iter(arrays.values()))) if arrays else 0
    tr.counts["aggregate.groups_out"] += len(result)


def _entries(tr, args, result):
    tr.counts["hashtable.entries"] += args[0].n_entries


def targets(tr, spark_context_cls=None, spark_df_cls=None) -> list:
    """``(owner, attribute, wrapper)`` triples for ``tracer.patched``."""
    run_plan = tr.wrap("vectorized.run_plan", vectorized_engine.run_plan)
    aggregate = tr.wrap(
        "aggregate.pandas", operators.aggregate_pandas, observe=_aggregate_rows
    )
    decode = tr.wrap("plan.decode", PL.decode_result)
    CQ = compiled_engine.CompiledQuery
    HT = hashtable.ChainingHashTable
    R = vectorized_engine._Runner
    out = [
        (compiled_engine, "compile_plan", tr.wrap(
            "compiled.compile", compiled_engine.compile_plan, observe=_source_lines)),
        (CQ, "run", tr.wrap("compiled.run", CQ.run)),
        (CQ, "_charge", tr.wrap("compiled.charge", CQ._charge)),
        (vectorized_engine, "run_plan", run_plan),
        (vectorized_pkg, "run_plan", run_plan),
        (R, "build_hashtable", tr.wrap("vectorized.build", R.build_hashtable)),
        (R, "groupby_df", tr.wrap("vectorized.groupby", R.groupby_df)),
        (primitives, "charge", tr.wrap("primitives.charge", primitives.charge, counted=True)),
        (model.CostModel, "loop", tr.wrap("simcpu.loop", model.CostModel.loop, counted=True)),
        (operators, "aggregate_pandas", aggregate),
        (compiled_runtime, "aggregate_pandas", aggregate),
        (HT, "build_bulk", tr.wrap("hashtable.build", HT.build_bulk)),
        (HT, "freeze", tr.wrap("hashtable.build", HT.freeze, observe=_entries)),
        (runner, "decode_result", decode),
        (PL, "decode_result", decode),
        (spark_exec, "run_plan_spark", tr.wrap("spark.run_plan_spark", spark_exec.run_plan_spark)),
        (spark_exec, "_materialize", tr.wrap("spark.materialize", spark_exec._materialize)),
        (spark_exec, "_build_ht", tr.wrap("spark.build_ht", spark_exec._build_ht)),
    ]
    if spark_context_cls is not None:
        out.append((spark_context_cls, "broadcast", tr.wrap(
            "spark.broadcast", spark_context_cls.broadcast)))
    if spark_df_cls is not None:
        out.append((spark_df_cls, "toPandas", tr.wrap(
            "spark.collect", spark_df_cls.toPandas)))
    return out


def metrics(tr, n_passes: int) -> dict:
    """``{name: (value per pass, unit)}`` for every per-pass layer metric."""
    p = max(n_passes, 1)
    c = tr.counts
    rows, groups = c["aggregate.rows_in"], c["aggregate.groups_out"]
    return {
        "compiled.compile_ms": (tr.total_s("compiled.compile") * 1000 / p, "ms/pass"),
        "compiled.source_lines": (c["compiled.source_lines"] / p, "lines/pass"),
        "compiled.loop_s": (tr.self_s("compiled.run") / p, "s/pass"),
        "compiled.charge_s": (tr.total_s("compiled.charge") / p, "s/pass"),
        "vectorized.pipeline_s": (sum(map(tr.self_s, TW_SPANS)) / p, "s/pass"),
        "vectorized.build_s": (tr.total_s("vectorized.build") / p, "s/pass"),
        "vectorized.groupby_s": (tr.total_s("vectorized.groupby") / p, "s/pass"),
        "simcpu.loop_calls": (tr.calls["simcpu.loop"] / p, "calls/pass"),
        "simcpu.loop_s": (tr.call_s["simcpu.loop"] / p, "s/pass"),
        "primitives.charge_calls": (tr.calls["primitives.charge"] / p, "calls/pass"),
        "primitives.charge_s": (tr.call_s["primitives.charge"] / p, "s/pass"),
        "aggregate.pandas_s": (tr.total_s("aggregate.pandas") / p, "s/pass"),
        "aggregate.rows_in": (rows / p, "rows/pass"),
        "aggregate.groups_out": (groups / p, "groups/pass"),
        "aggregate.rows_per_group": (rows / groups if groups else 0.0, "rows/group"),
        "hashtable.build_s": (tr.total_s("hashtable.build") / p, "s/pass"),
        "hashtable.entries": (c["hashtable.entries"] / p, "entries/pass"),
        "spark.materialize_s": (tr.total_s("spark.materialize") / p, "s/pass"),
        "spark.build_ht_s": (tr.total_s("spark.build_ht") / p, "s/pass"),
        "spark.broadcast_s": (tr.total_s("spark.broadcast") / p, "s/pass"),
        "spark.sample_s": (
            tr.total_s_under("vectorized.run_plan", "spark.run_plan_spark") / p,
            "s/pass",
        ),
        "spark.collect_s": (tr.total_s("spark.collect") / p, "s/pass"),
        "plan.decode_s": (tr.total_s("plan.decode") / p, "s/pass"),
    }
