"""Shared aggregation finalization.

Both engines accumulate (group-key, aggregate-input) rows and finish the
aggregation here, so results are bit-identical across engines and the
partial/final split for Spark morsel parallelism lives in one place.

Partial mode emits mergeable columns: ``sum``/``min``/``max`` stay
themselves, ``count`` emits a count to be summed, ``avg`` splits into
``<out>__sum`` and ``<out>__cnt`` (finalized as their quotient).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from . import plan as PL
from .expr import Arith, Col, Const


def agg_input_col(out: str) -> str:
    return f"__in_{out}"


def partial_columns(agg) -> list:
    """(column, merge_fn) pairs a partial aggregate emits for ``agg``."""
    if agg.fn == "avg":
        return [(f"{agg.out}__sum", "sum"), (f"{agg.out}__cnt", "sum")]
    if agg.fn == "count":
        return [(agg.out, "sum")]
    return [(agg.out, agg.fn)]


def _is_count(agg, col: str) -> bool:
    """Whether partial column ``col`` of ``agg`` holds a row count."""
    return agg.fn == "count" or col == f"{agg.out}__cnt"


def partial_dtypes(plan, tables) -> dict:
    """Column -> dtype (``int64``/``float64``) of the partial aggregates
    the root group-by ``plan`` emits, in the engines' column order.

    Derived from the plan and the scanned tables' dtypes alone, so that
    an empty or unlucky morsel cannot change it:

    * scan columns take their numpy kind;
    * ``/`` gives float, other arithmetic gives float if either side is
      float, otherwise int;
    * comparisons and boolean operators give int;
    * join payloads take the build side's kinds;
    * ``count`` and ``__cnt`` are int; ``sum``, ``min``, ``max`` and
      ``__sum`` take their input's kind, ``avg`` (below the root) float.
    """

    def expr_kind(e, kinds) -> str:
        if isinstance(e, Col):
            return kinds[e.name]
        if isinstance(e, Const):
            return "f" if isinstance(e.value, float) else "i"
        if isinstance(e, Arith):
            sides = (expr_kind(e.l, kinds), expr_kind(e.r, kinds))
            return "f" if e.op == "/" or "f" in sides else "i"
        return "i"  # Cmp, InSet, And, Or, Not

    def out_kinds(node) -> dict:
        if isinstance(node, PL.Scan):
            cols = tables[node.table].columns
            return {c: "f" if cols[c].dtype.kind == "f" else "i" for c in node.cols}
        if isinstance(node, PL.Select):
            return out_kinds(node.child)
        if isinstance(node, PL.Project):
            kinds = out_kinds(node.child)
            return {name: expr_kind(e, kinds) for name, e in node.outputs}
        if isinstance(node, PL.HashJoin):
            build = out_kinds(node.build)
            return {**out_kinds(node.probe), **{p: build[p] for p in node.payload}}
        if isinstance(node, PL.HashGroupBy):
            kinds = out_kinds(node.child)
            out = {k: kinds[k] for k in node.keys}
            for a in node.aggs:
                out[a.out] = (
                    "i" if a.fn == "count"
                    else "f" if a.fn == "avg"
                    else expr_kind(a.expr, kinds)
                )
            return out
        raise TypeError(type(node))

    kinds = out_kinds(plan.child)
    out = {k: kinds[k] for k in plan.keys}
    for a in plan.aggs:
        for col, _ in partial_columns(a):
            out[col] = "i" if _is_count(a, col) else expr_kind(a.expr, kinds)
    return {c: "float64" if k == "f" else "int64" for c, k in out.items()}


def finalize_partials(pdf: pd.DataFrame, keys, aggs) -> pd.DataFrame:
    """Merge partial-aggregate rows (possibly from many morsels).

    Without keys, a ``sum``/``min``/``max`` over no non-NaN partial is
    NaN (SQL's NULL over an empty input), while counts stay 0.
    """
    if keys:
        spec = {col: fn for a in aggs for col, fn in partial_columns(a)}
        merged = pdf.groupby(list(keys), sort=False, as_index=False).agg(spec)
    else:
        row = {}
        for a in aggs:
            for col, fn in partial_columns(a):
                if fn == "sum":
                    row[col] = pdf[col].sum(min_count=0 if _is_count(a, col) else 1)
                else:
                    row[col] = getattr(pdf[col], fn)()
        merged = pd.DataFrame({c: [v] for c, v in row.items()})
    out = merged[list(keys)].copy() if keys else pd.DataFrame(index=[0])
    for a in aggs:
        if a.fn == "avg":
            out[a.out] = merged[f"{a.out}__sum"] / merged[f"{a.out}__cnt"]
        else:
            out[a.out] = merged[a.out]
    return out


def aggregate_pandas(
    key_arrays: dict, input_arrays: dict, aggs, keys, partial: bool = False
) -> pd.DataFrame:
    """Aggregate accumulated rows.

    ``key_arrays`` maps key column -> np array; ``input_arrays`` maps
    aggregate output name -> its input values (absent for count).
    """
    n = (
        len(next(iter(key_arrays.values())))
        if key_arrays
        else (len(next(iter(input_arrays.values()))) if input_arrays else 0)
    )
    data = dict(key_arrays)
    for out, vals in input_arrays.items():
        data[agg_input_col(out)] = vals
    df = pd.DataFrame(data) if data else pd.DataFrame(index=range(n))

    if keys:
        gb = df.groupby(list(keys), sort=False, as_index=False)
        spec = {}
        size_col = keys[0]  # any column works for a 'size' named aggregation
        for a in aggs:
            if partial and a.fn == "avg":
                spec[f"{a.out}__sum"] = (agg_input_col(a.out), "sum")
                spec[f"{a.out}__cnt"] = (agg_input_col(a.out), "size")
            elif a.fn == "count":
                spec[a.out] = (size_col, "size")
            elif a.fn == "avg":
                spec[a.out] = (agg_input_col(a.out), "mean")
            else:
                spec[a.out] = (agg_input_col(a.out), a.fn)
        return gb.agg(**spec)

    row = {}
    for a in aggs:
        v = df[agg_input_col(a.out)] if a.fn != "count" else None
        if partial and a.fn == "avg":
            row[f"{a.out}__sum"] = v.sum() if n else 0.0
            row[f"{a.out}__cnt"] = n
        elif a.fn == "count":
            row[a.out] = n
        elif n == 0:
            row[a.out] = np.nan
        else:
            row[a.out] = getattr(v, "mean" if a.fn == "avg" else a.fn)()
    return pd.DataFrame({k: [v] for k, v in row.items()})
