"""Shared measurement machinery for the table harnesses.

``counters_for`` executes a workload's queries on both engines at a
small scale factor with the analytic cost model scaled to the paper's
scale factor (DESIGN.md §2), returning per-(query, engine) counters.
Results are cached per (workload, sf_exec, model_sf, hw) so multiple
tables can share one execution pass.
"""
from __future__ import annotations

from functools import lru_cache

from ..core import ENGINES
from ..queries import ssb, tpch
from ..queries.base import FIXED_TABLES
from ..runner import prepare_ssb, prepare_tpch, run_query
from ..simcpu import CostModel
from ..simcpu.hardware import PLATFORMS


def load_workload(workload: str, sf_exec: float, q18_threshold: float = 300.0):
    if workload == "tpch":
        oracle, enc = prepare_tpch(sf_exec)
        queries = tpch.all_queries(enc, q18_threshold=q18_threshold)
    elif workload == "ssb":
        oracle, enc = prepare_ssb(sf_exec)
        queries = ssb.all_queries(enc)
    else:
        raise ValueError(workload)
    return oracle, enc, queries


@lru_cache(maxsize=32)
def counters_for(
    workload: str,
    sf_exec: float,
    model_sf: float,
    hw_name: str = "skylake",
    vector_size: int = 1000,
):
    """Run every query of ``workload`` on both engines; returns
    ``{(query, engine): (Counters at model_sf totals, norm_tuples at model_sf)}``.
    """
    hw = PLATFORMS[hw_name]
    _, enc, queries = load_workload(workload, sf_exec)
    out = {}
    for qname, q in queries.items():
        norm = q.tuples_scanned(enc)
        for eng in ENGINES:
            cm = CostModel(
                hw, size_scale=model_sf / sf_exec, fixed_tables=FIXED_TABLES
            )
            run_query(q, enc, eng, cm=cm, vector_size=vector_size)
            scaled = cm.counters.scaled(model_sf / sf_exec)
            out[(qname, eng)] = (scaled, norm * model_sf / sf_exec)
    return out


def scanned_bytes(workload: str, sf_exec: float, model_sf: float) -> dict:
    """Bytes of referenced base columns per query, at the modelled SF."""
    _, enc, queries = load_workload(workload, sf_exec)
    from ..core.common import plan as PL

    out = {}
    for qname, q in queries.items():
        total = 0
        for s in PL.scans(q.plan):
            fixed = s.table in FIXED_TABLES
            b = enc[s.table].nbytes(s.cols)
            total += b if fixed else b * model_sf / sf_exec
        out[qname] = total
    return out
