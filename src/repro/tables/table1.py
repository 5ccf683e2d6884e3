"""Paper Table 1 — CPU counters, TPC-H SF=1, 1 thread, per tuple.

Reproduced with both engines executed at a small SF and the cost model
scaled to SF=1 (DESIGN.md §2). Paper values are embedded so the harness
prints ours next to theirs.
"""
from __future__ import annotations

from ..core import ENGINES
from . import common, fmt

# (cycles, IPC, instr, L1miss, LLCmiss, branchmiss) from the paper
PAPER = {
    ("q1", "typer"): (34, 2.0, 68, 0.6, 0.57, 0.01),
    ("q1", "tectorwise"): (59, 2.8, 162, 2.0, 0.57, 0.03),
    ("q6", "typer"): (11, 1.8, 20, 0.3, 0.35, 0.06),
    ("q6", "tectorwise"): (11, 1.4, 15, 0.2, 0.29, 0.01),
    ("q3", "typer"): (25, 0.8, 21, 0.5, 0.16, 0.27),
    ("q3", "tectorwise"): (24, 1.8, 42, 0.9, 0.16, 0.08),
    ("q9", "typer"): (74, 0.6, 42, 1.7, 0.46, 0.34),
    ("q9", "tectorwise"): (56, 1.3, 76, 2.1, 0.47, 0.39),
    ("q18", "typer"): (30, 1.6, 46, 0.8, 0.19, 0.16),
    ("q18", "tectorwise"): (48, 2.1, 102, 1.9, 0.19, 0.37),
}


def rows(sf_exec: float = 0.05) -> list[dict]:
    data = common.counters_for("tpch", sf_exec, 1.0)
    out = []
    for (qname, eng), (c, norm) in data.items():
        d = c.per_tuple(int(norm))
        p = PAPER[(qname, eng)]
        out.append(
            {
                "query": qname,
                "engine": ENGINES[eng].label,
                "cycles": d["cycles"], "paper_cyc": p[0],
                "IPC": d["IPC"], "paper_IPC": p[1],
                "instr": d["instr"], "paper_instr": p[2],
                "L1miss": d["L1miss"], "paper_L1": p[3],
                "LLCmiss": d["LLCmiss"], "paper_LLC": p[4],
                "brmiss": d["branchmiss"], "paper_br": p[5],
            }
        )
    return out


def render(sf_exec: float = 0.05) -> str:
    return fmt.render(
        rows(sf_exec),
        "Table 1 — CPU counters, TPC-H SF=1, 1 thread, normalized per tuple "
        "(simulated vs paper)",
    )
