"""Paper §4.4 (unnumbered table) — SSB SF=30 CPU counters, 1 thread."""
from __future__ import annotations

from ..core import ENGINES
from . import common, fmt

# (cycles, IPC, instr, L1, LLC, branch, memstall) from the paper
PAPER = {
    ("q1.1", "typer"): (28, 0.7, 21, 0.3, 0.31, 0.69, 6.33),
    ("q1.1", "tectorwise"): (12, 2.0, 23, 0.4, 0.29, 0.05, 2.77),
    ("q2.1", "typer"): (39, 0.8, 30, 1.3, 0.12, 0.17, 18.35),
    ("q2.1", "tectorwise"): (30, 1.5, 44, 1.6, 0.13, 0.23, 7.63),
    ("q3.1", "typer"): (55, 0.7, 40, 1.1, 0.20, 0.24, 27.95),
    ("q3.1", "tectorwise"): (53, 1.3, 71, 1.7, 0.23, 0.41, 15.68),
    ("q4.1", "typer"): (78, 0.5, 39, 1.8, 0.31, 0.38, 45.91),
    ("q4.1", "tectorwise"): (59, 1.0, 61, 2.5, 0.32, 0.63, 19.48),
}


def rows(sf_exec: float = 0.05) -> list[dict]:
    data = common.counters_for("ssb", sf_exec, 30.0)
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
                "memstall": d["memstall"], "paper_stall": p[6],
                "brmiss": d["branchmiss"], "paper_br": p[5],
            }
        )
    return out


def render(sf_exec: float = 0.05) -> str:
    return fmt.render(
        rows(sf_exec),
        "SSB (§4.4) — CPU counters, SF=30, 1 thread, per tuple "
        "(simulated vs paper)",
    )
