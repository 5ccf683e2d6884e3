"""Workloads: seeded inputs, set-up, and one checked (query, engine) run.

Each workload times the calls the paper-table harnesses make:

* ``tpch-sim`` and ``tw-smallvec`` call ``runner.run_query`` with a
  fresh ``CostModel(SKYLAKE, size_scale=model_sf/sf, FIXED_TABLES)``,
  as ``tables.common.counters_for`` does (Table 1, Fig 5);
* ``spark-morsel`` calls ``spark_exec.run_plan_spark`` on a probe table
  cached during set-up, then ``plan.decode_result``, as
  ``tables.table3.measured_rows`` does (the measured half of Table 3).

Every result is compared with DuckDB's answer for the same data,
outside the timed interval.
"""
from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass
from time import perf_counter

import pandas as pd

from repro import oracle, runner, synth_data
from repro.core import spark_exec
from repro.core.common import plan as PL
from repro.core.common.table import Table, to_oracle_pandas
from repro.queries import tpch
from repro.queries.base import FIXED_TABLES
from repro.simcpu import CostModel
from repro.simcpu.hardware import SKYLAKE

QUERIES = ("q1", "q6", "q3", "q9", "q18")
BOTH = ("typer", "tectorwise")

#: table generator seed = its default seed + SEED_STRIDE * workload seed,
#: so workload seed 0 reproduces ``runner.prepare_tpch``/``prepare_ssb``
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    sf: float
    queries: tuple
    engines: tuple
    vector_size: int = 1000
    #: scale factor the cost model is scaled to; the Spark workload runs
    #: without the cost model and leaves it None
    model_sf: float | None = None
    spark: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tpch-sim", 0.05, QUERIES, BOTH, model_sf=1.0),
        # SF 0.005 rather than the shape tests' 0.01, so a run holds
        # twice as many passes
        Workload("tw-smallvec", 0.005, QUERIES, ("tectorwise",), vector_size=16,
                 model_sf=1.0),
        # Q18 is left out: when the 64-row probe sample that
        # run_plan_spark types its partial output from yields no group,
        # Tectorwise types the float key o_totalprice as int64, and every
        # partition's o_totalprice is then cast to int64 (seeds 5 and 6)
        Workload("spark-morsel", 0.05, ("q1", "q9"), BOTH, spark=True),
    )
}


def table_seed(gen, seed: int) -> int:
    return inspect.signature(gen).parameters["seed"].default + SEED_STRIDE * seed


def generate(family: str, sf: float, seed: int) -> dict[str, pd.DataFrame]:
    """Raw pandas tables of ``family`` ("tpch" or "ssb"), named as the
    queries name them."""
    if family == "tpch":
        gens = dict(synth_data.TPCH_GENERATORS)
    elif family == "ssb":
        gens = dict(synth_data.SSB_GENERATORS)
        gens["ddate"] = gens.pop("date")
    else:
        raise ValueError(family)
    return {name: gen(sf, table_seed(gen, seed)) for name, gen in gens.items()}


def encode(raw: dict) -> tuple[dict, dict]:
    """``(oracle, enc)`` views of the raw tables, as ``runner`` builds them."""
    oracle_tables = {n: to_oracle_pandas(pdf) for n, pdf in raw.items()}
    enc = {n: Table.from_pandas(pdf) for n, pdf in raw.items()}
    return oracle_tables, enc


class Failure(Exception):
    pass


class State:
    """A workload's prepared inputs, expected answers and, for the Spark
    workload, its session and cached probe tables."""

    def __init__(self, workload: Workload, seed: int, spark=None, partitions: int = 1):
        self.w = workload
        self.seed = seed
        self.spark = spark
        self.partitions = partitions
        self.probe = {}
        self.first_counters = {}

    def setup(self) -> dict:
        """Generate, encode, compute DuckDB's answers and cache probe
        tables; returns the time of each step in seconds."""
        w = self.w
        t0 = perf_counter()
        raw = generate("tpch", w.sf, self.seed)
        t1 = perf_counter()
        oracle_tables, self.enc = encode(raw)
        queries = tpch.all_queries(self.enc)
        self.queries = {q: queries[q] for q in w.queries}
        t2 = perf_counter()
        self.expected = {
            name: oracle._canon(oracle.duckdb_result(
                q.sql, **{t: oracle_tables[t] for t in q.tables}))
            for name, q in self.queries.items()
        }
        t3 = perf_counter()
        self.release_probes()
        if self.spark is not None:
            self.probe = {
                name: spark_exec.cached_probe_df(
                    self.spark, q.plan, self.enc, self.partitions)
                for name, q in self.queries.items()
            }
        t4 = perf_counter()
        self.tuples = {name: q.tuples_scanned(self.enc) for name, q in self.queries.items()}
        return {
            "synth_data.gen_s": t1 - t0,
            "table.encode_s": t2 - t1,
            "oracle.expected_s": t3 - t2,
            "spark.probe_cache_s": t4 - t3 if self.spark is not None else 0.0,
        }

    def release_probes(self) -> None:
        for sdf in self.probe.values():
            sdf.unpersist()
        self.probe = {}

    def modelled_tuples(self, qname: str) -> float:
        """Tuples ``qname`` scans at the modelled scale factor, the
        normaliser of per-tuple counters."""
        return self.tuples[qname] * self.w.model_sf / self.w.sf

    def pairs(self) -> list:
        return [(q, e) for q in self.w.queries for e in self.w.engines]

    def execute(self, qname: str, engine: str) -> tuple[float, pd.DataFrame, dict | None]:
        """One timed execution: ``(seconds, decoded result, counters)``."""
        w, q = self.w, self.queries[qname]
        if w.spark:
            t0 = perf_counter()
            coded = spark_exec.run_plan_spark(
                self.spark, q.plan, self.enc, engine=engine,
                n_partitions=self.partitions, probe_sdf=self.probe[qname],
            )
            df = PL.decode_result(coded, q.plan, self.enc)
            return perf_counter() - t0, df, None
        cm = CostModel(SKYLAKE, size_scale=w.model_sf / w.sf, fixed_tables=FIXED_TABLES)
        t0 = perf_counter()
        df = runner.run_query(q, self.enc, engine, cm=cm, vector_size=w.vector_size)
        dt = perf_counter() - t0
        return dt, df, asdict(cm.counters.scaled(w.model_sf / w.sf))

    def check(self, qname: str, engine: str, df: pd.DataFrame, counters) -> None:
        """Raise ``Failure`` unless ``df`` equals DuckDB's answer and the
        counters equal those of this pair's first execution."""
        expected = self.expected[qname]
        if sorted(df.columns) != list(expected.columns):
            raise Failure(f"columns {sorted(df.columns)} != {list(expected.columns)}")
        try:
            pd.testing.assert_frame_equal(oracle._canon(df), expected, check_dtype=False)
        except AssertionError as e:
            raise Failure(f"result differs from DuckDB: {e}") from None
        first = self.first_counters.setdefault((qname, engine), counters)
        if counters != first:
            raise Failure("simulated counters differ from the first execution")
