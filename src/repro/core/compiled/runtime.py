"""Runtime support library for generated Typer code.

Generated code inlines per-tuple work (hashing, probing, filtering) and
only calls out here for whole-pipeline steps: hash-table construction
wrappers and the shared aggregation kernel — the same kernel Tectorwise
uses, so both engines produce bit-identical results.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.aggregate import aggregate_pandas
from ..common.hashtable import ChainingHashTable


def make_ht(n_key_cols: int, payload_names: list, hash_fn: str) -> ChainingHashTable:
    return ChainingHashTable(n_key_cols, payload_names, hash_fn=hash_fn)


def finalize_groupby(key_lists: dict, input_lists: dict, aggs, keys, partial: bool) -> pd.DataFrame:
    key_arrays = {k: np.asarray(v) for k, v in key_lists.items()}
    input_arrays = {o: np.asarray(v) for o, v in input_lists.items()}
    return aggregate_pandas(key_arrays, input_arrays, aggs, list(keys), partial)


def lists_to_df(cols: dict) -> pd.DataFrame:
    return pd.DataFrame({c: np.asarray(v) for c, v in cols.items()})
