"""The oracle must catch wrong results, and the runner must dispatch."""
import pandas as pd
import pytest

from repro.oracle import assert_pandas_equivalent
from repro.queries import tpch
from repro.runner import prepare_tpch, run_query


def test_oracle_accepts_correct():
    t = pd.DataFrame({"x": [1, 2, 3]})
    got = pd.DataFrame({"s": [6]})
    assert_pandas_equivalent(got, "SELECT sum(x) AS s FROM t", t=t)


def test_oracle_rejects_wrong_value():
    t = pd.DataFrame({"x": [1, 2, 3]})
    got = pd.DataFrame({"s": [7]})
    with pytest.raises(AssertionError):
        assert_pandas_equivalent(got, "SELECT sum(x) AS s FROM t", t=t)


def test_oracle_rejects_missing_row():
    t = pd.DataFrame({"k": [1, 1, 2], "x": [1.0, 2.0, 3.0]})
    got = pd.DataFrame({"k": [1], "s": [3.0]})
    with pytest.raises(AssertionError):
        assert_pandas_equivalent(
            got, "SELECT k, sum(x) AS s FROM t GROUP BY k", t=t
        )


def test_oracle_rejects_column_mismatch():
    t = pd.DataFrame({"x": [1]})
    got = pd.DataFrame({"wrong_name": [1]})
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_pandas_equivalent(got, "SELECT sum(x) AS s FROM t", t=t)


def test_oracle_order_insensitive():
    t = pd.DataFrame({"k": [2, 1], "x": [1.0, 2.0]})
    got = pd.DataFrame({"s": [1.0, 2.0], "k": [2, 1]})  # different col+row order
    assert_pandas_equivalent(got, "SELECT k, sum(x) AS s FROM t GROUP BY k", t=t)


def test_runner_rejects_unknown_engine():
    """Only the canonical names of ``repro.core.ENGINES`` are accepted."""
    _, enc = prepare_tpch(0.002)
    q = tpch.q6(enc)
    for engine in ("tw", "compiled", "vectorized", "volcano"):
        with pytest.raises(ValueError):
            run_query(q, enc, engine)


def test_runner_decode_flag():
    _, enc = prepare_tpch(0.002)
    q = tpch.q1(enc)
    coded = run_query(q, enc, "typer", decode=False)
    decoded = run_query(q, enc, "typer", decode=True)
    assert coded["l_returnflag"].dtype != object
    assert decoded["l_returnflag"].dtype == object
