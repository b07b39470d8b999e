"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fairaudit import ColumnRole, Dataset
from fairaudit.rng import CounterRng


def binary_dataset(a: int, b: int, c: int, d: int) -> Dataset:
    """Dataset whose contingency table is exactly (a, b, c, d)."""
    schema = {
        "s": ColumnRole("sensitive", protected="P"),
        "y": ColumnRole("decision", positive="1"),
    }
    columns = {
        "s": ["P"] * (a + b) + ["N"] * (c + d),
        "y": ["1"] * a + ["0"] * b + ["1"] * c + ["0"] * d,
    }
    return Dataset(schema, columns)


def confusion_dataset(p_counts: tuple[int, int, int, int],
                      n_counts: tuple[int, int, int, int]) -> Dataset:
    """Dataset with the given per-group (tp, fp, tn, fn) confusion counts."""
    def block(label: str, tp: int, fp: int, tn: int, fn: int):
        s = [label] * (tp + fp + tn + fn)
        y = ["1"] * tp + ["1"] * fp + ["0"] * tn + ["0"] * fn
        t = ["1"] * tp + ["0"] * fp + ["0"] * tn + ["1"] * fn
        return s, y, t

    sp, yp, tp_ = block("P", *p_counts)
    sn, yn, tn_ = block("N", *n_counts)
    schema = {
        "s": ColumnRole("sensitive", protected="P"),
        "y": ColumnRole("decision", positive="1"),
        "t": ColumnRole("outcome", positive="1"),
    }
    return Dataset(schema, {"s": sp + sn, "y": yp + yn, "t": tp_ + tn_})


def feature_dataset(x: np.ndarray, labels: np.ndarray, sensitive: np.ndarray,
                    extra: dict | None = None) -> Dataset:
    """One numeric feature ``x``, decisions ``labels``, sensitive ``sensitive``."""
    schema = {
        "x": ColumnRole("numeric"),
        "s": ColumnRole("sensitive", protected="a"),
        "y": ColumnRole("decision", positive="1"),
    }
    columns = {"x": x, "s": sensitive, "y": labels}
    if extra:
        for name, values in extra.items():
            schema[name] = ColumnRole("numeric")
            columns[name] = values
    return Dataset(schema, columns)


def integers(rng: CounterRng, upper: int, n: int) -> np.ndarray:
    """``n`` integers uniform on [0, upper) drawn from ``rng``: the per-replicate reference that
    ``rng.resample_blocks`` vectorizes. ``upper`` must fit a double."""
    if upper <= 0:
        raise ValueError("upper must be positive")
    return np.floor(rng.uniforms(n) * upper).astype(np.int64)


def check_guard(call, error, message: str) -> None:
    """``call()`` raises ``error`` with exactly ``message``; with no error, it returns a collection holding it."""
    if error is None:
        assert message in call()
        return
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
