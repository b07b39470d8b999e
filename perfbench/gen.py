"""Seeded input generator for the benchmark, independent of ``fairaudit synth``.

Every table has three Gaussian numerics with about 1% empty cells, one
categorical with eight modalities, the sensitive, decision and outcome
columns, and an ignored free-text column whose cells hold commas and quotes,
so that imputation, one-hot encoding and CSV quoting all run. The arrays are
kept next to the CSV: the output checks recount from them, never from the
program's own parse.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUMERICS = ("x1", "x2", "x3")
MODALITIES = tuple(f"m{k}" for k in range(8))
SCHEMA = {
    "x1": "numeric",
    "x2": "numeric",
    "x3": "numeric",
    "cat": "categorical",
    "s": {"role": "sensitive", "protected": "P"},
    "y": {"role": "decision", "positive": "yes"},
    "t": {"role": "outcome", "positive": "good"},
}
HEADER = ("x1", "x2", "x3", "cat", "s", "y", "t", "note")
_WORDS = ("alpha", "beta, gamma", 'say "hi"', "plain", 'a "b, c"', "x,y,z")


@dataclass(frozen=True)
class Table:
    """Generated columns: numerics as float arrays (NaN = empty cell)."""

    numerics: dict[str, np.ndarray]
    cat: np.ndarray  # modality index
    protected: np.ndarray  # bool
    decision: np.ndarray  # bool, positive decision
    outcome: np.ndarray  # bool, positive outcome

    @property
    def n(self) -> int:
        return len(self.protected)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for the ``index``-th input of a workload seed."""
    return np.random.default_rng([index, seed % 2**63])


def make_table(n: int, rng: np.random.Generator, group_bias: float) -> Table:
    """Draw n rows; ``group_bias`` shifts the protected group's decision score."""
    # group and modality counts are fixed shares of n, so the work a seed
    # implies (e.g. training iterations) varies less from seed to seed
    protected = rng.permutation(np.arange(n) < round(0.4 * n))
    shift = np.where(protected, 0.0, 0.3)
    numerics = {name: rng.standard_normal(n) + shift for name in NUMERICS}
    shares = np.linspace(2.0, 1.0, len(MODALITIES)) / 12.0
    cat = rng.permutation(np.searchsorted(np.cumsum(shares) * n, np.arange(n), side="right"))
    cat_effect = np.linspace(-0.6, 0.6, len(MODALITIES))[cat]
    x1, x2, x3 = (numerics[k] for k in NUMERICS)
    z_dec = 0.9 * x1 + 0.6 * x2 - 0.3 * x3 + cat_effect - 0.2 + group_bias * protected
    decision = rng.random(n) < _sigmoid(z_dec)
    outcome = rng.random(n) < _sigmoid(0.8 * x1 + 0.4 * x3 + 0.2 * cat_effect)
    for name in NUMERICS:
        numerics[name][rng.random(n) < 0.01] = np.nan
    return Table(numerics, cat, protected, decision, outcome)


def _numeric_cells(values: np.ndarray) -> list[str]:
    # shortest round-trip text, so a value read back compares equal
    return ["" if v != v else repr(v) for v in values.tolist()]


def write_csv(table: Table, path: Path, rng: np.random.Generator) -> None:
    notes = [f"note {k}, {_WORDS[w]}" for k, w in
             zip(rng.integers(0, 1000, table.n).tolist(),
                 rng.integers(0, len(_WORDS), table.n).tolist())]
    cols = [_numeric_cells(table.numerics[k]) for k in NUMERICS]
    cols.append(np.asarray(MODALITIES)[table.cat].tolist())
    cols.append(np.where(table.protected, "P", "N").tolist())
    cols.append(np.where(table.decision, "yes", "no").tolist())
    cols.append(np.where(table.outcome, "good", "bad").tolist())
    cols.append(notes)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(zip(*cols))


def write_schema(path: Path, schema: dict = SCHEMA) -> None:
    path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV, parsed by the standard library."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# -- oracles --------------------------------------------------------------------


def contingency(protected: np.ndarray, positive: np.ndarray) -> dict:
    """The 2x2 table of positive decisions by group, counted from the arrays."""
    a = int(np.count_nonzero(protected & positive))
    c = int(np.count_nonzero(~protected & positive))
    n1 = int(np.count_nonzero(protected))
    n2 = len(protected) - n1
    return {"a": a, "b": n1 - a, "c": c, "d": n2 - c}


def disparate_impact(t: dict) -> float:
    """p1 / p2 with the README's zero-cell correction."""
    n1, n2 = t["a"] + t["b"], t["c"] + t["d"]
    if t["a"] == 0 or t["c"] == 0:
        return ((t["a"] + 0.5) / (n1 + 1)) / ((t["c"] + 0.5) / (n2 + 1))
    return (t["a"] / n1) / (t["c"] / n2)


def equal_opportunity(table: Table) -> float:
    """Ratio of group true-positive rates of the decisions."""
    def tpr(mask: np.ndarray) -> float:
        pos = mask & table.outcome
        return np.count_nonzero(pos & table.decision) / np.count_nonzero(pos)
    return tpr(table.protected) / tpr(~table.protected)


def tied_scores(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Scores rounded to three decimals, so most of them tie, and outcomes."""
    outcomes = rng.random(n) < 0.3
    scores = np.round(_sigmoid(rng.standard_normal(n) + 0.8 * outcomes), 3)
    return scores, outcomes


def auc(scores: np.ndarray, outcomes: np.ndarray) -> float:
    """P(score_pos > score_neg) + P(tie) / 2, counted with a sorted search."""
    neg = np.sort(scores[~outcomes])
    pos = scores[outcomes]
    below = np.searchsorted(neg, pos, side="left")
    at_or_below = np.searchsorted(neg, pos, side="right")
    twice = int(np.sum(below, dtype=np.int64) + np.sum(at_or_below, dtype=np.int64))
    return twice / (2.0 * len(pos) * len(neg))
