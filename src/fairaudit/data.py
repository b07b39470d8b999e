"""Typed tabular datasets with declared column roles.

Columns are stored column-major: numeric columns as float64 arrays (NaN for
missing cells), everything else as text label arrays ("" for missing). Binary
columns (sensitive, decision, outcome) keep their raw labels together with a
declared protected/positive modality, so the orientation of every downstream
ratio is an explicit declaration rather than an accident of encoding.

Datasets are immutable after construction; all operations here are pure
functions of their inputs (and a seed, where one is taken).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, SchemaError
from .rng import CounterRng

NUMERIC = "numeric"
CATEGORICAL = "categorical"
SENSITIVE = "sensitive"
DECISION = "decision"
OUTCOME = "outcome"
IGNORED = "ignored"

ROLE_KINDS = (NUMERIC, CATEGORICAL, SENSITIVE, DECISION, OUTCOME, IGNORED)
_BINARY_KINDS = (SENSITIVE, DECISION, OUTCOME)
READ_CHUNK_ROWS = 4096  # rows that load_csv turns into column arrays at once
WRITE_CHUNK_ROWS = 8192  # rows that save_csv formats per write call


@dataclass(frozen=True)
class ColumnRole:
    """Role of one column: its kind plus the declared modality, if binary."""

    kind: str
    protected: str | None = None  # sensitive columns
    positive: str | None = None  # decision/outcome columns

    def __post_init__(self):
        if self.kind not in ROLE_KINDS:
            raise SchemaError(f"unknown column role {self.kind!r}")
        if self.kind == SENSITIVE and self.protected is None:
            raise SchemaError("sensitive role requires a 'protected' modality")
        if self.kind in (DECISION, OUTCOME) and self.positive is None:
            raise SchemaError(f"{self.kind} role requires a 'positive' modality")
        for key, value in (("protected", self.protected), ("positive", self.positive)):
            if value is not None and not isinstance(value, str):
                raise SchemaError(f"the {key!r} modality must be a string, got {value!r}")


def parse_schema(spec: Mapping[str, object]) -> dict[str, ColumnRole]:
    """Parse a JSON-style schema: column name -> role descriptor.

    A descriptor is either a bare role string (``"numeric"``) or an object
    such as ``{"role": "sensitive", "protected": "female"}``.
    """
    if not isinstance(spec, Mapping):
        raise SchemaError("schema must be a JSON object")
    schema: dict[str, ColumnRole] = {}
    for name, desc in spec.items():
        if isinstance(desc, str):
            schema[name] = ColumnRole(desc)
        elif isinstance(desc, Mapping):
            if "role" not in desc:
                raise SchemaError(f"column {name!r}: descriptor lacks 'role'")
            extra = {k: v for k, v in desc.items() if k in ("protected", "positive")}
            unknown = set(desc) - {"role", "protected", "positive"}
            if unknown:
                raise SchemaError(f"column {name!r}: unknown descriptor keys {sorted(unknown)}")
            schema[name] = ColumnRole(str(desc["role"]), **extra)
        else:
            raise SchemaError(f"column {name!r}: descriptor must be a string or object")
    return schema


def _as_numeric(name: str, values: Sequence) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64)  # copy: callers keep their arrays
    except (TypeError, ValueError):
        raise DataError(f"column {name!r}: values are not numeric") from None
    arr.flags.writeable = False
    return arr


def _as_text(name: str, values: Sequence) -> np.ndarray:
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "U"):
        values = [str(v) for v in values]  # a unicode array's cells are str already
    arr = np.array(values, dtype=str)  # copy: callers keep their arrays
    arr.flags.writeable = False
    return arr


class Dataset:
    """Immutable table with one column per schema entry, all of length n."""

    def __init__(self, schema: Mapping[str, ColumnRole], columns: Mapping[str, Sequence]):
        self.schema: dict[str, ColumnRole] = dict(schema)
        if set(self.schema) != set(columns):
            raise SchemaError("schema and columns must cover the same names")
        self._columns: dict[str, np.ndarray] = {}
        n = None
        for name, role in self.schema.items():
            col = columns[name]
            arr = _as_numeric(name, col) if role.kind == NUMERIC else _as_text(name, col)
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise DataError(f"column {name!r} has {len(arr)} entries, expected {n}")
            self._columns[name] = arr
        if n is None or n < 1:
            raise DataError("dataset must contain at least one row")
        self.n = n
        self._check_roles()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _unchecked(cls, schema: dict[str, ColumnRole], columns: dict[str, np.ndarray], n: int) -> "Dataset":
        # skip _check_roles for derived datasets: a row subset keeps _binary_counts' rules
        # and with_values checks them, but either may lose a declared modality
        d = cls.__new__(cls)
        d.schema = schema
        d._columns = columns
        d.n = n
        return d

    def _check_roles(self) -> None:
        sensitive = [n for n, r in self.schema.items() if r.kind == SENSITIVE]
        if len(sensitive) != 1:
            raise SchemaError(f"expected exactly one sensitive column, found {len(sensitive)}")
        for kind in (DECISION, OUTCOME):
            found = [n for n, r in self.schema.items() if r.kind == kind]
            if len(found) > 1:
                raise SchemaError(f"at most one {kind} column allowed, found {len(found)}")
        for name, role in self.schema.items():
            if role.kind not in _BINARY_KINDS:
                continue
            declared = role.protected if role.kind == SENSITIVE else role.positive
            if declared not in self._binary_counts(name):
                raise DataError(
                    f"column {name!r}: declared modality {declared!r} not among observed values"
                )

    def _binary_counts(self, name: str) -> dict[str, int]:
        """A binary column's modality counts, once it passes the rules that every row subset keeps."""
        counts = self.modality_counts(name)
        kind = self.schema[name].kind
        if n_missing := counts.get("", 0):
            raise DataError(f"column {name!r} ({kind}) has {n_missing} missing values")
        if len(counts) > 2:
            raise DataError(f"column {name!r} ({kind}) must be binary, found {len(counts)} distinct values")
        return counts

    # -- basic access ----------------------------------------------------------

    def values(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise SchemaError(f"no column named {name!r}")
        return self._columns[name]

    def modality_counts(self, name: str) -> dict[str, int]:
        """Each label of a text column ("" for a missing cell) and its row count, in sorted order."""
        # asking for counts skips numpy's np.ma.is_masked test, whose first call imports numpy.ma
        labels, counts = np.unique(self.values(name), return_counts=True)
        return dict(zip(labels.tolist(), counts.tolist()))

    def missing_mask(self, name: str) -> np.ndarray:
        col = self.values(name)
        if self.schema[name].kind == NUMERIC:
            return np.isnan(col)
        return col == ""

    def _role_column(self, kind: str) -> str | None:
        for name, role in self.schema.items():
            if role.kind == kind:
                return name
        return None

    @property
    def sensitive_column(self) -> str:
        name = self._role_column(SENSITIVE)
        assert name is not None  # guaranteed by _check_roles
        return name

    @property
    def decision_column(self) -> str | None:
        return self._role_column(DECISION)

    @property
    def outcome_column(self) -> str | None:
        return self._role_column(OUTCOME)

    @property
    def numeric_features(self) -> list[str]:
        return [n for n, r in self.schema.items() if r.kind == NUMERIC]

    @property
    def categorical_features(self) -> list[str]:
        return [n for n, r in self.schema.items() if r.kind == CATEGORICAL]

    def protected_mask(self) -> np.ndarray:
        name = self.sensitive_column
        return self.values(name) == self.schema[name].protected

    def sensitive_modalities(self) -> tuple[str, str]:
        """(protected label, non-protected label). Degenerate columns repeat the label."""
        name = self.sensitive_column
        protected = self.schema[name].protected
        others = [v for v in self.modality_counts(name) if v != protected]
        return str(protected), str(others[0]) if others else str(protected)

    def _binary_mask(self, kind: str) -> np.ndarray:
        name = self._role_column(kind)
        if name is None:
            raise DataError(f"dataset has no {kind} column")
        return self.values(name) == self.schema[name].positive

    def positive_decision_mask(self) -> np.ndarray:
        return self._binary_mask(DECISION)

    def positive_outcome_mask(self) -> np.ndarray:
        return self._binary_mask(OUTCOME)

    # -- pure transformations --------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Row subset, preserving schema and column order."""
        idx = np.asarray(indices, dtype=np.int64)
        cols = {}
        for name, arr in self._columns.items():
            sub = arr[idx]
            sub.flags.writeable = False
            cols[name] = sub
        return Dataset._unchecked(self.schema, cols, len(idx))

    def with_values(self, name: str, values: Sequence) -> "Dataset":
        """Copy of the dataset with one column replaced."""
        role = self.schema.get(name)
        if role is None:
            raise SchemaError(f"no column named {name!r}")
        arr = _as_numeric(name, values) if role.kind == NUMERIC else _as_text(name, values)
        if len(arr) != self.n:
            raise DataError(f"replacement for {name!r} has {len(arr)} entries, expected {self.n}")
        cols = dict(self._columns)
        cols[name] = arr
        out = Dataset._unchecked(self.schema, cols, self.n)
        if role.kind in _BINARY_KINDS:  # it may lose its declared modality, as a row subset may
            out._binary_counts(name)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.schema != other.schema or self.n != other.n:
            return False
        for name, arr in self._columns.items():
            theirs = other._columns[name]
            if arr.dtype.kind == "f":
                if not np.array_equal(arr, theirs, equal_nan=True):
                    return False
            elif not np.array_equal(arr, theirs):
                return False
        return True

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, columns={list(self.schema)})"


# -- loading / saving ----------------------------------------------------------


def read_json(path: str | Path, what: str, parse=None):
    """A JSON input file's contents, through ``parse`` if given; failures are DataErrors naming it."""
    if not Path(path).exists():
        raise DataError(f"no such {what} file: {path}")
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise DataError(f"{what} file {path} is not JSON: {e}") from None
    try:
        return obj if parse is None else parse(obj)
    except (AttributeError, KeyError, TypeError, ValueError, DataError) as e:
        raise DataError(f"malformed {what} file {path}: {type(e).__name__}: {e}") from None


def json_text(obj) -> str:
    """``obj`` in the JSON file format: indent 2 and a final newline."""
    return json.dumps(obj, indent=2) + "\n"


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` to ``path`` as a UTF-8 JSON file (see ``json_text``)."""
    Path(path).write_text(json_text(obj), encoding="utf-8")


def load_csv(path: str | Path, schema: Mapping[str, object]) -> Dataset:
    """Load an RFC 4180 CSV (header row required) against a role declaration.

    Columns present in the file but absent from the schema are kept with the
    ``ignored`` role. Empty cells are missing values. numpy's C tokenizer reads
    the rows (``_read_columns``); a file it cannot vouch for is read again by
    the csv module, whose reading decides every error.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    roles = schema if all(isinstance(v, ColumnRole) for v in schema.values()) else parse_schema(schema)

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty, header row required")
            duplicates = sorted({name for name in header if header.count(name) > 1})
            if duplicates:
                raise DataError(f"{path}: duplicate column names {duplicates} in header")
            unknown = [name for name in roles if name not in header]
            if unknown:
                raise SchemaError(f"{path}: schema names {unknown} not in header {header}")
            full_schema = {name: roles.get(name, ColumnRole(IGNORED)) for name in header}
            numeric = [role.kind == NUMERIC for role in full_schema.values()]
            # a pipe cannot be read twice, so the csv module reads it
            columns = _read_columns(fh, numeric) if fh.seekable() else None
            if columns is None:  # the csv module reads the records, and names the first bad one
                if fh.seekable():
                    fh.seek(0)
                    reader = csv.reader(fh)
                    next(reader)
                columns = _read_records(path, reader, header, numeric)
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from None
    return Dataset(full_schema, dict(zip(header, columns)))


def _recorded(first: str, fh, lines: list[str]):
    """``first`` and then the lines of ``fh``, each appended to ``lines`` as it passes."""
    for line in chain([first], fh):
        lines.append(line)
        yield line


def _read_columns(fh, numeric: list[bool]) -> list[np.ndarray] | None:
    """The columns of the rows left in ``fh``, read by ``np.loadtxt`` a chunk of rows at a time.

    Numeric cells are read as bytes and cast by ``float`` (an empty cell is NaN),
    text cells at a fixed width and narrowed to the chunk's longest. A chunk
    with a cell that fills the width is read again from its lines, that column
    as str objects from then on. None where the csv module must decide: a
    ragged record, a blank line, an undecodable byte, a NUL, a cell that is not
    a number or reaches the csv field limit, or no data row at all.
    """
    kinds = ["S32" if is_num else "U32" for is_num in numeric]
    parts: list[list[np.ndarray]] = [[] for _ in numeric]
    with warnings.catch_warnings():
        # loadtxt skips a blank line with this warning, where csv.reader yields an empty record
        warnings.simplefilter("error", UserWarning)
        try:
            # peek, so that a file of whole chunks ends without an empty loadtxt call
            while (line := next(fh, None)) is not None:
                lines: list[str] = []
                cols = _loadtxt(_recorded(line, fh, lines), kinds, max_rows=READ_CHUNK_ROWS)
                if "\x00" in "".join(lines):
                    return None  # a fixed-width cell drops a trailing NUL, which float() refuses
                widths = [0 if col.dtype == object else _width(col) for col in cols]
                if max(widths, default=0) >= 32:  # a cell that fills its field may have been cut
                    kinds = ["O" if w >= 32 else kind for kind, w in zip(kinds, widths)]
                    cols = _loadtxt(lines, kinds)
                for part, col, is_num, width in zip(parts, cols, numeric, widths):
                    if col.dtype == object and max(map(len, col)) >= csv.field_size_limit():
                        return None
                    if is_num:  # float() casts each cell, and an empty cell is NaN
                        col = col.astype(bytes, copy=False)
                        col = np.where(col == b"", b"nan", col).astype(np.float64)
                    elif col.dtype != object:
                        col = col.astype(f"U{max(width, 1)}")  # as np.array(cells, dtype=str) holds them
                    part.append(col)
        except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
            return None
    return [np.concatenate(part) for part in parts] if parts and parts[0] else None


def _width(col: np.ndarray) -> int:
    """The longest cell of a fixed-width field. No cell holds a NUL, so the character positions
    that some cell fills are a prefix of the field's; bisect for its end (np.char.str_len over
    the strided field takes about three times as long)."""
    chars = col[:, None].view(np.uint8 if col.dtype.kind == "S" else np.uint32)
    lo, hi = 0, chars.shape[1]
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if chars[:, mid].any() else (lo, mid)
    return lo


def _loadtxt(lines, kinds: list[str], max_rows: int | None = None) -> list[np.ndarray]:
    """The records of ``lines`` as read by numpy's C tokenizer: one array per column, of ``kinds``."""
    chunk = np.loadtxt(lines, dtype=[(f"f{i}", kind) for i, kind in enumerate(kinds)],
                       delimiter=",", quotechar='"', comments=None, ndmin=1, max_rows=max_rows)
    return [chunk[name] for name in chunk.dtype.names]


def _read_records(path: Path, reader, header: list[str], numeric: list[bool]) -> list[np.ndarray]:
    """The columns of the records left in ``reader``, a chunk at a time. Each record is checked as it is
    read: its field count, then each numeric cell in header order, replaced by its float (NaN if empty)."""
    # column-wise, a chunk of rows at a time: the row lists die with their chunk
    parts: list[list[np.ndarray]] = [[] for _ in header]
    numeric_at = [j for j, is_num in enumerate(numeric) if is_num]
    i = 1  # record number of the row last read; the header is row 1
    while rows := list(islice(reader, READ_CHUNK_ROWS)):
        for i, row in enumerate(rows, i + 1):
            if len(row) != len(header):
                raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
            try:
                for j in numeric_at:
                    row[j] = float(row[j]) if row[j] else np.nan
            except ValueError:
                raise DataError(f"{path}: row {i}, column {header[j]!r}: "
                                f"cannot parse {row[j]!r} as a number") from None
        for part, cells, is_num in zip(parts, zip(*rows), numeric):
            part.append(np.array(cells, dtype=np.float64 if is_num else str))
    if i == 1:
        raise DataError(f"{path}: no data rows")
    return [np.concatenate(part) for part in parts]


def save_csv(d: Dataset, path: str | Path) -> None:
    """Write the dataset back out; numeric cells use shortest round-trip repr.

    The bytes are the csv module's (QUOTE_MINIMAL, CRLF line ends): a text
    cell is quoted, each ``"`` doubled, when it holds ``,``, ``"``, CR or LF.
    """
    path = Path(path)
    names = list(d.schema)
    numeric = [d.schema[n].kind == NUMERIC for n in names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        # column-wise formatting, a chunk of rows at a time to bound memory
        for start in range(0, d.n, WRITE_CHUNK_ROWS):
            cols = []
            for name, is_num in zip(names, numeric):
                cells = d.values(name)[start:start + WRITE_CHUNK_ROWS].tolist()
                if is_num:  # a float's repr holds no character that needs quotes
                    cells = ["" if v != v else repr(v) for v in cells]
                elif _needs_quotes("".join(cells)):
                    cells = ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in cells]
                cols.append(cells)
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cols)))


def _needs_quotes(text: str) -> bool:
    """Whether a QUOTE_MINIMAL csv writer of the default dialect quotes a cell holding ``text``."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


# -- splitting / validation -----------------------------------------------------


def split(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint train/test partition, stratified on the sensitive attribute.

    Test size is round(n * test_fraction); per-group test counts follow the
    group proportions (largest-remainder rounding) and are clamped so both
    parts keep at least one row of every observed modality, which can move
    the total (n = 4 in two groups of 2 always tests 2). Deterministic for a
    fixed seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if d.n < 2:
        raise DataError(f"cannot split a dataset with n={d.n}")

    protected = d.protected_mask()
    groups = [np.flatnonzero(protected), np.flatnonzero(~protected)]
    groups = [g for g in groups if len(g) > 0]
    for g in groups:
        if len(g) < 2:
            raise DataError("a sensitive modality has fewer than 2 rows; stratified split impossible")

    test_size = int(round(d.n * test_fraction))  # not clamped: the per-group clamps bound it

    quotas = [test_size * len(g) / d.n for g in groups]
    counts = [int(np.floor(q)) for q in quotas]
    remainder = test_size - sum(counts)
    order = sorted(range(len(groups)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    # keep every modality present on both sides, then give back what that
    # clamp moved, group by group as far as each one's bounds allow
    for i, g in enumerate(groups):
        counts[i] = max(1, min(len(g) - 1, counts[i]))
    for i, g in enumerate(groups):
        counts[i] = max(1, min(len(g) - 1, counts[i] + test_size - sum(counts)))

    rng = CounterRng(seed)
    test_idx: list[int] = []
    for g, k in zip(groups, counts):
        perm = rng.permutation(len(g))
        test_idx.extend(g[perm[:k]].tolist())
    in_test = np.zeros(d.n, dtype=bool)
    in_test[test_idx] = True
    return d.take(np.flatnonzero(~in_test)), d.take(np.flatnonzero(in_test))


def validate(d: Dataset) -> dict:
    """Reporting pass: per-column missing counts, modality counts, group sizes."""
    report: dict = {"n": d.n, "columns": {}, "flags": []}
    for name, role in d.schema.items():
        entry: dict = {"role": role.kind, "missing": int(np.count_nonzero(d.missing_mask(name)))}
        if role.kind in _BINARY_KINDS:
            entry["modalities"] = d.modality_counts(name)
            if role.kind == SENSITIVE:
                entry["protected"] = role.protected
            else:
                entry["positive"] = role.positive
        report["columns"][name] = entry

    protected = d.protected_mask()
    n1 = int(np.count_nonzero(protected))
    n2 = d.n - n1
    report["group_sizes"] = {"protected": n1, "non_protected": n2}
    if n1 == 0:
        report["flags"].append("empty protected group")
    if n2 == 0:
        report["flags"].append("empty non-protected group")
    return report
