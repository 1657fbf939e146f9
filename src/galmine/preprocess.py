"""Numeric-table ingestion, discretization into binary contexts, and
context file-format conversion."""

import csv
import io
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from galmine.context import BinaryContext, _read_input, parse_cxt, parse_tab, write_cxt, write_tab
from galmine.errors import ConstraintError, ParseError

_CONTEXT_IO = {"tab": (parse_tab, write_tab), "cxt": (parse_cxt, write_cxt)}
CONTEXT_FORMATS = tuple(_CONTEXT_IO)
BINNING_STRATEGIES = ("width", "freq")


@dataclass(frozen=True)
class NumericTable:
    """A rectangular table of finite decimal values with named columns."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    object_labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.column_names)) != len(self.column_names):
            raise ConstraintError("column names must be distinct")
        coerced = []
        for row in self.rows:
            if len(row) != len(self.column_names):
                raise ConstraintError("table must be rectangular")
            values = tuple(float(v) for v in row)
            if not all(math.isfinite(v) for v in values):
                raise ConstraintError("table values must be finite")
            coerced.append(values)
        object.__setattr__(self, "rows", tuple(coerced))


@dataclass(frozen=True)
class BinningSpec:
    """Discretization recipe: strategy is ``width`` (equal-width) or
    ``freq`` (equal-frequency), bin_count >= 1."""

    strategy: str = "width"
    bin_count: int = 2

    def __post_init__(self):
        if self.strategy not in BINNING_STRATEGIES:
            raise ConstraintError(f"binning strategy must be 'width' or 'freq', got {self.strategy!r}")
        if self.bin_count < 1:
            raise ConstraintError(f"bin_count must be >= 1, got {self.bin_count}")


def _csv_records(text: str):
    """The CSV records of ``text``, read with ``newline=""`` so that the
    csv module alone ends rows (at LF, CRLF or CR outside quotes); its
    own errors (a field over its size limit) become ParseError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"bad CSV on line {reader.line_num}: {exc}") from None


def parse_csv(text: str, has_label_column: bool = False) -> NumericTable:
    """Parse comma-separated numeric data with a header line.

    With ``has_label_column`` the first column supplies object labels;
    otherwise labels are generated as o1, o2, ...  Non-numeric cells,
    ragged rows and repeated names or labels raise a positioned ParseError."""
    reader = _csv_records(text.removeprefix("\ufeff"))
    header = next(reader, None)
    if header is None:
        raise ParseError("CSV input is empty")
    if has_label_column:
        if not header:
            raise ParseError("CSV header lacks a label column")
        columns = tuple(header[1:])
    else:
        columns = tuple(header)
    repeated = [name for name, count in Counter(columns).items() if count > 1]
    if repeated:
        raise ParseError(f"CSV header repeats the column name {repeated[0]!r}")
    rows = []
    labels: dict[str, None] = {}
    for rownum, record in enumerate(reader, start=1):
        if not record:
            continue
        if has_label_column:
            label, cells = record[0], record[1:]
        else:
            label, cells = f"o{rownum}", record
        if label in labels:
            raise ParseError(f"row {rownum} repeats the object label {label!r}")
        if len(cells) != len(columns):
            raise ParseError(f"row {rownum} has {len(cells)} data cells, expected {len(columns)}")
        values = []
        for cell, name in zip(cells, columns):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric value {cell!r} at row {rownum}, column {name}") from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {cell!r} at row {rownum}, column {name}")
            values.append(value)
        rows.append(tuple(values))
        labels[label] = None
    return NumericTable(column_names=columns, rows=tuple(rows), object_labels=tuple(labels))


def _column_bins(name: str, values, spec: BinningSpec):
    """Per-value bin index, and the (lo, hi) boundaries of each occupied
    bin in bin order; the cost does not depend on the bin count.

    Equal-width partitions [min, max] into equal-length intervals, each
    half-open except the last; a width that is not a finite positive
    float raises ConstraintError.  Equal-frequency cuts at the
    ceil(k*n/bins)-th order statistics; a value equal to a cut belongs
    to the lowest bin whose cut reaches it."""
    bins = spec.bin_count
    if spec.strategy == "width":
        lo, hi = min(values), max(values)
        if lo == hi:
            return [0] * len(values), {0: (lo, hi)}
        try:
            width = (hi - lo) / bins
        except OverflowError:  # a count beyond the float range
            width = 0.0
        if not 0 < width < math.inf:
            raise ConstraintError(f"cannot split column {name!r} ({lo!r} to {hi!r}) into {bins} equal-width bins")
        assignment = [min(int((v - lo) / width), bins - 1) for v in values]

        def edge(k):
            return lo + k * width if k < bins else hi

    else:
        ordered = sorted(values)
        n = len(values)
        # with p values below v, cut k (order statistic ceil(k*n/bins)) is below v iff k <= p*bins/n
        assignment = [bisect_left(ordered, v) * bins // n for v in values]

        def edge(k):
            return ordered[(k * n - 1) // bins] if k else ordered[0]

    return assignment, {k: (edge(k), edge(k + 1)) for k in sorted(set(assignment))}


def discretize(table: NumericTable, spec: BinningSpec) -> BinaryContext:
    """Turn every numeric column into interval attributes.

    Each column contributes at most bin_count attributes named
    ``col[lo;hi)`` (the last one ``[lo;hi]``); every object receives
    exactly one attribute per column.  Bins that end up empty are
    dropped."""
    if not table.rows:
        raise ConstraintError("cannot discretize an empty table")
    attr_labels: list[str] = []
    ctx_rows = [0] * len(table.rows)
    for col, name in enumerate(table.column_names):
        values = [row[col] for row in table.rows]
        assignment, boundaries = _column_bins(name, values, spec)
        last = max(boundaries)
        bit = {}
        for k, (lo, hi) in boundaries.items():
            bit[k] = 1 << len(attr_labels)
            attr_labels.append(f"{name}[{lo!r};{hi!r}{']' if k == last else ')'}")
        ctx_rows = [row | bit[k] for row, k in zip(ctx_rows, assignment)]
    return BinaryContext._from_masks(table.object_labels, attr_labels, ctx_rows)


def _context_io(fmt: str):
    if fmt not in _CONTEXT_IO:
        raise ConstraintError(f"unknown context format {fmt!r}, expected one of {CONTEXT_FORMATS}")
    return _CONTEXT_IO[fmt]


def parse_context(text: str, fmt: str) -> BinaryContext:
    return _context_io(fmt)[0](text)


def write_context(ctx: BinaryContext, fmt: str) -> str:
    return _context_io(fmt)[1](ctx)


def convert(path: str, in_format: str, out_format: str) -> str:
    """Read a context file (``-`` for standard input) as strict UTF-8
    with its line ends untouched, reparse and emit in the target format.
    Same-format conversion canonicalizes; a non-UTF-8 byte is a
    ParseError naming its offset."""
    return write_context(parse_context(_read_input(path), in_format), out_format)
