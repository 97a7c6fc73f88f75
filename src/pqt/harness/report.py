"""Deterministic experiment reports.

A report serializes to canonical JSON: keys sorted lexicographically,
floats written with 12 significant digits, complex numbers as
``[re, im]`` pairs.  Identical (config, seed) pairs therefore produce
byte-identical serializations, which golden-file tests rely on.
``to_json`` rounds and writes in one pass, with the layout of
``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``; the
payload is that text read back.  Config, metrics and verdicts are written
by one recursive writer.  A table holds its cells as columns and is
written a column at a time under the same 12-digit rule: strings and
ints each in one pass, any other column but floats cell by cell, and the
texts go into the output row by row, interleaved with the separators
that lay them out.  A float column is formatted in one ``%`` pass over
its values; from ``_GROUPED_MIN_CELLS`` (64) cells on, over its distinct
values only.  Such a column is grouped by each value's 64 bits (so
``0.0`` and ``-0.0`` stay apart), and each distinct value's text is
mapped back to every cell that holds it.  Columns built from counts
repeat: the 4095-cell ``mean`` column of a 6-qubit reconstruction holds a
few hundred distinct values and is written about six times faster
grouped.  Shorter columns skip the grouping, whose fixed cost they
would not win back (see ``_GROUPED_MIN_CELLS``).

Wall-clock time is kept on the report object but stays outside the
canonical serialization (it would break byte-identity); the CLI prints
it to stderr instead.
"""

from __future__ import annotations

import io
import json
import math
from itertools import chain, repeat

import numpy as np

from ..hilbert import _Record


_string_text = json.encoder.encode_basestring_ascii


def _float_text(value) -> str:
    """``repr`` of the value rounded to 12 significant digits, as ``json`` writes it."""
    text = f"{float(value):.12g}"
    if "e" in text or "n" in text:  # exponent notation, nan or inf
        rounded = float(text)
        if not math.isfinite(rounded):
            raise ValueError(f"Out of range float values are not JSON compliant: {rounded!r}")
        return float.__repr__(rounded)
    # At most 12 digits round-trip exactly, so repr of the rounded float has the same digits.
    return text if "." in text else text + ".0"


# Text of the scalars reports hold, by exact type; subclasses and numpy scalars take the isinstance path.
_SCALAR_TEXT = {
    str: _string_text,
    float: _float_text,
    np.float64: _float_text,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    # What iterating a boolean array gives; a table column writes the same through tolist().
    np.bool_: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(value, indent: str, parts: list[str]) -> None:
    """Append ``value`` as canonical JSON text nested at ``indent``.

    Floats are rounded to 12 significant digits (non-finite ones raise
    ``ValueError``), complex numbers become ``[re, im]``, numpy scalars
    their Python values, dict keys ``str(key)`` in sorted order, tuples
    and arrays lists, and a ``Table`` its columns and rows.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        parts.append(text(value))
    elif isinstance(value, str):
        parts.append(_string_text(value))
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (float, np.floating)):
        parts.append(_float_text(value))
    elif isinstance(value, (complex, np.complexfloating)):
        _write_items(None, [value.real, value.imag], "[]", indent, parts)
    elif isinstance(value, np.integer):
        parts.append(int.__repr__(int(value)))
    elif isinstance(value, dict):
        by_text = {str(k): v for k, v in value.items()}
        keys = sorted(by_text)
        _write_items([_string_text(k) + ": " for k in keys], [by_text[k] for k in keys], "{}", indent, parts)
    elif isinstance(value, (list, tuple, np.ndarray)):
        _write_items(None, value, "[]", indent, parts)
    elif isinstance(value, Table):
        _write_table(value, indent, parts)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _write_items(keys: list[str] | None, values, brackets: str, indent: str, parts: list[str]) -> None:
    """An array (``keys`` None) or an object, one item per line, nested one level below ``indent``."""
    if len(values) == 0:
        parts.append(brackets)
        return
    inner = indent + "  "
    separator = brackets[0] + "\n" + inner
    for position, item in enumerate(values):
        head = separator if keys is None else separator + keys[position]
        text = _SCALAR_TEXT.get(type(item))
        if text is None:
            parts.append(head)
            _write_json(item, inner, parts)
        else:
            parts.append(head + text(item))
        separator = ",\n" + inner
    parts.append("\n" + indent + brackets[1])


def _json_text(value, indent: str) -> str:
    parts: list[str] = []
    _write_json(value, indent, parts)
    return "".join(parts)


# Float columns this long or longer are grouped by value before formatting.  Measured on a 2-core shared host
# (numpy 2.4.6, least of 9 rounds), one pass against grouped: at 16 cells grouping lost even with 4 distinct
# values (7.2 against 10.0 us); at 64 cells it won once at most half the values were distinct (32 distinct:
# 21.6 against 20.4 us; 10 distinct: 21.7 against 13.4 us), and lost by ~50% where none repeat (22.2 against 33.5).
_GROUPED_MIN_CELLS = 64


def _bulk_float_texts(cells: list) -> list[str]:
    """``_float_text`` of each cell: one ``%.12g`` pass, the full rule only where that text is not final."""
    texts = ("%.12g\x00" * len(cells) % tuple(cells)).split("\x00")
    texts.pop()  # the empty text after the last separator
    # "%.12g" text is final when it has a "." and no exponent; nan and inf have no ".".
    for i in [i for i, text in enumerate(texts) if "." not in text or "e" in text]:
        texts[i] = _float_text(cells[i])
    return texts


def _float_texts(cells) -> list[str]:
    """``_float_text`` of each cell of a float list or 1-D float64 array, each distinct value formatted once.

    Values are distinct by their 64 bits, so ``0.0`` and ``-0.0`` keep their own texts.
    """
    n = len(cells)
    if n < _GROUPED_MIN_CELLS:
        return _bulk_float_texts(cells.tolist() if isinstance(cells, np.ndarray) else cells)
    values = np.asarray(cells, dtype=np.float64)
    bits = values.view(np.int64)
    order = bits.argsort()
    ranked = bits[order]
    first = np.empty(n, dtype=bool)  # where each run of equal bits starts, in sorted order
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    inverse = np.empty(n, dtype=np.intp)  # each cell's run
    inverse[order] = first.cumsum() - 1
    texts = _bulk_float_texts(values[order[first]].tolist())
    return np.array(texts, dtype=object)[inverse].tolist()


def _column_texts(cells, indent: str) -> list[str]:
    """The JSON text of each cell of one column, nested at ``indent``."""
    if isinstance(cells, np.ndarray):
        if cells.dtype == np.float64 and cells.ndim == 1:
            return _float_texts(cells)
        cells = cells.tolist()
    kinds = set(map(type, cells))
    if kinds <= {str}:
        return list(map(_string_text, cells))
    if kinds <= {int}:
        return list(map(int.__repr__, cells))
    if kinds <= {float, np.float64}:
        return _float_texts(cells)
    return [_json_text(cell, indent) for cell in cells]


def _write_table(table: "Table", indent: str, parts: list[str]) -> None:
    """Append ``{"columns": [...], "rows": [...]}`` as ``_write_json`` writes it.

    The cell texts go into ``parts`` interleaved with the separators that
    lay them out, row by row: no text is made per row.
    """
    inner = indent + "  "
    parts.append("{\n" + inner + '"columns": ')
    _write_json(table.columns, inner, parts)
    parts.append(",\n" + inner + '"rows": ')
    if not table.columns or not len(table.cells[0]):
        parts.append("[]\n" + indent + "}")
        return
    row_indent, cell_indent = inner + "  ", inner + "    "
    texts = [_column_texts(cells, cell_indent) for cells in table.cells]
    # After each cell but a row's last comes a cell break; after its last, a row break.
    cell_break = ",\n" + cell_indent
    row_break = "\n" + row_indent + "],\n" + row_indent + "[\n" + cell_indent
    interleaved = []
    for column, after in zip(texts, [cell_break] * (len(texts) - 1) + [row_break]):
        interleaved += [column, repeat(after)]
    parts.append("[\n" + row_indent + "[\n" + cell_indent)
    parts.extend(chain.from_iterable(zip(*interleaved)))
    parts[-1] = "\n" + row_indent + "]\n" + inner + "]\n" + indent + "}"  # the last row break closes it all


class Table(_Record):
    """A rectangular outcome table: ``cells[j]`` holds column ``columns[j]``, top row first."""

    __slots__ = ("columns", "cells")  # cells: one sequence (list, tuple, range or array) per column, of one length

    def __init__(self, columns: list[str], cells: list):
        lengths = {len(column) for column in cells}
        if len(cells) != len(columns) or len(lengths) > 1:
            raise ValueError(f"columns {columns} do not match cells of lengths {sorted(lengths)}")
        self.columns, self.cells = columns, cells


class Report(_Record):
    """The emitted result of one experiment run."""

    __slots__ = ("config", "seed", "metrics", "tables", "verdicts", "wall_clock_seconds")

    def __init__(
        self,
        config: dict,
        seed: int,
        metrics: list[dict] | None = None,
        tables: dict[str, Table] | None = None,
        verdicts: dict | None = None,
        wall_clock_seconds: float = 0.0,
    ):
        self.config, self.seed, self.wall_clock_seconds = config, seed, wall_clock_seconds
        self.metrics = [] if metrics is None else metrics
        self.tables = {} if tables is None else tables
        self.verdicts = {} if verdicts is None else verdicts

    def add_metric(self, name: str, value: float, uncertainty: float | None = None) -> None:
        self.metrics.append({"name": name, "value": value, "uncertainty": uncertainty})

    def add_table(self, name: str, columns: list[str], cells: list) -> None:
        """Add a table given as its columns: ``cells[j]`` holds column ``columns[j]``, top row first."""
        self.tables[name] = Table(columns, cells)

    def payload(self) -> dict:
        """The canonical content: what ``to_json`` writes, read back."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        fields = {
            "config": self.config,
            "seed": self.seed,
            "metrics": self.metrics,
            "tables": self.tables,
            "verdicts": self.verdicts,
        }
        parts: list[str] = []
        _write_json(fields, "", parts)
        parts.append("\n")
        return "".join(parts)

    def to_csv(self) -> str:
        """Flatten the outcome tables (and only them) into long-format CSV.

        Columns: table, row, column, value.  Scalar metrics stay in the
        JSON report; mixing them into the CSV would destabilize golden
        files.
        """
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["table", "row", "column", "value"])
        payload = self.payload()["tables"]
        for name in sorted(payload):
            columns = payload[name]["columns"]
            for i, row in enumerate(payload[name]["rows"]):
                for column, value in zip(columns, row):
                    writer.writerow([name, i, column, value])
        return buffer.getvalue()
