"""Deterministic experiment reports.

A report serializes to canonical JSON: keys sorted lexicographically,
floats written with 12 significant digits, complex numbers as
``[re, im]`` pairs.  Identical (config, seed) pairs therefore produce
byte-identical serializations, which golden-file tests rely on.
``to_json`` rounds and writes in one recursive pass, with the layout of
``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``; the
payload is that text read back.

Wall-clock time is kept on the report object but stays outside the
canonical serialization (it would break byte-identity); the CLI prints
it to stderr instead.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np


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
    type(None): lambda value: "null",
}


def _write_json(value, indent: str, parts: list[str]) -> None:
    """Append ``value`` as canonical JSON text nested at ``indent``.

    Floats are rounded to 12 significant digits (non-finite ones raise
    ``ValueError``), complex numbers become ``[re, im]``, numpy scalars
    their Python values, dict keys ``str(key)`` in sorted order, and
    tuples and arrays lists.
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


@dataclass
class Table:
    """A rectangular outcome table with named columns."""

    columns: list[str]
    rows: list[list]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row {row!r} does not match columns {self.columns}")


@dataclass
class Report:
    """The emitted result of one experiment run."""

    config: dict
    seed: int
    metrics: list[dict] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    def add_metric(self, name: str, value: float, uncertainty: float | None = None) -> None:
        self.metrics.append({"name": name, "value": value, "uncertainty": uncertainty})

    def add_table(self, name: str, columns: list[str], rows: list[list]) -> None:
        self.tables[name] = Table(columns, rows)

    def payload(self) -> dict:
        """The canonical content: what ``to_json`` writes, read back."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        fields = {
            "config": self.config,
            "seed": self.seed,
            "metrics": self.metrics,
            "tables": {name: {"columns": table.columns, "rows": table.rows} for name, table in self.tables.items()},
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
