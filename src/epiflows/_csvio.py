"""Column-wise CSV reading shared by the file readers.

Rows stream from ``csv.reader`` into one list of cells per needed column, so
no row object outlives its row, and numpy decodes whole columns. Messages
name ``path:line``, counting the header as line 1 and skipping blank lines
as ``csv.DictReader`` does.
"""
from __future__ import annotations

import csv
from itertools import repeat

import numpy as np

from .errors import ParseError


def read_columns(path, names, header_error: Exception) -> list[list]:
    """The cells of the named columns, found by header name (extra columns
    and any order are fine); a short row's missing cells are None."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(names).issubset(header):
            raise header_error
        position = {name: k for k, name in enumerate(header)}  # a repeated name: its last column
        columns = [[] for _ in names]
        cells = [(column.append, position[name]) for column, name in zip(columns, names)]
        width = max(position[name] for name in names) + 1
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                row += [None] * (width - len(row))
            for append, k in cells:
                append(row[k])
    return columns


def decode(column, convert=float, dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """``convert`` of every cell, called once per distinct cell, and a mask of
    the cells it rejects with TypeError or ValueError (those read as 0)."""
    if convert is float and None not in column:  # numpy would read None as NaN
        try:
            return np.array(column, dtype=float), np.zeros(len(column), dtype=bool)
        except ValueError:
            pass
    values, bad = {}, {}
    for cell in dict.fromkeys(column):
        try:
            values[cell], bad[cell] = convert(cell), False
        except (TypeError, ValueError):
            values[cell], bad[cell] = 0, True
    return (np.fromiter(map(values.__getitem__, column), dtype, len(column)),
            np.fromiter(map(bad.__getitem__, column), bool, len(column)))


def indices(column, index: dict) -> np.ndarray:
    """``index[cell]`` for every cell, -1 where the cell is not a key."""
    return np.fromiter(map(index.get, column, repeat(-1)), np.intp, len(column))


def repeated(column) -> np.ndarray:
    """True where a cell equals a cell on an earlier row."""
    first = dict(zip(reversed(column), range(len(column) - 1, -1, -1)))
    return indices(column, first) != np.arange(len(column))


def raise_first(path, checks) -> None:
    """Raise for the earliest row failing a check. ``checks`` are (mask,
    error) pairs in the order one row is checked, ``error(k, where)``
    building the exception for row k."""
    hits = [(int(np.argmax(bad)), order) for order, (bad, _) in enumerate(checks) if bad.any()]
    if hits:
        k, order = min(hits)
        raise checks[order][1](k, f"{path}:{k + 2}")


def numbers(path, columns, names) -> list[np.ndarray]:
    """The columns as finite floats; ParseError for the first cell that is
    not one."""
    parsed = [decode(column) for column in columns]
    raise_first(path, [
        (bad | ~np.isfinite(values), lambda k, where, column=column, name=name:
            ParseError(f"{where}: bad {name} value {column[k]!r}"))
        for (values, bad), column, name in zip(parsed, columns, names)
    ])
    return [values for values, _ in parsed]
