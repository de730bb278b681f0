"""Column-wise CSV reading and writing shared by every CSV file.

A file is read as a stream of line-aligned blocks of about ``_BLOCK`` bytes,
and each block is decoded before the next is read, so reading holds the
caller's parsed arrays plus one block's text, never a whole-file column,
offset array or byte mask. When a block holds no ``"``, no lone ``\\r`` and
no byte that is not UTF-8 text, and each of its non-blank rows has the
header's field count, numpy finds the ``,`` and ``\\n`` bytes and gathers
each needed column's cells straight into a bytes (``S``) array. A file with
any other block (quoted cells, short or long rows) is read again whole
through ``csv.reader``, whose cells are packed into the same arrays, so both
paths give identical columns and hence identical values and errors. A
stream that cannot seek back, such as a pipe, is held whole in memory for
that reason. A leading UTF-8 byte-order mark is skipped; a byte that is not
UTF-8 text (or is NUL) is a ParseError. Messages name ``path:line``,
counting the header as line 1 and skipping blank lines as ``csv.DictReader``
does.

Files are written a column at a time, with the bytes ``csv.writer`` gives:
minimal quoting, ``\\r\\n`` line ends, and numbers as their ``repr``,
formatted ``_ROWS`` values at a time.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import re
from itertools import chain

import numpy as np

from .errors import EpiflowsError, ParseError

# bytes read per block (a longer line is one block); after reading, the heap
# keeps holes about the size of one block's temporaries, and 1 MiB blocks
# left 3-5 MB more resident than these
_BLOCK = 1 << 19
_ROWS = 1 << 13  # values formatted per block when writing
_PAD = 8  # zero bytes after the text, so every cell start has 8 bytes to load
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(8)] + [2**64 - 1], "<u8")
_MISSING = b"\xff"  # a short row's missing cell; UTF-8 text never holds this byte
_NOT_TEXT = re.compile("[\0\udc80-\udcff]")  # NUL, and bytes surrogateescape kept
_WIDE = 4  # an S column may take this many times the file's bytes, else object


def read_columns(path, names, header_error: Exception, rows) -> list[np.ndarray]:
    """The named columns (found by header name: extra columns and any order
    are fine), decoded a block at a time by ``rows(start, *cells)``.

    ``cells`` are the block's cells of each column as arrays of bytes, a
    short row's missing cells reading as ``_MISSING``, and ``start`` is the
    number of data rows before the block. ``rows`` returns a tuple of
    arrays, one row each, which are joined across blocks, or raises the
    EpiflowsError of its earliest bad row; that error is raised once the
    rest of the file is known to need no ``csv.reader``. A file that does is
    passed to ``rows`` whole, at start 0, so state that ``rows`` keeps
    across blocks starts over at 0.
    """
    with open(path, "rb") as fh:
        stream = fh if fh.seekable() else io.BytesIO(fh.read())
        out, size, start, error = None, 0, 0, None
        for block in _blocks(stream):
            try:
                columns = None if _needs_reader(block) else _split(block, names, header_error)
                if columns is None:
                    break
                if error is None:
                    part = rows(start, *columns)
                    out = _append(out, size, part)
                    size, start = size + len(part[0]), start + len(columns[0])
            except EpiflowsError as exc:
                error = error or exc
        else:
            if error is not None:
                raise error
            for column in out:
                if len(column) > size:  # grown by _append, so it owns its data
                    column.resize(size, refcheck=False)
            return out
        stream.seek(0)
        data = stream.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    data = b"".join((memoryview(data)[bom:], bytes(_PAD)))
    if not data.isascii() or data.find(b"\0", 0, -_PAD) >= 0:
        _check_text(path, data)
    return list(rows(0, *_read_rows(path, data, names, header_error)))


def _append(out, size: int, part) -> list[np.ndarray]:
    """The arrays ``out``, filled to row ``size``, with the arrays ``part``
    written after them. An array too short or too narrow for its part is
    replaced by one of twice the length, so no list of parts is kept and
    the long-lived rows do not sit between one block's freed temporaries."""
    if out is None:
        return list(part)
    need = size + len(part[0])
    grown = []
    for column, cells in zip(out, part):
        dtype = np.result_type(column, cells)
        if need > len(column) or dtype != column.dtype:
            wider = np.empty(max(need, 2 * len(column)), dtype)
            wider[:size] = column[:size]
            column = wider
        column[size:need] = cells
        grown.append(column)
    return grown


def _blocks(stream):
    """The stream's text as blocks of whole lines, each led by the header
    line (the first block is the header's own) and zero-padded; a file with
    no bytes is one empty block."""
    header, pending, more = None, [], True
    while more:
        chunk = stream.read(_BLOCK)
        more, end = bool(chunk), chunk.rfind(b"\n") + 1
        if more and not end:
            pending.append(chunk)
            continue
        block = b"".join((header or b"", *pending, memoryview(chunk)[:end], bytes(_PAD)))
        pending, chunk = [chunk[end:]], None
        if header is None:
            if block.startswith(codecs.BOM_UTF8):
                block = block[len(codecs.BOM_UTF8):]
            header = block[: block.find(b"\n") + 1]
        elif len(block) == len(header) + _PAD:
            continue
        yield block


def _needs_reader(block: bytes) -> bool:
    """Whether the block holds a quote, a NUL or a byte that is not UTF-8,
    which only the whole-file ``csv.reader`` path reads or reports."""
    if b'"' in block or block.find(b"\0", 0, -_PAD) >= 0:
        return True
    if block.isascii():
        return False
    try:
        block.decode()
    except UnicodeDecodeError:
        return True
    return False


def _check_text(path, data: bytes) -> None:
    """ParseError naming the row of the first byte that is NUL or not UTF-8."""
    content = data[:-_PAD].decode(errors="surrogateescape")
    if _NOT_TEXT.search(content) is None:
        return
    for line, row in enumerate(filter(None, csv.reader(io.StringIO(content, newline=""))), 1):
        for cell in row:
            found = _NOT_TEXT.search(cell)
            if found:
                raise ParseError(f"{path}:{line}: byte 0x{ord(found.group()) & 0xFF:02x} "
                                 "is not UTF-8 text")


def _lines(u8: np.ndarray, size: int):
    """(end of the header, start and end of each later non-blank line),
    line ends exclusive and CR-stripped; None when a CR that does not end a
    line would split a row."""
    ends = np.flatnonzero(u8[:size] == ord("\n"))
    if not size or u8[size - 1] != ord("\n"):
        ends = np.append(ends, size)
    cr = u8[ends - 1] == ord("\r")  # ends[0] == 0 reads a zero pad byte
    if np.count_nonzero(u8[:size] == ord("\r")) != np.count_nonzero(cr):
        return None
    starts, stops = np.concatenate(([0], ends[:-1] + 1)), ends - cr
    rows = stops[1:] > starts[1:]  # a blank line holds no byte but a CR
    return int(stops[0]), starts[1:][rows], stops[1:][rows]


def _split(data: bytes, names, header_error):
    """The columns of a block (a header line, then data lines) with no
    quotes, by numpy; None when a row's field count is not the header's, a
    lone CR splits rows, or a column is too wide for an S array."""
    size = len(data) - _PAD
    u8 = np.frombuffer(data, np.uint8)
    lines = _lines(u8, size)
    if lines is None:
        return None
    header_end, first, last = lines
    if (last - first).max(initial=0) > csv.field_size_limit():
        return None  # csv.reader may refuse one of its cells
    header = data[:header_end].decode().split(",")
    if not set(names).issubset(header):
        raise header_error
    fields = len(header)
    commas = np.flatnonzero(u8[:size] == ord(","))[fields - 1 :]
    if len(commas) != (fields - 1) * len(first):
        return None
    commas = commas.reshape(len(first), fields - 1)
    # with commas taken in order and none on blank lines, this holds iff
    # every row has exactly fields - 1 of them
    if (commas[:, 0] < first).any() or (commas[:, -1] >= last).any():
        return None
    cells = np.ndarray((len(data) - 7,), "S8", data, strides=(1,))  # 8 bytes from every offset
    position = {name: k for k, name in enumerate(header)}  # a repeated name: its last column
    columns = []
    for k in (position[name] for name in names):
        column = _gather(cells, first if k == 0 else commas[:, k - 1] + 1,
                         last if k == fields - 1 else commas[:, k], size)
        if column is None:
            return None
        columns.append(column)
    return columns


def _words(longest: int) -> int:
    return max(1, -(-longest // 8))


def _too_wide(longest: int, rows: int, size: int) -> bool:
    """Whether an S array of the column would dwarf its text (a few long cells)."""
    return 8 * _words(longest) * rows > _WIDE * size


def _gather(cells: np.ndarray, start: np.ndarray, stop: np.ndarray, size: int):
    """The bytes [start, stop) of every row, zero-padded to whole u64 words
    and loaded one word per pass; None when the column is too wide."""
    length = stop - start
    longest = int(length.max(initial=0))
    if _too_wide(longest, len(start), size):
        return None
    out = np.empty((len(start), _words(longest)), "<u8")
    for w in range(out.shape[1]):
        masks = _MASKS[np.clip(np.arange(longest + 1) - 8 * w, 0, 8)]  # by cell length
        at = np.minimum(start + 8 * w, len(cells) - 1)  # a cell this short loads nothing
        out[:, w] = cells[at].view("<u8") & masks[length]
    return out.view(f"S{out.itemsize * out.shape[1]}").ravel()


def _read_rows(path, data: bytes, names, header_error) -> list[np.ndarray]:
    """read_columns by ``csv.reader``, for quoted or ragged files."""
    reader = csv.reader(io.StringIO(data[:-_PAD].decode(), newline=""))
    header = next(reader, None)
    if header is None or not set(names).issubset(header):
        raise header_error
    position = {name: k for k, name in enumerate(header)}  # a repeated name: its last column
    columns = [[] for _ in names]
    cells = [(column.append, position[name]) for column, name in zip(columns, names)]
    width = max(position[name] for name in names) + 1
    try:
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                row += [None] * (width - len(row))
            for append, k in cells:
                append(row[k])
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise ParseError(f"{path}:{len(columns[0]) + 2}: {exc}") from exc
    return [_column(column, len(data) - _PAD) for column in columns]


def _column(cells: list, size: int) -> np.ndarray:
    """Text cells (None for missing) as the array _split would gather."""
    encoded = [_MISSING if cell is None else cell.encode() for cell in cells]
    longest = max(map(len, encoded), default=0)
    if _too_wide(longest, len(encoded), size):
        return np.array(encoded, dtype=object)
    return np.array(encoded, dtype=f"S{8 * _words(longest)}")


def text(cell) -> str | None:
    """A cell's text, or None for a short row's missing cell."""
    return None if cell == _MISSING else cell.decode()


def distinct(column) -> tuple:
    """The texts of the column's cells in order of first appearance."""
    return tuple(map(text, dict.fromkeys(column.tolist())))


def numbered(column, index: dict) -> np.ndarray:
    """``indices`` of the column after adding to ``index`` the texts it does
    not hold yet, numbered in order of first appearance; over a file's
    blocks in turn, ``index`` ends as its ``distinct`` ids."""
    for key in distinct(column):
        index.setdefault(key, len(index))
    return indices(column, index)


def _keys(column: np.ndarray) -> np.ndarray:
    """The cells as sortable keys: one u64 each when they fit in a word."""
    return column.view("<u8") if column.dtype == "S8" else column


def _cells(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells, inverse) with column == cells[inverse]: each distinct
    one-word cell once, else one entry per run of equal cells."""
    keys = _keys(column)
    if keys.dtype == np.uint64:
        cells, inverse = np.unique(keys, return_inverse=True)
        return cells.view("S8"), inverse
    change = np.ones(len(keys), dtype=bool)
    change[1:] = keys[1:] != keys[:-1]
    runs = np.flatnonzero(change)
    return column[runs], np.repeat(np.arange(len(runs)), np.diff(runs, append=len(column)))


def decode(column, convert=float, dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """``convert`` of every cell's text, called once per distinct cell (one
    cast when ``convert`` is float and numpy reads every cell), and a mask
    of the cells it rejects with TypeError or ValueError (those read as 0)
    or turns into nan or inf."""
    cells, inverse = _cells(column)
    if convert is float:
        try:
            values = cells.astype(float)  # float() of each cell's bytes
            return values[inverse], ~np.isfinite(values)[inverse]
        except ValueError:  # a missing cell, or a non-ASCII space float() strips from text
            pass
    values, bad = np.zeros(len(cells), dtype), np.ones(len(cells), dtype=bool)
    for k, cell in enumerate(cells.tolist()):
        try:
            values[k] = convert(text(cell))
            bad[k] = not math.isfinite(values[k])
        except (TypeError, ValueError):
            pass
    return values[inverse], bad[inverse]


def indices(column, index: dict) -> np.ndarray:
    """``index[cell]`` for every cell, -1 where the cell is not a key."""
    known = {}
    for key, i in index.items():
        cell = _MISSING if key is None else key.encode(errors="surrogatepass")
        # no cell holds NUL, and an S array would cut a longer key to fit
        if b"\0" not in cell and (column.dtype == object or len(cell) <= column.itemsize):
            known[cell] = i
    if not known:
        return np.full(len(column), -1, dtype=np.intp)
    keys = _keys(np.array(list(known), dtype=column.dtype))
    order = np.argsort(keys)
    keys, values = keys[order], np.fromiter(known.values(), np.intp, len(known))[order]
    cells = _keys(column)
    at = np.searchsorted(keys, cells).clip(max=len(keys) - 1)
    return np.where(keys[at] == cells, values[at], -1)


def repeated(column) -> np.ndarray:
    """True where a cell equals a cell on an earlier row."""
    _, first, inverse = np.unique(_keys(column), return_index=True, return_inverse=True)
    return first[inverse] != np.arange(len(column))


def repeated_across(column, seen: list) -> np.ndarray:
    """``repeated`` of one block's column, counting the cells of earlier
    blocks too: ``seen`` holds them as one sorted array, and gains these."""
    earlier = seen.pop() if seen else column[:0]
    seen.append(np.sort(np.concatenate((earlier, column)), kind="stable"))
    if not len(earlier):
        return repeated(column)
    at = np.searchsorted(earlier, column).clip(max=len(earlier) - 1)
    return repeated(column) | (earlier[at] == column)


def raise_first(path, checks, start: int = 0) -> None:
    """Raise for the earliest row failing a check. ``checks`` are (mask,
    error) pairs in the order one row is checked, ``error(k, where)``
    building the exception for row k, which is data row ``start + k`` of
    the file."""
    hits = [(int(np.argmax(bad)), order) for order, (bad, _) in enumerate(checks) if bad.any()]
    if hits:
        k, order = min(hits)
        raise checks[order][1](k, f"{path}:{start + k + 2}")


def numbers(path, columns, names, start: int = 0) -> list[np.ndarray]:
    """The columns as finite floats; ParseError for the first cell that is
    not one, the columns starting at data row ``start``."""
    parsed = [decode(column) for column in columns]
    raise_first(path, [
        (bad, lambda k, where, column=column, name=name:
            ParseError(f"{where}: bad {name} value {text(column[k])!r}"))
        for (_, bad), column, name in zip(parsed, columns, names)
    ], start)
    return [values for values, _ in parsed]


def cell(text: str) -> str:
    """text as csv.writer writes it as one cell of a row of several."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def reprs(values):
    """The cells of numbers in C order: repr of each as a float, which never
    needs quoting. About ``_ROWS`` values are formatted at a time, so no
    list of the whole array exists."""
    values = np.asarray(values, dtype=float)
    step = max(1, _ROWS // max(1, math.prod(values.shape[1:])))
    return chain.from_iterable(map(repr, values[k : k + step].ravel().tolist())
                               for k in range(0, len(values), step))


def write_columns(path, header, columns) -> None:
    """A CSV file of the header row, then one row per item of the columns
    taken in step. Each column is an iterable of finished cells (``cell`` of
    a text, ``reprs`` of numbers), and there are at least two, as ``cell``
    assumes."""
    row = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(row.format(*map(cell, header)))
        fh.writelines(map(row.format, *columns))
