"""Column-wise CSV reading and writing shared by every CSV file.

A file is read in one forward pass, as line-aligned blocks of about
``_BLOCK`` bytes, each decoded before the next is read, so reading holds the
caller's parsed arrays plus one block's text. While a block holds no ``"``,
no lone ``\\r`` and no byte that is not UTF-8 text, and its rows have the
header's field count, numpy gathers each needed column's cells straight into
a bytes (``S``) array. From the first other block on, one ``csv.reader``
reads the rest of the stream into the same arrays, so both paths give
identical values and errors. On either path, a column whose S array would
take over ``_WIDE`` times the bytes read so far is an object array. A byte
that is not UTF-8 text (or is NUL) is a ParseError; a leading UTF-8
byte-order mark is skipped. Messages name ``path:line``, counting the header
as line 1 and skipping blank lines as ``csv.DictReader`` does.

Decoding, id lookup, numbering and duplicate checks start from one
``np.unique`` of a column (``_distinct``), and ids are looked up by text.

Files are written a column at a time, with the bytes ``csv.writer`` gives:
minimal quoting, ``\\r\\n`` line ends, and numbers as their ``repr``,
formatted ``_ROWS`` values at a time.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import os
import re
from itertools import chain, islice

import numpy as np

from .errors import EpiflowsError, ParseError

# bytes read per block (a longer line is one block); after reading, the heap
# keeps holes about the size of one block's temporaries, and 1 MiB blocks
# left 3-5 MB more resident than these
_BLOCK = 1 << 19
_ROWS = 1 << 13  # values formatted at a time; cells a csv.reader batch holds, bytes it is fed
_PAD = 8  # zero bytes after the text, so every cell start has 8 bytes to load
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(8)] + [2**64 - 1], "<u8")
_MISSING = b"\xff"  # a short row's missing cell; UTF-8 text never holds this byte
_NOT_TEXT = re.compile("[\0\udc80-\udcff]")  # NUL, and bytes surrogateescape kept
_WIDE = 4  # an S column may take this many times the file's bytes, else object


def read_columns(path, names, header_error: Exception, rows) -> list[np.ndarray]:
    """The named columns (found by header name: extra columns and any order
    are fine), read in one pass and decoded by ``rows(start, *cells)`` a part
    at a time: each column's cells as bytes (``_MISSING`` for a short row's),
    after ``start`` data rows. ``rows`` returns arrays, one row each, joined
    across parts, or raises the EpiflowsError of its earliest bad row, which
    is raised at the end of the file unless ``_read_rows`` raises first."""
    out, size, start, error, read, lines = None, 0, 0, None, 0, 0

    def counted(blocks):  # the blocks, counting their bytes and data lines
        nonlocal read, lines
        for block in blocks:
            read += len(block) - _PAD
            lines += block.count(b"\n", block.find(b"\n") + 1)
            yield block

    with open(path, "rb") as fh:
        length, blocks = os.fstat(fh.fileno()).st_size, counted(_blocks(fh))  # length 0: a pipe
        for block in blocks:
            columns = None if _needs_reader(block) else _split(block, names)
            # from the first block that numpy refuses, csv.reader reads every block left
            for columns in [columns] if columns else _read_rows(
                    path, block, blocks, names, header_error, start):
                total = start + len(columns[0])
                if error is None and total > start:
                    # an S column is judged over all the rows read so far, as _read_rows
                    # judges, so one long cell in a late block widens no earlier row
                    columns = [c.astype(object) if c.dtype.kind == "S" and
                               _too_wide(c.itemsize, total, read) else c for c in columns]
                    try:
                        part = rows(start, *columns)
                        if out is None:
                            out = list(part)
                        else:  # the file's lines by those read, kept as so far, plus 1/16
                            expect = lines * length // read * (size + len(part[0])) // total
                            _append(out, size, part, expect + (expect >> 4))
                        size += len(part[0])
                    except EpiflowsError as exc:
                        error = exc
                    columns = part = None  # gone before the next block is read
                start = total
            block = None  # and the block, before the next one is joined
    if error is not None:
        raise error
    if out is None:  # no data rows
        return list(rows(0, *columns))
    for column in out:
        if len(column) > size:  # grown by _append, so it owns its data
            column.resize(size, refcheck=False)
    return out


def _append(out, size: int, part, expect: int) -> None:
    """Write the arrays ``part`` into ``out`` after row ``size``, replacing
    one array at a time any too short or too narrow: by one of ``expect``
    rows, or of the next power-of-two length when that is too few."""
    need = size + len(part[0])
    for k, (column, cells) in enumerate(zip(out, part)):
        dtype = np.result_type(column, cells)
        if need > len(column) or dtype != column.dtype:
            longer = expect if expect >= need else 1 << (need - 1).bit_length()
            wider = np.empty(max(len(column), longer), dtype)
            wider[:size] = column[:size]
            out[k] = column = wider
        column[size:need] = cells


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
        block = None  # gone before the next chunk is read


def _needs_reader(block: bytes) -> bool:
    """Whether the block holds a quote, a NUL or a byte that is not UTF-8,
    which only the ``csv.reader`` path reads or reports."""
    if b'"' in block or block.find(b"\0", 0, -_PAD) >= 0:
        return True
    if block.isascii():
        return False
    try:
        block.decode()
    except UnicodeDecodeError:
        return True
    return False


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


def _split(data: bytes, names):
    """The columns of a block (a header line, then data lines) with no
    quotes, by numpy; None when the header lacks a name, a row's field count
    is not the header's, a lone CR splits rows, or a column is too wide for
    an S array; ``_read_rows`` reports a bad header after any bad byte."""
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
        return None
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


def _read_rows(path, block, blocks, names, header_error, start: int):
    """The columns of ``block`` (led by the header, after ``start`` data rows)
    and of the blocks left, by one csv.reader, ``_ROWS`` cells at a time. A bad
    byte raises at once; a bad header, else an oversize cell, at the end."""
    cut = block.find(b"\n") + 1  # the header line, which every later block repeats
    size, dirty = 0, False

    def texts():  # whole lines, _ROWS bytes or so at a time: StringIO keeps 4 bytes a char
        nonlocal size, dirty
        for k, data in enumerate(chain([block], blocks)):
            at, stop = cut if k else 0, len(data) - _PAD
            size += stop - at  # the bytes csv.reader was given
            while at < stop:
                end = data.find(b"\n", at + _ROWS, stop) + 1 or stop
                text = str(memoryview(data)[at:end], "utf-8", "surrogateescape")
                dirty |= "\0" in text or not text.isascii() and bool(_NOT_TEXT.search(text))
                yield io.StringIO(text, newline="")
                at = end

    reader = csv.reader(chain.from_iterable(texts()))
    try:
        header = next(reader, [])
    except csv.Error:  # a header cell over the field limit: a bad header on line 1
        header = [""]
    if dirty:
        _check_text(path, [header], 1)
    error = None if set(names).issubset(header) else header_error
    position = {name: k for k, name in enumerate(header)}  # a repeated name: its last column
    picks = [position.get(name, 0) for name in names]  # column 0 under a bad header
    count = max(1, _ROWS // max(1, len(header)))  # rows per batch
    first, read = start + 1 + bool(header), 0  # line of the first row (a blank header is none)
    records, batch, more = map(tuple, reader), [], True  # tuples, soon untracked by gc
    while more:
        try:
            for row in islice(records, count - len(batch)):
                batch.append(row)
        except csv.Error as exc:  # csv.reader goes on with the next line
            error = error or ParseError(f"{path}:{first + read + sum(map(bool, batch))}: {exc}")
            batch.append(("",))  # the refused row still counts as a line
            continue
        rows, more, batch = list(filter(None, batch)), len(batch) == count, []
        if dirty:
            _check_text(path, rows, first + read)
        read += len(rows)
        if error is None:
            columns = []
            for k in picks:  # as _split would gather them, a short row's missing cell _MISSING
                cells = [row[k].encode() if k < len(row) else _MISSING for row in rows]
                longest = max(map(len, cells), default=0)
                wide = _too_wide(longest, read, size)  # judged over all the rows read so far
                columns.append(np.array(cells, object if wide else f"S{8 * _words(longest)}"))
            rows = None  # let the batch's rows go before the caller decodes its cells
            yield columns
    if error is not None:
        raise error


def _check_text(path, rows, line: int) -> None:
    """ParseError naming the row of the first NUL or non-UTF-8 byte, rows[0] on ``line``."""
    for line, row in enumerate(rows, line):
        if found := _NOT_TEXT.search(",".join(row)):
            raise ParseError(f"{path}:{line}: byte 0x{ord(found[0]) & 0xFF:02x} is not UTF-8 text")


def text(cell) -> str | None:
    """A cell's text, or None for a short row's missing cell."""
    return None if cell == _MISSING else cell.decode()


def numbered(column, index: dict) -> np.ndarray:
    """``indices`` of the column after adding to ``index`` the texts it does
    not hold yet, numbered in order of first appearance; over a file's
    blocks in turn, ``index`` ends as its distinct ids."""
    cells, inverse = _distinct(column)
    order, codes = np.argsort(_first_rows(inverse)), np.empty(len(cells), np.intp)
    codes[order] = [index.setdefault(text(cell), len(index)) for cell in cells[order].tolist()]
    return codes[inverse]


def _runs(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(heads, inverse) with column == heads[inverse]: the first cell of
    each run of equal adjacent cells."""
    change = np.ones(len(column), dtype=bool)
    change[1:] = column[1:] != column[:-1]
    runs = np.flatnonzero(change)
    return column[runs], np.repeat(np.arange(len(runs)), np.diff(runs, append=len(column)))


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells, inverse) with column == cells[inverse], each distinct cell
    once: one-word cells and int64 keys sorted as integers, wider cells by
    their runs' heads."""
    if column.dtype in ("S8", np.int64):
        cells, inverse = np.unique(column.view(np.int64), return_inverse=True)
        return cells.view(column.dtype), inverse
    heads, runs = _runs(column)
    cells, inverse = np.unique(heads, return_inverse=True)
    return cells, inverse[runs]


def _first_rows(inverse: np.ndarray) -> np.ndarray:
    """The row where each of ``_distinct``'s cells first appears, by a
    scatter-min: the sort in ``np.unique(inverse, return_index=True)`` left
    a CLI command reading a 30 001-row trajectory 2-4 MB more resident."""
    first = np.full(inverse.max(initial=-1) + 1, len(inverse))
    np.minimum.at(first, inverse, np.arange(len(inverse)))
    return first


def decode(column, convert=float, dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """``convert`` of every cell's text, called once per distinct cell (one
    cast when ``convert`` is float and numpy reads every cell), and a mask
    of the cells it rejects with TypeError or ValueError (those read as 0)
    or turns into nan or inf. Float cells wider than a word are almost all
    distinct, so they are converted once per run of equal cells, unsorted."""
    wide = convert is float and column.dtype != "S8"
    cells, inverse = _runs(column) if wide else _distinct(column)
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
    """``index[text(cell)]`` for every cell, -1 where the text is not a key."""
    cells, inverse = _distinct(column)
    codes = np.fromiter((index.get(text(cell), -1) for cell in cells.tolist()), np.intp, len(cells))
    return codes[inverse]


def repeated(column) -> np.ndarray:
    """True where a cell equals a cell on an earlier row."""
    return repeated_across(column, [])


def repeated_across(column, seen: list) -> np.ndarray:
    """``repeated`` of one block's column, counting the cells of earlier
    blocks too: ``seen`` holds their distinct cells as one sorted array, and
    gains these (by ``searchsorted``: ``np.isin`` compares object cells pairwise)."""
    cells, inverse = _distinct(column)
    earlier = seen.pop() if seen else cells[:0]
    at = np.searchsorted(earlier, cells).clip(max=len(earlier) - 1)
    known = earlier[at] == cells if len(earlier) else np.zeros(len(cells), dtype=bool)
    merged = np.concatenate((earlier, cells[~known]))
    # one-word cells sort as big-endian words (not as strings: 0.3 ms, not
    # 6 ms, for 38 000 ids); other cells come as two sorted runs to merge
    seen.append(np.sort(merged.view(">u8")).view("S8") if merged.dtype == "S8"
                else np.sort(merged, kind="stable"))
    return known[inverse] | (_first_rows(inverse)[inverse] != np.arange(len(inverse)))


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
