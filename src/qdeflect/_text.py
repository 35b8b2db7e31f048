"""Text input and output shared by the file formats, their line error, and array helpers."""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import IO, Union

import numpy as np

Source = Union[str, Path, IO[str], IO[bytes], bytes]
Destination = Union[str, Path, IO[str]]

# the largest angular momentum a file may declare (a block's j, j_final and J_max, an ensemble's j_max):
# every index or array size formed from one, a block's pair codes too, stays within int64
MAX_MOMENTUM = 1 << 30


class InputError(ValueError):
    """Invalid input: the one error for a fault in what a file supplies, found by its reader or by a
    value type the reader builds.  Read from text it names its 1-based line, 'line N: ...', where there
    is one; `item` locates the rejected value in the object that raised it (an entry's position or a
    field's name), so a loader can find that line.  A plain ValueError means a call that asks for what
    the data lacks or passes an argument out of range; cqdf.PhaseUnwrapError, a numerical failure."""

    def __init__(self, message: str, line: int | None = None, item: int | str | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message, self.line, self.item = message, line, item

    def on_line(self, line: int | None) -> "InputError":
        return type(self)(self.message, line, self.item)


def read_text(source: Source) -> str:
    """A str or Path names a UTF-8 file; bytes or a stream hold the text.  A byte
    that is not UTF-8 is an InputError on its line, as str.splitlines numbers lines.
    One leading byte-order mark is dropped."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    data = source if isinstance(source, bytes) else source.read()
    try:
        return (data.decode("utf-8") if isinstance(data, bytes) else data).removeprefix("\ufeff")
    except UnicodeDecodeError as exc:  # '?' stands for the byte: a line break just before it opens its line
        raise InputError("not UTF-8 text", len((data[: exc.start].decode("utf-8") + "?").splitlines())) from None


def write_text(text: str, destination: Destination) -> None:
    """A str or Path names the file to (over)write; otherwise a text stream."""
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text, encoding="utf-8")
    else:
        destination.write(text)


def first_failure(*passes: np.ndarray) -> tuple[int, int] | None:
    """(position, k) of the first item that fails one of the element-wise
    masks `passes`, k being the first mask it fails; None if all pass."""
    failed = ~np.vstack(passes)
    hits = np.flatnonzero(failed.any(axis=0))
    return (int(hits[0]), int(failed[:, hits[0]].argmax())) if hits.size else None


NUMBER_START = frozenset("0123456789+-.")  # a line starting with one is not a header or comment


def read_column(values, t: type) -> np.ndarray:
    """t(v) for each value, t being int or float: int64 or float64, or an
    object array of Python ints if one exceeds 64 bits."""
    try:
        return np.fromiter(map(t, values), np.int64 if t is int else float, len(values))
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object)


def distinct_values(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, by np.unique's own neighbour
    rule (so -0.0 and 0.0 are one value).  A plain np.unique call would import
    numpy.ma, a start-up cost for every CLI process."""
    return np.concatenate([ascending[:1], ascending[1:][ascending[1:] != ascending[:-1]]])


def read_records(lines: list[str], numbers: list[int], types: tuple[type, ...],
                 comment: str | None = None) -> tuple[list[np.ndarray], int]:
    """(columns, n): column c holds types[c](token) of the record lines
    `numbers` (1-based) of `lines`, for their first n records.  n <
    len(numbers) indexes the first record that is not len(types) tokens or
    holds a token its type rejects; no record after it is read.  Text from
    `comment` on is not part of a line; no record line is blank.  numpy's
    reader reads all records at once; where it refuses, int() and float()
    read them line by line, as they accept all numpy accepts and more
    (`1_0`, non-ASCII digits, ints beyond 64 bits)."""
    if numbers:  # np.loadtxt warns on no lines
        dtype = [("", np.int64 if t is int else float) for t in types]
        try:
            with warnings.catch_warnings():  # numpy 1.x reads '1.0' as an int with this warning
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                table = np.loadtxt([lines[n - 1] for n in numbers], dtype, comments=comment, ndmin=1)
            return [np.ascontiguousarray(table[name]) for name in table.dtype.names], len(numbers)
        except ValueError:
            pass
    rows = []
    for n in numbers:
        tokens = (lines[n - 1] if comment is None else lines[n - 1].partition(comment)[0]).split()
        try:
            rows.append([t(token) for t, token in zip(types, tokens, strict=True)])
        except ValueError:  # also a record that is not len(types) tokens
            break
    return [read_column([row[c] for row in rows], t) for c, t in enumerate(types)], len(rows)
