"""Text input and output shared by the file formats, and their line error."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Union

import numpy as np

Source = Union[str, Path, IO[str], IO[bytes], bytes]
Destination = Union[str, Path, IO[str]]


class InputError(ValueError):
    """Invalid input.  Read from text it names its 1-based line, 'line N: ...';
    `item` locates the rejected value in the object that raised it (an
    entry's position or a field's name), so a loader can find that line."""

    def __init__(self, message: str, line: int | None = None, item: int | str | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message, self.line, self.item = message, line, item

    def on_line(self, line: int | None) -> "InputError":
        return type(self)(self.message, line, self.item)


def read_text(source: Source) -> str:
    """A str or Path names a UTF-8 file; bytes or a stream hold the text."""
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source if isinstance(source, bytes) else source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


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


_CHUNK = 4096  # record lines read at once; bounds the tokens held in memory
NUMBER_START = frozenset("0123456789+-.")  # a line starting with one is not a header or comment


def read_column(values, t: type) -> np.ndarray:
    """t(v) for each value, t being int or float: int64 or float64, or an
    object array of Python ints if one exceeds 64 bits."""
    try:
        return np.fromiter(map(t, values), np.int64 if t is int else float, len(values))
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object)


def other_lines(numbers: list[int], count: int) -> list[int]:
    """The line numbers 1..count that are not in the ascending `numbers`."""
    return [n for lo, hi in zip([0, *numbers], [*numbers, count + 1]) for n in range(lo + 1, hi)]


def read_records(lines: list[str], numbers: list[int], types: tuple[type, ...],
                 comment: str | None = None, chunk: int | None = None) -> tuple[list[np.ndarray], int]:
    """(columns, n): column c holds types[c](token) of the record lines
    `numbers` (1-based) of `lines`, for their first n records.  n <
    len(numbers) indexes the first record that is not len(types) tokens or
    holds a token its type rejects; no record after it is read.  Text from
    `comment` on is not part of a line.  Lines are split `chunk` at a time
    (default _CHUNK), each chunk at once."""
    width, chunk = len(types), chunk or _CHUNK
    parts = [[read_column([], t) for t in types]]
    for lo in range(0, len(numbers), chunk):
        some = numbers[lo : lo + chunk]
        text = " ; ".join([lines[n - 1] for n in some])
        if comment is not None and comment in text:
            text = " ; ".join([lines[n - 1].partition(comment)[0] for n in some])
        # one split per chunk, ";" between the lines: as no type reads ";",
        # the columns read only if every line is exactly `width` tokens
        tokens = text.split()
        try:
            if len(tokens) == (width + 1) * len(some) - 1:
                parts.append([read_column(tokens[c :: width + 1], t) for c, t in enumerate(types)])
                continue
        except ValueError:
            pass
        if chunk == 1:
            return [np.concatenate(column) for column in zip(*parts)], lo
        columns, n = read_records(lines, some, types, comment, chunk=1)
        return [np.concatenate(column) for column in zip(*parts, columns)], lo + n
    return [np.concatenate(column) for column in zip(*parts)], len(numbers)
