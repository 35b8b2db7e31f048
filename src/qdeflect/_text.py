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
