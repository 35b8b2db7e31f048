"""State-to-state S-matrix blocks: text format, validation, persistence.

File format (UTF-8, '#' starts a comment):

    k <value> <unit-tag>
    channel j=<int> jp=<int> v=<int> vp=<int> Jmax=<int>
    <J> <Omega> <OmegaPrime> <Re> <Im>
    ...

One complex amplitude per (J, Omega, OmegaPrime); any triple absent from the
file is exactly zero.  Helicity bounds |Omega| <= min(J, j) and
|OmegaPrime| <= min(J, jp) are enforced on load.  Wavenumber units are
whatever the unit tag declares (default 1/angstrom); all cross sections
downstream come out in that unit squared.

Loaded blocks are immutable; share them freely across threads.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Mapping, Union

import numpy as np

DEFAULT_K_UNIT = "1/angstrom"

EntryKey = tuple[int, int, int]  # (J, Omega, OmegaPrime)


class SMatrixParseError(ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SMatrixValidationError(ValueError):
    """Structurally valid input that violates a block invariant."""


@dataclass(frozen=True)
class ChannelHeader:
    """Channel labels and the quantities every downstream formula needs."""

    k: float
    j: int
    j_final: int
    v: int = 0
    v_final: int = 0
    J_max: int = 0
    k_unit: str = DEFAULT_K_UNIT
    energy_label: str = ""

    def __post_init__(self) -> None:
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise SMatrixValidationError(f"wavenumber must be positive, got {self.k}")
        for name in ("j", "j_final", "J_max"):
            if getattr(self, name) < 0:
                raise SMatrixValidationError(f"{name} must be nonnegative")


def _check_entry(header: ChannelHeader, key: EntryKey) -> None:
    J, omega, omega_p = key
    if not 0 <= J <= header.J_max:
        raise SMatrixValidationError(
            f"entry (J={J}, Omega={omega}, Omega'={omega_p}): J outside 0..{header.J_max}"
        )
    if abs(omega) > min(J, header.j):
        raise SMatrixValidationError(
            f"entry (J={J}, Omega={omega}, Omega'={omega_p}): "
            f"|Omega|={abs(omega)} > min(J, j)={min(J, header.j)}"
        )
    if abs(omega_p) > min(J, header.j_final):
        raise SMatrixValidationError(
            f"entry (J={J}, Omega={omega}, Omega'={omega_p}): "
            f"|Omega'|={abs(omega_p)} > min(J, jp)={min(J, header.j_final)}"
        )


@dataclass(frozen=True, eq=False)
class SMatrixBlock:
    """Complex amplitudes S^J_{Omega' Omega} for one channel pair.

    Missing (J, Omega, Omega') keys are exactly zero.  Construction
    validates every key against the header bounds and indexes the entries
    once, by helicity pair and by J.
    """

    header: ChannelHeader
    entries: Mapping[EntryKey, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validated: dict[EntryKey, complex] = {}
        for key, value in self.entries.items():
            key = (int(key[0]), int(key[1]), int(key[2]))
            _check_entry(self.header, key)
            validated[key] = complex(value)
        object.__setattr__(self, "entries", MappingProxyType(validated))

        keys = sorted(validated)
        by_pair: dict[tuple[int, int], tuple[list[int], list[complex]]] = {}
        for J, omega, omega_p in keys:
            js, amps = by_pair.setdefault((omega, omega_p), ([], []))
            js.append(J)
            amps.append(validated[J, omega, omega_p])
        columns = {}
        for pair, (js, amps) in by_pair.items():
            column = (np.array(js, dtype=int), np.array(amps, dtype=complex))
            for arr in column:
                arr.setflags(write=False)
            columns[pair] = column
        object.__setattr__(self, "_columns", columns)
        # Python's sum() over each J's entries in sorted-key order; the
        # opacity and sigma_j output bytes depend on this order
        sum_sq = {
            J: sum(abs(validated[key]) ** 2 for key in group)
            for J, group in itertools.groupby(keys, key=operator.itemgetter(0))
        }
        object.__setattr__(self, "_sum_sq", sum_sq)

    def __len__(self) -> int:
        return len(self.entries)

    def js_with_entries(self) -> list[int]:
        return sorted(self._sum_sq)

    def helicity_pairs(self) -> list[tuple[int, int]]:
        """Sorted (Omega, OmegaPrime) pairs that have at least one entry."""
        return sorted(self._columns)

    def sum_sq_at_j(self, J: int) -> float:
        """sum over (Omega, OmegaPrime) of |S^J|^2; 0.0 where J has no entry."""
        return self._sum_sq.get(J, 0.0)

    def j_column(self, omega: int, omega_p: int) -> tuple[np.ndarray, np.ndarray]:
        """(J values, amplitudes) present at a fixed helicity pair, ascending J.

        Both arrays are read-only and shared by every call.
        """
        column = self._columns.get((omega, omega_p))
        if column is None:
            return np.array([], dtype=int), np.array([], dtype=complex)
        return column

    def scaled(self, factor: complex) -> "SMatrixBlock":
        """New block with every amplitude multiplied by factor."""
        return SMatrixBlock(self.header, {k: v * factor for k, v in self.entries.items()})


@dataclass(frozen=True)
class UnitarityReport:
    """Entries whose magnitude exceeds 1 + tol; empty means pass."""

    violations: tuple[tuple[EntryKey, float], ...]
    tol: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed


def validate_unitarity(block: SMatrixBlock, tol: float = 1e-9) -> UnitarityReport:
    """Flag every entry with |S| > 1 + tol (flux conservation sanity check)."""
    bad = tuple(
        (key, abs(value))
        for key, value in sorted(block.entries.items())
        if abs(value) > 1.0 + tol
    )
    return UnitarityReport(bad, tol)


Source = Union[str, Path, IO[str], IO[bytes], bytes]


def _as_text_lines(source: Source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8").splitlines()
    if isinstance(source, bytes):
        return source.decode("utf-8").splitlines()
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.splitlines()


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def load_smatrix(source: Source) -> SMatrixBlock:
    """Parse a block from a path, byte/text stream, or bytes."""
    lines = list(_as_text_lines(source))

    k = None
    k_unit = DEFAULT_K_UNIT
    channel: dict[str, int] = {}
    energy_label = ""
    entries: dict[EntryKey, complex] = {}

    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            if stripped[1:].strip().startswith("energy:"):
                energy_label = stripped[1:].strip()[len("energy:"):].strip()
            continue
        body = _strip_comment(raw)
        if not body:
            continue
        fields = body.split()
        if fields[0] == "k":
            if k is not None:
                raise SMatrixParseError("duplicate k line", lineno)
            if len(fields) < 2:
                raise SMatrixParseError("k line needs a value", lineno)
            try:
                k = float(fields[1])
            except ValueError:
                raise SMatrixParseError(f"bad wavenumber {fields[1]!r}", lineno) from None
            if len(fields) >= 3:
                k_unit = fields[2]
        elif fields[0] == "channel":
            if channel:
                raise SMatrixParseError("duplicate channel line", lineno)
            for item in fields[1:]:
                if "=" not in item:
                    raise SMatrixParseError(f"bad channel field {item!r}", lineno)
                name, _, val = item.partition("=")
                try:
                    channel[name] = int(val)
                except ValueError:
                    raise SMatrixParseError(f"bad channel value {item!r}", lineno) from None
            missing = {"j", "jp", "v", "vp", "Jmax"} - channel.keys()
            if missing:
                raise SMatrixParseError(f"channel line missing {sorted(missing)}", lineno)
        else:
            if k is None or not channel:
                raise SMatrixParseError(
                    "entries must follow the k and channel lines", lineno
                )
            if len(fields) != 5:
                raise SMatrixParseError(
                    f"expected 'J Omega OmegaPrime Re Im', got {len(fields)} fields", lineno
                )
            try:
                J, omega, omega_p = (int(fields[i]) for i in range(3))
                re_part, im_part = float(fields[3]), float(fields[4])
            except ValueError:
                raise SMatrixParseError(f"malformed entry {body!r}", lineno) from None
            if not (math.isfinite(re_part) and math.isfinite(im_part)):
                raise SMatrixParseError(f"non-finite S-matrix element {body!r}", lineno)
            key = (J, omega, omega_p)
            if key in entries:
                raise SMatrixValidationError(
                    f"line {lineno}: duplicate entry for "
                    f"(J={J}, Omega={omega}, Omega'={omega_p})"
                )
            entries[key] = complex(re_part, im_part)

    if k is None:
        raise SMatrixParseError("missing k line", len(lines) or 1)
    if not channel:
        raise SMatrixParseError("missing channel line", len(lines) or 1)

    header = ChannelHeader(
        k=k,
        j=channel["j"],
        j_final=channel["jp"],
        v=channel["v"],
        v_final=channel["vp"],
        J_max=channel["Jmax"],
        k_unit=k_unit,
        energy_label=energy_label,
    )
    return SMatrixBlock(header, entries)


def save_smatrix(block: SMatrixBlock, destination: Union[str, Path, IO[str]]) -> None:
    """Write the text format; floats use shortest round-trip representation."""
    h = block.header
    out = io.StringIO()
    if h.energy_label:
        out.write(f"# energy: {h.energy_label}\n")
    out.write(f"k {float(h.k)!r} {h.k_unit}\n")
    out.write(f"channel j={h.j} jp={h.j_final} v={h.v} vp={h.v_final} Jmax={h.J_max}\n")
    for (J, omega, omega_p), value in sorted(block.entries.items()):
        out.write(f"{J} {omega} {omega_p} {float(value.real)!r} {float(value.imag)!r}\n")
    text = out.getvalue()
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text, encoding="utf-8")
    else:
        destination.write(text)
