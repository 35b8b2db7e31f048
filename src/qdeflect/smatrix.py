"""State-to-state S-matrix blocks: text format, validation, persistence.

File format (UTF-8, '#' starts a comment):

    k <value> <unit-tag>
    channel j=<int> jp=<int> v=<int> vp=<int> Jmax=<int>
    <J> <Omega> <OmegaPrime> <Re> <Im>
    ...

One complex amplitude per (J, Omega, OmegaPrime); any triple absent from the
file is exactly zero.  Helicity bounds |Omega| <= min(J, j) and
|OmegaPrime| <= min(J, jp) and finite amplitudes are enforced when a block
is built; the loader names the line of the first entry that breaks them.
Wavenumber units are whatever the unit tag declares (default 1/angstrom);
all cross sections downstream come out in that unit squared.

Loaded blocks are immutable; share them freely across threads.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._text import (NUMBER_START, Destination, InputError, Source, distinct_values, first_failure,
                    read_column, read_records, read_text, write_text)

DEFAULT_K_UNIT = "1/angstrom"

EntryKey = tuple[int, int, int]  # (J, Omega, OmegaPrime)


def _pair_codes(h: "ChannelHeader", omega: np.ndarray, omega_p: np.ndarray) -> np.ndarray:
    """Integer codes of (Omega, Omega') pairs that sort as the pairs do: Omega' + jp lies in 0..2jp."""
    return (omega + h.j) * (2 * h.j_final + 1) + omega_p + h.j_final


class SMatrixParseError(InputError):
    """Malformed input text; carries the 1-based line number."""


class SMatrixValidationError(InputError):
    """Structurally valid input that violates a block invariant."""


class _NonFiniteAmplitude(SMatrixValidationError, SMatrixParseError):
    """A NaN or inf amplitude: a block invariant, and unreadable as text."""


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
            raise SMatrixValidationError(f"wavenumber must be positive, got {self.k}", item="k")
        for name in ("j", "j_final", "J_max"):
            if getattr(self, name) < 0:
                raise SMatrixValidationError(f"{name} must be nonnegative", item=name)


@dataclass(frozen=True, eq=False, init=False)
class SMatrixBlock:
    """Complex amplitudes S^J_{Omega' Omega} for one channel pair, built
    from a {(J, Omega, Omega'): amplitude} mapping.

    Held as read-only arrays, and only these: sorted int64 `keys` rows
    (J, Omega, Omega'), their `amps`, the ascending `js` and the sorted
    helicity `pairs` (Omega, Omega').  Every reader works from the sorted
    entries, so a sparse block costs what its entries cost.
    Construction checks every key against the header bounds and every
    amplitude for finiteness, all at once; an error's `item` is the
    position of the first bad entry in the order given.
    """

    header: ChannelHeader
    keys: np.ndarray
    amps: np.ndarray
    js: np.ndarray
    pairs: np.ndarray

    def __init__(self, header: ChannelHeader, entries: Mapping[EntryKey, complex] = MappingProxyType({})):
        self._index(header, read_column([i for key in entries for i in key], int).reshape(-1, 3),
                    np.array(list(entries.values()), dtype=complex))

    @classmethod
    def _from_arrays(cls, header: ChannelHeader, keys: np.ndarray, amps: np.ndarray) -> "SMatrixBlock":
        """Block of distinct (n, 3) keys and n amplitudes, in any order."""
        (block := cls.__new__(cls))._index(header, keys, amps)
        return block

    def _index(self, h: ChannelHeader, keys: np.ndarray, amps: np.ndarray) -> None:
        J, omega, omega_p = keys.T
        failure = first_failure(
            (J >= 0) & (J <= h.J_max),
            np.abs(omega) <= np.minimum(J, h.j),
            np.abs(omega_p) <= np.minimum(J, h.j_final),
            np.isfinite(amps),
        )
        if failure is not None:
            i, rule = failure
            Ji, om, omp = map(int, keys[i])
            error, message = (
                (SMatrixValidationError, f"J outside 0..{h.J_max}"),
                (SMatrixValidationError, f"|Omega|={abs(om)} > min(J, j)={min(Ji, h.j)}"),
                (SMatrixValidationError, f"|Omega'|={abs(omp)} > min(J, jp)={min(Ji, h.j_final)}"),
                (_NonFiniteAmplitude, f"non-finite amplitude {complex(amps[i])}"),
            )[rule]
            raise error(f"entry (J={Ji}, Omega={om}, Omega'={omp}): {message}", item=i)
        order = np.lexsort((omega_p, omega, J))
        keys, amps = keys[order].astype(np.int64, copy=False), amps[order]
        js = distinct_values(keys[:, 0])
        codes = distinct_values(np.sort(_pair_codes(h, keys[:, 1], keys[:, 2])))
        pairs = np.column_stack(np.divmod(codes, 2 * h.j_final + 1)) - (h.j, h.j_final)
        for array in (keys, amps, js, pairs):
            array.setflags(write=False)
        vars(self).update(header=h, keys=keys, amps=amps, js=js, pairs=pairs)

    @cached_property
    def entries(self) -> Mapping[EntryKey, complex]:
        """Read-only {key: amplitude} in key order, built on first access."""
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), self.amps.tolist())))

    def __len__(self) -> int:
        return len(self.keys)

    def js_with_entries(self) -> list[int]:
        return self.js.tolist()

    def helicity_pairs(self) -> list[tuple[int, int]]:
        """Sorted (Omega, OmegaPrime) pairs that have at least one entry."""
        return list(map(tuple, self.pairs.tolist()))

    def sum_sq_at_j(self, J: int) -> float:
        """sum over (Omega, OmegaPrime) of |S^J|^2; 0.0 where J has no entry."""
        by_j = self.keys[:, 0]
        lo, hi = np.searchsorted(by_j, J, "left"), np.searchsorted(by_j, J, "right")
        # Python's sum() in key order: the opacity and sigma_j bytes depend on it
        return sum((abs(v) ** 2 for v in self.amps[lo:hi].tolist()), 0.0)

    def j_column(self, omega: int, omega_p: int) -> tuple[np.ndarray, np.ndarray]:
        """(J values, amplitudes) present at a fixed helicity pair, ascending J; both read-only."""
        rows = (self.keys[:, 1] == omega) & (self.keys[:, 2] == omega_p)
        column = self.keys[rows, 0], self.amps[rows]
        for array in column:
            array.setflags(write=False)
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
    # np.abs screens with a margin for its last-bit differences from abs(); keys are sorted
    near = np.abs(block.amps) > (1.0 + tol) * (1.0 - 1e-12)
    return UnitarityReport(tuple((tuple(key), abs(s)) for key, s in zip(
        block.keys[near].tolist(), block.amps[near].tolist()) if abs(s) > 1.0 + tol), tol)


def _entry_arrays(lines: list[str], numbers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(keys, amps) of the entry lines `numbers`, in file order.  Raises the
    first line's fault: not five fields, a token that int() or float()
    rejects, or a key that an earlier line gave."""
    columns, n_read = read_records(lines, numbers, (int, int, int, float, float), comment="#")
    keys = np.column_stack(columns[:3])
    order = np.lexsort(keys.T[::-1])
    repeats = order[1:][np.all(keys[order[1:]] == keys[order[:-1]], axis=1)]
    if repeats.size:
        raise SMatrixValidationError("duplicate entry for (J={}, Omega={}, Omega'={})".format(
            *keys[repeats.min()]), numbers[repeats.min()])
    if n_read < len(numbers):
        body = lines[numbers[n_read] - 1].partition("#")[0]
        count = len(body.split())
        raise SMatrixParseError(f"malformed entry {body.strip()!r}" if count == 5 else
                                f"expected 'J Omega OmegaPrime Re Im', got {count} fields", numbers[n_read])
    amps = np.empty(n_read, dtype=complex)
    amps.real, amps.imag = columns[3], columns[4]
    return keys, amps


def load_smatrix(source: Source) -> SMatrixBlock:
    """Parse a block from a path, byte/text stream, or bytes.

    The k, channel and comment lines are read one by one, the entry lines
    column by column.  A fault is reported on the first line that has one.
    """
    lines = read_text(source).splitlines()
    entry_lines: list[int] = []
    k = None
    k_unit = DEFAULT_K_UNIT
    channel: dict[str, int] = {}
    energy_label = ""
    fault = None
    try:
        for lineno, raw in enumerate(lines, start=1):
            if raw[:1] in NUMBER_START or raw.partition("#")[0].split()[:1] not in ([], ["k"], ["channel"]):
                if k is None or not channel:
                    raise SMatrixParseError("entries must follow the k and channel lines", lineno)
                entry_lines.append(lineno)
                continue
            body, _, comment = raw.partition("#")
            fields = body.split()
            if not fields:
                comment = comment.strip()
                if comment.startswith("energy:"):
                    energy_label = comment[len("energy:"):].strip()
            elif fields[0] == "k":
                if k is not None:
                    raise SMatrixParseError("duplicate k line", lineno)
                if len(fields) < 2:
                    raise SMatrixParseError("k line needs a value", lineno)
                try:
                    k = float(fields[1])
                except ValueError:
                    raise SMatrixParseError(f"bad wavenumber {fields[1]!r}", lineno) from None
                if len(fields) > 3:
                    raise SMatrixParseError(f"unexpected {fields[3]!r} after the k unit", lineno)
                if len(fields) == 3:
                    k_unit = fields[2]
                k_line = lineno
            else:
                if channel:
                    raise SMatrixParseError("duplicate channel line", lineno)
                for item in fields[1:]:
                    if "=" not in item:
                        raise SMatrixParseError(f"bad channel field {item!r}", lineno)
                    name, _, val = item.partition("=")
                    if name in channel or name not in ("j", "jp", "v", "vp", "Jmax"):
                        raise SMatrixParseError(
                            f"{'repeated' if name in channel else 'unknown'} channel field {name!r}", lineno)
                    try:
                        channel[name] = int(val)
                    except ValueError:
                        raise SMatrixParseError(f"bad channel value {item!r}", lineno) from None
                missing = {"j", "jp", "v", "vp", "Jmax"} - channel.keys()
                if missing:
                    raise SMatrixParseError(f"channel line missing {sorted(missing)}", lineno)
                channel_line = lineno
    except SMatrixParseError as exc:
        fault = exc  # the entry lines gathered are the ones before it, and a fault on one comes first
    keys, amps = _entry_arrays(lines, entry_lines)
    if fault is not None:
        raise fault

    if k is None:
        raise SMatrixParseError("missing k line", len(lines) or 1)
    if not channel:
        raise SMatrixParseError("missing channel line", len(lines) or 1)

    try:
        header = ChannelHeader(k, channel["j"], channel["jp"], channel["v"], channel["vp"],
                               channel["Jmax"], k_unit, energy_label)
    except SMatrixValidationError as exc:
        raise exc.on_line(k_line if exc.item == "k" else channel_line) from None
    try:
        return SMatrixBlock._from_arrays(header, keys, amps)
    except SMatrixValidationError as exc:
        raise exc.on_line(entry_lines[exc.item]) from None


def save_smatrix(block: SMatrixBlock, destination: Destination) -> None:
    """Write the text format; floats use shortest round-trip representation."""
    h = block.header
    out = io.StringIO()
    if h.energy_label:
        out.write(f"# energy: {h.energy_label}\n")
    out.write(f"k {float(h.k)!r} {h.k_unit}\n")
    out.write(f"channel j={h.j} jp={h.j_final} v={h.v} vp={h.v_final} Jmax={h.J_max}\n")
    rows = zip(block.keys.tolist(), block.amps.real.tolist(), block.amps.imag.tolist())
    out.writelines(f"{J} {omega} {omega_p} {real!r} {imag!r}\n" for (J, omega, omega_p), real, imag in rows)
    write_text(out.getvalue(), destination)
