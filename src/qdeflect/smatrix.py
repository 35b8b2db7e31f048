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
from itertools import islice, takewhile
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._text import (MAX_MOMENTUM, NUMBER_START, Destination, InputError, Source, distinct_values, first_failure,
                    read_column, read_records, read_text, write_text)

DEFAULT_K_UNIT = "1/angstrom"
UNITARITY_TOL = 1e-9  # |S| above 1 + this much breaks flux conservation

EntryKey = tuple[int, int, int]  # (J, Omega, OmegaPrime)


def _is_integral(v) -> bool:
    """An int, or an integral number int() keeps."""
    try:
        return int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


def _is_key(key) -> bool:
    """Three components, each _is_integral."""
    try:
        return len(key) == 3 and all(map(_is_integral, key))
    except TypeError:
        return False


@dataclass(frozen=True)
class ChannelHeader:
    """Channel labels and the quantities every downstream formula needs.

    j, j_final, v, v_final and J_max must each be _is_integral, and are
    stored as int; j, j_final and J_max must lie in 0..2^30.  k_unit must
    be one word without '#', and energy_label one line, stored stripped,
    so that save_smatrix writes a file load_smatrix reads back to an equal
    header.  An error's `item` is the field's name.
    """

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
            raise InputError(f"wavenumber must be positive, got {self.k}", item="k")
        for name in ("j", "j_final", "v", "v_final", "J_max"):
            value = getattr(self, name)
            if not _is_integral(value):
                raise InputError(f"{name} must be an integer, got {value!r}", item=name)
            object.__setattr__(self, name, int(value))
        for name in ("j", "j_final", "J_max"):
            if not 0 <= getattr(self, name) <= MAX_MOMENTUM:
                raise InputError(f"{name} must be nonnegative and at most 2^30", item=name)
        unit, label = self.k_unit, self.energy_label
        if not (isinstance(unit, str) and unit.split() == [unit] and "#" not in unit):
            raise InputError(f"k_unit must be one word without '#', got {unit!r}", item="k_unit")
        if not (isinstance(label, str) and len(label.strip().splitlines()) <= 1):
            raise InputError(f"energy_label must be one line, got {label!r}", item="energy_label")
        object.__setattr__(self, "energy_label", label.strip())


@dataclass(frozen=True, eq=False, init=False)
class SMatrixBlock:
    """Complex amplitudes S^J_{Omega' Omega} for one channel pair, built
    from a {(J, Omega, Omega'): amplitude} mapping.

    Held as read-only arrays, and only these: sorted int64 `keys` rows
    (J, Omega, Omega'), their `amps`, the ascending `js`, the sorted
    helicity `pairs` (Omega, Omega') and each entry's row in `pairs`,
    `pair_rows`.  Every reader works from the sorted entries, so a sparse
    block costs what its entries cost.
    Construction checks that every key is three integers, every key
    against the header bounds and every amplitude for finiteness; an
    error's `item` is the position of the first bad entry in the order
    given.
    """

    header: ChannelHeader
    keys: np.ndarray
    amps: np.ndarray
    js: np.ndarray
    pairs: np.ndarray
    pair_rows: np.ndarray

    def __init__(self, header: ChannelHeader, entries: Mapping[EntryKey, complex] = MappingProxyType({})):
        # the entries before the first key that is not three integers are checked
        # first, so an earlier entry's fault is the one reported
        keys = list(takewhile(_is_key, entries))
        n = len(keys)
        self._index(header, read_column([i for key in keys for i in key], int).reshape(-1, 3),
                    np.array(list(islice(entries.values(), n)), dtype=complex))
        if n < len(entries):
            key = next(islice(entries, n, None))
            raise InputError(f"entry {key!r}: a key must be three integers (J, Omega, Omega')", item=n)

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
            message = (
                f"J outside 0..{h.J_max}",
                f"|Omega|={abs(om)} > min(J, j)={min(Ji, h.j)}",
                f"|Omega'|={abs(omp)} > min(J, jp)={min(Ji, h.j_final)}",
                f"non-finite amplitude {complex(amps[i])}",
            )[rule]
            raise InputError(f"entry (J={Ji}, Omega={om}, Omega'={omp}): {message}", item=i)
        order = np.lexsort((omega_p, omega, J))
        keys, amps = keys[order].astype(np.int64, copy=False), amps[order]
        js = distinct_values(keys[:, 0])
        # pair codes (Omega + j)(2jp + 1) + Omega' + jp sort as the pairs do: Omega' + jp lies in 0..2jp
        codes = (keys[:, 1] + h.j) * (2 * h.j_final + 1) + keys[:, 2] + h.j_final
        distinct = distinct_values(np.sort(codes))
        pairs = np.column_stack(np.divmod(distinct, 2 * h.j_final + 1)) - (h.j, h.j_final)
        pair_rows = np.searchsorted(distinct, codes)
        for array in (keys, amps, js, pairs, pair_rows):
            array.setflags(write=False)
        vars(self).update(header=h, keys=keys, amps=amps, js=js, pairs=pairs, pair_rows=pair_rows)

    @cached_property
    def entries(self) -> Mapping[EntryKey, complex]:
        """Read-only {key: amplitude} in key order, built on first access."""
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), self.amps.tolist())))

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def sum_sq(self) -> np.ndarray:
        """Read-only sum over (Omega, OmegaPrime) of |S^J|^2 at each J in js, float even with no entries, built
        on first access.  The opacity and sigma_j bytes rest on its terms, abs(v) ** 2, added in order from 0.0."""
        terms = np.array([abs(v) ** 2 for v in self.amps.tolist()], dtype=float)  # np.abs differs in the last bit
        sums = np.bincount(np.searchsorted(self.js, self.keys[:, 0]), terms, len(self.js)).astype(float)
        sums.setflags(write=False)
        return sums

    def j_column(self, omega: int, omega_p: int) -> tuple[np.ndarray, np.ndarray]:
        """(J values, amplitudes) present at a fixed helicity pair, ascending J; both read-only."""
        rows = (self.keys[:, 1] == omega) & (self.keys[:, 2] == omega_p)
        column = self.keys[rows, 0], self.amps[rows]
        for array in column:
            array.setflags(write=False)
        return column


def validate_unitarity(block: SMatrixBlock) -> tuple[tuple[EntryKey, float], ...]:
    """(key, |S|) of every entry with |S| > 1 + UNITARITY_TOL, in key order;
    empty when the block conserves flux."""
    # np.abs screens with a margin for its last-bit differences from abs(); keys are sorted
    near = np.abs(block.amps) > (1.0 + UNITARITY_TOL) * (1.0 - 1e-12)
    return tuple((tuple(key), abs(s)) for key, s in zip(
        block.keys[near].tolist(), block.amps[near].tolist()) if abs(s) > 1.0 + UNITARITY_TOL)


def _entry_arrays(lines: list[str], numbers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(keys, amps) of the entry lines `numbers`, in file order.  Raises the
    first line's fault: not five fields, a token that int() or float()
    rejects, or a key that an earlier line gave."""
    columns, n_read = read_records(lines, numbers, (int, int, int, float, float), comment="#")
    keys = np.column_stack(columns[:3])
    order = np.lexsort(keys.T[::-1])
    repeats = order[1:][np.all(keys[order[1:]] == keys[order[:-1]], axis=1)]
    if repeats.size:
        raise InputError("duplicate entry for (J={}, Omega={}, Omega'={})".format(
            *keys[repeats.min()]), numbers[repeats.min()])
    if n_read < len(numbers):
        body = lines[numbers[n_read] - 1].partition("#")[0]
        count = len(body.split())
        raise InputError(f"malformed entry {body.strip()!r}" if count == 5 else
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
                    raise InputError("entries must follow the k and channel lines", lineno)
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
                    raise InputError("duplicate k line", lineno)
                if len(fields) < 2:
                    raise InputError("k line needs a value", lineno)
                try:
                    k = float(fields[1])
                except ValueError:
                    raise InputError(f"bad wavenumber {fields[1]!r}", lineno) from None
                if len(fields) > 3:
                    raise InputError(f"unexpected {fields[3]!r} after the k unit", lineno)
                if len(fields) == 3:
                    k_unit = fields[2]
                k_line = lineno
            else:
                if channel:
                    raise InputError("duplicate channel line", lineno)
                for item in fields[1:]:
                    if "=" not in item:
                        raise InputError(f"bad channel field {item!r}", lineno)
                    name, _, val = item.partition("=")
                    if name in channel or name not in ("j", "jp", "v", "vp", "Jmax"):
                        raise InputError(
                            f"{'repeated' if name in channel else 'unknown'} channel field {name!r}", lineno)
                    try:
                        channel[name] = int(val)
                    except ValueError:
                        raise InputError(f"bad channel value {item!r}", lineno) from None
                missing = {"j", "jp", "v", "vp", "Jmax"} - channel.keys()
                if missing:
                    raise InputError(f"channel line missing {sorted(missing)}", lineno)
                channel_line = lineno
    except InputError as exc:
        fault = exc  # the entry lines gathered are the ones before it, and a fault on one comes first
    keys, amps = _entry_arrays(lines, entry_lines)
    if fault is not None:
        raise fault

    if k is None:
        raise InputError("missing k line", len(lines) or 1)
    if not channel:
        raise InputError("missing channel line", len(lines) or 1)

    try:
        header = ChannelHeader(k, channel["j"], channel["jp"], channel["v"], channel["vp"],
                               channel["Jmax"], k_unit, energy_label)
    except InputError as exc:
        raise exc.on_line(k_line if exc.item == "k" else channel_line) from None
    try:
        return SMatrixBlock._from_arrays(header, keys, amps)
    except InputError as exc:
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
