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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._text import Destination, InputError, Source, first_failure, read_text, write_text

DEFAULT_K_UNIT = "1/angstrom"

EntryKey = tuple[int, int, int]  # (J, Omega, OmegaPrime)


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


@dataclass(frozen=True, eq=False)
class SMatrixBlock:
    """Complex amplitudes S^J_{Omega' Omega} for one channel pair.

    Missing (J, Omega, Omega') keys are exactly zero.  Construction checks
    every key against the header bounds and every amplitude for finiteness,
    all at once; an error's `item` is the position of the first bad entry.
    It then indexes the entries once, by helicity pair and by J.
    """

    header: ChannelHeader
    entries: Mapping[EntryKey, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        h = self.header
        # float keys, so that an integer beyond 64 bits fails the bounds too
        keys = np.array(list(self.entries), dtype=float).reshape(-1, 3)
        amps = np.array(list(self.entries.values()), dtype=complex)
        J, omega, omega_p = keys.T
        failure = first_failure(
            (J >= 0) & (J <= h.J_max),
            np.abs(omega) <= np.minimum(J, h.j),
            np.abs(omega_p) <= np.minimum(J, h.j_final),
            np.isfinite(amps),
        )
        if failure is not None:
            i, rule = failure
            Ji, om, omp = map(int, list(self.entries)[i])
            error, message = (
                (SMatrixValidationError, f"J outside 0..{h.J_max}"),
                (SMatrixValidationError, f"|Omega|={abs(om)} > min(J, j)={min(Ji, h.j)}"),
                (SMatrixValidationError, f"|Omega'|={abs(omp)} > min(J, jp)={min(Ji, h.j_final)}"),
                (_NonFiniteAmplitude, f"non-finite amplitude {complex(amps[i])}"),
            )[rule]
            raise error(f"entry (J={Ji}, Omega={om}, Omega'={omp}): {message}", item=i)
        keys = keys.astype(np.int64)
        J, omega, omega_p = keys.T
        entries = dict(zip(zip(*keys.T.tolist()), map(complex, self.entries.values())))
        object.__setattr__(self, "entries", MappingProxyType(entries))

        # by helicity pair, then J: each pair's column is a read-only slice
        order = np.lexsort((J, omega_p, omega))
        pairs, starts = np.unique(keys[order, 1:], axis=0, return_index=True)
        js, values = J[order], amps[order]
        js.setflags(write=False)
        values.setflags(write=False)
        bounds = [*starts.tolist(), len(order)]
        object.__setattr__(self, "_columns", {
            tuple(pair): (js[lo:hi], values[lo:hi])
            for pair, lo, hi in zip(pairs.tolist(), bounds, bounds[1:])
        })
        # Python's sum() over each J's entries in sorted-key order; the
        # opacity and sigma_j output bytes depend on this order
        order = np.lexsort((omega_p, omega, J))
        js, starts = np.unique(J[order], return_index=True)
        by_j = np.split(amps[order], starts[1:])
        object.__setattr__(self, "_sum_sq", {
            Jg: sum(abs(v) ** 2 for v in group.tolist()) for Jg, group in zip(js.tolist(), by_j)
        })

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
    bad = []
    for omega, omega_p in block.helicity_pairs():
        js, amps = block.j_column(omega, omega_p)
        # np.abs screens with a margin for its last-bit differences from abs()
        for i in np.flatnonzero(np.abs(amps) > (1.0 + tol) * (1.0 - 1e-12)):
            mag = abs(complex(amps[i]))
            if mag > 1.0 + tol:
                bad.append(((int(js[i]), omega, omega_p), mag))
    return UnitarityReport(tuple(sorted(bad)), tol)


def load_smatrix(source: Source) -> SMatrixBlock:
    """Parse a block from a path, byte/text stream, or bytes."""
    lines = read_text(source).splitlines()

    k = None
    k_unit = DEFAULT_K_UNIT
    channel: dict[str, int] = {}
    energy_label = ""
    entries: dict[EntryKey, complex] = {}

    for lineno, raw in enumerate(lines, start=1):
        body, _, comment = raw.partition("#")
        fields = body.split()
        if not fields:
            comment = comment.strip()
            if comment.startswith("energy:"):
                energy_label = comment[len("energy:"):].strip()
            continue
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
            k_line = lineno
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
            channel_line = lineno
        else:
            if k is None or not channel:
                raise SMatrixParseError("entries must follow the k and channel lines", lineno)
            if len(fields) != 5:
                raise SMatrixParseError(
                    f"expected 'J Omega OmegaPrime Re Im', got {len(fields)} fields", lineno
                )
            try:
                key = (int(fields[0]), int(fields[1]), int(fields[2]))
                value = complex(float(fields[3]), float(fields[4]))
            except ValueError:
                raise SMatrixParseError(f"malformed entry {body.strip()!r}", lineno) from None
            if key in entries:
                raise SMatrixValidationError(
                    f"duplicate entry for (J={key[0]}, Omega={key[1]}, Omega'={key[2]})", lineno
                )
            entries[key] = value

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
        return SMatrixBlock(header, entries)
    except SMatrixValidationError as exc:
        # entries are built in file order: item i sits on the i-th entry line
        entry_lines = [n for n, raw in enumerate(lines, start=1)
                       if raw.partition("#")[0].split()[:1] not in ([], ["k"], ["channel"])]
        raise exc.on_line(entry_lines[exc.item]) from None


def save_smatrix(block: SMatrixBlock, destination: Destination) -> None:
    """Write the text format; floats use shortest round-trip representation."""
    h = block.header
    out = io.StringIO()
    if h.energy_label:
        out.write(f"# energy: {h.energy_label}\n")
    out.write(f"k {float(h.k)!r} {h.k_unit}\n")
    out.write(f"channel j={h.j} jp={h.j_final} v={h.v} vp={h.v_final} Jmax={h.J_max}\n")
    for (J, omega, omega_p), value in sorted(block.entries.items()):
        out.write(f"{J} {omega} {omega_p} {float(value.real)!r} {float(value.imag)!r}\n")
    write_text(out.getvalue(), destination)
