"""Point-model residuals against reference coupling tables.

Inverts each row of a table of ab initio couplings with the point-dipole
model of ``dipole`` and compares the recovered (r, theta) with the row's
own geometry, per row and binned by radius; reads such tables and writes
the residual maps, with the column table of ``fileio``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import DEFAULT_CONSTANTS, PhysicalConstants
from .dipole import invert_dipole
from .errors import DomainError, InconsistentInputError, ParseError
from .fileio import (_DFT_COLUMNS, _REQUIRED, _field_unit, _finite, _lines,
                     _table_text, atomic_write_text)


@dataclass(frozen=True)
class DftRow:
    """One reference site: couplings (Hz) plus its known geometry (m, rad)."""

    a_par: float
    a_perp: float
    r: float
    theta: float
    a_iso: float = 0.0


@dataclass(frozen=True)
class ResidualEntry:
    r_ref: float   # m
    dr: float      # m, recovered minus reference
    dtheta: float  # rad, recovered minus hemisphere-folded reference


@dataclass(frozen=True)
class ResidualBin:
    """Median absolute residuals over reference radii in [r_lo, r_hi)."""

    r_lo: float
    r_hi: float
    n_sites: int
    median_abs_dr: float      # m
    median_abs_dtheta: float  # rad


# the columns of the residual map's two tables, in the order of the fields of
# ResidualEntry and of ResidualBin; the second names the report's bin keys
ENTRY_COLUMNS = ("r_A", "dr_A", "dtheta_deg")
BIN_COLUMNS = ("r_lo_A", "r_hi_A", "n_sites", "median_abs_dr_A", "median_abs_dtheta_deg")


@dataclass(frozen=True)
class ResidualMap:
    entries: tuple[ResidualEntry, ...]
    bins: tuple[ResidualBin, ...]
    n_total: int
    failures: tuple[str, ...]  # one message per row that could not be inverted


def dft_residual_map(rows, constants: PhysicalConstants = DEFAULT_CONSTANTS,
                     bin_width: float = 2e-10) -> ResidualMap:
    """Invert each row's couplings and compare to its reference geometry.

    Reference theta may lie in either hemisphere; it is folded to [0, pi/2]
    before differencing since the inversion is hemisphere-blind. Rows that
    fail to invert are collected with their 1-based row number, never fatal.
    Residuals are additionally binned by reference radius (``bin_width``
    slices from 0) and summarized by medians of the absolute values.
    """
    if not (bin_width > 0.0 and math.isfinite(bin_width)):
        raise ValueError(f"bin width must be positive and finite, got {bin_width!r} m")
    entries = []
    failures = []
    n_total = 0
    for row in rows:
        n_total += 1
        try:
            pos = invert_dipole(row.a_par, row.a_perp, row.a_iso, constants)
        except (DomainError, InconsistentInputError, ValueError) as exc:
            failures.append(f"row {n_total}: {exc}")
            continue
        theta_ref = min(row.theta % math.pi, math.pi - row.theta % math.pi)
        entries.append(ResidualEntry(r_ref=row.r, dr=pos.r - row.r,
                                     dtheta=pos.theta - theta_ref))

    bins = []
    if entries:
        arr = np.array([(e.r_ref, e.dr, e.dtheta) for e in entries])
        idx = np.floor(arr[:, 0] / bin_width).astype(int)
        for k in sorted(set(idx)):
            sel = arr[idx == k]
            bins.append(ResidualBin(
                r_lo=k * bin_width, r_hi=(k + 1) * bin_width, n_sites=sel.shape[0],
                median_abs_dr=float(np.median(np.abs(sel[:, 1]))),
                median_abs_dtheta=float(np.median(np.abs(sel[:, 2])))))
    return ResidualMap(entries=tuple(entries), bins=tuple(bins),
                       n_total=n_total, failures=tuple(failures))


def load_dft_table(path) -> list[DftRow]:
    """Whitespace-separated table with a header row naming the columns.

    The columns are those of _DFT_COLUMNS, a_iso_kHz optional, in any order;
    extra columns are rejected. The header may sit in a comment.
    """
    header = None
    rows = []
    for line_no, s in _lines(path, header_comment=True):
        parts = s.split()
        if header is None:
            header = parts
            missing = [c for c, (_, default) in _DFT_COLUMNS.items()
                       if default is _REQUIRED and c not in header]
            if missing:
                raise ParseError(path, line_no, f"header missing columns {missing}")
            extra = [c for c in header if c not in _DFT_COLUMNS]
            if extra:
                raise ParseError(path, line_no, f"unknown columns {extra}")
            if len(set(header)) != len(header):
                raise ParseError(path, line_no, "duplicate column in header")
            continue
        if len(parts) != len(header):
            raise ParseError(path, line_no,
                             f"expected {len(header)} fields, got {len(parts)}")
        vals = dict(zip(header, _finite(path, line_no, parts, "bad numbers in row")))
        row = {}
        for column, (_, default) in _DFT_COLUMNS.items():
            name, unit = _field_unit(column)
            row[name] = vals[column] * unit if column in vals else default
        if row["a_perp"] < 0.0:
            raise ParseError(path, line_no, "a_perp_kHz must be non-negative")
        rows.append(DftRow(**row))
    if header is None:
        raise ParseError(path, 1, "empty table: no header row")
    return rows


def save_residual_map(path, rmap: ResidualMap):
    atomic_write_text(path, _table_text(ENTRY_COLUMNS, list(map(astuple, rmap.entries)))
                      + "\n" + _table_text(BIN_COLUMNS, list(map(astuple, rmap.bins)),
                                           "binned medians: ")
                      + "".join(f"# failed {msg}\n" for msg in rmap.failures))
