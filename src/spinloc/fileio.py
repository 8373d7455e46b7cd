"""Readers and writers for the line-oriented data files.

All formats are plain text: a `kind = <name>` / `version = 1` header,
`[section ...]` blocks, `key = value` lines, and bare whitespace-separated
data rows where a format calls for them. `#` starts a comment anywhere. A
section (name and labels) appears at most once per file. The schema tables
below are the grammar of each file kind: they list every section's keys in
file order with their shape and default. A key's suffix names its unit,
mirroring the published tables (kHz, mT, us, Angstrom, degrees); everything
is converted to SI/rad on load. Parse problems raise ParseError carrying
path and line number. Writers go through a temp file and an atomic rename.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (BIAS_FIELD, COIL_FIELD, DEFAULT_REGISTRY, SENSOR_FRAME_NAME,
                   FrameRegistry, Vector3)
from .dipole import DftRow, ResidualMap
from .dynamics import OdmrLinePair
from .errors import ParseError
from .extract import CouplingInputs
from .localize import MeasurementRecord
from .montecarlo import PARAMETERS, Histogram

FORMAT_VERSION = 1

KHZ = 1e3
MT = 1e-3
US = 1e-6
ANGSTROM = 1e-10
DEG = math.pi / 180.0

# SI value of one unit, keyed by the unit suffix of a file key or column
_UNITS = {"kHz": KHZ, "mT": MT, "us": US, "A": ANGSTROM, "deg": DEG}

# display unit of each Monte Carlo parameter: (SI value of one unit, name)
DISPLAY_UNITS = {name: (_UNITS[unit], unit)
                 for name, unit in zip(PARAMETERS, ("deg", "kHz", "A", "deg"))}

# floor of the line sigmas a MeasurementRecord requires positive
SIGMA_F_FLOOR = 1e-6  # Hz


# ---------------------------------------------------------------------------
# schemas: each maps a section's keys, in file order, to (shape, default).
# The shape counts components (1: a number, 3: a 3-vector, 0: a word kept as
# text). A key gives the field named by the key less its unit suffix, in SI
# units: f0_kHz gives f0 in Hz. A _REQUIRED key must be given; an absent key
# takes its default as the field. A layout maps each section name of a file
# kind to (label count, schema); the header is the section "", and a None
# schema marks a section of data rows.

_REQUIRED = object()
_NUMBER = (1, _REQUIRED)
_VECTOR = (3, _REQUIRED)
_FRAME = {"frame": (0, SENSOR_FRAME_NAME)}
_HEADER = {"kind": (0, _REQUIRED), "version": (0, _REQUIRED)}

_NUCLEUS = dict.fromkeys(("f0_kHz", "sigma_f0_kHz", "f_m1_kHz", "sigma_f_m1_kHz",
                          "f_rabi_kHz", "sigma_f_rabi_kHz", "tau_us"), _NUMBER)
_RECORD = {**dict.fromkeys(("fp0_kHz", "sigma_fp0_kHz",
                            "fp_m1_kHz", "sigma_fp_m1_kHz"), _NUMBER),
           **dict.fromkeys(("B0_mT", "sigma_B0_mT", "dB_mT", "sigma_dB_mT"), _VECTOR),
           **_FRAME}
_MEASUREMENTS = {"": (0, _HEADER), "nucleus": (1, _NUCLEUS), "record": (2, _RECORD)}

_TRUTH = {
    "": (0, _HEADER),
    "nucleus": (1, {"r_A": _NUMBER, "theta_deg": _NUMBER, "phi_deg": _NUMBER,
                    "a_iso_kHz": (1, 0.0)}),
    "fields": (1, {"B0_mT": _VECTOR, "dB_mT": _VECTOR, **_FRAME}),
    "noise": (0, dict.fromkeys(("sigma_f_kHz", "sigma_f_rabi_kHz",
                                "sigma_fp_kHz", "sigma_B_mT"), (1, 0.0))),
    "options": (0, {"seed": (0, "0"), "tau_us": (1, None), "from_traces": (0, "no")}),
}

# one row per resonance: nv_id frame_name f_GHz sigma_MHz
_ODMR = {"": (0, {**_HEADER, "context": (0, COIL_FIELD)}), "lines": (0, None)}

# the columns of a reference coupling table, in any order
_DFT_COLUMNS = {"a_par_kHz": _NUMBER, "a_perp_kHz": _NUMBER, "a_iso_kHz": (1, 0.0),
                "r_A": _NUMBER, "theta_deg": _NUMBER}

_LABEL_COUNTS = ("no label", "exactly one label", "exactly two labels")


def _field_unit(key: str):
    """(field name, SI value of one unit) of a file key or column."""
    name, _, suffix = key.rpartition("_")
    return (name, _UNITS[suffix]) if suffix in _UNITS else (key, 1.0)


# ---------------------------------------------------------------------------
# atomic writing

@contextlib.contextmanager
def _atomic_open(path):
    """Text handle on a temp file that replaces ``path`` on a clean exit."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def atomic_write_text(path, text: str):
    with _atomic_open(path) as fh:
        fh.write(text)


def write_json(path, obj):
    """Deterministic JSON: sorted keys, no timestamps, trailing newline."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_text(path, obj: dict):
    """The dict write_json would write, as text: keys sorted, one
    ``key  value`` line per leaf, nested dicts as indented blocks, lists
    joined by spaces, strings bare and other values as in JSON."""
    atomic_write_text(path, "\n".join(_text_lines(obj, "")) + "\n")


def _text_lines(obj: dict, indent: str) -> list[str]:
    width = max(map(len, obj), default=0)
    lines = []
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, dict):
            lines.append(indent + key)
            lines += _text_lines(value, indent + "  ")
        else:
            lines.append(f"{indent}{key:<{width}}  {_text_value(value)}")
    return lines


def _text_value(value) -> str:
    if isinstance(value, list):
        return " ".join(map(_text_value, value))
    return value if isinstance(value, str) else json.dumps(value, sort_keys=True)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_rows(rows: np.ndarray) -> str:
    """The lines of a 2-D array, _fmt-formatted, in one % operation."""
    line = " ".join(["%.12g"] * rows.shape[1]) + "\n"
    return line * len(rows) % tuple(rows.ravel().tolist())


def _fmt_vec(v) -> str:
    return " ".join(_fmt(c) for c in np.asarray(v, dtype=float))


def _section_lines(head: str, schema: dict, values: dict) -> list[str]:
    """A blank line, ``[head]`` and one ``key = value`` line per key of
    ``schema``, in order, from the SI field values in ``values``."""
    lines = ["", f"[{head}]"]
    for key, (shape, _) in schema.items():
        name, unit = _field_unit(key)
        value = values[name]
        if shape:
            value = (_fmt if shape == 1 else _fmt_vec)(value / unit)
        lines.append(f"{key} = {value}")
    return lines


# ---------------------------------------------------------------------------
# structured-text core

def _lines(path, header_comment: bool = False):
    """(line number, text) of each non-blank line of ``path``, comments cut.
    With ``header_comment`` the first such line may be a comment's text."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot open: {exc}") from None
    # bytes split into lines where text mode would, and decode line by line
    # so that bytes that are not UTF-8 are reported at their line
    for line_no, raw in enumerate(data.splitlines(), 1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(path, line_no, f"not UTF-8: byte {raw[exc.start]:#04x}"
                             f" at column {exc.start + 1}") from None
        text, _, comment = raw.partition("#")
        text = text.strip() or (comment.strip() if header_comment else "")
        if text:
            header_comment = False
            yield line_no, text


@dataclass
class _Section:
    line: int
    name: str
    args: list[str]
    values: dict = field(default_factory=dict)  # key -> (line, raw string)
    rows: list = field(default_factory=list)    # (line, raw string)

    @property
    def label(self) -> str:
        return f"[{' '.join([self.name] + self.args)}]" if self.name else "the header"


def _read_sections(path, kind: str, layout: dict):
    """(section, field values) of each section of a ``kind`` file, in file
    order and the header first, as the layout of that kind prescribes."""
    sections = [_Section(line=1, name="", args=[])]
    for line_no, s in _lines(path):
        current = sections[-1]
        if s.startswith("["):
            if not s.endswith("]"):
                raise ParseError(path, line_no, "unterminated section header")
            toks = s[1:-1].split()
            if not toks:
                raise ParseError(path, line_no, "empty section header")
            current = _Section(line=line_no, name=toks[0], args=toks[1:])
            if any(sec.label == current.label for sec in sections):
                raise ParseError(path, line_no, f"duplicate section {current.label}")
            sections.append(current)
        elif "=" in s:
            key, val = (part.strip() for part in s.split("=", 1))
            if not key:
                raise ParseError(path, line_no, "missing key before '='")
            if key in current.values:
                raise ParseError(path, line_no, f"duplicate key {key!r}")
            current.values[key] = (line_no, val)
        elif not current.name:
            raise ParseError(path, line_no, "data row outside any section")
        else:
            current.rows.append((line_no, s))
    top = sections[0].values
    if "kind" not in top:
        raise ParseError(path, 1, "missing 'kind = ...' header")
    if top["kind"][1] != kind:
        raise ParseError(path, top["kind"][0],
                         f"expected kind {kind!r}, found {top['kind'][1]!r}")
    if "version" not in top:
        raise ParseError(path, 1, "missing 'version = ...' header")
    if top["version"][1] != str(FORMAT_VERSION):
        raise ParseError(path, top["version"][0],
                         f"unsupported version {top['version'][1]!r}")
    for sec in sections:
        if sec.name not in layout:
            raise ParseError(path, sec.line, f"unknown section [{sec.name}]")
        n_labels, schema = layout[sec.name]
        if len(sec.args) != n_labels:
            raise ParseError(path, sec.line,
                             f"[{sec.name}] needs {_LABEL_COUNTS[n_labels]}")
        yield sec, _read_section(path, sec, schema)


def _read_section(path, sec: _Section, schema) -> dict:
    """Field -> value of each key of ``schema`` in ``sec``; a None schema is
    a section of data rows, which takes no keys."""
    if schema is None:
        if sec.values:
            key, (line, _) = next(iter(sec.values.items()))
            raise ParseError(path, line, f"unexpected key {key!r} in {sec.label}")
        return {}
    if sec.rows:
        raise ParseError(path, sec.rows[0][0], f"unexpected data row in {sec.label}")
    _no_extra_keys(path, sec, schema)
    values = {}
    for key, (shape, default) in schema.items():
        name, unit = _field_unit(key)
        if key not in sec.values and default is not _REQUIRED:
            values[name] = default
            continue
        line, raw = _require(path, sec, key)
        parts = raw.split()
        if shape == 0:
            values[name] = raw
        elif shape == 1:
            values[name] = _finite(path, line, [raw], "not a number")[0] * unit
        elif len(parts) != 3:
            raise ParseError(path, line, f"expected 3 components, got {len(parts)}")
        else:
            values[name] = unit * np.array(
                _finite(path, line, parts, "not a 3-vector of numbers"))
    return values


def _check(path, sec: _Section, key: str, ok: bool, rule: str):
    """ParseError at the line of ``key`` in ``sec`` unless ``ok``."""
    if not ok:
        raise ParseError(path, sec.values[key][0], f"{key} {rule}")


def _finite(path, line: int, parts, what: str) -> list[float]:
    """parts as floats; ParseError at line for any that is not a finite number."""
    raw = " ".join(parts)
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParseError(path, line, f"{what}: {raw!r}") from None
    if not all(map(math.isfinite, values)):
        raise ParseError(path, line, f"not finite: {raw!r}")
    return values


def _check_frame(path, line: int, name: str, registry: FrameRegistry):
    """ParseError at ``line`` unless ``registry`` holds the frame ``name``."""
    if name not in registry:
        raise ParseError(path, line, f"unknown frame {name!r}; registered: "
                                     f"{registry.names()}")


def _frame_line(sec: _Section) -> int:
    """The line of a section's frame key, or of its header when defaulted."""
    return sec.values.get("frame", (sec.line,))[0]


def _require(path, sec: _Section, key: str):
    if key not in sec.values:
        raise ParseError(path, sec.line,
                         f"section {sec.label} is missing key {key!r}")
    return sec.values[key]


def _no_extra_keys(path, sec: _Section, allowed):
    for key, (line, _) in sec.values.items():
        if key not in allowed:
            raise ParseError(path, line, f"unknown key {key!r} in {sec.label}")


# ---------------------------------------------------------------------------
# measurements files

@dataclass(frozen=True)
class NucleusMeasurements:
    """One nucleus's raw coupling inputs and its coil-configuration records."""

    label: str
    inputs: CouplingInputs
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))


def load_measurements(path, registry: FrameRegistry = DEFAULT_REGISTRY
                      ) -> dict[str, NucleusMeasurements]:
    """Parse a measurements file into per-nucleus inputs and records.

    Returns nuclei in file order. Records must name a previously declared
    nucleus and a frame of ``registry``; every nucleus needs at least one
    record.
    """
    inputs: dict[str, CouplingInputs] = {}
    records: dict[str, list] = {}
    for sec, v in _read_sections(path, "measurements", _MEASUREMENTS):
        try:
            if sec.name == "nucleus":
                inputs[sec.args[0]] = CouplingInputs(**v)
                records[sec.args[0]] = []
            elif sec.name == "record":
                nucleus, label = sec.args
                if nucleus not in inputs:
                    raise ParseError(path, sec.line,
                                     f"record for unknown nucleus {nucleus!r}")
                ci, frame = inputs[nucleus], v.pop("frame")
                _check_frame(path, _frame_line(sec), frame, registry)
                records[nucleus].append(MeasurementRecord(
                    label=label,
                    f0=ci.f0, sigma_f0=max(ci.sigma_f0, SIGMA_F_FLOOR),
                    f_m1=ci.f_m1, sigma_f_m1=max(ci.sigma_f_m1, SIGMA_F_FLOOR),
                    **dict(v, B0=Vector3(v["B0"], frame), dB=Vector3(v["dB"], frame))))
        except ValueError as exc:
            raise ParseError(path, sec.line, str(exc)) from None
    if not inputs:
        raise ParseError(path, 1, "no [nucleus] sections found")
    for label in inputs:
        if not records[label]:
            raise ParseError(path, 1, f"nucleus {label!r} has no [record] sections")
    return {label: NucleusMeasurements(label, ci, records[label])
            for label, ci in inputs.items()}


def save_measurements(path, nuclei: dict[str, NucleusMeasurements]):
    lines = ["kind = measurements", f"version = {FORMAT_VERSION}"]
    for label, nm in nuclei.items():
        lines += _section_lines(f"nucleus {label}", _NUCLEUS, vars(nm.inputs))
        for rec in nm.records:
            lines += _section_lines(
                f"record {label} {rec.label}", _RECORD,
                dict(vars(rec), B0=rec.B0.components, dB=rec.dB.components,
                     frame=rec.B0.frame))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# truth files (synthetic-data generator input)

@dataclass(frozen=True)
class TruthNucleus:
    label: str
    r: float      # m
    theta: float  # rad
    phi: float    # rad
    a_iso: float  # Hz


@dataclass(frozen=True)
class FieldConfig:
    label: str
    B0: Vector3
    dB: Vector3


@dataclass(frozen=True)
class NoiseSpec:
    sigma_f: float = 0.0       # Hz, coil-off precession lines
    sigma_f_rabi: float = 0.0  # Hz
    sigma_fp: float = 0.0      # Hz, coil-on precession lines
    sigma_B: float = 0.0       # T, every field component


@dataclass(frozen=True)
class TruthSpec:
    nuclei: tuple
    fields: tuple
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0
    tau: float | None = None   # s; None means tuned per nucleus
    from_traces: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nuclei", tuple(self.nuclei))
        object.__setattr__(self, "fields", tuple(self.fields))


def load_truth(path, registry: FrameRegistry = DEFAULT_REGISTRY) -> TruthSpec:
    """Parse a truth file; every [fields] section names a frame of
    ``registry``, the same one."""
    nuclei: list[TruthNucleus] = []
    fields: list[FieldConfig] = []
    options: dict = {}
    for sec, v in _read_sections(path, "truth", _TRUTH):
        if sec.name == "nucleus":
            _check(path, sec, "r_A", v["r"] > 0.0, "must be positive")
            _check(path, sec, "theta_deg", 0.0 <= v["theta"] <= math.pi / 2.0,
                   "must lie in [0, 90]")
            nuclei.append(TruthNucleus(sec.args[0],
                                       **dict(v, phi=v["phi"] % (2 * math.pi))))
        elif sec.name == "fields":
            _check_frame(path, _frame_line(sec), v["frame"], registry)
            if fields and v["frame"] != fields[0].B0.frame:
                raise ParseError(path, sec.line,
                                 f"frame {v['frame']!r} differs from "
                                 f"{fields[0].B0.frame!r}; all field "
                                 "configurations must share one frame")
            fields.append(FieldConfig(sec.args[0], Vector3(v["B0"], v["frame"]),
                                      Vector3(v["dB"], v["frame"])))
        elif sec.name == "noise":
            for key in sec.values:
                _check(path, sec, key, v[_field_unit(key)[0]] >= 0.0,
                       "must be non-negative")
            options["noise"] = NoiseSpec(**v)
        elif sec.name == "options":
            _check(path, sec, "seed", v["seed"].removeprefix("-").isdecimal(),
                   f"must be an integer, got {v['seed']!r}")
            _check(path, sec, "tau_us", v["tau"] is None or v["tau"] > 0.0,
                   "must be positive")
            _check(path, sec, "from_traces", v["from_traces"] in ("yes", "no"),
                   "must be 'yes' or 'no'")
            options.update(seed=int(v["seed"]), tau=v["tau"],
                           from_traces=v["from_traces"] == "yes")
    if not nuclei:
        raise ParseError(path, 1, "no [nucleus] sections found")
    if not fields:
        raise ParseError(path, 1, "no [fields] sections found")
    return TruthSpec(nuclei=tuple(nuclei), fields=tuple(fields), **options)


# ---------------------------------------------------------------------------
# ODMR line files

def load_odmr(path, registry: FrameRegistry = DEFAULT_REGISTRY) -> OdmrDataset:
    """One data row per resonance: nv_id frame_name f_GHz sigma_MHz.

    Rows are grouped by nv_id; each id needs exactly two rows sharing a
    frame of ``registry``. The pair's sigma is the mean of the two row
    sigmas.
    """
    from .calibrate import OdmrDataset, OdmrEntry

    rows = []
    for sec, v in _read_sections(path, "odmr", _ODMR):
        if sec.name:
            rows.extend(sec.rows)
        else:
            context = v["context"]
            _check(path, sec, "context", context in (COIL_FIELD, BIAS_FIELD),
                   f"must be {COIL_FIELD!r} or {BIAS_FIELD!r}")
    if not rows:
        raise ParseError(path, 1, "no resonance rows found")

    grouped: dict[str, list] = {}
    for line_no, raw in rows:
        parts = raw.split()
        if len(parts) != 4:
            raise ParseError(path, line_no,
                             "expected: nv_id frame_name f_GHz sigma_MHz")
        _check_frame(path, line_no, parts[1], registry)
        f_GHz, sigma_MHz = _finite(path, line_no, parts[2:], "bad numbers in row")
        grouped.setdefault(parts[0], []).append((line_no, parts[1], f_GHz * 1e9,
                                                 sigma_MHz * 1e6))

    entries = []
    for nv_id, items in grouped.items():
        if len(items) != 2:
            raise ParseError(path, items[0][0],
                             f"nv {nv_id!r} has {len(items)} lines, expected 2")
        (line, frame, fa, sa), (line_b, frame_b, fb, sb) = items
        if frame_b != frame:
            raise ParseError(path, line_b, f"nv {nv_id!r} rows disagree on frame")
        try:
            entries.append(OdmrEntry(frame=frame, lines=OdmrLinePair(*sorted((fa, fb))),
                                     sigma=0.5 * (sa + sb)))
        except ValueError as exc:
            raise ParseError(path, line, str(exc)) from None
    return OdmrDataset(entries=tuple(entries), context=context)


def save_odmr(path, dataset: OdmrDataset, nv_ids=None):
    ids = nv_ids or [f"NV{k + 1}" for k in range(len(dataset.entries))]
    lines = ["kind = odmr", f"version = {FORMAT_VERSION}",
             f"context = {dataset.context}", "", "[lines]"]
    for nv_id, e in zip(ids, dataset.entries):
        lines.append(f"{nv_id} {e.frame} {_fmt(e.lines.f_minus / 1e9)} {_fmt(e.sigma / 1e6)}")
        lines.append(f"{nv_id} {e.frame} {_fmt(e.lines.f_plus / 1e9)} {_fmt(e.sigma / 1e6)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reference coupling tables and residual maps

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
    entries = [[e.r_ref / ANGSTROM, e.dr / ANGSTROM, math.degrees(e.dtheta)]
               for e in rmap.entries]
    bins = [[b.r_lo / ANGSTROM, b.r_hi / ANGSTROM, b.n_sites,
             b.median_abs_dr / ANGSTROM, math.degrees(b.median_abs_dtheta)]
            for b in rmap.bins]
    atomic_write_text(path, "# r_A  dr_A  dtheta_deg\n"
                      + _fmt_rows(np.reshape(entries, (-1, 3))) + "\n# binned medians: "
                      "r_lo_A  r_hi_A  n_sites  median_abs_dr_A  median_abs_dtheta_deg\n"
                      + _fmt_rows(np.reshape(bins, (-1, 5)))
                      + "".join(f"# failed {msg}\n" for msg in rmap.failures))


# ---------------------------------------------------------------------------
# scatter and histogram exports

# scatter rows formatted and written at a time; the text of the whole file
# is never held in memory
_SCATTER_BLOCK = 4096


def save_scatter(path, scatter: np.ndarray):
    """Columns PARAMETERS in DISPLAY_UNITS (phi_deg, a_iso_kHz, r_A,
    theta_deg); one row per sample."""
    header = "# " + "  ".join(f"{name}_{unit}"
                              for name, (_, unit) in DISPLAY_UNITS.items())
    scale = [s for s, _ in DISPLAY_UNITS.values()]
    rows = np.asarray(scatter, dtype=float) / scale
    with _atomic_open(path) as fh:
        fh.write(header + "\n")
        for k in range(0, len(rows), _SCATTER_BLOCK):
            fh.write(_fmt_rows(rows[k:k + _SCATTER_BLOCK]))


def save_histogram(path, hist: Histogram, scale: float = 1.0, unit: str = ""):
    """Rows of edge_low edge_high count, with edges divided by ``scale``."""
    suffix = f"_{unit}" if unit else ""
    rows = np.column_stack([hist.edges[:-1] / scale, hist.edges[1:] / scale,
                            hist.counts])
    atomic_write_text(path, f"# edge_low{suffix}  edge_high{suffix}  count\n"
                      + _fmt_rows(rows))


def save_cost_curve(path, curve):
    """phi_deg, one |xi| column per record (Hz), then the summed square."""
    rows = np.column_stack([np.degrees(curve.phi), curve.per_record.T,
                            curve.total])
    atomic_write_text(path, "# phi_deg  abs_xi_Hz_per_record...  sum_sq_Hz2\n"
                      + _fmt_rows(rows))
