"""Readers and writers for the line-oriented data files.

All formats are plain text: a `kind = <name>` / `version = 1` header,
`[section ...]` blocks, `key = value` lines, and bare whitespace-separated
data rows where a format calls for them. `#` starts a comment anywhere.
Units at the file boundary mirror the published tables (kHz, mT, us,
Angstrom, degrees); everything is converted to SI/rad on load. Parse
problems raise ParseError carrying path and line number. Writers go through
a temp file and an atomic rename.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .calibrate import OdmrDataset, OdmrEntry, COIL_FIELD, BIAS_FIELD
from .core import Vector3, SENSOR_FRAME_NAME
from .dipole import DftRow, ResidualMap
from .dynamics import OdmrLinePair
from .errors import ParseError
from .extract import CouplingInputs
from .localize import MeasurementRecord
from .montecarlo import PARAMETERS, Histogram
from .signal import TimeTrace

FORMAT_VERSION = 1

KHZ = 1e3
MT = 1e-3
US = 1e-6
ANGSTROM = 1e-10
DEG = math.pi / 180.0

# display unit of each Monte Carlo parameter: (SI value of one unit, name)
DISPLAY_UNITS = dict(zip(PARAMETERS, ((DEG, "deg"), (KHZ, "kHz"),
                                      (ANGSTROM, "A"), (DEG, "deg"))))


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
    return value if isinstance(value, str) else json.dumps(value)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_vec(v) -> str:
    return " ".join(_fmt(c) for c in np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# structured-text core

@dataclass
class _Section:
    line: int
    name: str
    args: list[str]
    values: dict = field(default_factory=dict)  # key -> (line, raw string)
    rows: list = field(default_factory=list)    # (line, raw string)

    @property
    def label(self) -> str:
        return " ".join([self.name] + self.args)


def _parse_structured(path, expected_kind: str):
    """Returns (toplevel values dict, sections list)."""
    top: dict = {}
    sections: list[_Section] = []
    current: _Section | None = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot open: {exc}") from None
    with fh:
        for line_no, raw in enumerate(fh, 1):
            s = raw.split("#", 1)[0].strip()
            if not s:
                continue
            if s.startswith("["):
                if not s.endswith("]"):
                    raise ParseError(path, line_no, "unterminated section header")
                toks = s[1:-1].split()
                if not toks:
                    raise ParseError(path, line_no, "empty section header")
                current = _Section(line=line_no, name=toks[0], args=toks[1:])
                sections.append(current)
            elif "=" in s:
                key, val = s.split("=", 1)
                key, val = key.strip(), val.strip()
                if not key:
                    raise ParseError(path, line_no, "missing key before '='")
                target = top if current is None else current.values
                if key in target:
                    raise ParseError(path, line_no, f"duplicate key {key!r}")
                target[key] = (line_no, val)
            else:
                if current is None:
                    raise ParseError(path, line_no, "data row outside any section")
                current.rows.append((line_no, s))
    if "kind" not in top:
        raise ParseError(path, 1, "missing 'kind = ...' header")
    kind = top["kind"][1]
    if kind != expected_kind:
        raise ParseError(path, top["kind"][0],
                         f"expected kind {expected_kind!r}, found {kind!r}")
    if "version" not in top:
        raise ParseError(path, 1, "missing 'version = ...' header")
    vline, vval = top["version"]
    if vval != str(FORMAT_VERSION):
        raise ParseError(path, vline, f"unsupported version {vval!r}")
    return top, sections


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


def _float(path, entry) -> float:
    line, raw = entry
    return _finite(path, line, [raw], "not a number")[0]


def _vec3(path, entry) -> np.ndarray:
    line, raw = entry
    parts = raw.split()
    if len(parts) != 3:
        raise ParseError(path, line, f"expected 3 components, got {len(parts)}")
    return np.array(_finite(path, line, parts, "not a 3-vector of numbers"))


def _require(path, sec: _Section, key: str):
    if key not in sec.values:
        raise ParseError(path, sec.line,
                         f"section [{sec.label}] is missing key {key!r}")
    return sec.values[key]


def _no_extra_keys(path, sec: _Section, allowed):
    for key, (line, _) in sec.values.items():
        if key not in allowed:
            raise ParseError(path, line, f"unknown key {key!r} in [{sec.label}]")


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


_NUCLEUS_KEYS = {"f0_kHz", "sigma_f0_kHz", "f_m1_kHz", "sigma_f_m1_kHz",
                 "f_rabi_kHz", "sigma_f_rabi_kHz", "tau_us"}
_RECORD_KEYS = {"fp0_kHz", "sigma_fp0_kHz", "fp_m1_kHz", "sigma_fp_m1_kHz",
                "B0_mT", "sigma_B0_mT", "dB_mT", "sigma_dB_mT", "frame"}


def load_measurements(path) -> dict[str, NucleusMeasurements]:
    """Parse a measurements file into per-nucleus inputs and records.

    Returns nuclei in file order. Records must name a previously declared
    nucleus; every nucleus needs at least one record.
    """
    _, sections = _parse_structured(path, "measurements")
    inputs: dict[str, CouplingInputs] = {}
    records: dict[str, list] = {}
    for sec in sections:
        if sec.name == "nucleus":
            if len(sec.args) != 1:
                raise ParseError(path, sec.line, "[nucleus] needs exactly one label")
            label = sec.args[0]
            if label in inputs:
                raise ParseError(path, sec.line, f"duplicate nucleus {label!r}")
            _no_extra_keys(path, sec, _NUCLEUS_KEYS)
            try:
                inputs[label] = CouplingInputs(
                    f0=_float(path, _require(path, sec, "f0_kHz")) * KHZ,
                    f_m1=_float(path, _require(path, sec, "f_m1_kHz")) * KHZ,
                    f_rabi=_float(path, _require(path, sec, "f_rabi_kHz")) * KHZ,
                    tau=_float(path, _require(path, sec, "tau_us")) * US,
                    sigma_f0=_float(path, _require(path, sec, "sigma_f0_kHz")) * KHZ,
                    sigma_f_m1=_float(path, _require(path, sec, "sigma_f_m1_kHz")) * KHZ,
                    sigma_f_rabi=_float(path, _require(path, sec, "sigma_f_rabi_kHz")) * KHZ)
            except ValueError as exc:
                raise ParseError(path, sec.line, str(exc)) from None
            records[label] = []
        elif sec.name == "record":
            if len(sec.args) != 2:
                raise ParseError(path, sec.line,
                                 "[record] needs a nucleus label and a record label")
            nucleus, label = sec.args
            if nucleus not in inputs:
                raise ParseError(path, sec.line, f"record for unknown nucleus {nucleus!r}")
            _no_extra_keys(path, sec, _RECORD_KEYS)
            frame = sec.values.get("frame", (sec.line, SENSOR_FRAME_NAME))[1]
            ci = inputs[nucleus]
            try:
                records[nucleus].append(MeasurementRecord(
                    label=label,
                    f0=ci.f0, sigma_f0=max(ci.sigma_f0, 1e-6),
                    f_m1=ci.f_m1, sigma_f_m1=max(ci.sigma_f_m1, 1e-6),
                    fp0=_float(path, _require(path, sec, "fp0_kHz")) * KHZ,
                    sigma_fp0=_float(path, _require(path, sec, "sigma_fp0_kHz")) * KHZ,
                    fp_m1=_float(path, _require(path, sec, "fp_m1_kHz")) * KHZ,
                    sigma_fp_m1=_float(path, _require(path, sec, "sigma_fp_m1_kHz")) * KHZ,
                    B0=Vector3(_vec3(path, _require(path, sec, "B0_mT")) * MT, frame),
                    sigma_B0=_vec3(path, _require(path, sec, "sigma_B0_mT")) * MT,
                    dB=Vector3(_vec3(path, _require(path, sec, "dB_mT")) * MT, frame),
                    sigma_dB=_vec3(path, _require(path, sec, "sigma_dB_mT")) * MT))
            except ValueError as exc:
                raise ParseError(path, sec.line, str(exc)) from None
        else:
            raise ParseError(path, sec.line, f"unknown section [{sec.name}]")
    if not inputs:
        raise ParseError(path, 1, "no [nucleus] sections found")
    out = {}
    for label, ci in inputs.items():
        if not records[label]:
            raise ParseError(path, 1, f"nucleus {label!r} has no [record] sections")
        out[label] = NucleusMeasurements(label=label, inputs=ci,
                                         records=tuple(records[label]))
    return out


def save_measurements(path, nuclei: dict[str, NucleusMeasurements]):
    lines = [f"kind = measurements", f"version = {FORMAT_VERSION}"]
    for label, nm in nuclei.items():
        ci = nm.inputs
        lines += ["", f"[nucleus {label}]",
                  f"f0_kHz = {_fmt(ci.f0 / KHZ)}",
                  f"sigma_f0_kHz = {_fmt(ci.sigma_f0 / KHZ)}",
                  f"f_m1_kHz = {_fmt(ci.f_m1 / KHZ)}",
                  f"sigma_f_m1_kHz = {_fmt(ci.sigma_f_m1 / KHZ)}",
                  f"f_rabi_kHz = {_fmt(ci.f_rabi / KHZ)}",
                  f"sigma_f_rabi_kHz = {_fmt(ci.sigma_f_rabi / KHZ)}",
                  f"tau_us = {_fmt(ci.tau / US)}"]
        for rec in nm.records:
            lines += ["", f"[record {label} {rec.label}]",
                      f"fp0_kHz = {_fmt(rec.fp0 / KHZ)}",
                      f"sigma_fp0_kHz = {_fmt(rec.sigma_fp0 / KHZ)}",
                      f"fp_m1_kHz = {_fmt(rec.fp_m1 / KHZ)}",
                      f"sigma_fp_m1_kHz = {_fmt(rec.sigma_fp_m1 / KHZ)}",
                      f"B0_mT = {_fmt_vec(rec.B0.components / MT)}",
                      f"sigma_B0_mT = {_fmt_vec(rec.sigma_B0 / MT)}",
                      f"dB_mT = {_fmt_vec(rec.dB.components / MT)}",
                      f"sigma_dB_mT = {_fmt_vec(rec.sigma_dB / MT)}",
                      f"frame = {rec.B0.frame}"]
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


_TRUTH_NUCLEUS_KEYS = {"r_A", "theta_deg", "phi_deg", "a_iso_kHz"}
_TRUTH_FIELD_KEYS = {"B0_mT", "dB_mT", "frame"}
_TRUTH_NOISE_KEYS = {"sigma_f_kHz", "sigma_f_rabi_kHz", "sigma_fp_kHz", "sigma_B_mT"}
_TRUTH_OPTION_KEYS = {"seed", "tau_us", "from_traces"}


def load_truth(path) -> TruthSpec:
    _, sections = _parse_structured(path, "truth")
    nuclei: list[TruthNucleus] = []
    fields: list[FieldConfig] = []
    noise = NoiseSpec()
    seed = 0
    tau = None
    from_traces = False
    for sec in sections:
        if sec.name == "nucleus":
            if len(sec.args) != 1:
                raise ParseError(path, sec.line, "[nucleus] needs exactly one label")
            _no_extra_keys(path, sec, _TRUTH_NUCLEUS_KEYS)
            if any(n.label == sec.args[0] for n in nuclei):
                raise ParseError(path, sec.line, f"duplicate nucleus {sec.args[0]!r}")
            theta = math.radians(_float(path, _require(path, sec, "theta_deg")))
            if not (0.0 <= theta <= math.pi / 2.0):
                raise ParseError(path, _require(path, sec, "theta_deg")[0],
                                 "theta_deg must lie in [0, 90]")
            nuclei.append(TruthNucleus(
                label=sec.args[0],
                r=_float(path, _require(path, sec, "r_A")) * ANGSTROM,
                theta=theta,
                phi=math.radians(_float(path, _require(path, sec, "phi_deg"))) % (2 * math.pi),
                a_iso=_float(path, sec.values.get("a_iso_kHz", (sec.line, "0"))) * KHZ))
        elif sec.name == "fields":
            if len(sec.args) != 1:
                raise ParseError(path, sec.line, "[fields] needs exactly one label")
            _no_extra_keys(path, sec, _TRUTH_FIELD_KEYS)
            if any(f.label == sec.args[0] for f in fields):
                raise ParseError(path, sec.line, f"duplicate fields {sec.args[0]!r}")
            frame = sec.values.get("frame", (sec.line, SENSOR_FRAME_NAME))[1]
            fields.append(FieldConfig(
                label=sec.args[0],
                B0=Vector3(_vec3(path, _require(path, sec, "B0_mT")) * MT, frame),
                dB=Vector3(_vec3(path, _require(path, sec, "dB_mT")) * MT, frame)))
        elif sec.name == "noise":
            _no_extra_keys(path, sec, _TRUTH_NOISE_KEYS)
            noise = NoiseSpec(
                sigma_f=_float(path, sec.values.get("sigma_f_kHz", (sec.line, "0"))) * KHZ,
                sigma_f_rabi=_float(path, sec.values.get("sigma_f_rabi_kHz", (sec.line, "0"))) * KHZ,
                sigma_fp=_float(path, sec.values.get("sigma_fp_kHz", (sec.line, "0"))) * KHZ,
                sigma_B=_float(path, sec.values.get("sigma_B_mT", (sec.line, "0"))) * MT)
        elif sec.name == "options":
            _no_extra_keys(path, sec, _TRUTH_OPTION_KEYS)
            if "seed" in sec.values:
                line, raw = sec.values["seed"]
                try:
                    seed = int(raw)
                except ValueError:
                    raise ParseError(path, line, f"seed must be an integer, got {raw!r}") from None
            if "tau_us" in sec.values:
                tau = _float(path, sec.values["tau_us"]) * US
            if "from_traces" in sec.values:
                line, raw = sec.values["from_traces"]
                if raw not in ("yes", "no"):
                    raise ParseError(path, line, "from_traces must be 'yes' or 'no'")
                from_traces = raw == "yes"
        else:
            raise ParseError(path, sec.line, f"unknown section [{sec.name}]")
    if not nuclei:
        raise ParseError(path, 1, "no [nucleus] sections found")
    if not fields:
        raise ParseError(path, 1, "no [fields] sections found")
    return TruthSpec(nuclei=tuple(nuclei), fields=tuple(fields), noise=noise,
                     seed=seed, tau=tau, from_traces=from_traces)


# ---------------------------------------------------------------------------
# ODMR line files

def load_odmr(path) -> OdmrDataset:
    """One data row per resonance: nv_id frame_name f_GHz sigma_MHz.

    Rows are grouped by nv_id; each id needs exactly two rows sharing a
    frame. The pair's sigma is the mean of the two row sigmas.
    """
    top, sections = _parse_structured(path, "odmr")
    context = top.get("context", (1, COIL_FIELD))[1]
    if context not in (COIL_FIELD, BIAS_FIELD):
        raise ParseError(path, top.get("context", (1, ""))[0],
                         f"context must be {COIL_FIELD!r} or {BIAS_FIELD!r}")
    rows = []
    for sec in sections:
        if sec.name != "lines":
            raise ParseError(path, sec.line, f"unknown section [{sec.name}]")
        if sec.values:
            key, (line, _) = next(iter(sec.values.items()))
            raise ParseError(path, line, f"unexpected key {key!r} in [lines]")
        rows.extend(sec.rows)
    if not rows:
        raise ParseError(path, 1, "no resonance rows found")

    grouped: dict[str, list] = {}
    for line_no, raw in rows:
        parts = raw.split()
        if len(parts) != 4:
            raise ParseError(path, line_no,
                             "expected: nv_id frame_name f_GHz sigma_MHz")
        nv_id, frame = parts[0], parts[1]
        f_GHz, sigma_MHz = _finite(path, line_no, parts[2:], "bad numbers in row")
        grouped.setdefault(nv_id, []).append((line_no, frame, f_GHz * 1e9,
                                              sigma_MHz * 1e6))

    entries = []
    for nv_id, items in grouped.items():
        if len(items) != 2:
            raise ParseError(path, items[0][0],
                             f"nv {nv_id!r} has {len(items)} lines, expected 2")
        if items[0][1] != items[1][1]:
            raise ParseError(path, items[1][0],
                             f"nv {nv_id!r} rows disagree on frame")
        fa, fb = sorted((items[0][2], items[1][2]))
        sigma = 0.5 * (items[0][3] + items[1][3])
        try:
            entries.append(OdmrEntry(frame=items[0][1],
                                     lines=OdmrLinePair(f_minus=fa, f_plus=fb),
                                     sigma=sigma))
        except ValueError as exc:
            raise ParseError(path, items[0][0], str(exc)) from None
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

_DFT_REQUIRED = ("a_par_kHz", "a_perp_kHz", "r_A", "theta_deg")


def load_dft_table(path) -> list[DftRow]:
    """Whitespace-separated table with a header row naming the columns.

    Required columns: a_par_kHz, a_perp_kHz, r_A, theta_deg; a_iso_kHz is
    optional. Column order is free; extra columns are rejected.
    """
    header = None
    rows = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot open: {exc}") from None
    with fh:
        for line_no, raw in enumerate(fh, 1):
            s = raw.strip()
            if s.startswith("#"):
                s = s[1:].strip() if header is None else ""
            if not s:
                continue
            parts = s.split()
            if header is None:
                header = parts
                missing = [c for c in _DFT_REQUIRED if c not in header]
                if missing:
                    raise ParseError(path, line_no, f"header missing columns {missing}")
                extra = [c for c in header if c not in _DFT_REQUIRED + ("a_iso_kHz",)]
                if extra:
                    raise ParseError(path, line_no, f"unknown columns {extra}")
                continue
            if len(parts) != len(header):
                raise ParseError(path, line_no,
                                 f"expected {len(header)} fields, got {len(parts)}")
            vals = dict(zip(header, _finite(path, line_no, parts,
                                            "bad numbers in row")))
            rows.append(DftRow(a_par=vals["a_par_kHz"] * KHZ,
                               a_perp=vals["a_perp_kHz"] * KHZ,
                               a_iso=vals.get("a_iso_kHz", 0.0) * KHZ,
                               r=vals["r_A"] * ANGSTROM,
                               theta=math.radians(vals["theta_deg"])))
    if header is None:
        raise ParseError(path, 1, "empty table: no header row")
    for row in rows:
        if row.a_perp < 0.0:
            raise ParseError(path, 1, "a_perp_kHz must be non-negative")
    return rows


def save_residual_map(path, rmap: ResidualMap):
    lines = ["# r_A  dr_A  dtheta_deg"]
    for e in rmap.entries:
        lines.append(f"{_fmt(e.r_ref / ANGSTROM)} {_fmt(e.dr / ANGSTROM)} "
                     f"{_fmt(math.degrees(e.dtheta))}")
    lines.append("")
    lines.append("# binned medians: r_lo_A  r_hi_A  n_sites  median_abs_dr_A  median_abs_dtheta_deg")
    for b in rmap.bins:
        lines.append(f"{_fmt(b.r_lo / ANGSTROM)} {_fmt(b.r_hi / ANGSTROM)} {b.n_sites} "
                     f"{_fmt(b.median_abs_dr / ANGSTROM)} "
                     f"{_fmt(math.degrees(b.median_abs_dtheta))}")
    for msg in rmap.failures:
        lines.append(f"# failed {msg}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# time traces, scatter and histogram exports

def load_trace(path) -> TimeTrace:
    """Two or three whitespace-separated columns: time_s signal [sigma]."""
    t, y, s = [], [], []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot open: {exc}") from None
    with fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(path, line_no, "expected 2 or 3 columns")
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ParseError(path, line_no, f"bad numbers: {line!r}") from None
            t.append(vals[0])
            y.append(vals[1])
            s.append(vals[2] if len(vals) == 3 else 0.0)
    if len(t) < 2:
        raise ParseError(path, 1, "trace needs at least 2 samples")
    try:
        return TimeTrace(t=np.array(t), y=np.array(y), sigma_y=np.array(s))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def save_trace(path, trace: TimeTrace):
    lines = ["# time_s  signal  sigma"]
    for tk, yk, sk in zip(trace.t, trace.y, trace.sigma_y):
        lines.append(f"{_fmt(tk)} {_fmt(yk)} {_fmt(sk)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


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
            fh.write("".join(" ".join(map(_fmt, row)) + "\n"
                             for row in rows[k:k + _SCATTER_BLOCK].tolist()))


def save_histogram(path, hist: Histogram, scale: float = 1.0, unit: str = ""):
    """Rows of edge_low edge_high count, with edges divided by ``scale``."""
    suffix = f"_{unit}" if unit else ""
    lines = [f"# edge_low{suffix}  edge_high{suffix}  count"]
    for k, c in enumerate(hist.counts):
        lines.append(f"{_fmt(hist.edges[k] / scale)} {_fmt(hist.edges[k + 1] / scale)} {int(c)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_cost_curve(path, curve):
    """phi_deg, one |xi| column per record (Hz), then the summed square."""
    lines = ["# phi_deg  abs_xi_Hz_per_record...  sum_sq_Hz2"]
    for k in range(len(curve.phi)):
        cols = [_fmt(math.degrees(curve.phi[k]))]
        cols += [_fmt(v) for v in curve.per_record[:, k]]
        cols.append(_fmt(curve.total[k]))
        lines.append(" ".join(cols))
    atomic_write_text(path, "\n".join(lines) + "\n")
