import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinloc import (
    BIAS_FIELD,
    COIL_FIELD,
    OdmrDataset,
    OdmrEntry,
    ParseError,
    Vector3,
    load_dft_table,
    load_measurements,
    load_odmr,
    load_truth,
    odmr_lines,
    save_measurements,
    save_odmr,
    DEFAULT_REGISTRY,
)
from spinloc import fileio
from spinloc.cli import main
from spinloc.dft import ResidualBin, ResidualEntry, ResidualMap, save_residual_map
from spinloc.fileio import (
    in_units,
    save_cost_curve,
    save_histogram,
    save_scatter,
    write_json,
)
from spinloc.localize import CostCurve
from spinloc.montecarlo import Histogram

MEAS_HEADER = "kind = measurements\nversion = 1\n"


def _write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _nucleus_block(label="C1"):
    return (f"[nucleus {label}]\n"
            "f0_kHz = 101.7\n"
            "sigma_f0_kHz = 0.1\n"
            "f_m1_kHz = 114.2\n"
            "sigma_f_m1_kHz = 0.1\n"
            "f_rabi_kHz = 14.4\n"
            "sigma_f_rabi_kHz = 0.1\n"
            "tau_us = 2.3164\n")


def _record_block(nucleus="C1", label="cfg1", frame=None):
    text = (f"[record {nucleus} {label}]\n"
            "fp0_kHz = 88.3\n"
            "sigma_fp0_kHz = 0.3\n"
            "fp_m1_kHz = 103.2\n"
            "sigma_fp_m1_kHz = 0.2\n"
            "B0_mT = 0.028 -0.056 9.502\n"
            "sigma_B0_mT = 0.015 0.015 0.015\n"
            "dB_mT = -1.715 0.614 -1.547\n"
            "sigma_dB_mT = 0.015 0.015 0.015\n")
    if frame is not None:
        text += f"frame = {frame}\n"
    return text


def test_measurements_units_and_defaults(tmp_path):
    path = _write(tmp_path, MEAS_HEADER + _nucleus_block() + _record_block())
    nuclei = load_measurements(path)
    assert list(nuclei) == ["C1"]
    nm = nuclei["C1"]
    ci = nm.inputs
    assert ci.f0 == pytest.approx(101.7e3, rel=1e-12)
    assert ci.f_m1 == pytest.approx(114.2e3, rel=1e-12)
    assert ci.f_rabi == pytest.approx(14.4e3, rel=1e-12)
    assert ci.tau == pytest.approx(2.3164e-6, rel=1e-12)
    rec = nm.records[0]
    assert rec.label == "cfg1"
    # the frame key is optional
    assert rec.B0.frame == "nv0" and rec.dB.frame == "nv0"
    np.testing.assert_allclose(rec.B0.components,
                               [0.028e-3, -0.056e-3, 9.502e-3], rtol=1e-12)
    np.testing.assert_allclose(rec.dB.components,
                               [-1.715e-3, 0.614e-3, -1.547e-3], rtol=1e-12)
    np.testing.assert_allclose(rec.sigma_dB, [15e-6] * 3, rtol=1e-12)


def test_measurements_zero_coupling_sigma_is_kept(tmp_path):
    # a noise-free coil-off line keeps its sigma of 0
    text = (MEAS_HEADER
            + _nucleus_block().replace("sigma_f0_kHz = 0.1", "sigma_f0_kHz = 0")
            + _record_block())
    nuclei = load_measurements(_write(tmp_path, text))
    assert nuclei["C1"].inputs.sigma_f0 == 0.0


def test_measurements_round_trip(tmp_path):
    src = (MEAS_HEADER
           + _nucleus_block("C1") + _record_block("C1", "a", frame="lab")
           + _record_block("C1", "b")
           + _nucleus_block("C7") + _record_block("C7", "only"))
    orig = load_measurements(_write(tmp_path, src))
    out = tmp_path / "copy.txt"
    save_measurements(out, orig)
    again = load_measurements(out)
    assert list(again) == ["C1", "C7"]
    assert [r.label for r in again["C1"].records] == ["a", "b"]
    assert again["C1"].records[0].B0.frame == "lab"
    assert again["C1"].records[1].B0.frame == "nv0"
    for label, nm in orig.items():
        nm2 = again[label]
        for f in ("f0", "f_m1", "f_rabi", "tau",
                  "sigma_f0", "sigma_f_m1", "sigma_f_rabi"):
            assert getattr(nm2.inputs, f) == pytest.approx(
                getattr(nm.inputs, f), rel=1e-10)
        for r1, r2 in zip(nm.records, nm2.records):
            np.testing.assert_allclose(r2.B0.components, r1.B0.components,
                                       rtol=1e-10)
            np.testing.assert_allclose(r2.dB.components, r1.dB.components,
                                       rtol=1e-10)
            assert r2.fp0 == pytest.approx(r1.fp0, rel=1e-10)
            assert r2.fp_m1 == pytest.approx(r1.fp_m1, rel=1e-10)


BAD_MEASUREMENTS = [
    ("version = 1\n" + _nucleus_block() + _record_block(),
     1, "missing 'kind"),
    ("kind = truth\nversion = 1\n", 1, "expected kind"),
    ("kind = measurements\nversion = 2\n", 2, "unsupported version"),
    (MEAS_HEADER + _nucleus_block() + "f0_kHz = 5\n", 11, "duplicate key"),
    (MEAS_HEADER + "[nucleus C1\n", 3, "unterminated section"),
    (MEAS_HEADER + "1.0 2.0\n", 3, "outside any section"),
    (MEAS_HEADER + "[nucleus A B]\n", 3, "exactly one label"),
    (MEAS_HEADER + _nucleus_block() + _record_block("C9"),
     11, "unknown nucleus"),
    (MEAS_HEADER + _nucleus_block() + _record_block() + "color = red\n",
     20, "unknown key"),
    (MEAS_HEADER + _nucleus_block().replace("f_rabi_kHz = 14.4\n", ""),
     3, "missing key 'f_rabi_kHz'"),
    (MEAS_HEADER + _nucleus_block(), 1, "no \\[record\\]"),
    (MEAS_HEADER, 1, "no \\[nucleus\\]"),
    (MEAS_HEADER + _nucleus_block().replace("= 101.7", "= fast"),
     4, "not a number"),
    (MEAS_HEADER + _nucleus_block()
     + _record_block().replace("= 0.028 -0.056 9.502", "= 0.028 9.502"),
     16, "expected 3 components"),
    (MEAS_HEADER + _nucleus_block().replace("f_m1_kHz = 114.2",
                                            "f_m1_kHz = 0.0")
     + _record_block(),
     3, None),  # validation failure surfaces at the section line
    (MEAS_HEADER + _nucleus_block() + _record_block() + _record_block(),
     20, "duplicate section \\[record C1 cfg1\\]"),
    (MEAS_HEADER + _nucleus_block("a/b") + _record_block("a/b"),
     3, "'a/b' contains a path separator"),
    (MEAS_HEADER + _nucleus_block("a\\b") + _record_block("a\\b"),
     3, "contains a path separator"),
]


@pytest.mark.parametrize("text,line,match", BAD_MEASUREMENTS)
def test_measurements_rejects_malformed(tmp_path, text, line, match):
    path = _write(tmp_path, text)
    with pytest.raises(ParseError, match=match) as exc:
        load_measurements(path)
    assert exc.value.line == line
    assert exc.value.path == str(path)


TRUTH_FULL = """\
kind = truth
version = 1

[nucleus C1]
r_A = 8.3
theta_deg = 58
phi_deg = 370   # wraps
a_iso_kHz = 9

[fields cfg1]
B0_mT = 0.028 -0.056 9.502
dB_mT = -1.715 0.614 -1.547
frame = lab

[noise]
sigma_f_kHz = 0.1
sigma_fp_kHz = 0.3
sigma_B_mT = 0.015

[options]
seed = 42
tau_us = 4.5
from_traces = yes
"""


def test_truth_full(tmp_path):
    spec = load_truth(_write(tmp_path, TRUTH_FULL))
    (nuc,) = spec.nuclei
    assert nuc.label == "C1"
    assert nuc.r == pytest.approx(8.3e-10, rel=1e-12)
    assert nuc.theta == pytest.approx(math.radians(58.0), rel=1e-12)
    assert nuc.phi == pytest.approx(math.radians(10.0), rel=1e-9)
    assert nuc.a_iso == pytest.approx(9e3, rel=1e-12)
    (cfg,) = spec.fields
    assert cfg.label == "cfg1" and cfg.B0.frame == "lab"
    np.testing.assert_allclose(cfg.dB.components,
                               [-1.715e-3, 0.614e-3, -1.547e-3], rtol=1e-12)
    assert spec.noise.sigma_f == pytest.approx(100.0)
    assert spec.noise.sigma_f_rabi == 0.0
    assert spec.noise.sigma_fp == pytest.approx(300.0)
    assert spec.noise.sigma_B == pytest.approx(15e-6)
    assert spec.seed == 42
    assert spec.tau == pytest.approx(4.5e-6, rel=1e-12)
    assert spec.from_traces is True


def test_truth_defaults(tmp_path):
    text = ("kind = truth\nversion = 1\n"
            "[nucleus X]\nr_A = 10\ntheta_deg = 30\nphi_deg = 0\n"
            "[fields f]\nB0_mT = 0 0 9.5\ndB_mT = 1 0 0\n")
    spec = load_truth(_write(tmp_path, text))
    assert spec.nuclei[0].a_iso == 0.0
    assert spec.fields[0].B0.frame == "nv0"
    assert spec.noise.sigma_f == spec.noise.sigma_B == 0.0
    assert spec.seed == 0 and spec.tau is None and spec.from_traces is False


@pytest.mark.parametrize("mangle,line,match", [
    (("theta_deg = 58", "theta_deg = 120"), 6, "lie in \\[0, 90\\]"),
    (("from_traces = yes", "from_traces = maybe"), 23, "'yes' or 'no'"),
    (("seed = 42", "seed = 1.5"), 21, "must be an integer"),
    (("seed = 42", "seed = -1"), 21, "must be an integer"),
    (("seed = 42", f"seed = {2 ** 128}"), 21, "must be an integer"),
    (("[nucleus C1]", "[nucleus a/b]"), 4, "path separator"),
    (("phi_deg = 370   # wraps", "phi_deg = 370\nmass = 13"), 8, "unknown key"),
    (("tau_us = 4.5", "tau_us = nan"), 22, "not finite"),
    (("tau_us = 4.5", "tau_us = -4.5"), 22, "must be positive"),
    (("r_A = 8.3", "r_A = 0"), 5, "r_A must be positive"),
    (("r_A = 8.3", "r_A = -8.3"), 5, "r_A must be positive"),
    (("sigma_fp_kHz = 0.3", "sigma_fp_kHz = -0.3"), 17, "non-negative"),
    (("sigma_B_mT = 0.015", "sigma_B_mT = -0.015"), 18, "non-negative"),
    (("from_traces = yes", "from_traces = yes\n[noise]"), 24,
     "duplicate section \\[noise\\]"),
    (("from_traces = yes", "from_traces = yes\n\n[options]\nseed = 1"), 25,
     "duplicate section \\[options\\]"),
])
def test_truth_rejects_malformed(tmp_path, mangle, line, match):
    path = _write(tmp_path, TRUTH_FULL.replace(*mangle))
    with pytest.raises(ParseError, match=match) as exc:
        load_truth(path)
    assert exc.value.line == line


def test_truth_fields_must_share_one_frame(tmp_path, capsys):
    # a second [fields] section in another frame is a ParseError at its
    # header, and exit code 2 from the CLI
    text = TRUTH_FULL.replace(
        "frame = lab\n",
        "frame = lab\n\n[fields cfg2]\nB0_mT = 0 0 9.5\ndB_mT = 1 0 0\nframe = nv0\n")
    path = _write(tmp_path, text)
    with pytest.raises(ParseError, match="share one frame") as exc:
        load_truth(path)
    assert exc.value.line == 15
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:15:" in err
    assert "Traceback" not in err


def test_truth_requires_fields_section(tmp_path):
    text = ("kind = truth\nversion = 1\n"
            "[nucleus X]\nr_A = 10\ntheta_deg = 30\nphi_deg = 0\n")
    with pytest.raises(ParseError, match="no \\[fields\\]"):
        load_truth(_write(tmp_path, text))


def test_odmr_round_trip(tmp_path):
    B = Vector3(np.array([1.2e-3, -0.8e-3, 2.5e-3]), "lab")
    entries = tuple(
        OdmrEntry(frame=name,
                  lines=odmr_lines(B, DEFAULT_REGISTRY.get(name)),
                  sigma=2e5)
        for name in ("nv0", "nv90", "nv180"))
    ds = OdmrDataset(entries=entries, context=BIAS_FIELD)
    path = tmp_path / "lines.txt"
    save_odmr(path, ds, nv_ids=("A", "B", "C"))
    back = load_odmr(path)
    assert back.context == BIAS_FIELD
    assert [e.frame for e in back.entries] == ["nv0", "nv90", "nv180"]
    for e1, e2 in zip(ds.entries, back.entries):
        assert e2.lines.f_minus == pytest.approx(e1.lines.f_minus, rel=1e-10)
        assert e2.lines.f_plus == pytest.approx(e1.lines.f_plus, rel=1e-10)
        assert e2.sigma == pytest.approx(e1.sigma, rel=1e-10)


def test_odmr_default_context_and_row_order(tmp_path):
    # rows per nv may come in any order and any interleaving
    text = ("kind = odmr\nversion = 1\n[lines]\n"
            "NV1 nv0 2.91 0.1\n"
            "NV2 nv90 2.95 0.1\n"
            "NV1 nv0 2.83 0.1\n"
            "NV2 nv90 2.80 0.1\n")
    ds = load_odmr(_write(tmp_path, text))
    assert ds.context == COIL_FIELD
    by_frame = {e.frame: e for e in ds.entries}
    assert by_frame["nv0"].lines.f_minus == pytest.approx(2.83e9)
    assert by_frame["nv0"].lines.f_plus == pytest.approx(2.91e9)
    assert by_frame["nv90"].lines.f_plus == pytest.approx(2.95e9)


ODMR_HEAD = "kind = odmr\nversion = 1\n[lines]\n"

BAD_ODMR = [
    (ODMR_HEAD + "NV1 nv0 2.91 0.1\nNV1 nv0 2.83 0.1\nNV1 nv0 2.8 0.1\n",
     "has 3 lines"),
    (ODMR_HEAD + "NV1 nv0 2.91 0.1\nNV1 nv90 2.83 0.1\n", "disagree on frame"),
    (ODMR_HEAD + "NV1 nv0 2.91 0.1\n", "has 1 lines"),
    (ODMR_HEAD + "NV1 nv0 2.91\nNV1 nv0 2.83 0.1\n", "expected: nv_id"),
    (ODMR_HEAD + "NV1 nv0 fast 0.1\nNV1 nv0 2.83 0.1\n", "bad numbers"),
    (ODMR_HEAD, "no resonance rows"),
    ("kind = odmr\nversion = 1\ncontext = magnet\n" +
     "[lines]\nNV1 nv0 2.91 0.1\nNV1 nv0 2.83 0.1\n", "context must be"),
    (ODMR_HEAD + "power = 3\nNV1 nv0 2.91 0.1\nNV1 nv0 2.83 0.1\n",
     "unexpected key"),
    ("kind = odmr\nversion = 1\n[resonances]\nNV1 nv0 2.91 0.1\n",
     "unknown section"),
]


@pytest.mark.parametrize("text,match", BAD_ODMR)
def test_odmr_rejects_malformed(tmp_path, text, match):
    with pytest.raises(ParseError, match=match):
        load_odmr(_write(tmp_path, text))


def test_dft_table_parses_any_column_order(tmp_path):
    text = ("# theta_deg a_iso_kHz a_par_kHz r_A a_perp_kHz\n"
            "52.8 0 3.1 8.58 44.5\n"
            "# a later comment is skipped\n"
            "58.0 9.0 2.5 8.42 46.7\n")
    rows = load_dft_table(_write(tmp_path, text))
    assert len(rows) == 2
    assert rows[0].a_par == pytest.approx(3.1e3)
    assert rows[0].a_perp == pytest.approx(44.5e3)
    assert rows[0].r == pytest.approx(8.58e-10)
    assert rows[0].theta == pytest.approx(math.radians(52.8))
    assert rows[0].a_iso == 0.0
    assert rows[1].a_iso == pytest.approx(9e3)


def test_dft_table_header_without_comment_and_no_iso(tmp_path):
    text = "a_par_kHz a_perp_kHz r_A theta_deg\n-12.0 20.0 6.5 45\n"
    (row,) = load_dft_table(_write(tmp_path, text))
    assert row.a_par == pytest.approx(-12e3)
    assert row.a_iso == 0.0


@pytest.mark.parametrize("text,match,line", [
    ("a_par_kHz a_perp_kHz r_A\n1 2 3\n", "missing columns", 1),
    ("a_par_kHz a_perp_kHz r_A theta_deg spin\n1 2 3 4 5\n", "unknown columns", 1),
    ("a_par_kHz a_perp_kHz r_A theta_deg\n1 2 3\n", "expected 4 fields", 2),
    ("a_par_kHz a_perp_kHz r_A theta_deg\n1 2 three 4\n", "bad numbers", 2),
    ("", "empty table", 1),
    ("a_par_kHz a_perp_kHz r_A theta_deg\n1 -2 3 4\n", "non-negative", 2),
    ("# a_par_kHz a_perp_kHz r_A theta_deg\n1 2 3 4\n\n1 -2 3 4\n",
     "non-negative", 4),
    ("a_par_kHz a_perp_kHz r_A theta_deg r_A\n1 2 3 4 5\n", "duplicate column", 1),
    ("a_par_kHz a_perp_kHz r_A theta_deg\n1 2 3 4\n1 2 -5 4\n", "r_A must be positive", 3),
    ("a_par_kHz a_perp_kHz r_A theta_deg\n1 2 0 4\n", "r_A must be positive", 2),
])
def test_dft_table_rejects_malformed(tmp_path, text, match, line):
    with pytest.raises(ParseError, match=match) as exc:
        load_dft_table(_write(tmp_path, text))
    assert exc.value.line == line


DATA = Path(__file__).resolve().parents[1] / "data"


def _numbers(lines):
    """(line index, token index) of every number outside comments."""
    return [(i, j) for i, line in enumerate(lines)
            for j, tok in enumerate(line.split("#", 1)[0].split())
            if _is_number(tok)]


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name,loader,command", [
    ("measurements_example.txt", load_measurements, "localize"),
    ("truth_example.txt", load_truth, "simulate"),
    ("odmr_example.txt", load_odmr, "calibrate"),
    ("dft_couplings_example.txt", load_dft_table, "dft-residuals"),
])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loaders_reject_non_finite_numbers(tmp_path, capsys, name, loader,
                                           command, data):
    # any number of a data/ example replaced by a non-finite or non-number
    # value is a ParseError at its line, and exit code 2 from the CLI
    lines = (DATA / name).read_text().splitlines()
    i, j = data.draw(st.sampled_from(_numbers(lines)))
    tokens = lines[i].split("#", 1)[0].split()
    tokens[j] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "fast"]))
    lines[i] = " ".join(tokens)
    path = _write(tmp_path, "\n".join(lines) + "\n", name)
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert exc.value.line == i + 1
    capsys.readouterr()
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{i + 1}:" in err
    assert "Traceback" not in err


_MEASUREMENT_KEYS = {"f0_kHz", "sigma_f0_kHz", "f_m1_kHz", "sigma_f_m1_kHz",
                     "f_rabi_kHz", "sigma_f_rabi_kHz", "tau_us", "fp0_kHz",
                     "sigma_fp0_kHz", "fp_m1_kHz", "sigma_fp_m1_kHz", "B0_mT",
                     "sigma_B0_mT", "dB_mT", "sigma_dB_mT"}


def _damage_table(lines, required, data):
    """The table with one header column dropped, duplicated or renamed."""
    names = lines[0].lstrip("# ").split()
    damage = data.draw(st.sampled_from(["drop", "duplicate", "rename"]))
    j = data.draw(st.sampled_from([j for j, n in enumerate(names)
                                   if damage != "drop" or n in required]))
    if damage == "drop":
        del names[j]
    elif damage == "duplicate":
        names.insert(j, names[j])
    else:
        names[j] += "x"
    return ["# " + " ".join(names)] + lines[1:], 1


def _damage_structured(lines, required, data):
    """The file with its kind or version header or a required key dropped,
    a key or a section duplicated, or a key or a section header renamed;
    and the line the loader must report."""
    code = [line.split("#", 1)[0].strip() for line in lines]
    keys = {i: c.split("=", 1)[0].strip() for i, c in enumerate(code) if "=" in c}
    heads = [i for i, c in enumerate(code) if c.startswith("[")]
    damage = data.draw(st.sampled_from(["drop", "duplicate key", "duplicate section",
                                        "rename key", "rename section"]))
    i = data.draw(st.sampled_from(
        heads if damage.endswith("section") else
        [i for i, k in keys.items()
         if damage != "drop" or k in required | {"kind", "version"}]))
    if damage == "drop":
        # a missing header is reported at line 1, a missing key at its section
        line = max([h + 1 for h in heads if h < i], default=1)
        del lines[i]
    elif damage == "duplicate key":
        line = i + 2
        lines.insert(i + 1, lines[i])
    elif damage == "duplicate section":
        line = len(lines) + 1
        lines += lines[i:next((h for h in heads if h > i), len(lines))]
    elif damage == "rename key":
        line = 1 if keys[i] in ("kind", "version") else i + 1
        lines[i] = lines[i].replace(keys[i], keys[i] + "x", 1)
    else:
        line = i + 1
        lines[i] = lines[i].replace("[", "[x", 1)
    return lines, line


@pytest.mark.parametrize("name,loader,command,required", [
    ("measurements_example.txt", load_measurements, "localize", _MEASUREMENT_KEYS),
    ("truth_example.txt", load_truth, "simulate",
     {"r_A", "theta_deg", "phi_deg", "B0_mT", "dB_mT"}),
    ("odmr_example.txt", load_odmr, "calibrate", set()),
    ("dft_couplings_example.txt", load_dft_table, "dft-residuals",
     {"a_par_kHz", "a_perp_kHz", "r_A", "theta_deg"}),
])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loaders_reject_structural_damage(tmp_path, capsys, name, loader, command,
                                          required, data):
    # a data/ example with one structural damage is a ParseError at the line
    # that names it, and exit code 2 from the CLI
    lines = (DATA / name).read_text().splitlines()
    damage = _damage_table if loader is load_dft_table else _damage_structured
    lines, line = damage(lines, required, data)
    path = _write(tmp_path, "\n".join(lines) + "\n", name)
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert exc.value.line == line
    capsys.readouterr()
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err
    assert "Traceback" not in err


def test_bytes_that_are_not_utf8_are_reported_at_their_line(tmp_path, capsys):
    lines = (DATA / "measurements_example.txt").read_bytes().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(b"tau_us"))
    lines[i] = lines[i].replace(b"=", b"= \xff", 1)
    path = tmp_path / "measurements.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match="not UTF-8: byte 0xff") as exc:
        load_measurements(path)
    assert exc.value.line == i + 1
    assert main(["localize", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{i + 1}:" in err
    assert "Traceback" not in err


def test_write_json_deterministic(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"zeta": 1, "alpha": {"b": 2, "a": [3, 1]}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": [3, 1]}}
    write_json(tmp_path / "again.json", {"zeta": 1, "alpha": {"b": 2, "a": [3, 1]}})
    assert (tmp_path / "again.json").read_text() == text


def test_save_scatter_converts_units(tmp_path):
    scatter = np.array([[math.radians(123.5), 9e3, 8.3e-10, math.radians(58.0)]])
    path = tmp_path / "scatter.txt"
    save_scatter(path, scatter)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    vals = [float(v) for v in lines[1].split()]
    np.testing.assert_allclose(vals, [123.5, 9.0, 8.3, 58.0], rtol=1e-10)


def test_save_scatter_blocks_do_not_change_the_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    scatter = rng.normal(size=(7, 4)) * [1.0, 1e3, 1e-10, 1.0]
    whole = tmp_path / "whole.txt"
    save_scatter(whole, scatter)
    monkeypatch.setattr(fileio, "_SCATTER_BLOCK", 3)
    blocked = tmp_path / "blocked.txt"
    save_scatter(blocked, scatter)
    assert blocked.read_bytes() == whole.read_bytes()
    lines = whole.read_text().splitlines()
    assert len(lines) == 1 + len(scatter)
    empty = tmp_path / "empty.txt"
    save_scatter(empty, np.empty((0, 4)))
    assert empty.read_text() == lines[0] + "\n"


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path,
                                                                 monkeypatch):
    # the second block's formatting is interrupted after the header and the
    # first block reached the temp file
    path = tmp_path / "scatter.tsv"
    save_scatter(path, np.ones((2, 4)))
    old = path.read_bytes()
    blocks = []

    def interrupted(rows):
        blocks.append(rows)
        if len(blocks) == 2:
            raise KeyboardInterrupt
        return fmt_rows(rows)

    fmt_rows = fileio._fmt_rows
    monkeypatch.setattr(fileio, "_SCATTER_BLOCK", 3)
    monkeypatch.setattr(fileio, "_fmt_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_scatter(path, np.zeros((7, 4)))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["scatter.tsv"]


_TABLE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2e-309,
                     1e300, -1e-300]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_rows=st.integers(0, 6), n_records=st.integers(1, 3), data=st.data())
def test_table_writers_write_the_fmt_joined_rows(tmp_path, n_rows, n_records,
                                                 data):
    # every cell is its value formatted .12g: nan, +-inf, -0.0, subnormals and
    # magnitudes near the float range in the scatter and the cost curve
    def table(n_cols):
        cells = data.draw(st.lists(_TABLE_FLOATS, min_size=n_rows * n_cols,
                                   max_size=n_rows * n_cols))
        return np.array(cells, dtype=float).reshape(n_rows, n_cols)

    def text(header, rows):
        return "".join([header + "\n"] + [" ".join(format(float(v), ".12g")
                                                    for v in row) + "\n"
                                          for row in rows])

    scatter = table(4)
    scale = [fileio._field_unit(c)[1] for c in fileio.PARAMETER_COLUMNS.values()]
    with np.errstate(over="ignore"):
        save_scatter(tmp_path / "scatter.tsv", scatter)
        rows = (scatter / scale).tolist()
    written = (tmp_path / "scatter.tsv").read_text()
    assert written == text(written.split("\n", 1)[0], rows)

    cols = table(2 + n_records)
    curve = CostCurve(phi=cols[:, 0], per_record=cols[:, 1:-1].T,
                      total=cols[:, -1])
    with np.errstate(over="ignore"):
        save_cost_curve(tmp_path / "curve.tsv", curve)
    rows = [[row[0] / fileio._UNITS["deg"], *row[1:]] for row in cols.tolist()]
    assert (tmp_path / "curve.tsv").read_text() == text(
        "# phi_deg  abs_xi_Hz_per_record...  sum_sq_Hz2", rows)


def test_save_histogram_scales_edges(tmp_path):
    hist = Histogram(edges=np.array([0.0, 1e3, 2e3]),
                     counts=np.array([4, 7]), circular=False)
    path = tmp_path / "hist.txt"
    save_histogram(path, hist, "a_iso_kHz")
    lines = path.read_text().splitlines()
    assert "edge_low_kHz" in lines[0]
    assert lines[1].split() == ["0", "1", "4"]
    assert lines[2].split() == ["1", "2", "7"]


def test_in_units_converts_only_unit_suffixed_keys():
    solver = {"max_iterations": 3}
    block = in_units({"n_samples": 40000, "passed": True, "frame": "nv0",
                      "solver": solver, "residual_Hz": 2.5, "z_offset_A": 3e-10,
                      "B_mT": np.array([1e-3, -2e-3]), "minima_deg": (),
                      "phi_deg": {"68.27": [0.0, math.pi / 2], "95": (-math.pi, 0.0)}})
    assert type(block["n_samples"]) is int and block["n_samples"] == 40000
    assert block["passed"] is True
    assert block["frame"] == "nv0"
    assert block["solver"] is solver
    assert block["residual_Hz"] == 2.5
    assert block["z_offset_A"] == pytest.approx(3.0)
    assert block["B_mT"] == pytest.approx([1.0, -2.0])
    assert block["minima_deg"] == []
    assert block["phi_deg"] == {"68.27": pytest.approx([0.0, 90.0]),
                                "95": pytest.approx([-180.0, 0.0])}


def test_save_residual_map_layout(tmp_path):
    rmap = ResidualMap(
        entries=(ResidualEntry(r_ref=8e-10, dr=1e-12, dtheta=math.radians(0.2)),),
        bins=(ResidualBin(r_lo=8e-10, r_hi=10e-10, n_sites=1,
                          median_abs_dr=1e-12,
                          median_abs_dtheta=math.radians(0.2)),),
        n_total=2,
        failures=("row 2: no consistent angle",))
    path = tmp_path / "residuals.txt"
    save_residual_map(path, rmap)
    lines = path.read_text().splitlines()
    entry = [float(v) for v in lines[1].split()]
    np.testing.assert_allclose(entry, [8.0, 0.01, 0.2], rtol=1e-9)
    binned = lines[lines.index("# binned medians: r_lo_A  r_hi_A  n_sites  "
                               "median_abs_dr_A  median_abs_dtheta_deg") + 1]
    assert binned.split()[2] == "1"
    assert lines[-1] == "# failed row 2: no consistent angle"
