import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinloc import (
    DEFAULT_CONSTANTS,
    DEFAULT_REGISTRY,
    OdmrDataset,
    OdmrEntry,
    ParseError,
    SphericalPosition,
    Vector3,
    dipole_tensor,
    extract_couplings,
    invert_dipole,
    load_measurements,
    odmr_lines,
    save_measurements,
    save_odmr,
)
from spinloc import localize
from spinloc.calibrate import COIL_FIELD
from spinloc.cli import main
from spinloc.fileio import ANGSTROM

TRUTH_NUCLEUS = """\
[nucleus C1]
r_A = 8.3
theta_deg = 58
phi_deg = 238
a_iso_kHz = 9
"""

TRUTH_COILS = """\
[fields coil1]
B0_mT = {b0}
dB_mT = -1.715 0.614 -1.547

[fields coil2]
B0_mT = {b0}
dB_mT = 0.9 -1.4 0.3

[fields coil3]
B0_mT = {b0}
dB_mT = -0.4 -1.1 1.0
"""


def _truth_file(tmp_path, b0="0 0 9.502", noise="", options="",
                nucleus=TRUTH_NUCLEUS):
    text = ("kind = truth\nversion = 1\n\n" + nucleus
            + TRUTH_COILS.format(b0=b0) + noise + options)
    path = tmp_path / "truth.txt"
    path.write_text(text)
    return path


def _run_simulate(tmp_path, **kwargs):
    truth = _truth_file(tmp_path, **kwargs)
    sim = tmp_path / "sim"
    assert main(["simulate", str(truth), "--out", str(sim)]) == 0
    return sim / "measurements.txt"


def test_simulate_localize_noiseless_recovers_truth(tmp_path):
    meas = _run_simulate(tmp_path)
    out = tmp_path / "loc"
    rc = main(["localize", str(meas), "--samples", "400", "--seed", "11",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "localization-report"
    assert report["failures"] == {}
    entry = report["nuclei"]["C1"]
    point = entry["point"]
    # axial static field keeps the coil-off lines consistent with the
    # couplings, so the whole chain collapses onto the truth
    assert point["phi_deg"] == pytest.approx(238.0, abs=0.01)
    assert point["r_A"] == pytest.approx(8.3, abs=1e-3)
    assert point["theta_deg"] == pytest.approx(58.0, abs=0.01)
    assert point["a_iso_kHz"] == pytest.approx(9.0, abs=0.01)
    assert entry["a_iso_mode"] == "free"
    assert entry["n_failed"] == 0
    ci = entry["ci"]["phi_deg"]
    assert set(ci) == {"68.27", "95"}
    # output set: curve, scatter, four histograms
    assert (out / "cost_curve_C1.tsv").exists()
    assert (out / "scatter_C1.tsv").exists()
    for name in ("phi", "a_iso", "r", "theta"):
        assert (out / f"histogram_{name}_C1.tsv").exists()
    curve_header = (out / "cost_curve_C1.tsv").read_text().splitlines()[1]
    assert len(curve_header.split()) == 2 + 3  # phi, three records, total


def test_localize_position_is_the_point_with_the_axial_offset(tmp_path):
    meas = _run_simulate(tmp_path)
    out = tmp_path / "loc"
    assert main(["localize", str(meas), "--samples", "200", "--seed", "5",
                 "--out", str(out)]) == 0
    entry = json.loads((out / "report.json").read_text())["nuclei"]["C1"]
    point, pos = entry["point"], entry["position"]
    for key in ("r_A", "theta_deg", "phi_deg"):
        assert pos[key] == point[key]
    site = SphericalPosition(point["r_A"] * 1e-10, math.radians(point["theta_deg"]),
                             math.radians(point["phi_deg"]))
    np.testing.assert_allclose(pos["cartesian_A"], site.cartesian() / 1e-10,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(np.subtract(pos["cartesian_offset_A"],
                                           pos["cartesian_A"]),
                               [0.0, 0.0, 2.29], atol=1e-12)
    assert pos["z_offset_A"] == pytest.approx(2.29, rel=1e-15)


def test_simulate_seed_controls_output(tmp_path):
    noise = "[noise]\nsigma_f_kHz = 0.02\nsigma_fp_kHz = 0.05\nsigma_B_mT = 0.002\n\n"
    truth = _truth_file(tmp_path, noise=noise, options="[options]\nseed = 7\n")
    outs = []
    for name, seed_args in [("a", []), ("b", []), ("c", ["--seed", "8"])]:
        d = tmp_path / name
        assert main(["simulate", str(truth), "--out", str(d)] + seed_args) == 0
        outs.append((d / "measurements.txt").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_localize_bit_identical_across_parallel(tmp_path):
    noise = "[noise]\nsigma_f_kHz = 0.02\nsigma_fp_kHz = 0.05\nsigma_B_mT = 0.002\n\n"
    meas = _run_simulate(tmp_path, b0="0.028 -0.056 9.502", noise=noise,
                         options="[options]\nseed = 7\n")
    blobs = []
    for chunks in ("1", "2", "8"):
        out = tmp_path / f"par{chunks}"
        rc = main(["localize", str(meas), "--samples", "600", "--seed", "5",
                   "--parallel", chunks, "--out", str(out)])
        assert rc == 0
        blobs.append(((out / "report.json").read_bytes(),
                      (out / "scatter_C1.tsv").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]
    report = json.loads(blobs[0][0].decode())
    assert report["nuclei"]["C1"]["point"]["phi_deg"] == pytest.approx(238.0, abs=3.0)
    assert "parallel" not in json.dumps(report)  # chunking must not leak


def _simulate_survey_nucleus(tmp_path, nucleus: str):
    """Simulate one nucleus section with the fields and noise of the
    truth example at its seed; returns the measurements file."""
    noise = ("[noise]\nsigma_f_kHz = 0.1\nsigma_f_rabi_kHz = 0.1\n"
             "sigma_fp_kHz = 0.25\nsigma_B_mT = 0.015\n\n")
    return _run_simulate(tmp_path, b0="0.028 -0.056 9.502", noise=noise,
                         options="[options]\nseed = 20260822\n", nucleus=nucleus)


def test_simulate_localize_f_m1_below_f0(tmp_path):
    # a negative parallel coupling puts the m_S = -1 line below f0; simulate
    # must write it as drawn and localize must accept it
    meas = _simulate_survey_nucleus(tmp_path, (
        "[nucleus S08]\nr_A = 6.5625\ntheta_deg = 76.11111111111111\n"
        "phi_deg = 230.40000000000003\na_iso_kHz = -13.46938775510204\n\n"))
    inputs = load_measurements(meas)["S08"].inputs
    assert inputs.f_m1 < inputs.f0
    out = tmp_path / "loc"
    assert main(["localize", str(meas), "--samples", "400", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == {}
    entry = report["nuclei"]["S08"]
    assert entry["a_par_kHz"] < 0.0
    assert entry["sigma_a_par_kHz"] > 0.0 and entry["sigma_a_perp_kHz"] > 0.0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_localize_large_residual_samples_converge(tmp_path, seed):
    # survey nucleus S09 (a_iso fixed): many samples sit far from their box
    # minimum at a large residual, where Gauss-Newton steps shrink only
    # linearly, and some start where the cost is concave; the solver's
    # secant term and step multiplier must still converge every one
    meas = _simulate_survey_nucleus(tmp_path, (
        "[nucleus S09]\nr_A = 11.0625\ntheta_deg = 7.962962962962963\n"
        "phi_deg = 302.40000000000003\na_iso_kHz = -7.755102040816325\n\n"))
    out = tmp_path / "loc"
    assert main(["localize", str(meas), "--samples", "400", "--seed", str(seed),
                 "--out", str(out)]) == 0
    solver = json.loads((out / "report.json").read_text())["nuclei"]["S09"]["solver"]
    assert solver["unconverged"] == 0
    assert solver["max_iterations"] <= 25


def test_localize_fix_a_iso_flag(tmp_path):
    meas = _run_simulate(tmp_path)
    fixed = tmp_path / "fixed"
    rc = main(["localize", str(meas), "--samples", "400", "--fix-a-iso", "9",
               "--out", str(fixed)])
    assert rc == 0
    entry = json.loads((fixed / "report.json").read_text())["nuclei"]["C1"]
    assert entry["a_iso_mode"] == "fixed"
    assert entry["point"]["a_iso_kHz"] == 9.0
    assert entry["point"]["phi_deg"] == pytest.approx(238.0, abs=0.05)

    for bad in ("soon", "nan", "inf"):
        assert main(["localize", str(meas), "--samples", "400",
                     "--fix-a-iso", bad, "--out", str(tmp_path / "x")]) == 2


def test_localize_uninvertible_fixed_contact_is_a_failure(tmp_path, capsys):
    # at a_iso = 1 GHz no grid point inverts; the nucleus fails, not the run
    meas = _run_simulate(tmp_path)
    out = tmp_path / "loc"
    rc = main(["localize", str(meas), "--samples", "200", "--fix-a-iso", "1e6",
               "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["nuclei"] == {}
    assert "C1" in report["failures"]
    assert "Traceback" not in capsys.readouterr().err


def test_localize_auto_reports_the_radius_at_zero_contact(tmp_path):
    # the radius that decides the auto a_iso policy is a number under a
    # unit-suffixed key; the note names the rule and holds no number
    example = Path(__file__).resolve().parents[1] / "data" / "measurements_example.txt"
    out = tmp_path / "loc"
    assert main(["localize", str(example), "--samples", "200", "--fix-a-iso", "auto",
                 "--out", str(out)]) == 0
    entry = json.loads((out / "report.json").read_text())["nuclei"]["C1"]
    inputs = load_measurements(example)["C1"].inputs
    est = extract_couplings(inputs.f0, inputs.f_m1, inputs.f_rabi, inputs.tau)
    r0 = invert_dipole(est.a_par, est.a_perp, 0.0).r
    assert entry["r_zero_contact_A"] == r0 / ANGSTROM
    assert entry["a_iso_note"].startswith("auto:")
    assert not re.search(r"\d", entry["a_iso_note"])


def test_localize_negative_seed_exits_2(tmp_path, capsys):
    meas = _run_simulate(tmp_path)
    assert main(["localize", str(meas), "--samples", "200", "--seed", "-1",
                 "--out", str(tmp_path / "loc")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--fix-a-iso", "bogus"), ("--samples", "5"),
                                   ("--parallel", "0")])
def test_localize_bad_flag_exits_2_before_writing(tmp_path, capsys, flags):
    # flags are checked before the input is read or --out is created
    example = Path(__file__).resolve().parents[1] / "data" / "measurements_example.txt"
    out = tmp_path / "out"
    rc = main(["localize", str(example), *flags, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_localize_imports_no_scipy(tmp_path):
    # scipy serves calibrate and trace-based simulate only; localize must run
    # without importing it, numpy.ma (which numpy's quantile path loads), or
    # the modules of the other commands
    root = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from spinloc.cli import main\n"
            "rc = main(['localize', *sys.argv[1:]])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m in ('numpy.ma', 'spinloc.calibrate', 'spinloc.signal',\n"
            "                      'spinloc.simulate', 'spinloc.dft')))\n"
            "sys.exit(rc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", code, str(root / "data" / "measurements_example.txt"),
         "--samples", "200", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[]"


# the package names that live in a module loaded on first use, by module
_LAZY_NAMES = {
    "calibrate": ("OdmrLinePair", "hamiltonian", "transition_frequencies",
                  "odmr_lines", "OdmrEntry", "OdmrDataset", "FieldSolution",
                  "solve_field", "AlignmentReport", "alignment_report",
                  "load_odmr", "save_odmr"),
    "signal": ("TimeTrace", "FrequencyEstimate", "synth_trace",
               "estimate_frequencies"),
    "simulate": ("TruthSpec", "TruthNucleus", "FieldConfig", "NoiseSpec",
                 "load_truth"),
    "dft": ("DftRow", "ResidualEntry", "ResidualBin", "ResidualMap",
            "dft_residual_map", "load_dft_table"),
}


def test_package_loads_calibrate_and_signal_on_first_use():
    # importing spinloc leaves the modules of calibrate, signal, simulate and
    # dft unloaded; their names on the package load them when first read and
    # are the objects of those modules
    root = Path(__file__).resolve().parents[1]
    code = ("import importlib, sys\n"
            "import spinloc\n"
            f"names = {_LAZY_NAMES!r}\n"
            "print(sorted(f'spinloc.{m}' for m in names\n"
            "             if f'spinloc.{m}' in sys.modules))\n"
            "from spinloc import TimeTrace, solve_field\n"
            "print(all(getattr(spinloc, n)\n"
            "          is getattr(importlib.import_module(f'spinloc.{m}'), n)\n"
            "          for m, ns in names.items() for n in ns))\n"
            "try:\n"
            "    spinloc.no_such_name\n"
            "except AttributeError:\n"
            "    print('AttributeError')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "True", "AttributeError"]


def test_localize_fits_each_nucleus_once(tmp_path, monkeypatch):
    # the Monte Carlo returns its point fits, all nuclei's from one call;
    # the command must not fit again
    meas = _run_simulate(tmp_path)
    calls = {"fit_azimuth": [], "fit_azimuths": []}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(localize, name)
        for modname, mod in list(sys.modules.items()):
            if (modname.startswith("spinloc")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counting(name, original))
    rc = main(["localize", str(meas), "--samples", "200",
               "--out", str(tmp_path / "loc")])
    assert rc == 0
    assert calls["fit_azimuth"] == []
    assert [len(args[0]) for args in calls["fit_azimuths"]] == [1]


def test_localize_reports_solver_outcome(tmp_path):
    meas = _run_simulate(tmp_path)
    out = tmp_path / "loc"
    assert main(["localize", str(meas), "--samples", "300", "--seed", "2",
                 "--out", str(out)]) == 0
    solver = json.loads((out / "report.json").read_text())["nuclei"]["C1"]["solver"]
    assert set(solver) == {"max_iterations", "unconverged", "at_bound"}
    assert solver["max_iterations"] >= 1
    assert solver["unconverged"] == solver["at_bound"] == 0
    assert main(["localize", str(meas), "--samples", "300", "--seed", "2",
                 "--format", "text", "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    block = text.split("\n    solver\n", 1)[1].splitlines()[:3]
    assert [line.split() for line in block] == [
        ["at_bound", "0"], ["max_iterations", str(solver["max_iterations"])],
        ["unconverged", "0"]]


def test_localize_level_crossing_field_is_a_failure(tmp_path, capsys):
    meas = _run_simulate(tmp_path)
    crossing_mT = DEFAULT_CONSTANTS.D / DEFAULT_CONSTANTS.gamma_e / 1e-3
    text = re.sub(r"B0_mT = [^\n]*", f"B0_mT = 0 0 {crossing_mT!r}",
                  meas.read_text(), count=1)
    meas.write_text(text)
    out = tmp_path / "loc"
    rc = main(["localize", str(meas), "--samples", "200", "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["nuclei"] == {}
    assert "diverges" in report["failures"]["C1"]
    assert "Traceback" not in capsys.readouterr().err


def test_localize_record_outside_sensor_frame_is_a_failure(tmp_path, capsys):
    # fields given in the lab frame must not be fitted as nv0 components
    example = Path(__file__).resolve().parents[1] / "data" / "measurements_example.txt"
    meas = tmp_path / "measurements.txt"
    meas.write_text(example.read_text().replace("frame = nv0", "frame = lab", 1))
    out = tmp_path / "loc"
    rc = main(["localize", str(meas), "--samples", "200", "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["nuclei"] == {}
    assert "'lab'" in report["failures"]["C1"]
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_has_no_format_option(tmp_path):
    truth = _truth_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(truth), "--format", "text",
              "--out", str(tmp_path / "sim")])
    assert exc.value.code == 2


def test_localize_text_format(tmp_path):
    meas = _run_simulate(tmp_path)
    out = tmp_path / "txt"
    rc = main(["localize", str(meas), "--samples", "400", "--format", "text",
               "--out", str(out)])
    assert rc == 0
    text = (out / "report.txt").read_text()
    assert re.search(r"^kind +localization-report$", text, re.M)
    assert "\nnuclei\n  C1\n" in text
    assert re.search(r"^      phi_deg\n        68\.27 +\S+ \S+$", text, re.M)
    assert not (out / "report.json").exists()


def test_localize_missing_file_exits_2(tmp_path, capsys):
    rc = main(["localize", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _odmr_file(tmp_path, B_lab, frames=("nv0", "nv90", "nv180", "nv270")):
    v = Vector3(np.asarray(B_lab), "lab")
    entries = tuple(OdmrEntry(frame=f,
                              lines=odmr_lines(v, DEFAULT_REGISTRY.get(f)),
                              sigma=1e5)
                    for f in frames)
    path = tmp_path / "odmr.txt"
    save_odmr(path, OdmrDataset(entries=entries, context=COIL_FIELD))
    return path


def test_calibrate_round_trip(tmp_path):
    B = np.array([-1.715e-3, 0.614e-3, -1.547e-3])
    path = _odmr_file(tmp_path, B)
    out = tmp_path / "cal"
    assert main(["calibrate", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "field_solution.json").read_text())
    assert report["kind"] == "field-solution"
    assert report["frame"] == "lab"
    # reported sign is canonical (largest component positive): -B here
    np.testing.assert_allclose(np.array(report["B_mT"]) * 1e-3, -B, rtol=1e-6)
    assert report["rms_residual_MHz"] < 1e-6
    assert report["alignment"]["frame"] == "nv0"
    assert report["alignment"]["passed"] is False  # coil field, far off axis
    assert report["provenance"]["input_sha256"]
    assert report["provenance"]["config"] == "defaults"


def test_calibrate_text_format_and_target(tmp_path):
    B = np.array([0.2e-3, -0.1e-3, 9.4e-3])
    path = _odmr_file(tmp_path, B)
    out = tmp_path / "cal"
    rc = main(["calibrate", str(path), "--format", "text",
               "--target", "nv90", "--out", str(out)])
    assert rc == 0
    text = (out / "field_solution.txt").read_text()
    assert re.search(r"^kind +field-solution$", text, re.M)
    assert re.search(r"^alignment\n  frame +nv90$", text, re.M)


def _leaf_lines(report: dict):
    """(key, value text) of every leaf of a JSON report; list items joined
    by spaces, strings bare, other values as JSON writes them."""
    for key, value in report.items():
        if isinstance(value, dict):
            yield from _leaf_lines(value)
        else:
            items = value if isinstance(value, list) else [value]
            yield key, " ".join(v if isinstance(v, str) else json.dumps(v)
                                for v in items)


def test_text_reports_hold_every_json_value(tmp_path):
    meas = _run_simulate(tmp_path)
    odmr = _odmr_file(tmp_path, [0.2e-3, -0.1e-3, 9.4e-3])
    runs = ((["localize", str(meas), "--samples", "300", "--seed", "2"], "report"),
            (["calibrate", str(odmr)], "field_solution"),
            (["dft-residuals", str(_dft_table_file(tmp_path))], "dft_residuals"))
    for argv, stem in runs:
        for fmt in ("json", "text"):
            assert main(argv + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        report = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
        text = (tmp_path / "text" / f"{stem}.txt").read_text()
        for key, value in _leaf_lines(report):
            assert re.search(rf"^ *{re.escape(key)} +{re.escape(value)}$", text,
                             re.M), (stem, key, value)


def test_calibrate_single_orientation_exits_1(tmp_path, capsys):
    path = _odmr_file(tmp_path, [0.9e-3, 0.4e-3, 1.8e-3], frames=("nv0",))
    assert main(["calibrate", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_calibrate_unknown_target_exits_2_before_writing(tmp_path, capsys):
    path = _odmr_file(tmp_path, [0.2e-3, -0.1e-3, 9.4e-3])
    out = tmp_path / "cal"
    assert main(["calibrate", str(path), "--target", "nope", "--out", str(out)]) == 2
    assert "unknown frame 'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("kind = odmr\nversion = 1\n[lines]\nNV1 nv0 2.9\n")
    assert main(["calibrate", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def _dft_table_file(tmp_path):
    rows = ["a_par_kHz a_perp_kHz r_A theta_deg a_iso_kHz"]
    for r_A, th_deg, iso in [(8.58, 52.8, 0.0), (6.5, 30.0, 5.0),
                             (12.0, 70.0, -3.0)]:
        hf = dipole_tensor(
            SphericalPosition(r_A * 1e-10, math.radians(th_deg), 0.0),
            iso * 1e3, DEFAULT_CONSTANTS)
        rows.append(f"{hf.a_par / 1e3:.9g} {hf.a_perp / 1e3:.9g} "
                    f"{r_A} {th_deg} {iso}")
    rows.append("0 0 8 45 0")  # not invertible
    path = tmp_path / "table.txt"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_dft_residuals(tmp_path, capsys):
    path = _dft_table_file(tmp_path)
    out = tmp_path / "res"
    rc = main(["dft-residuals", str(path), "--format", "json",
               "--bin-width", "4", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "not invertible" in captured.err
    report = json.loads((out / "dft_residuals.json").read_text())
    assert report["n_total"] == 4
    assert report["n_failed"] == 1
    assert report["failures"][0].startswith("row 4")
    assert sum(b["n_sites"] for b in report["bins"]) == 3
    for b in report["bins"]:
        assert b["median_abs_dr_A"] < 1e-6
        assert b["median_abs_dtheta_deg"] < 1e-6
    assert (out / "dft_residuals.tsv").exists()


@pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
def test_dft_residuals_bad_bin_width_exits_2_before_writing(tmp_path, capsys, width):
    out = tmp_path / "res"
    assert main(["dft-residuals", str(_dft_table_file(tmp_path)),
                 f"--bin-width={width}", "--out", str(out)]) == 2
    assert "bin width" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_via_environment(tmp_path, monkeypatch):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("constants:\n  gamma_n: 10750000.0\n")
    monkeypatch.setenv("SPINLOC_CONFIG", str(cfg))
    path = _dft_table_file(tmp_path)
    out = tmp_path / "res"
    rc = main(["dft-residuals", str(path), "--format", "json",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "dft_residuals.json").read_text())
    assert report["provenance"]["config"] == str(cfg)
    assert len(report["provenance"]["config_sha256"]) == 64
    # shifted gamma_n makes the reference couplings inconsistent at the
    # sub-Angstrom level, visible against the exact-inversion baseline
    assert any(b["median_abs_dr_A"] > 1e-4 for b in report["bins"])


def test_config_rejects_out_of_band_gamma_n(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("constants:\n  gamma_n: 12000000.0\n")
    path = _dft_table_file(tmp_path)
    rc = main(["dft-residuals", str(path), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [
    ("constants: [1, 2\n", 2),   # not YAML: reported at the parser's mark
    ("constants: [1, 2]\n", 1),
    ("constants: ab\n", 1),
    ("frames: {nv1: 5}\n", 1),
    ("constants: {gamma_n: abc}\n", 1),
    ("frames: {nvX: {axis: abc}}\n", 1),
    ("frames: {lab: {axis: [1, 1, 1]}}\n", 1),
])
def test_malformed_config_is_a_parse_error(tmp_path, capsys, text, line):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    example = Path(__file__).resolve().parents[1] / "data" / "measurements_example.txt"
    rc = main(["localize", str(example), "--samples", "200", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{line}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_bytes_that_are_not_utf8_are_a_parse_error(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_bytes(b"constants:\n  gamma_n: 10.7\xff\n")
    example = Path(__file__).resolve().parents[1] / "data" / "measurements_example.txt"
    rc = main(["localize", str(example), "--samples", "200", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: not UTF-8: byte 0xff" in err
    assert "Traceback" not in err


def test_simulate_from_traces_matches_model(tmp_path):
    opts = "[options]\nseed = 3\nfrom_traces = yes\n"
    meas_path = _run_simulate(tmp_path, options=opts)
    from spinloc import load_measurements
    nm = load_measurements(meas_path)["C1"]
    hf = dipole_tensor(SphericalPosition(8.3e-10, math.radians(58.0),
                                         math.radians(238.0)),
                       9e3, DEFAULT_CONSTANTS)
    from spinloc import precession_frequency
    zero = Vector3(np.zeros(3), "nv0")
    B0 = Vector3(np.array([0.0, 0.0, 9.502e-3]), "nv0")
    f0 = precession_frequency(B0, zero, hf, 0)
    f_m1 = precession_frequency(B0, zero, hf, -1)
    assert nm.inputs.f0 == pytest.approx(f0, abs=5.0)
    assert nm.inputs.f_m1 == pytest.approx(f_m1, abs=5.0)
    assert nm.inputs.sigma_f0 > 0.0


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _with_line(text: str, old: str, new: str):
    """text with the first ``old`` replaced by ``new``, and that line's
    1-based number."""
    head, sep, tail = text.partition(old)
    assert sep
    return head + new + tail, head.count("\n") + 1


def test_odmr_row_with_unknown_frame_is_a_parse_error(tmp_path, capsys):
    data = Path(__file__).resolve().parents[1] / "data"
    text, line = _with_line((data / "odmr_example.txt").read_text(),
                            "NV2 nv90 2.91", "NV2 nv7 2.91")
    path = tmp_path / "odmr.txt"
    path.write_text(text)
    assert main(["calibrate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: unknown frame 'nv7'" in err
    assert "Traceback" not in err


def test_measurement_record_with_unknown_frame_is_a_parse_error(tmp_path, capsys):
    data = Path(__file__).resolve().parents[1] / "data"
    text, line = _with_line((data / "measurements_example.txt").read_text(),
                            "frame = nv0", "frame = nv7")
    path = tmp_path / "measurements.txt"
    path.write_text(text)
    argv = ["localize", str(path), "--samples", "200", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: unknown frame 'nv7'" in err
    assert "Traceback" not in err
    # a frame that the config registers parses, and the fit then rejects it
    # for that nucleus alone
    cfg = tmp_path / "config.yaml"
    cfg.write_text("frames:\n  nv7:\n    axis: [1, 1, 1]\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "'nv7'" in report["failures"]["C1"]


@pytest.mark.parametrize("section,old,new,message", [
    ("[nucleus C1]", "f0_kHz = 101.700575171", "f0_kHz = 0", "need f0 > 0"),
    ("[record C1 coil2]", "sigma_fp0_kHz = 0.25\nfp_m1_kHz = 122.7",
     "sigma_fp0_kHz = 0\nfp_m1_kHz = 122.7", "coil2: sigma_fp0 must be positive"),
])
def test_measurements_value_out_of_range_is_a_parse_error(tmp_path, capsys, section,
                                                          old, new, message):
    # a finite value that the nucleus's inputs or a record reject is
    # malformed input, reported at the line of its section
    text = (Path(__file__).resolve().parents[1] / "data"
            / "measurements_example.txt").read_text()
    text, _ = _with_line(text, old, new)
    line = text[:text.index(section)].count("\n") + 1
    path = tmp_path / "measurements.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        load_measurements(path)
    assert exc.value.line == line
    argv = ["localize", str(path), "--samples", "200", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: " in err and message in err
    assert "Traceback" not in err


def test_truth_fields_with_unknown_frame_is_a_parse_error(tmp_path, capsys):
    truth = _truth_file(tmp_path)
    text, line = _with_line(truth.read_text(), "[fields coil2]\n",
                            "[fields coil2]\nframe = nv7\n")
    truth.write_text(text)
    assert main(["simulate", str(truth), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{truth}:{line + 1}: unknown frame 'nv7'" in err
    assert "Traceback" not in err


def _mixed_measurements(tmp_path):
    """A measurements file whose nuclei take every path of localize: three
    and two records with a_iso free and fixed, and nuclei that fail at the
    coupling extraction (E3), at the level crossing (X3) and at the Monte
    Carlo extraction gate (G3)."""
    noise = ("[noise]\nsigma_f_kHz = 0.1\nsigma_f_rabi_kHz = 0.1\n"
             "sigma_fp_kHz = 0.25\nsigma_B_mT = 0.015\n\n[options]\nseed = 5\n")

    def simulate(name, nuclei, coils):
        nuclei = "".join(
            f"[nucleus {label}]\nr_A = {r}\ntheta_deg = {theta}\n"
            f"phi_deg = {phi}\na_iso_kHz = {iso}\n\n"
            for label, r, theta, phi, iso in nuclei)
        truth = tmp_path / f"{name}.txt"
        truth.write_text("kind = truth\nversion = 1\n\n" + nuclei
                         + coils.format(b0="0.028 -0.056 9.502") + noise)
        assert main(["simulate", str(truth), "--out", str(tmp_path / name)]) == 0
        return load_measurements(tmp_path / name / "measurements.txt")

    nuclei = {
        **simulate("three", [("A3", 8.3, 58, 238, 9), ("B3", 12, 30, 100, 0),
                             ("E3", 9, 50, 20, 0), ("X3", 8.5, 60, 300, 2),
                             ("G3", 9.5, 45, 150, 0)], TRUTH_COILS),
        **simulate("two", [("C2", 7.5, 50, 60, 5), ("D2", 13, 40, 200, 0)],
                   TRUTH_COILS.split("[fields coil3]")[0]),
    }
    e3, x3, g3 = nuclei["E3"], nuclei["X3"], nuclei["G3"]
    nuclei["E3"] = replace(e3, inputs=replace(
        e3.inputs, f_rabi=0.1 * e3.inputs.f_rabi, tau=1.5 * e3.inputs.tau))
    crossing = DEFAULT_CONSTANTS.D / DEFAULT_CONSTANTS.gamma_e
    nuclei["X3"] = replace(x3, records=(x3.records[0], replace(
        x3.records[1], B0=Vector3(np.array([0.0, 0.0, crossing]), "nv0")),
        x3.records[2]))
    nuclei["G3"] = replace(g3, inputs=replace(
        g3.inputs, sigma_f0=1e4, sigma_f_m1=1e4, sigma_f_rabi=1e4))
    return {label: nuclei[label]
            for label in ("A3", "C2", "E3", "B3", "X3", "D2", "G3")}


def _localize_outputs(meas, out, *options):
    """(exit code, report, {file name: bytes} of the .tsv files)."""
    rc = main(["localize", str(meas), "--samples", "300", "--seed", "2",
               "--out", str(out), *options])
    report = json.loads((out / "report.json").read_text())
    return rc, report, {p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))}


def test_localize_many_nuclei_equals_each_alone(tmp_path, monkeypatch):
    # a small lane pool makes the Monte Carlo admissions straddle nuclei
    monkeypatch.setattr(localize, "_LANE_BLOCK", 96)
    nuclei = _mixed_measurements(tmp_path)
    meas = tmp_path / "mixed.txt"
    save_measurements(meas, nuclei)
    rc, report, files = _localize_outputs(meas, tmp_path / "all")
    assert rc == 1
    failures = report["failures"]
    assert set(failures) == {"E3", "X3", "G3"}
    assert "square root argument" in failures["E3"]
    assert "diverges" in failures["X3"]
    assert "failed the exact transformation" in failures["G3"]
    assert {(len(nuclei[label].records), entry["a_iso_mode"])
            for label, entry in report["nuclei"].items()} == {
        (3, "free"), (3, "fixed"), (2, "free"), (2, "fixed")}

    for label, nm in nuclei.items():
        alone = tmp_path / f"alone_{label}.txt"
        save_measurements(alone, {label: nm})
        _, single, single_files = _localize_outputs(alone, tmp_path / label)
        assert report["nuclei"].get(label) == single["nuclei"].get(label)
        assert failures.get(label) == single["failures"].get(label)
        assert single_files == {name: blob for name, blob in files.items()
                                if name.endswith(f"_{label}.tsv")}


@pytest.mark.parametrize("label", ["X_A", "x_deg"])
def test_localize_entry_does_not_depend_on_a_unit_suffixed_label(tmp_path, label):
    # the report converts each block by its keys' unit suffixes, never the
    # blocks keyed by nucleus labels
    root = Path(__file__).resolve().parents[1]
    c1 = load_measurements(root / "data" / "measurements_example.txt")["C1"]
    entries = []
    for name in ("X1", label):
        meas = tmp_path / f"{name}.txt"
        save_measurements(meas, {name: c1})
        _, report, _ = _localize_outputs(meas, tmp_path / name)
        entries.append(report["nuclei"][name])
    assert entries[0] == entries[1]


def test_localize_many_nuclei_bit_identical_across_parallel(tmp_path):
    meas = tmp_path / "mixed.txt"
    save_measurements(meas, _mixed_measurements(tmp_path))
    runs = []
    for chunks in ("1", "2", "3"):
        out = tmp_path / f"par{chunks}"
        rc, _, files = _localize_outputs(meas, out, "--parallel", chunks)
        runs.append((rc, (out / "report.json").read_bytes(), files))
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0][2]) == 4 * 6  # four nuclei localized, six files each


def test_localize_shows_setup_warnings_in_file_order(tmp_path):
    # the couplings of every nucleus are extracted before any is reported; a
    # warning of that step still comes after the lines of earlier nuclei
    root = Path(__file__).resolve().parents[1]
    c1 = load_measurements(root / "data" / "measurements_example.txt")["C1"]
    crossing = DEFAULT_CONSTANTS.D / DEFAULT_CONSTANTS.gamma_e
    meas = tmp_path / "measurements.txt"
    save_measurements(meas, {
        "A": replace(c1, records=(replace(c1.records[0], B0=Vector3(
            np.array([0.0, 0.0, crossing]), "nv0")), *c1.records[1:])),
        "B": replace(c1, inputs=replace(c1.inputs, tau=2.5 * c1.inputs.tau))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-m", "spinloc.cli", "localize", str(meas), "--samples",
         "200", "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=300)
    lines = child.stderr.splitlines()
    assert lines[0].startswith("A: FAILED: ")
    assert "UserWarning: tau=" in lines[1]
    assert lines[-1].startswith("B: FAILED: ")
