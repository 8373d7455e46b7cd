"""Command-line entry point.

Subcommands:
  calibrate      solve the lab-frame field from an ODMR line file
  localize       couplings, azimuth fit and Monte Carlo errors per nucleus
  simulate       generate a measurements file from a ground-truth file
  dft-residuals  compare a reference coupling table against the point model

Exit codes: 0 on success, 1 when the numerics fail (unidentifiable or
inconsistent data), 2 on unreadable or malformed input. The config file can
also be named through the SPINLOC_CONFIG environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .core import (DEFAULT_CONSTANTS, DEFAULT_REGISTRY, SENSOR_FRAME_NAME,
                   Vector3, load_config)
from .dipole import SphericalPosition, dft_residual_map, dipole_tensor, invert_dipole
from .dynamics import precession_frequency
from .errors import ParseError, SpinlocError
from .extract import CouplingInputs, extract_couplings, nominal_tau, rabi_frequency
from .fileio import (ANGSTROM, DEG, DISPLAY_UNITS, KHZ, MT, SIGMA_F_FLOOR,
                     NucleusMeasurements, load_dft_table, load_measurements,
                     load_odmr, load_truth, save_cost_curve, save_histogram,
                     save_measurements, save_residual_map, save_scatter,
                     write_json, write_text)
from .localize import (A_ISO_FIX_RADIUS, MeasurementRecord, assemble_position,
                       cost_curve)
from .montecarlo import CONFIDENCE_LEVELS, McConfig, histogram, propagate_many

CONFIG_ENV_VAR = "SPINLOC_CONFIG"

# floor applied when writing field sigmas the record contract requires positive
_SIGMA_B_FLOOR = 1e-12  # T

_HISTOGRAM_BINS = 48


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _load_environment(args):
    """Config file -> (constants, registry, provenance dict)."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        constants, registry, _ = load_config(path)
        prov = {"config": os.fspath(path), "config_sha256": _sha256(path)}
    else:
        constants, registry = DEFAULT_CONSTANTS, DEFAULT_REGISTRY
        prov = {"config": "defaults"}
    prov["package_version"] = __version__
    return constants, registry, prov


def _write_report(args, stem: str, report: dict) -> str:
    """<stem>.json, or <stem>.txt under --format text; returns the path."""
    if args.format == "json":
        path = os.path.join(args.out, f"{stem}.json")
        write_json(path, report)
    else:
        path = os.path.join(args.out, f"{stem}.txt")
        write_text(path, report)
    return path


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(args) -> int:
    from .calibrate import alignment_report, solve_field

    constants, registry, prov = _load_environment(args)
    dataset = load_odmr(args.odmr, registry)
    prov["input"] = os.fspath(args.odmr)
    prov["input_sha256"] = _sha256(args.odmr)
    sol = solve_field(dataset, registry=registry, constants=constants)
    align = alignment_report(sol, args.target, registry=registry)

    report = {
        "kind": "field-solution",
        "version": 1,
        "context": dataset.context,
        "frame": sol.B.frame,
        "B_mT": [c / MT for c in sol.B.components],
        "sigma_B_mT": [s / MT for s in sol.sigma],
        "residuals_MHz": [r / 1e6 for r in sol.residuals],
        "rms_residual_MHz": sol.rms_residual / 1e6,
        "branch_costs": list(sol.branch_costs),
        "condition": sol.condition,
        "alignment": {
            "frame": args.target,
            "transverse_uT": align.transverse / 1e-6,
            "tilt_deg": align.tilt_deg,
            "threshold_uT": align.threshold / 1e-6,
            "passed": align.passed,
        },
        "provenance": prov,
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = _write_report(args, "field_solution", report)
    bx, by, bz = report["B_mT"]
    print(f"B ({sol.B.frame} frame) = ({bx:+.4f}, {by:+.4f}, {bz:+.4f}) mT, "
          f"|B| = {sol.B.norm() / MT:.4f} mT")
    print(f"rms residual = {report['rms_residual_MHz']:.4f} MHz, "
          f"condition = {sol.condition:.3g}")
    print(f"alignment with {args.target}: transverse = "
          f"{report['alignment']['transverse_uT']:.2f} uT, "
          f"tilt = {align.tilt_deg:.4f} deg, "
          f"{'pass' if align.passed else 'FAIL'}")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# localize

def _parse_fix_a_iso(policy: str):
    """Flag text -> 'auto' | 'free' | contact value in Hz."""
    text = policy.strip().lower()
    if text in ("free", "none"):
        return "free"
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"--fix-a-iso must be 'auto', 'free' or a finite "
                         f"number in kHz, got {policy!r}")
    return value * KHZ


def _resolve_fix_a_iso(policy, a_par: float, a_perp: float, constants):
    """Parsed policy -> (fix value or None, 'fixed'|'free', why)."""
    if policy == "free":
        return None, "free", "forced free"
    if policy != "auto":
        return policy, "fixed", "fixed by flag"
    try:
        r0 = invert_dipole(a_par, a_perp, 0.0, constants).r
    except (SpinlocError, ValueError):
        return None, "free", "auto: couplings need a contact term"
    if r0 > A_ISO_FIX_RADIUS:
        return 0.0, "fixed", f"auto: r at zero contact = {r0 / ANGSTROM:.2f} A"
    return None, "free", f"auto: r at zero contact = {r0 / ANGSTROM:.2f} A"


def _display(**values) -> dict:
    """Monte Carlo parameters in SI -> {"<name>_<unit>": display value}."""
    out = {}
    for name, value in values.items():
        scale, unit = DISPLAY_UNITS[name]
        out[f"{name}_{unit}"] = value / scale
    return out


def _ci_json(ci: dict) -> dict:
    """rad/Hz/m intervals -> display units, levels as percent-string keys."""
    out = {}
    for name, levels in ci.items():
        s, unit = DISPLAY_UNITS[name]
        out[f"{name}_{unit}"] = {f"{100.0 * level:g}": [lo / s, hi / s]
                                 for level, (lo, hi) in levels.items()}
    return out


def cmd_localize(args) -> int:
    constants, registry, prov = _load_environment(args)
    nuclei = load_measurements(args.measurements, registry)
    prov["input"] = os.fspath(args.measurements)
    prov["input_sha256"] = _sha256(args.measurements)
    os.makedirs(args.out, exist_ok=True)

    mc = McConfig(n_samples=args.samples, seed=args.seed,
                  parallel_chunks=args.parallel)
    fix_policy = _parse_fix_a_iso(args.fix_a_iso)  # reject bad flags up front
    # the couplings and a_iso policy of each nucleus, then the point fits and
    # Monte Carlo samples of all of them together, then each one's report
    # entry and files, in file order; a nucleus that fails fails alone
    outcomes: dict = {}
    setups: dict = {}
    notes: dict = {}  # each nucleus's setup warnings, shown with its entry
    for label, nm in nuclei.items():
        with warnings.catch_warnings(record=True) as notes[label]:
            warnings.simplefilter("always")
            try:
                setups[label] = _setup_one(nm, constants, fix_policy)
            except (SpinlocError, ValueError) as exc:
                outcomes[label] = exc
    outcomes.update(zip(setups, propagate_many(
        [(nuclei[label].records, est, fix)
         for label, (est, fix, _, _) in setups.items()], mc, constants)))

    results: dict[str, dict] = {}
    failures: dict[str, str] = {}
    for label, nm in nuclei.items():
        for note in notes[label]:
            warnings.warn_explicit(note.message, note.category, note.filename,
                                   note.lineno, module=__name__,
                                   registry=globals().setdefault(
                                       "__warningregistry__", {}))
        try:
            if isinstance(outcomes[label], Exception):
                raise outcomes[label]
            results[label] = _report_one(label, nm, setups[label],
                                         outcomes[label], args, constants)
        except (SpinlocError, ValueError) as exc:
            failures[label] = str(exc)
            print(f"{label}: FAILED: {exc}", file=sys.stderr)

    report = {
        "kind": "localization-report",
        "version": 1,
        "mc": {"n_samples": mc.n_samples, "seed": mc.seed,
               "confidence_levels": list(CONFIDENCE_LEVELS)},
        "nuclei": results,
        "failures": failures,
        "provenance": prov,
    }
    print(f"wrote {_write_report(args, 'report', report)}")
    return 1 if failures else 0


def _setup_one(nm: NucleusMeasurements, constants, fix_policy):
    """(couplings with their inputs, a_iso fix or None, mode, why)."""
    ci_in = nm.inputs
    est = extract_couplings(ci_in.f0, ci_in.f_m1, ci_in.f_rabi, ci_in.tau)
    est = dataclasses.replace(est, inputs=ci_in)
    return (est, *_resolve_fix_a_iso(fix_policy, est.a_par, est.a_perp,
                                     constants))


def _report_one(label: str, nm: NucleusMeasurements, setup, result, args,
                constants) -> dict:
    est, _, mode, why = setup
    ci_in = nm.inputs
    fit = result.fit
    pos = assemble_position(est, fit, constants=constants)

    curve = cost_curve(nm.records, est, a_iso=fit.a_iso, constants=constants)
    save_cost_curve(os.path.join(args.out, f"cost_curve_{label}.tsv"), curve)
    save_scatter(os.path.join(args.out, f"scatter_{label}.tsv"), result.scatter)
    for name, (scale, unit) in DISPLAY_UNITS.items():
        hist = histogram(result.scatter, name, _HISTOGRAM_BINS)
        save_histogram(os.path.join(args.out, f"histogram_{name}_{label}.tsv"),
                       hist, scale=scale, unit=unit)

    point = _display(**result.point._asdict())
    entry = {
        "a_par_kHz": est.a_par / KHZ,
        "a_perp_kHz": est.a_perp / KHZ,
        "a_iso_mode": mode,
        "a_iso_note": why,
        "fit": {
            **_display(phi=fit.phi, a_iso=fit.a_iso),
            "residual_Hz": fit.residual,
            "degenerate_minima_deg": [v / DEG for v in fit.degenerate_minima],
        },
        "point": point,
        "ci": _ci_json(result.ci),
        "n_samples": result.n_samples,
        "n_failed": result.n_failed,
        "solver": result.solver._asdict(),
        "position": {
            **_display(r=pos.position.r, theta=pos.position.theta,
                       phi=pos.position.phi),
            "cartesian_A": [c / ANGSTROM for c in pos.cartesian],
            "cartesian_offset_A": [c / ANGSTROM for c in pos.cartesian_offset],
            "z_offset_A": pos.z_offset / ANGSTROM,
        },
    }
    if ci_in.sigma_f0 > 0.0 or ci_in.sigma_f_m1 > 0.0 or ci_in.sigma_f_rabi > 0.0:
        s_par, s_perp = result.coupling_sigma
        entry["sigma_a_par_kHz"] = s_par / KHZ
        entry["sigma_a_perp_kHz"] = s_perp / KHZ
    print(f"{label}: a_par = {est.a_par / KHZ:.3f} kHz, "
          f"a_perp = {est.a_perp / KHZ:.3f} kHz, "
          f"r = {point['r_A']:.3f} A, theta = {point['theta_deg']:.2f} deg, "
          f"phi = {point['phi_deg']:.2f} deg, "
          f"a_iso = {point['a_iso_kHz']:.2f} kHz "
          f"({mode}), {result.n_failed}/{result.n_samples} samples failed")
    return entry


# ---------------------------------------------------------------------------
# simulate

def simulate_measurements(truth, constants=DEFAULT_CONSTANTS
                          ) -> dict[str, NucleusMeasurements]:
    """Forward-model a truth spec into per-nucleus measurement inputs.

    The coil-off pair (f0, f_m1) is evaluated at the first configuration's
    static field with the coil off; f_rabi follows from the forward slow-
    oscillation relation at the chosen half-interval. One record is made per
    field configuration. Noise is drawn from a single counter-based stream
    keyed by the truth seed, in file order: per nucleus first the three
    coupling lines (trace-based when from_traces is set), then per record
    fp0, fp_m1 and the six field components. Equal seeds give identical
    files regardless of the output path.
    """
    frames = {cfg.B0.frame for cfg in truth.fields}
    if len(frames) != 1:
        raise ValueError(f"all field configurations must share one frame, "
                         f"got {sorted(frames)}")
    frame = frames.pop()
    rng = np.random.Generator(np.random.Philox(key=truth.seed))
    noise = truth.noise
    zero = Vector3(np.zeros(3), frame)
    out: dict[str, NucleusMeasurements] = {}
    for nuc in truth.nuclei:
        hf = dipole_tensor(SphericalPosition(nuc.r, nuc.theta, nuc.phi),
                           nuc.a_iso, constants)
        B0 = truth.fields[0].B0
        f0 = precession_frequency(B0, zero, hf, 0, constants=constants)
        f_m1 = precession_frequency(B0, zero, hf, -1, constants=constants)
        tau = truth.tau if truth.tau is not None else nominal_tau(f0, f_m1)
        f_rabi = rabi_frequency(f0, hf.a_par, hf.a_perp, tau)
        if truth.from_traces:
            f0_m, f_m1_m, s_f = _lines_from_trace(f0, f_m1, noise.sigma_f, rng)
            f_rabi_m = f_rabi + rng.standard_normal() * noise.sigma_f_rabi
        else:
            f0_m = f0 + rng.standard_normal() * noise.sigma_f
            f_m1_m = f_m1 + rng.standard_normal() * noise.sigma_f
            f_rabi_m = f_rabi + rng.standard_normal() * noise.sigma_f_rabi
            s_f = noise.sigma_f
        inputs = CouplingInputs(
            f0=f0_m, f_m1=f_m1_m, f_rabi=f_rabi_m, tau=tau,
            sigma_f0=s_f, sigma_f_m1=s_f, sigma_f_rabi=noise.sigma_f_rabi)

        records = []
        for cfg in truth.fields:
            fp0 = precession_frequency(cfg.B0, cfg.dB, hf, 0, constants=constants)
            fp_m1 = precession_frequency(cfg.B0, cfg.dB, hf, -1, constants=constants)
            if truth.from_traces:
                fp0_m, fp_m1_m, s_fp = _lines_from_trace(fp0, fp_m1,
                                                         noise.sigma_fp, rng)
            else:
                fp0_m = fp0 + rng.standard_normal() * noise.sigma_fp
                fp_m1_m = fp_m1 + rng.standard_normal() * noise.sigma_fp
                s_fp = noise.sigma_fp
            B0_m = cfg.B0.components + rng.standard_normal(3) * noise.sigma_B
            dB_m = cfg.dB.components + rng.standard_normal(3) * noise.sigma_B
            records.append(MeasurementRecord(
                label=cfg.label,
                f0=inputs.f0, sigma_f0=max(s_f, SIGMA_F_FLOOR),
                f_m1=inputs.f_m1, sigma_f_m1=max(s_f, SIGMA_F_FLOOR),
                fp0=fp0_m, sigma_fp0=max(s_fp, SIGMA_F_FLOOR),
                fp_m1=fp_m1_m, sigma_fp_m1=max(s_fp, SIGMA_F_FLOOR),
                B0=Vector3(B0_m, frame),
                sigma_B0=np.full(3, max(noise.sigma_B, _SIGMA_B_FLOOR)),
                dB=Vector3(dB_m, frame),
                sigma_dB=np.full(3, max(noise.sigma_B, _SIGMA_B_FLOOR))))
        out[nuc.label] = NucleusMeasurements(label=nuc.label, inputs=inputs,
                                             records=tuple(records))
    return out


def _lines_from_trace(f_lo: float, f_hi: float, sigma: float, rng):
    """Estimate a line pair from a synthesized two-tone trace.

    The trace carries white noise scaled so the fitted line uncertainty is
    of order sigma; the fitted sigma_f is what gets reported downstream.
    """
    from .signal import estimate_frequencies, synth_trace

    n = 4096
    dt = 1.0 / (5.0 * f_hi)
    trace_seed = int(rng.integers(0, 2 ** 63))
    # amplitude noise chosen empirically; 0 sigma still goes through the fit
    noise_amp = 0.0 if sigma == 0.0 else 0.05
    trace = synth_trace([(f_lo, 1.0, 0.0), (f_hi, 0.8, 0.4)],
                        duration=n * dt, dt=dt, noise_sigma=noise_amp,
                        seed=trace_seed)
    lo, hi = estimate_frequencies(trace, 2)
    sigma_f = max(lo.sigma_f, hi.sigma_f, sigma)
    return lo.f, hi.f, sigma_f


def cmd_simulate(args) -> int:
    constants, registry, prov = _load_environment(args)
    truth = load_truth(args.truth, registry)
    if args.seed is not None:
        truth = dataclasses.replace(truth, seed=args.seed)
    nuclei = simulate_measurements(truth, constants)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "measurements.txt")
    save_measurements(out_path, nuclei)
    for label, nm in nuclei.items():
        print(f"{label}: f0 = {nm.inputs.f0 / KHZ:.4f} kHz, "
              f"f_m1 = {nm.inputs.f_m1 / KHZ:.4f} kHz, "
              f"f_rabi = {nm.inputs.f_rabi / KHZ:.4f} kHz, "
              f"{len(nm.records)} records")
    print(f"wrote {out_path} (seed = {truth.seed})")
    return 0


# ---------------------------------------------------------------------------
# dft-residuals

def cmd_dft_residuals(args) -> int:
    constants, _, prov = _load_environment(args)
    rows = load_dft_table(args.table)
    prov["input"] = os.fspath(args.table)
    prov["input_sha256"] = _sha256(args.table)
    rmap = dft_residual_map(rows, constants, bin_width=args.bin_width * ANGSTROM)
    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "dft_residuals.tsv")
    save_residual_map(table_path, rmap)
    report = {
        "kind": "dft-residuals",
        "version": 1,
        "n_total": rmap.n_total,
        "n_failed": len(rmap.failures),
        "failures": list(rmap.failures),
        "bins": [{"r_lo_A": b.r_lo / ANGSTROM, "r_hi_A": b.r_hi / ANGSTROM,
                  "n_sites": b.n_sites,
                  "median_abs_dr_A": b.median_abs_dr / ANGSTROM,
                  "median_abs_dtheta_deg": math.degrees(b.median_abs_dtheta)}
                 for b in rmap.bins],
        "provenance": prov,
    }
    report_path = _write_report(args, "dft_residuals", report)
    for b in rmap.bins:
        print(f"r in [{b.r_lo / ANGSTROM:5.2f}, {b.r_hi / ANGSTROM:5.2f}) A: "
              f"{b.n_sites:4d} sites, median |dr| = "
              f"{b.median_abs_dr / ANGSTROM:.3f} A, median |dtheta| = "
              f"{math.degrees(b.median_abs_dtheta):.3f} deg")
    if rmap.failures:
        print(f"{len(rmap.failures)}/{rmap.n_total} rows not invertible",
              file=sys.stderr)
    print(f"wrote {table_path} and {report_path}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinloc",
        description="Nuclear-spin localization from switchable-field "
                    "precession spectroscopy.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, report=True):
        p.add_argument("--config", default=None,
                       help=f"constants/frames config file "
                            f"(default: ${CONFIG_ENV_VAR} if set)")
        p.add_argument("--out", default=".", help="output directory")
        if report:
            p.add_argument("--format", choices=("json", "text"), default="json",
                           help="report format (default: json)")

    p = sub.add_parser("calibrate", help="solve the field from ODMR lines")
    p.add_argument("odmr", help="ODMR line file")
    p.add_argument("--target", default=SENSOR_FRAME_NAME,
                   help="frame whose axis the field should align with")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("localize", help="fit nuclear positions with errors")
    p.add_argument("measurements", help="measurements file")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.add_argument("--samples", type=int, default=40_000,
                   help="Monte Carlo sample count")
    p.add_argument("--parallel", type=int, default=1,
                   help="sample chunks, run one after another (results "
                        "identical for any value)")
    p.add_argument("--fix-a-iso", default="auto", metavar="VALUE",
                   help="'auto' (default), 'free', or a fixed contact term "
                        "in kHz")
    common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("simulate", help="measurements file from a truth file")
    p.add_argument("truth", help="ground-truth file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the truth file's noise seed")
    common(p, report=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dft-residuals",
                       help="point-model residuals for a coupling table")
    p.add_argument("table", help="reference coupling table")
    p.add_argument("--bin-width", type=float, default=2.0,
                   help="radial bin width in Angstrom (default 2)")
    common(p)
    p.set_defaults(func=cmd_dft_residuals)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
