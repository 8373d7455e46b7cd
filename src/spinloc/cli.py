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

from . import __version__
from .core import DEFAULT_CONSTANTS, DEFAULT_REGISTRY, SENSOR_FRAME_NAME, load_config
from .dipole import SphericalPosition, invert_dipole
from .errors import ParseError, SpinlocError
from .extract import extract_couplings
from .fileio import (ANGSTROM, KHZ, PARAMETER_COLUMNS, NucleusMeasurements, in_units,
                     load_measurements, save_cost_curve, save_histogram,
                     save_measurements, save_scatter, write_json, write_text)
from .localize import A_ISO_FIX_RADIUS, SPIN_DENSITY_CENTER_OFFSET, cost_curve
from .montecarlo import CONFIDENCE_LEVELS, McConfig, histogram, propagate_many

CONFIG_ENV_VAR = "SPINLOC_CONFIG"

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
        constants, registry = load_config(path)
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
    from .calibrate import alignment_report, load_odmr, solve_field

    constants, registry, prov = _load_environment(args)
    if args.target not in registry:
        raise ValueError(f"--target: unknown frame {args.target!r}; registered: "
                         f"{registry.names()}")
    dataset = load_odmr(args.odmr, registry)
    prov["input"] = os.fspath(args.odmr)
    prov["input_sha256"] = _sha256(args.odmr)
    sol = solve_field(dataset, registry=registry, constants=constants)
    align = alignment_report(sol, args.target, registry=registry)

    report = in_units({
        "kind": "field-solution",
        "version": 1,
        "context": dataset.context,
        "frame": sol.B.frame,
        "B_mT": sol.B.components,
        "sigma_B_mT": sol.sigma,
        "residuals_MHz": sol.residuals,
        "rms_residual_MHz": sol.rms_residual,
        "branch_costs": list(sol.branch_costs),
        "condition": sol.condition,
        "alignment": in_units({
            "frame": args.target,
            "transverse_uT": align.transverse,
            "tilt_deg": align.tilt,
            "threshold_uT": align.threshold,
            "passed": align.passed,
        }),
        "provenance": prov,
    })
    os.makedirs(args.out, exist_ok=True)
    out_path = _write_report(args, "field_solution", report)
    bx, by, bz = report["B_mT"]
    print(f"B ({sol.B.frame} frame) = ({bx:+.4f}, {by:+.4f}, {bz:+.4f}) mT, "
          f"|B| = {math.hypot(bx, by, bz):.4f} mT")
    print(f"rms residual = {report['rms_residual_MHz']:.4f} MHz, "
          f"condition = {sol.condition:.3g}")
    print(f"alignment with {args.target}: transverse = "
          f"{report['alignment']['transverse_uT']:.2f} uT, "
          f"tilt = {report['alignment']['tilt_deg']:.4f} deg, "
          f"{'pass' if align.passed else 'FAIL'}")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# localize

def _parse_fix_a_iso(policy: str):
    """Flag text -> 'auto' | 'free' | contact value in Hz."""
    text = policy.strip().lower()
    if text in ("free", "auto"):
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"--fix-a-iso must be 'auto', 'free' or a finite "
                         f"number in kHz, got {policy!r}")
    return value * KHZ


def _resolve_fix_a_iso(policy, a_par: float, a_perp: float, constants):
    """Parsed policy -> (fix value or None, its report fields in SI)."""
    if policy == "free":
        return None, {"a_iso_mode": "free", "a_iso_note": "forced free"}
    if policy != "auto":
        return policy, {"a_iso_mode": "fixed", "a_iso_note": "fixed by flag"}
    try:
        r0 = invert_dipole(a_par, a_perp, 0.0, constants).r
    except (SpinlocError, ValueError):
        return None, {"a_iso_mode": "free",
                      "a_iso_note": "auto: couplings need a contact term"}
    fix = 0.0 if r0 > A_ISO_FIX_RADIUS else None
    return fix, {"a_iso_mode": "free" if fix is None else "fixed",
                 "a_iso_note": "auto: r at zero contact", "r_zero_contact_A": r0}


def cmd_localize(args) -> int:
    # reject bad flags up front, before any input is read or output written
    if args.parallel < 1:
        raise ValueError(f"--parallel must be positive, got {args.parallel!r}")
    mc = McConfig(n_samples=args.samples, seed=args.seed)
    fix_policy = _parse_fix_a_iso(args.fix_a_iso)
    constants, registry, prov = _load_environment(args)
    nuclei = load_measurements(args.measurements, registry)
    prov["input"] = os.fspath(args.measurements)
    prov["input_sha256"] = _sha256(args.measurements)
    os.makedirs(args.out, exist_ok=True)

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
         for label, (est, fix, _) in setups.items()], mc, constants)))

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
    """(couplings with their inputs, a_iso fix or None, a_iso report fields)."""
    ci_in = nm.inputs
    est = extract_couplings(ci_in.f0, ci_in.f_m1, ci_in.f_rabi, ci_in.tau)
    est = dataclasses.replace(est, inputs=ci_in)
    return (est, *_resolve_fix_a_iso(fix_policy, est.a_par, est.a_perp,
                                     constants))


def _report_one(label: str, nm: NucleusMeasurements, setup, result, args,
                constants) -> dict:
    est, _, a_iso_fields = setup
    ci_in = nm.inputs
    fit = result.fit

    curve = cost_curve(nm.records, est, a_iso=fit.a_iso, constants=constants)
    save_cost_curve(os.path.join(args.out, f"cost_curve_{label}.tsv"), curve)
    save_scatter(os.path.join(args.out, f"scatter_{label}.tsv"), result.scatter)
    for name, column in PARAMETER_COLUMNS.items():
        hist = histogram(result.scatter, name, _HISTOGRAM_BINS)
        save_histogram(os.path.join(args.out, f"histogram_{name}_{label}.tsv"),
                       hist, column)

    pos = SphericalPosition(result.point.r, result.point.theta, result.point.phi)
    cart = pos.cartesian()
    entry = {
        "a_par_kHz": est.a_par,
        "a_perp_kHz": est.a_perp,
        **a_iso_fields,
        "fit": in_units({"phi_deg": fit.phi, "a_iso_kHz": fit.a_iso,
                         "residual_Hz": fit.residual,
                         "degenerate_minima_deg": fit.degenerate_minima}),
        "point": in_units({PARAMETER_COLUMNS[name]: value
                           for name, value in result.point._asdict().items()}),
        "ci": in_units({PARAMETER_COLUMNS[name]: {f"{100.0 * level:g}": bounds
                                                  for level, bounds in levels.items()}
                        for name, levels in result.ci.items()}),
        "n_samples": result.n_samples,
        "n_failed": result.n_failed,
        "solver": result.solver._asdict(),
        "position": in_units({
            "r_A": pos.r, "theta_deg": pos.theta, "phi_deg": pos.phi,
            "cartesian_A": cart,
            "cartesian_offset_A": cart + [0.0, 0.0, SPIN_DENSITY_CENTER_OFFSET],
            "z_offset_A": SPIN_DENSITY_CENTER_OFFSET}),
    }
    if ci_in.sigma_f0 > 0.0 or ci_in.sigma_f_m1 > 0.0 or ci_in.sigma_f_rabi > 0.0:
        entry["sigma_a_par_kHz"], entry["sigma_a_perp_kHz"] = result.coupling_sigma
    entry = in_units(entry)
    point = entry["point"]
    print(f"{label}: a_par = {entry['a_par_kHz']:.3f} kHz, "
          f"a_perp = {entry['a_perp_kHz']:.3f} kHz, "
          f"r = {point['r_A']:.3f} A, theta = {point['theta_deg']:.2f} deg, "
          f"phi = {point['phi_deg']:.2f} deg, "
          f"a_iso = {point['a_iso_kHz']:.2f} kHz "
          f"({entry['a_iso_mode']}), {result.n_failed}/{result.n_samples} samples failed")
    return entry


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    from .simulate import load_truth, simulate_measurements

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
    from .dft import BIN_COLUMNS, dft_residual_map, load_dft_table, save_residual_map

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
        "bins": [in_units(dict(zip(BIN_COLUMNS, dataclasses.astuple(b)))) for b in rmap.bins],
        "provenance": prov,
    }
    report_path = _write_report(args, "dft_residuals", report)
    for b in report["bins"]:
        print(f"r in [{b['r_lo_A']:5.2f}, {b['r_hi_A']:5.2f}) A: "
              f"{b['n_sites']:4d} sites, median |dr| = "
              f"{b['median_abs_dr_A']:.3f} A, median |dtheta| = "
              f"{b['median_abs_dtheta_deg']:.3f} deg")
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
                   help="accepted for compatibility; has no effect "
                        "(must be positive)")
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
