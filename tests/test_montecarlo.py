import dataclasses
import math

import numpy as np
import pytest

from spinloc import (
    APPROXIMATE,
    EXACT,
    ConvergenceError,
    CouplingEstimate,
    CouplingInputs,
    EstimateResult,
    InconsistentInputError,
    McConfig,
    MeasurementRecord,
    PointEstimate,
    SphericalPosition,
    Vector3,
    circular_mean,
    dipole_tensor,
    extract_couplings,
    fit_azimuth,
    histogram,
    invert_dipole,
    nominal_tau,
    precession_frequency,
    propagate,
    rabi_frequency,
    secular_couplings,
)
from spinloc import localize, montecarlo

ANGSTROM = 1e-10

_B0 = (0.028e-3, -0.056e-3, 9.502e-3)
_COILS = (
    (-1.715e-3, 0.614e-3, -1.547e-3),
    (0.9e-3, -1.4e-3, 0.3e-3),
    (-0.4e-3, -1.1e-3, 1.0e-3),
)
_TRUTH = SphericalPosition(8.3 * ANGSTROM, math.radians(58.0), math.radians(238.0))
_A_ISO = 9e3


def _build(noise=1.0, coils=_COILS):
    """Noiseless synthetic records and a coupling estimate that carries its
    raw frequency inputs; ``noise`` scales every quoted 1-sigma."""
    hf = dipole_tensor(_TRUTH, _A_ISO)
    B0 = Vector3(np.asarray(_B0), "nv0")
    zero = Vector3(np.zeros(3), "nv0")
    f0 = precession_frequency(B0, zero, hf, 0)
    f_m1 = precession_frequency(B0, zero, hf, -1)
    a_par, a_perp = secular_couplings(_TRUTH.r, _TRUTH.theta, _A_ISO)
    tau = nominal_tau(f0, f_m1)
    f_rabi = rabi_frequency(f0, a_par, a_perp, tau)
    inputs = CouplingInputs(f0=f0, f_m1=f_m1, f_rabi=f_rabi, tau=tau,
                            sigma_f0=noise * 100.0, sigma_f_m1=noise * 100.0,
                            sigma_f_rabi=noise * 100.0)
    est = extract_couplings(f0, f_m1, f_rabi, tau)
    coupling = CouplingEstimate(est.a_par, est.a_perp, EXACT, inputs=inputs)
    records = []
    for k, db in enumerate(coils):
        dB = Vector3(np.asarray(db), "nv0")
        records.append(MeasurementRecord(
            label=f"cfg{k}", f0=f0, sigma_f0=noise * 100.0,
            f_m1=f_m1, sigma_f_m1=noise * 100.0,
            fp0=precession_frequency(B0, dB, hf, 0), sigma_fp0=noise * 300.0,
            fp_m1=precession_frequency(B0, dB, hf, -1), sigma_fp_m1=noise * 200.0,
            B0=B0, sigma_B0=noise * 15e-6, dB=dB, sigma_dB=noise * 15e-6))
    return records, coupling


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_samples=50)
    with pytest.raises(ValueError):
        McConfig(parallel_chunks=0)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            McConfig(seed=seed)


def test_result_scatter_shape_validation():
    pt = PointEstimate(1.0, 0.0, 8e-10, 1.0)
    with pytest.raises(ValueError):
        EstimateResult(point=pt, ci={},
                       scatter=np.zeros((5, 4)), n_samples=10, n_failed=0)


def test_coupling_must_carry_inputs_or_sigmas():
    records, coupling = _build()
    bare = CouplingEstimate(coupling.a_par, coupling.a_perp, EXACT)
    with pytest.raises(ValueError):
        propagate(records, bare, McConfig(n_samples=200))


def test_point_estimate_matches_direct_fit():
    records, coupling = _build()
    result = propagate(records, coupling, McConfig(n_samples=200, seed=4))
    fit = fit_azimuth(records, coupling)
    pos = invert_dipole(coupling.a_par, coupling.a_perp, fit.a_iso)
    assert result.point.phi == fit.phi
    assert result.point.a_iso == fit.a_iso
    assert result.point.r == pos.r
    assert result.point.theta == pos.theta
    # the extraction sees the full static vector while the couplings are
    # defined against its axis; phi survives that systematic, a_iso (weakly
    # constrained by three coil differences) absorbs most of it
    assert result.point.phi == pytest.approx(_TRUTH.phi, abs=5e-3)


def test_seed_determinism_and_chunk_invariance():
    records, coupling = _build()
    base = McConfig(n_samples=400, seed=11)
    r1 = propagate(records, coupling, base)
    r2 = propagate(records, coupling, McConfig(n_samples=400, seed=11,
                                               parallel_chunks=4))
    np.testing.assert_array_equal(r1.scatter, r2.scatter)
    assert r1.ci == r2.ci
    assert r1.coupling_sigma == r2.coupling_sigma
    r3 = propagate(records, coupling, McConfig(n_samples=400, seed=12))
    assert not np.array_equal(r1.scatter, r3.scatter)


def test_lane_blocks_do_not_change_the_scatter(monkeypatch):
    records, coupling = _build()
    base = propagate(records, coupling, McConfig(n_samples=400, seed=11))
    monkeypatch.setattr(montecarlo, "_LANE_BLOCK", 64)
    for chunks in (1, 4):
        blocked = propagate(records, coupling, McConfig(
            n_samples=400, seed=11, parallel_chunks=chunks))
        np.testing.assert_array_equal(blocked.scatter, base.scatter)
        assert blocked.solver == base.solver
        assert blocked.ci == base.ci


def test_draws_match_fresh_keyed_generators():
    idx = np.array([0, 1, 57, 4099])
    draws = montecarlo._draws(idx, 21, 27)
    for row, i in zip(draws, idx):
        ref = np.random.Generator(
            np.random.Philox(key=[21, int(i)])).standard_normal(27)
        np.testing.assert_array_equal(row, ref)


def test_solver_stats_count_the_samples():
    records, coupling = _build()
    result = propagate(records, coupling, McConfig(n_samples=300, seed=3))
    stats = result.solver
    assert all(type(v) is int for v in stats)
    assert 1 <= stats.max_iterations <= localize._LM_MAX_ITER
    # the published noise keeps every sample inside its box and converged
    assert stats.unconverged == 0
    assert stats.at_bound == 0


def test_scatter_matches_per_sample_reference_fits():
    # re-derive a handful of samples through the scalar pipeline: same keyed
    # draws, extraction and a fresh global fit, then compare to the scatter
    records, coupling = _build()
    seed = 21
    result = propagate(records, coupling, McConfig(n_samples=200, seed=seed))
    assert result.n_failed == 0
    inputs = coupling.inputs
    n_draws = 3 + 8 * len(records)
    for i in (0, 1, 57, 102, 150, 199):
        draws = np.random.Generator(
            np.random.Philox(key=[seed, i])).standard_normal(n_draws)
        est = extract_couplings(inputs.f0 + inputs.sigma_f0 * draws[0],
                                inputs.f_m1 + inputs.sigma_f_m1 * draws[1],
                                inputs.f_rabi + inputs.sigma_f_rabi * draws[2],
                                inputs.tau)
        perturbed = []
        k = 3
        for rec in records:
            B0 = rec.B0.components + rec.sigma_B0 * draws[k + 2:k + 5]
            dB = rec.dB.components + rec.sigma_dB * draws[k + 5:k + 8]
            perturbed.append(MeasurementRecord(
                label=rec.label, f0=rec.f0, sigma_f0=rec.sigma_f0,
                f_m1=rec.f_m1, sigma_f_m1=rec.sigma_f_m1,
                fp0=rec.fp0 + rec.sigma_fp0 * draws[k],
                sigma_fp0=rec.sigma_fp0,
                fp_m1=rec.fp_m1 + rec.sigma_fp_m1 * draws[k + 1],
                sigma_fp_m1=rec.sigma_fp_m1,
                B0=Vector3(B0, rec.B0.frame), sigma_B0=rec.sigma_B0,
                dB=Vector3(dB, rec.dB.frame), sigma_dB=rec.sigma_dB))
            k += 8
        ref = fit_azimuth(perturbed, est)
        row = result.scatter[i]
        dphi = abs((row[0] - ref.phi + math.pi) % (2 * math.pi) - math.pi)
        assert dphi < math.radians(1e-3)
        assert abs(row[1] - ref.a_iso) < 5.0
        pos = invert_dipole(est.a_par, est.a_perp, ref.a_iso)
        assert row[2] == pytest.approx(pos.r, rel=1e-6)
        assert row[3] == pytest.approx(pos.theta, abs=1e-6)


def test_fixed_contact_term_path():
    records, coupling = _build()
    result = propagate(records, coupling, McConfig(n_samples=300, seed=2),
                       fix_a_iso=_A_ISO)
    np.testing.assert_array_equal(result.scatter[:, 1], np.full(300, _A_ISO))
    lo, hi = result.ci["a_iso"][0.95]
    assert lo == hi == _A_ISO
    assert result.point.a_iso == _A_ISO


def test_confidence_interval_covers_truth():
    records, coupling = _build()
    result = propagate(records, coupling, McConfig(n_samples=1000, seed=7))
    lo, hi = result.ci["phi"][0.95]
    assert lo <= _TRUTH.phi <= hi
    assert hi - lo < math.radians(30.0)
    lo68, hi68 = result.ci["phi"][0.6827]
    assert hi68 - lo68 < hi - lo
    lo_r, hi_r = result.ci["r"][0.95]
    assert lo_r <= _TRUTH.r <= hi_r


def test_interval_width_scales_with_noise():
    def width(noise, seed=13):
        records, coupling = _build(noise=noise)
        result = propagate(records, coupling, McConfig(n_samples=1500, seed=seed))
        lo, hi = result.ci["phi"][0.95]
        return hi - lo

    w1 = width(1.0)
    w2 = width(2.0)
    assert w2 == pytest.approx(2.0 * w1, rel=0.25)


def test_hopeless_noise_aborts(monkeypatch):
    records, coupling = _build(noise=80.0)
    mc = McConfig(n_samples=200, seed=1)
    # most failures are frequency triplets that do not extract, and that
    # gate comes first
    with pytest.raises(InconsistentInputError, match="exact transformation"):
        propagate(records, coupling, mc)
    monkeypatch.setattr(montecarlo, "MAX_EXTRACTION_FAILURE_FRACTION", 1.0)
    with pytest.raises(ConvergenceError):
        propagate(records, coupling, mc)


def test_coupling_sigma_scales_linearly_with_input_noise():
    def sigmas(noise):
        records, coupling = _build(noise=noise)
        return propagate(records, coupling,
                         McConfig(n_samples=1000, seed=5)).coupling_sigma

    one = sigmas(1.0)
    two = sigmas(2.0)
    assert one[0] > 0.0 and one[1] > 0.0
    assert two[0] == pytest.approx(2.0 * one[0], rel=0.05)
    assert two[1] == pytest.approx(2.0 * one[1], rel=0.05)


def test_coupling_sigma_approximate_matches_analytic():
    records, coupling = _build()
    inputs = coupling.inputs
    approx = dataclasses.replace(
        extract_couplings(inputs.f0, inputs.f_m1, inputs.f_rabi, inputs.tau,
                          method=APPROXIMATE), inputs=inputs)
    result = propagate(records, approx, McConfig(n_samples=20_000, seed=1))
    # difference of two independent normals and a pi-scaled one
    assert result.coupling_sigma[0] == pytest.approx(math.sqrt(2.0) * 100.0, rel=0.02)
    assert result.coupling_sigma[1] == pytest.approx(math.pi * 100.0, rel=0.02)


def test_circular_mean_wraps():
    m = circular_mean(np.radians([359.0, 1.0]))
    assert min(m, 2.0 * math.pi - m) < 1e-9
    assert circular_mean(np.radians([170.0, 190.0])) == pytest.approx(math.pi)


def test_histogram_marginals():
    rng = np.random.Generator(np.random.Philox(key=3))
    n = 500
    phis = (math.radians(350.0) + 0.2 * rng.standard_normal(n)) % (2 * math.pi)
    scatter = np.column_stack([phis, rng.standard_normal(n),
                               8e-10 + 1e-12 * rng.standard_normal(n),
                               1.0 + 0.01 * rng.standard_normal(n)])
    h = histogram(scatter, "phi", bins=32)
    assert h.circular
    assert int(h.counts.sum()) == n
    assert len(h.edges) == 33
    # a mode straddling the wrap stays contiguous in recentered coordinates
    centers = 0.5 * (h.edges[:-1] + h.edges[1:])
    mode_center = centers[int(np.argmax(h.counts))] % (2 * math.pi)
    dist = abs(mode_center - math.radians(350.0))
    assert min(dist, 2 * math.pi - dist) < 0.2  # within about one bin width

    hr = histogram(scatter, "r", bins=16)
    assert not hr.circular
    assert int(hr.counts.sum()) == n

    with pytest.raises(ValueError):
        histogram(scatter, "radius", bins=16)
    with pytest.raises(ValueError):
        histogram(scatter, "phi", bins=1)
    with pytest.raises(ValueError):
        histogram(np.zeros((0, 4)), "phi", bins=8)
