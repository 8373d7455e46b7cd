import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinloc import (
    APPROXIMATE,
    DEFAULT_CONSTANTS,
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
from spinloc.extract import _extract_arrays

ANGSTROM = 1e-10

_B0 = (0.028e-3, -0.056e-3, 9.502e-3)
_COILS = (
    (-1.715e-3, 0.614e-3, -1.547e-3),
    (0.9e-3, -1.4e-3, 0.3e-3),
    (-0.4e-3, -1.1e-3, 1.0e-3),
)
_TRUTH = SphericalPosition(8.3 * ANGSTROM, math.radians(58.0), math.radians(238.0))
_A_ISO = 9e3


def _build(noise=1.0, coils=_COILS, truth=_TRUTH, a_iso=_A_ISO):
    """Noiseless synthetic records and a coupling estimate that carries its
    raw frequency inputs; ``noise`` scales every quoted 1-sigma."""
    hf = dipole_tensor(truth, a_iso)
    B0 = Vector3(np.asarray(_B0), "nv0")
    zero = Vector3(np.zeros(3), "nv0")
    f0 = precession_frequency(B0, zero, hf, 0)
    f_m1 = precession_frequency(B0, zero, hf, -1)
    a_par, a_perp = secular_couplings(truth.r, truth.theta, a_iso)
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
            label=f"cfg{k}",
            fp0=precession_frequency(B0, dB, hf, 0), sigma_fp0=noise * 300.0,
            fp_m1=precession_frequency(B0, dB, hf, -1), sigma_fp_m1=noise * 200.0,
            B0=B0, sigma_B0=noise * 15e-6, dB=dB, sigma_dB=noise * 15e-6))
    return records, coupling


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_samples=50)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            McConfig(seed=seed)


def test_result_scatter_shape_validation():
    pt = PointEstimate(1.0, 0.0, 8e-10, 1.0)
    with pytest.raises(ValueError):
        EstimateResult(point=pt, ci={},
                       scatter=np.zeros((5, 4)), n_samples=10, n_failed=0)


def test_hand_built_result_owns_a_frozen_copy():
    # every caller's array is copied and frozen, read-only ones too (an
    # array that owns its data can be made writable again); only
    # _estimate's, handed over with _adopt, is kept without a copy
    pt = PointEstimate(1.0, 0.0, 8e-10, 1.0)
    for writable in (True, False):
        scatter = np.zeros((3, 4))
        scatter.setflags(write=writable)
        result = EstimateResult(point=pt, ci={}, scatter=scatter, n_samples=3,
                                n_failed=0)
        scatter.setflags(write=True)
        scatter[0, 0] = 1.0
        assert result.scatter[0, 0] == 0.0
        assert not result.scatter.flags.writeable
    frozen = np.zeros((3, 4))
    frozen.setflags(write=False)
    assert EstimateResult(point=pt, ci={}, scatter=frozen, n_samples=3,
                          n_failed=0, _adopt=True).scatter is frozen


@settings(max_examples=30, deadline=None)
@given(n=st.integers(100, 5000), levels=st.integers(1, 50),
       tied=st.floats(0.0, 1.0), scale=st.floats(1e-6, 1e6),
       seed=st.integers(0, 2 ** 32),
       probs=st.lists(st.floats(0.0, 1.0), max_size=16))
def test_quantiles_match_numpy_bit_for_bit(n, levels, tied, scale, seed, probs):
    # columns of distinct values and columns with a share of ties, zeros of
    # both signs among them, at the reported tails and at random
    # probabilities; the two sides of numpy's interpolation differ in the
    # last bit in about one column in a hundred, so each example draws many
    rng = np.random.default_rng(seed)
    tails = [p for lv in montecarlo.CONFIDENCE_LEVELS
             for p in ((1.0 - lv) / 2.0, 1.0 - (1.0 - lv) / 2.0)] + probs
    for _ in range(20):
        distinct = rng.normal(size=n) * scale
        values = distinct.copy()
        ties = rng.random(n) < tied
        # rounding gives zeros of both signs
        values[ties] = np.round(rng.normal(size=ties.sum()) * levels / 50.0) * scale
        for column in (distinct, values):
            want = np.quantile(column, tails)
            got = montecarlo._quantiles(column.copy(), tails)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("column", [
    [3.0],
    [2.0, -1.0],
    [0.0, -0.0, 1.0],
    [5.0, 5.0, 5.0, 5.0],
], ids=["one", "two", "signed-zeros", "all-tied"])
def test_quantiles_match_numpy_on_short_columns(column):
    # the upper order statistic is clamped to the last sample, and both ends
    # of the probability range are asked for
    tails = [p for lv in montecarlo.CONFIDENCE_LEVELS
             for p in ((1.0 - lv) / 2.0, 1.0 - (1.0 - lv) / 2.0)] + [0.0, 0.5, 1.0]
    values = np.array(column)
    want = np.quantile(values, tails)
    got = montecarlo._quantiles(values.copy(), tails)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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


def test_seed_determinism():
    records, coupling = _build()
    base = McConfig(n_samples=400, seed=11)
    r1 = propagate(records, coupling, base)
    r2 = propagate(records, coupling, McConfig(n_samples=400, seed=11))
    np.testing.assert_array_equal(r1.scatter, r2.scatter)
    assert r1.ci == r2.ci
    assert r1.coupling_sigma == r2.coupling_sigma
    r3 = propagate(records, coupling, McConfig(n_samples=400, seed=12))
    assert not np.array_equal(r1.scatter, r3.scatter)


def test_lane_blocks_do_not_change_the_scatter(monkeypatch):
    records, coupling = _build()
    base = propagate(records, coupling, McConfig(n_samples=400, seed=11))
    monkeypatch.setattr(localize, "_LANE_BLOCK", 64)
    blocked = propagate(records, coupling, McConfig(n_samples=400, seed=11))
    np.testing.assert_array_equal(blocked.scatter, base.scatter)
    assert blocked.solver == base.solver
    assert blocked.ci == base.ci


def _pool_lanes(problems, mc, lane_block):
    """Each problem's point fit and per-sample solver lanes from
    ``propagate_many`` with a lane pool of ``lane_block``, keyed by the id of
    its coupling; problems that fail before the samples are solved have
    none."""
    seen = {}
    estimate = montecarlo._estimate

    def spy(nuc, n, constants):
        seen[id(nuc.coupling)] = (nuc.fit, nuc.lanes)
        return estimate(nuc, n, constants)

    with (mock.patch.object(montecarlo, "_estimate", spy),
          mock.patch.object(localize, "_LANE_BLOCK", lane_block)):
        montecarlo.propagate_many(problems, mc)
    return seen


@settings(max_examples=15, deadline=None)
# a fixed and a free nucleus of one record count: one shared pool
@example(nuclei=[(8.0, 0.9, 1.0, 5e3, 3, 1.0, True),
                 (10.0, 0.6, 4.0, -5e3, 3, 1.0, False)],
         lane_block=40, order=[1, 0, 2, 3])
@given(nuclei=st.lists(st.tuples(st.floats(6.0, 14.0), st.floats(0.2, 1.4),
                                 st.floats(0.0, 2.0 * math.pi),
                                 st.floats(-2e4, 2e4), st.integers(2, 3),
                                 st.floats(0.5, 3.0), st.booleans()),
                       min_size=1, max_size=4),
       lane_block=st.integers(8, 300), order=st.permutations(range(4)))
def test_pool_lanes_equal_one_nucleus_whole_block_solves(nuclei, lane_block,
                                                         order):
    # nuclei of either record count, with fixed and free a_iso, share pools
    # in random orders and with random admission sizes, for the point-fit
    # polishes and the samples; every point fit and lane must end bit for
    # bit as in a solve of its nucleus alone in one block
    problems = []
    for r, theta, phi, a_iso, n_coils, noise, fixed in nuclei:
        records, coupling = _build(noise, _COILS[:n_coils],
                                   SphericalPosition(r * ANGSTROM, theta, phi), a_iso)
        problems.append((records, coupling, a_iso if fixed else None))
    problems = [problems[k] for k in order if k < len(problems)]
    n = 150
    pooled = _pool_lanes(problems, McConfig(n_samples=n, seed=9), lane_block)
    for problem in problems:
        key = id(problem[1])
        alone = _pool_lanes([problem], McConfig(n_samples=n, seed=9), n)
        assert (key in pooled) == (key in alone)
        if key in alone:
            assert pooled[key][0] == alone[key][0]
            for got, want in zip(pooled[key][1], alone[key][1]):
                np.testing.assert_array_equal(got, want)


@settings(max_examples=15, deadline=None)
# a lane whose damping a poor step has raised, where the model misjudges the
# distance left along a_iso
@example(r=6.0, theta=1.1, phi=0.9149946909710528, a_iso=-13996.0, n_coils=3,
         noise=2.203125, fixed=False, seed=75184)
# a nucleus past its extraction gate, whose samples that extract are solved
# all the same
@example(r=12.5, theta=0.1015625, phi=0.0, a_iso=0.0, n_coils=3, noise=2.75,
         fixed=False, seed=332)
@given(r=st.floats(6.0, 14.0), theta=st.floats(0.1, 1.45),
       phi=st.floats(0.0, 2.0 * math.pi), a_iso=st.floats(-2e4, 2e4),
       n_coils=st.integers(2, 3), noise=st.floats(0.5, 3.0), fixed=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_sample_lanes_end_near_their_tight_solve(r, theta, phi, a_iso, n_coils,
                                                 noise, fixed, seed):
    # samples stop at report precision (the early stop of localize._lm_step
    # in sample pools): each lane must end within 1e-6 rad and 0.01 Hz of
    # the same lane solved to the point fit's tolerances, and no lane may
    # end unconverged or on a bound where that solve does not. Two records
    # with a_iso free fit two parameters to two numbers: some of their lanes
    # end where the cost is flat to rounding over more than 0.01 Hz of
    # a_iso, where any two solves may differ by more than the bound.
    assume(fixed or n_coils == 3)
    records, coupling = _build(noise, _COILS[:n_coils],
                               SphericalPosition(r * ANGSTROM, theta, phi), a_iso)
    problem = (records, coupling, a_iso if fixed else None)
    mc = McConfig(n_samples=300, seed=seed)
    loose = _pool_lanes([problem], mc, 128)
    with mock.patch.object(montecarlo, "_solve",
                           lambda jobs, sample: localize._solve(jobs, False)):
        tight = _pool_lanes([problem], mc, 128)
    key = id(coupling)
    assert (key in loose) == (key in tight)
    if key not in tight:
        return
    (fit, got), (fit_tight, want) = loose[key], tight[key]
    assert fit == fit_tight
    ok = np.isfinite(want.cost)
    np.testing.assert_array_equal(np.isfinite(got.cost), ok)
    np.testing.assert_allclose(got.phi[ok], want.phi[ok], rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(got.a_iso[ok], want.a_iso[ok], rtol=0.0, atol=0.01)
    # the early stop cuts the tight solve's walk short
    assert np.all(got.iterations <= want.iterations)
    assert np.all(got.converged[ok] | ~want.converged[ok])
    np.testing.assert_array_equal(got.at_bound, want.at_bound)


def _solved_from(problem, mc, linear):
    """The sample starts (rows phi, a_iso) and solver lanes of one problem,
    both solved at the point fit's tolerances, from the linear starts or,
    unless ``linear``, from the point fit; None where the point fit
    fails."""
    starts = []
    sample_lanes = montecarlo._sample_lanes

    def spy(nuc, lo, hi, seed, constants):
        lanes = sample_lanes(nuc, lo, hi, seed, constants)
        starts.append(np.stack(lanes[1:3]))
        return lanes

    slope = (montecarlo._slope if linear else
             lambda nuc, constants: np.zeros((2, 3 + 8 * len(nuc.records))))
    with (mock.patch.object(montecarlo, "_sample_lanes", spy),
          mock.patch.object(montecarlo, "_slope", slope),
          mock.patch.object(montecarlo, "_solve",
                            lambda jobs, sample: localize._solve(jobs, False))):
        seen = _pool_lanes([problem], mc, 128)
    if id(problem[1]) not in seen:
        return None
    return np.concatenate(starts, axis=1), seen[id(problem[1])][1]


@settings(max_examples=15, deadline=None)
# two records with a_iso free, whose point fit has a nearly singular
# Jacobian (normalized determinant 1.4e-8): the damped step keeps every
# start finite
@example(r=7.574518519012633, theta=0.9867213413140664, phi=1.1952229274592552,
         a_iso=-5063.448037564884, n_coils=2, noise=0.6755775220736009,
         fixed=False, seed=0)
# a_iso fixed, with samples that do not extract: the solver's step of their
# NaN lanes must raise no RuntimeWarning
@example(r=14.0, theta=0.125, phi=0.0, a_iso=0.0, n_coils=2, noise=2.0,
         fixed=True, seed=1)
@given(r=st.floats(6.0, 14.0), theta=st.floats(0.1, 1.45),
       phi=st.floats(0.0, 2.0 * math.pi), a_iso=st.floats(-2e4, 2e4),
       n_coils=st.integers(2, 3), noise=st.floats(0.5, 3.0), fixed=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_linear_starts_end_in_the_minima_of_point_starts(r, theta, phi, a_iso,
                                                         n_coils, noise, fixed,
                                                         seed):
    # every sample solved at the point fit's tolerances from its linear start
    # and from the point fit: lanes that end in the same minimum (within
    # 1e-3 rad, and 1 Hz of a_iso, both converged) agree within 1e-6 rad and
    # 0.1 Hz, and at most 2 % of the lanes end in another minimum, where the
    # cost has two inside the box. Two records with a_iso free are exempt
    # from the comparison, as in the test above: their cost can be flat to
    # rounding over more than the bound.
    records, coupling = _build(noise, _COILS[:n_coils],
                               SphericalPosition(r * ANGSTROM, theta, phi), a_iso)
    problem = (records, coupling, a_iso if fixed else None)
    mc = McConfig(n_samples=300, seed=seed)
    linear, point = (_solved_from(problem, mc, lin) for lin in (True, False))
    assert (linear is None) == (point is None)
    if linear is None:
        return
    (starts, got), (point_starts, want) = linear, point
    # only the lanes of a nucleus past its extraction gate start at NaN
    np.testing.assert_array_equal(np.isfinite(starts), np.isfinite(point_starts))
    if not (fixed or n_coils == 3):
        return
    ok = (np.isfinite(got.cost) & np.isfinite(want.cost)
          & got.converged & want.converged)
    dphi = np.abs(got.phi - want.phi)[ok]
    diso = np.abs(got.a_iso - want.a_iso)[ok]
    same = (dphi <= 1e-3) & (diso <= 1.0)
    assert np.all(dphi[same] <= 1e-6)
    assert np.all(diso[same] <= 0.1)
    assert np.count_nonzero(~same) <= 0.02 * np.count_nonzero(ok)


def test_linear_start_is_the_first_damped_step_to_second_order():
    # at a point fit of zero residual, S . draws is the derivative of each
    # sample's first damped step from the point fit: shrinking every sigma
    # 100-fold shrinks the relative gap between the two about 100-fold
    def gaps(noise):
        records, coupling = _build(noise)
        fit = fit_azimuth(records, coupling)
        # each coil-on line moved onto the model at the point fit
        xi = localize._kernel(records, coupling, DEFAULT_CONSTANTS)(
            fit.phi, fit.a_iso, derivatives=False)
        records = [dataclasses.replace(rec, fp_m1=rec.fp_m1 - v)
                   for rec, v in zip(records, xi)]
        nuc = montecarlo._Nucleus(records, coupling, None)
        montecarlo._set_point(nuc, fit_azimuth(records, coupling), DEFAULT_CONSTANTS)
        nuc.slope = montecarlo._slope(nuc, DEFAULT_CONSTANTS)
        draws = montecarlo._draws(0, 300, 3, 3 + 8 * len(records))
        kernel = montecarlo._lanes(nuc, draws, DEFAULT_CONSTANTS)
        m = len(draws)
        phi, iso = np.full(m, nuc.point.phi), np.full(m, nuc.point.a_iso)
        res, *jac = kernel(phi, iso)
        wide = np.full(m, np.inf)
        lanes = (phi, iso, localize._dot(res, res), np.full(m, localize._LM_LAMBDA0),
                 np.ones(m), np.zeros((3, m)), -wide, wide, -wide, wide,
                 res, *jac)
        (phi_t, iso_t, *_), _ = localize._lm_step(lanes, False)
        return [np.linalg.norm(row @ draws.T - step) / np.linalg.norm(step)
                for row, step in zip(nuc.slope, (phi_t - phi, iso_t - iso))]

    for coarse, fine in zip(gaps(1.0), gaps(0.01)):
        assert 0.0 < fine * 50.0 <= coarse


def test_near_axis_samples_start_at_the_point_fit_bit_for_bit():
    # near the axis the linear starts would spread past the sample box: the
    # slope is zero, and every start is the point fit itself, sign of zero
    # and all
    truth = SphericalPosition(11.0 * ANGSTROM, math.radians(8.0), math.radians(300.0))
    records, coupling = _build(truth=truth, a_iso=-8e3)
    nuc = montecarlo._Nucleus(records, coupling, -8e3)
    montecarlo._set_point(nuc, fit_azimuth(records, coupling, -8e3), DEFAULT_CONSTANTS)
    nuc.slope = montecarlo._slope(nuc, DEFAULT_CONSTANTS)
    assert nuc.slope.shape == (2, 3 + 8 * len(records))
    assert not nuc.slope.any()
    _, phi, iso, _, _ = montecarlo._sample_lanes(nuc, 0, 300, 5, DEFAULT_CONSTANTS)
    assert phi.tobytes() == np.full(300, nuc.point.phi).tobytes()
    assert iso.tobytes() == np.full(300, nuc.point.a_iso).tobytes()


def test_draws_match_fresh_keyed_generators():
    idx = np.array([0, 1, 57, 4099])
    draws = montecarlo._draws(0, 4100, 21, 27)[idx]
    for row, i in zip(draws, idx):
        ref = np.random.Generator(
            np.random.Philox(key=[21, int(i) // 256])).standard_normal((256, 27))
        np.testing.assert_array_equal(row, ref[i % 256])


def test_draws_do_not_depend_on_the_block_split():
    # blocks that start or end inside a page draw its rows all the same
    n = 40_000
    full = montecarlo._draws(0, n, 3, 27)
    for size in (4096, 333, 2000):
        split = np.concatenate([montecarlo._draws(k, min(k + size, n), 3, 27)
                                for k in range(0, n, size)])
        np.testing.assert_array_equal(split, full)


def test_draws_take_seeds_up_to_2_64():
    # a seed at or above 2**63 draws without a numpy cast warning and keys
    # its own stream
    top = montecarlo._draws(0, 2, 2 ** 64 - 1, 5)
    assert not np.array_equal(top, montecarlo._draws(0, 2, 2 ** 63, 5))
    assert not np.array_equal(top, montecarlo._draws(0, 2, 0, 5))


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
        draws = np.random.Generator(np.random.Philox(
            key=[seed, i // 256])).standard_normal((256, n_draws))[i % 256]
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
                label=rec.label,
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
    lanes = _pool_lanes([(records, coupling, None)], mc, 4096)[id(coupling)][1]
    extracted = np.isfinite(lanes.a_perp)
    assert (np.count_nonzero(~extracted)
            > montecarlo.MAX_EXTRACTION_FAILURE_FRACTION * mc.n_samples)
    with pytest.raises(InconsistentInputError, match="exact transformation"):
        propagate(records, coupling, mc)
    monkeypatch.setattr(montecarlo, "MAX_EXTRACTION_FAILURE_FRACTION", 1.0)
    with pytest.raises(ConvergenceError):
        propagate(records, coupling, mc)


@pytest.mark.parametrize("lane_block", [16, 4096])
@pytest.mark.parametrize("noise,past_gate", [(40.0, False), (50.0, True)])
def test_pool_lanes_carry_each_samples_couplings(noise, past_gate, lane_block):
    # the published line noise scaled up until some drawn triplets do not
    # extract: each sample's lane holds the couplings of its own draws, bit
    # for bit, with a NaN a_perp where the extraction's validity rule
    # fails, below and past the extraction gate alike
    records, coupling = _build(noise=noise)
    mc = McConfig(n_samples=200, seed=0)
    lanes = _pool_lanes([(records, coupling, None)], mc, lane_block)[id(coupling)][1]
    inputs = coupling.inputs
    draws = montecarlo._draws(0, mc.n_samples, mc.seed, 3 + 8 * len(records))
    a_par, a_perp = _extract_arrays(inputs.f0 + inputs.sigma_f0 * draws[:, 0],
                                    inputs.f_m1 + inputs.sigma_f_m1 * draws[:, 1],
                                    inputs.f_rabi + inputs.sigma_f_rabi * draws[:, 2],
                                    inputs.tau, EXACT)
    np.testing.assert_array_equal(lanes.a_par, a_par)
    np.testing.assert_array_equal(lanes.a_perp, a_perp)
    n_unextracted = np.count_nonzero(np.isnan(a_perp))
    gate = montecarlo.MAX_EXTRACTION_FAILURE_FRACTION * mc.n_samples
    assert 0 < n_unextracted and (n_unextracted > gate) == past_gate
    # a sample that does not extract has no cost and is never iterated
    assert not np.isfinite(lanes.cost[np.isnan(a_perp)]).any()
    assert not lanes.iterations[np.isnan(a_perp)].any()
    if past_gate:
        with pytest.raises(InconsistentInputError, match="exact transformation"):
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
