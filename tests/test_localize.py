import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinloc import (
    DEFAULT_CONSTANTS,
    EXACT,
    CouplingEstimate,
    DomainError,
    FrameError,
    IdentifiabilityError,
    InconsistentInputError,
    MeasurementRecord,
    SphericalPosition,
    Vector3,
    cost_curve,
    dipole_tensor,
    fit_azimuth,
    precession_frequency,
    secular_couplings,
    xi,
)
from spinloc import localize
from spinloc.dynamics import XiKernel, xi_kernel
from spinloc.localize import _levenberg_marquardt

ANGSTROM = 1e-10

_B0_TABLE = (0.028e-3, -0.056e-3, 9.502e-3)
_COILS = (
    (-1.715e-3, 0.614e-3, -1.547e-3),
    (0.9e-3, -1.4e-3, 0.3e-3),
    (-0.4e-3, -1.1e-3, 1.0e-3),
)

_TRUTH = SphericalPosition(8.3 * ANGSTROM, math.radians(58.0), math.radians(238.0))
_A_ISO = 9e3


def _records(pos, a_iso, coils, b0=_B0_TABLE):
    hf = dipole_tensor(pos, a_iso)
    B0 = Vector3(np.asarray(b0), "nv0")
    out = []
    for k, db in enumerate(coils):
        dB = Vector3(np.asarray(db), "nv0")
        out.append(MeasurementRecord(
            label=f"cfg{k}",
            fp0=precession_frequency(B0, dB, hf, 0), sigma_fp0=300.0,
            fp_m1=precession_frequency(B0, dB, hf, -1), sigma_fp_m1=200.0,
            B0=B0, sigma_B0=15e-6, dB=dB, sigma_dB=15e-6))
    return out


def _coupling(pos, a_iso):
    a_par, a_perp = secular_couplings(pos.r, pos.theta, a_iso)
    return CouplingEstimate(a_par=a_par, a_perp=a_perp, method=EXACT)


def _sum_sq_xi(records, coupling, phi, a_iso):
    # the kernel's summed squared xi, broadcast over (phi, a_iso)
    parts = localize._kernel(records, coupling, DEFAULT_CONSTANTS)(
        phi, a_iso, derivatives=False)
    return localize._dot(parts, parts)


def test_record_validation():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    good = recs[0]
    with pytest.raises(ValueError, match="sigma_fp0 must be positive"):
        dataclasses.replace(good, sigma_fp0=0.0)
    with pytest.raises(FrameError):
        dataclasses.replace(good, B0=Vector3(np.asarray(_B0_TABLE), "lab"))
    assert good.measured_difference == good.fp_m1 - good.fp0


def test_xi_vanishes_at_truth():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    coupling = _coupling(_TRUTH, _A_ISO)
    for rec in recs:
        assert abs(xi(rec, coupling, _TRUTH.phi, _A_ISO)) < 1e-6


def test_vectorized_cost_matches_scalar():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    coupling = _coupling(_TRUTH, _A_ISO)
    for phi_deg, iso in ((10.0, 0.0), (238.0, 9e3), (301.5, -4e3)):
        phi = math.radians(phi_deg)
        direct = sum(xi(rec, coupling, phi, iso) ** 2 for rec in recs)
        assert float(_sum_sq_xi(recs, coupling, phi, iso)) == pytest.approx(
            direct, rel=1e-12)


def test_fit_recovers_truth_with_fixed_contact_term():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    fit = fit_azimuth(recs, _coupling(_TRUTH, _A_ISO), fix_a_iso=_A_ISO)
    assert fit.a_iso == _A_ISO
    assert fit.phi == pytest.approx(_TRUTH.phi, abs=1e-6)
    assert fit.residual < 1e-3


def test_joint_fit_recovers_truth():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    fit = fit_azimuth(recs, _coupling(_TRUTH, _A_ISO))
    assert fit.phi == pytest.approx(_TRUTH.phi, abs=1e-4)
    assert fit.a_iso == pytest.approx(_A_ISO, abs=10.0)
    # three independent coil directions single out one minimum
    assert len(fit.minima) == 1


def test_single_configuration_leaves_two_minima():
    recs = _records(_TRUTH, _A_ISO, _COILS[:1])
    fit = fit_azimuth(recs, _coupling(_TRUTH, _A_ISO), fix_a_iso=_A_ISO)
    assert len(fit.minima) == 2
    assert fit.phi in fit.degenerate_minima
    assert any(abs(m.phi - _TRUTH.phi) < 1e-3 for m in fit.minima)


def test_mirror_tie_resolves_to_smaller_phi():
    # purely axial static field and one coil in the xz plane: the cost is
    # exactly even in phi, so truth at 330 deg ties with its mirror at 30 deg
    # and the reported phi is the smaller one
    pos = _TRUTH.with_phi(math.radians(330.0))
    coil = ((2.0e-3, 0.0, 0.5e-3),)
    recs = _records(pos, 0.0, coil, b0=(0.0, 0.0, 9.502e-3))
    fit = fit_azimuth(recs, _coupling(pos, 0.0), fix_a_iso=0.0)
    assert fit.phi == pytest.approx(math.radians(30.0), abs=1e-6)
    assert len(fit.minima) == 2
    phis = sorted(math.degrees(m.phi) for m in fit.minima)
    assert phis[0] == pytest.approx(30.0, abs=1e-3)
    assert phis[1] == pytest.approx(330.0, abs=1e-3)


def test_axial_coil_is_unidentifiable():
    recs = _records(_TRUTH, _A_ISO, ((0.0, 0.0, 2.0e-3),))
    with pytest.raises(IdentifiabilityError):
        fit_azimuth(recs, _coupling(_TRUTH, _A_ISO), fix_a_iso=_A_ISO)


def test_uninvertible_grid_raises_inconsistent_input():
    # no grid point inverts: at a fixed a_iso of 1 GHz, and over the whole
    # a_iso range for an a_par of 1 GHz (both put r below the floor)
    recs = _records(_TRUTH, _A_ISO, _COILS)
    with pytest.raises(InconsistentInputError):
        fit_azimuth(recs, _coupling(_TRUTH, _A_ISO), fix_a_iso=1e9)
    with pytest.raises(InconsistentInputError):
        fit_azimuth(recs, CouplingEstimate(a_par=1e9, a_perp=1e3, method=EXACT))


def test_no_records_rejected():
    with pytest.raises(ValueError):
        fit_azimuth([], _coupling(_TRUTH, _A_ISO))


def test_level_crossing_field_raises_domain_error():
    # at gamma_e*B0z = D the general-field model is undefined on every grid
    # point; the fit must say so instead of scanning an all-inf grid
    crossing = DEFAULT_CONSTANTS.D / DEFAULT_CONSTANTS.gamma_e
    recs = _records(_TRUTH, _A_ISO, _COILS)
    recs[1] = dataclasses.replace(
        recs[1], B0=Vector3(np.array([0.0, 0.0, crossing]), "nv0"))
    for fix in (_A_ISO, None):
        with pytest.raises(DomainError):
            fit_azimuth(recs, _coupling(_TRUTH, _A_ISO), fix_a_iso=fix)


def test_cost_curve_structure():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    coupling = _coupling(_TRUTH, _A_ISO)
    curve = cost_curve(recs, coupling, a_iso=_A_ISO, phi_step_deg=1.0)
    assert curve.phi.shape == (360,)
    assert curve.per_record.shape == (3, 360)
    assert np.all(curve.per_record >= 0.0)
    np.testing.assert_allclose(curve.total, (curve.per_record ** 2).sum(axis=0),
                               rtol=1e-12)
    # the sampled minimum sits within one grid step of the truth
    k = int(np.argmin(curve.total))
    dphi = abs((curve.phi[k] - _TRUTH.phi + math.pi) % (2 * math.pi) - math.pi)
    assert dphi <= math.radians(1.0)


@settings(max_examples=40, deadline=None)
@example(r=14.0, theta=1.390625, phi=0.0, a_iso=0.0,
         noise=(0.0, -291.0, -37.0), free=True)
@given(r=st.floats(6.0, 15.0), theta=st.floats(0.1, 1.4),
       phi=st.floats(0.0, 2.0 * math.pi), a_iso=st.floats(-2e4, 2e4),
       noise=st.tuples(*[st.floats(-300.0, 300.0)] * 3), free=st.booleans())
def test_levenberg_marquardt_lanes_end_at_box_minima(r, theta, phi, a_iso,
                                                     noise, free):
    # noisy splittings so the minima carry a residual; lanes start on and off
    # the truth, some with the minimum outside their box; the lanes of the
    # drawn kind are solved alone, then in one pool with those of the other
    pos = SphericalPosition(r * ANGSTROM, theta, phi)
    recs = [dataclasses.replace(rec, fp_m1=rec.fp_m1 + dn) for rec, dn in
            zip(_records(pos, a_iso, _COILS), noise)]
    coupling = _coupling(pos, a_iso)
    kernel = xi_kernel([(rec.measured_difference, rec.B0.components,
                         rec.dB.components) for rec in recs],
                       coupling.a_par, coupling.a_perp)
    offsets = np.array([-0.3, -0.05, 0.0, 0.05, 0.3])
    phi0 = phi + offsets
    iso0 = a_iso + 2e4 * offsets
    phi_box = (phi0 - 0.1, phi0 + 0.1)

    def iso_box(free):
        return (iso0 - 5e3, iso0 + 5e3) if free else (iso0, iso0)

    def piece(free):
        return phi0.size, lambda lo, hi: (
            kernel, phi0[lo:hi], iso0[lo:hi], tuple(v[lo:hi] for v in phi_box),
            tuple(v[lo:hi] for v in iso_box(free)))

    def check(fit, free):
        iso_lo, iso_hi = iso_box(free)
        assert fit.converged.all()
        assert np.all((fit.phi >= phi_box[0]) & (fit.phi <= phi_box[1]))
        assert np.all((fit.a_iso >= iso_lo) & (fit.a_iso <= iso_hi))
        np.testing.assert_allclose(fit.cost, _sum_sq_xi(recs, coupling, fit.phi,
                                                        fit.a_iso), rtol=1e-12)
        edge = (fit.phi == phi_box[0]) | (fit.phi == phi_box[1])
        if free:
            edge |= (fit.a_iso == iso_lo) | (fit.a_iso == iso_hi)
        else:
            np.testing.assert_array_equal(fit.a_iso, iso0)
        np.testing.assert_array_equal(fit.at_bound, edge)
        probes = [(1e-4, 0.0), (-1e-4, 0.0)]
        if free:
            probes += [(0.0, 10.0), (0.0, -10.0)]
        for d_phi, d_iso in probes:
            p, a = fit.phi + d_phi, fit.a_iso + d_iso
            inside = ((p >= phi_box[0]) & (p <= phi_box[1])
                      & (a >= iso_lo) & (a <= iso_hi))
            probe_cost = _sum_sq_xi(recs, coupling, p, a)
            assert np.all(fit.cost[inside] <= probe_cost[inside]), (d_phi, d_iso)

    check(_levenberg_marquardt([piece(free)]), free)
    mixed = _levenberg_marquardt([piece(not free), piece(free)])
    for part, kind in ((slice(None, phi0.size), not free),
                       (slice(phi0.size, None), free)):
        check(localize._LaneFit(*(v[part] for v in mixed)), kind)


def test_levenberg_marquardt_caps_a_late_lane_after_its_own_iterations(monkeypatch):
    # a lane admitted to the pool after the first iteration runs its own
    # _LM_MAX_ITER iterations, not what is left of the others', and ends
    # where it ends when solved alone
    monkeypatch.setattr(localize, "_LM_MAX_ITER", 3)
    recs = _records(_TRUTH, _A_ISO, _COILS)
    coupling = _coupling(_TRUTH, _A_ISO)
    kernel = xi_kernel([(rec.measured_difference, rec.B0.components,
                         rec.dB.components) for rec in recs],
                       coupling.a_par, coupling.a_perp)

    def piece(offsets):
        phi0, iso0 = _TRUTH.phi + offsets, _A_ISO + 2e4 * offsets
        return offsets.size, lambda lo, hi: (
            kernel, phi0[lo:hi], iso0[lo:hi], (phi0[lo:hi] - 1.0, phi0[lo:hi] + 1.0),
            (iso0[lo:hi] - 3e4, iso0[lo:hi] + 3e4))

    late = piece(np.array([0.3]))
    alone = _levenberg_marquardt([late])
    assert alone.iterations[0] == 3 and not alone.converged[0]
    # a 4-lane pool: the late lane waits until room is made for it
    monkeypatch.setattr(localize, "_LANE_BLOCK", 4)
    fit = _levenberg_marquardt([piece(np.array([-0.4, 0.35, -0.2, 0.25])), late])
    assert np.all(fit.iterations[:4] <= 3)
    for got, want in zip(fit, alone):
        np.testing.assert_array_equal(got[4:], want)


def _on_converged_lanes(fit, lm):
    """Whether every reported minimum of a fit ends on a converged lane."""
    for m in fit.minima:
        lane = ((np.abs((lm.phi - m.phi + math.pi) % (2.0 * math.pi) - math.pi)
                 < 1e-12) & (lm.a_iso == m.a_iso))
        if not (lane.any() and lm.converged[lane].all()):
            return False
    return True


def _polish(records, coupling, a_iso_step):
    """fit_azimuth's joint fit at an a_iso grid step, with its polished
    lanes."""
    scan = localize._scan(records, coupling, None, localize.DEFAULT_PHI_STEP_DEG,
                          a_iso_step, DEFAULT_CONSTANTS)
    (lm,) = localize._solve([(len(records), scan.phi.size, scan.lanes)], False)
    return localize._finish(lm), lm


@settings(max_examples=40, deadline=None)
@example(r=6.0, theta_deg=84.875, phi=0.0, a_iso=0.0,
         noise=(0.0, 0.0, 0.0))  # best phi -1e-17 rad
@example(r=10.0546875, theta_deg=5.7734375, phi=0.0, a_iso=20.0,
         noise=(6.0, 1.0, 270.0))  # an extra minimum on a capped lane at 10 kHz
@given(r=st.floats(6.0, 15.0),
       theta_deg=st.one_of(st.floats(5.0, 85.0), st.floats(5.0, 6.0),
                           st.floats(54.2, 55.2), st.floats(84.0, 85.0)),
       phi=st.floats(0.0, 2.0 * math.pi), a_iso=st.floats(-2e4, 2e4),
       noise=st.one_of(st.just((0.0, 0.0, 0.0)),
                       st.tuples(*[st.floats(-350.0, 350.0)] * 3)))
def test_joint_grid_step_finds_the_fine_grid_minima(r, theta_deg, phi, a_iso,
                                                    noise):
    # the default a_iso step of the joint grid only seeds the polish: over the
    # criterion-5 ranges, near the axis, the magic angle and the equator
    # included, it must find the best minimum and the near-degenerate
    # minima (the report's degenerate_minima) that a 2.5 kHz grid finds.
    # A coarser step can seed a lane that the iteration cap stops short of
    # a minimum where a finer one does not (r 10.05 A, theta 5.77 deg: with
    # 5000 iterations it joins a minimum both steps find); such a lane is
    # no reported minimum unless it is the best. On noise-free records no
    # reported minimum may end on a capped lane.
    pos = SphericalPosition(r * ANGSTROM, math.radians(theta_deg), phi)
    recs = [dataclasses.replace(rec, fp_m1=rec.fp_m1 + dn) for rec, dn in
            zip(_records(pos, a_iso, _COILS), noise)]
    coupling = _coupling(pos, a_iso)
    fit, lm = _polish(recs, coupling, localize.DEFAULT_A_ISO_STEP)
    fine, _ = _polish(recs, coupling, 2.5e3)

    def same(got, want):
        dphi = abs((got.phi - want.phi + math.pi) % (2.0 * math.pi) - math.pi)
        assert math.degrees(dphi) < 1e-4
        assert abs(got.a_iso - want.a_iso) < 1.0
        assert got.residual == pytest.approx(want.residual, rel=1e-9, abs=1e-6)

    same(fit, fine)
    assert len(fit.minima) == len(fine.minima)
    for g, w in zip(fit.minima, fine.minima):
        same(g, w)
    if not any(noise):
        assert _on_converged_lanes(fit, lm)


def test_grid_scan_is_one_kernel_call_whatever_the_lane_block(monkeypatch):
    # the lane block bounds the pool alone: a joint grid of 720 x 21 lanes
    # is scanned in one call even where the pool takes 8 lanes
    calls = []
    call = XiKernel.__call__

    def counted(self, *args, **kwargs):
        calls.append(args)
        return call(self, *args, **kwargs)

    monkeypatch.setattr(localize, "_LANE_BLOCK", 8)
    monkeypatch.setattr(XiKernel, "__call__", counted)
    localize._scan(_records(_TRUTH, _A_ISO, _COILS), _coupling(_TRUTH, _A_ISO), None,
                   localize.DEFAULT_PHI_STEP_DEG, localize.DEFAULT_A_ISO_STEP,
                   DEFAULT_CONSTANTS)
    assert len(calls) == 1


def test_a_capped_lane_is_a_minimum_only_when_it_is_the_best():
    # here the 10 kHz grid seeds a lane that the iteration cap stops at
    # 347.5 deg, short of the 344.4 deg minimum: every reported minimum
    # must end on a converged lane. With every lane taken as capped, the
    # best alone is reported.
    pos = SphericalPosition(10.0546875 * ANGSTROM, math.radians(5.7734375), 0.0)
    recs = [dataclasses.replace(rec, fp_m1=rec.fp_m1 + dn) for rec, dn in
            zip(_records(pos, 20.0, _COILS), (6.0, 1.0, 270.0))]
    fit, lm = _polish(recs, _coupling(pos, 20.0), localize.DEFAULT_A_ISO_STEP)
    assert not lm.converged.all()
    assert _on_converged_lanes(fit, lm)
    capped = localize._finish(lm._replace(converged=np.zeros_like(lm.converged)))
    assert (capped.phi, capped.a_iso, capped.residual) == (fit.phi, fit.a_iso,
                                                           fit.residual)
    assert [m.phi for m in capped.minima] == [fit.phi]


@pytest.mark.parametrize("lane_phi", [-1e-17, -0.0, 2.0 * math.pi, 4.0 * math.pi])
def test_finish_wraps_the_best_phi_into_zero_to_two_pi(lane_phi):
    # a polished lane a rounding error below 0 rad, or on a whole turn, is
    # reported at 0 rad, never at 2 pi
    coupling = _coupling(SphericalPosition(8.0 * ANGSTROM, math.radians(40.0), 0.0),
                         0.0)
    one = np.ones(1)
    lm = localize._LaneFit(a_par=np.full(1, coupling.a_par),
                           a_perp=np.full(1, coupling.a_perp),
                           phi=np.array([lane_phi]), a_iso=np.zeros(1),
                           cost=one, iterations=one.astype(int),
                           converged=one.astype(bool),
                           at_bound=np.zeros(1, dtype=bool))
    fit = localize._finish(lm)
    assert math.copysign(1.0, fit.phi) == 1.0 and fit.phi == 0.0
    assert [m.phi for m in fit.minima] == [0.0]
    assert fit.degenerate_minima == (0.0,)


@pytest.mark.parametrize("pin_phi,pin_iso",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_newton_solves_the_system_over_the_unpinned_coordinates(pin_phi, pin_iso):
    # the one 2x2 step solve against a dense solve on random positive-definite
    # systems; a pinned coordinate's step is 0
    rng = np.random.default_rng(11)
    m = 500
    root = rng.standard_normal((m, 2, 2))
    hess = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(2)
    grad = rng.standard_normal((m, 2))
    got = np.stack(localize._newton(hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1],
                                    grad[:, 0], grad[:, 1], pin_phi, pin_iso), axis=1)
    free = [k for k, pin in enumerate((pin_phi, pin_iso)) if not pin]
    want = np.zeros((m, 2))
    if free:
        want[:, free] = np.linalg.solve(hess[:, free][:, :, free],
                                        -grad[:, free, None])[..., 0]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    pinned = [k for k, pin in enumerate((pin_phi, pin_iso)) if pin]
    assert np.all(got[:, pinned] == 0.0)


def test_newton_step_is_infinite_where_a_pivot_it_needs_is_not_positive():
    # (a, b; b, c): a phi pivot that is zero or negative, an indefinite and a
    # singular matrix, and a NaN entry
    inf, nan = math.inf, math.nan
    a = np.array([0.0, -1.0, 1.0, 1.0, nan])
    b = np.array([0.0, 0.0, 2.0, 1.0, 0.0])
    c = np.ones(5)
    phi, iso = localize._newton(a, b, c, 1.0, -2.0, False, False)
    assert phi.tolist() == [inf] * 5 and iso.tolist() == [inf] * 5
    # a_iso pinned: only the phi pivot a is needed
    phi, iso = localize._newton(a, b, c, 1.0, -2.0, False, True)
    assert phi.tolist() == [inf, inf, -1.0, -1.0, inf] and iso.tolist() == [0.0] * 5
    # phi pinned: only the a_iso pivot c is needed
    c = np.array([0.0, -1.0, 1.0, 2.0, nan])
    phi, iso = localize._newton(a, b, c, 1.0, -2.0, True, False)
    assert phi.tolist() == [0.0] * 5 and iso.tolist() == [inf, inf, 2.0, 1.0, inf]


def test_a_held_lane_takes_its_secant_term_where_its_phi_pivot_is_positive():
    # two lanes with J^T J = 1, secant term (1, 3, 0) and gradient / 2
    # (0.5, -0.25): their model (2, 3; 3, 1) is not positive definite, but
    # its phi pivot is. The lane whose a_iso box has zero width holds a_iso
    # and steps phi by -g / (a (1 + lambda) + S_phiphi); the free lane drops
    # its secant term and takes the damped 2x2 step.
    one, lam = np.ones(2), 1e-3
    wide = np.full(2, 1e5)
    lanes = (np.zeros(2), np.zeros(2), one, np.full(2, lam), one,
             np.array([one, 3.0 * one, 0.0 * one]), -wide, wide,
             np.array([0.0, -1e5]), np.array([0.0, 1e5]),
             np.array([[0.5, 0.5], [-0.25, -0.25]]),
             np.array([one, 0.0 * one]), np.array([0.0 * one, one]))
    (phi_t, iso_t, *_), early = localize._lm_step(lanes, False)
    assert early is False
    assert phi_t[0] == pytest.approx(-0.5 / ((1.0 + lam) + 1.0), rel=1e-12)
    assert iso_t[0] == 0.0
    assert phi_t[1] == pytest.approx(-0.5 / (1.0 + lam), rel=1e-12)
    assert iso_t[1] == pytest.approx(0.25 / (1.0 + lam), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(6.0, 15.0), theta=st.floats(0.1, 1.45),
       phi=st.floats(0.0, 2.0 * math.pi), a_iso=st.floats(-2e4, 2e4),
       n_coils=st.integers(1, 3))
def test_fixed_a_iso_scan_is_the_phi_profile(r, theta, phi, a_iso, n_coils):
    # with a_iso fixed the grid has one a_iso column: the polish starts at
    # the local minima of the cost over the phi grid, each boxed to a grid
    # step either side, with a_iso held
    pos = SphericalPosition(r * ANGSTROM, theta, phi)
    recs, coupling = _records(pos, a_iso, _COILS[:n_coils]), _coupling(pos, a_iso)
    step = localize.DEFAULT_PHI_STEP_DEG
    scan = localize._scan(recs, coupling, a_iso, step, localize.DEFAULT_A_ISO_STEP,
                          DEFAULT_CONSTANTS)
    phi_grid = np.deg2rad(np.arange(0.0, 360.0, step))
    cost = _sum_sq_xi(recs, coupling, phi_grid, a_iso)
    want = phi_grid[localize._grid_local_minima(cost)]
    assert want.size
    np.testing.assert_array_equal(scan.phi, want)
    np.testing.assert_array_equal(scan.a_iso, np.full(want.size, a_iso))
    for got, edge in zip(scan.phi_box, (want - math.radians(step),
                                        want + math.radians(step))):
        np.testing.assert_array_equal(got, edge)
    for got in scan.iso_box:
        np.testing.assert_array_equal(got, np.full(want.size, a_iso))
