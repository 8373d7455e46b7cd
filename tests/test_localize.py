import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    SPIN_DENSITY_CENTER_OFFSET,
    SphericalPosition,
    Vector3,
    assemble_position,
    cost_curve,
    dipole_tensor,
    fit_azimuth,
    precession_frequency,
    secular_couplings,
    sum_sq_xi,
    xi,
)
from spinloc.dipole import invert_many
from spinloc.dynamics import xi_kernel
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
    zero = Vector3(np.zeros(3), "nv0")
    f0 = precession_frequency(B0, zero, hf, 0)
    f_m1 = precession_frequency(B0, zero, hf, -1)
    out = []
    for k, db in enumerate(coils):
        dB = Vector3(np.asarray(db), "nv0")
        out.append(MeasurementRecord(
            label=f"cfg{k}", f0=f0, sigma_f0=100.0, f_m1=f_m1, sigma_f_m1=100.0,
            fp0=precession_frequency(B0, dB, hf, 0), sigma_fp0=300.0,
            fp_m1=precession_frequency(B0, dB, hf, -1), sigma_fp_m1=200.0,
            B0=B0, sigma_B0=15e-6, dB=dB, sigma_dB=15e-6))
    return out


def _coupling(pos, a_iso):
    a_par, a_perp = secular_couplings(pos.r, pos.theta, a_iso)
    return CouplingEstimate(a_par=a_par, a_perp=a_perp, method=EXACT)


def test_record_validation():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    good = recs[0]
    with pytest.raises(ValueError):
        MeasurementRecord(label="x", f0=good.f0, sigma_f0=0.0, f_m1=good.f_m1,
                          sigma_f_m1=100.0, fp0=good.fp0, sigma_fp0=300.0,
                          fp_m1=good.fp_m1, sigma_fp_m1=200.0, B0=good.B0,
                          sigma_B0=15e-6, dB=good.dB, sigma_dB=15e-6)
    with pytest.raises(FrameError):
        MeasurementRecord(label="x", f0=good.f0, sigma_f0=100.0, f_m1=good.f_m1,
                          sigma_f_m1=100.0, fp0=good.fp0, sigma_fp0=300.0,
                          fp_m1=good.fp_m1, sigma_fp_m1=200.0,
                          B0=Vector3(np.asarray(_B0_TABLE), "lab"),
                          sigma_B0=15e-6, dB=good.dB, sigma_dB=15e-6)
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
        assert float(sum_sq_xi(recs, coupling, phi, iso)) == pytest.approx(
            direct, rel=1e-12)


def test_fit_recovers_truth_with_fixed_contact_term():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    fit = fit_azimuth(recs, _coupling(_TRUTH, _A_ISO), fix_a_iso=_A_ISO)
    assert fit.a_iso_fixed
    assert fit.a_iso == _A_ISO
    assert fit.phi == pytest.approx(_TRUTH.phi, abs=1e-6)
    assert fit.residual < 1e-3
    assert len(fit.per_record_xi) == 3


def test_joint_fit_recovers_truth():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    fit = fit_azimuth(recs, _coupling(_TRUTH, _A_ISO))
    assert not fit.a_iso_fixed
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


def test_assemble_position_applies_axial_offset():
    recs = _records(_TRUTH, _A_ISO, _COILS)
    coupling = _coupling(_TRUTH, _A_ISO)
    fit = fit_azimuth(recs, coupling, fix_a_iso=_A_ISO)
    loc = assemble_position(coupling, fit)
    assert loc.position.r == pytest.approx(_TRUTH.r, rel=1e-9)
    assert loc.position.theta == pytest.approx(_TRUTH.theta, abs=1e-9)
    assert loc.position.phi == pytest.approx(_TRUTH.phi, abs=1e-6)
    np.testing.assert_allclose(
        loc.cartesian_offset - loc.cartesian,
        [0.0, 0.0, SPIN_DENSITY_CENTER_OFFSET], atol=1e-18)
    np.testing.assert_allclose(loc.cartesian, _TRUTH.cartesian(), atol=1e-16)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(6.0, 15.0), theta=st.floats(0.1, 1.4),
       phi=st.floats(0.0, 2.0 * math.pi), a_iso=st.floats(-2e4, 2e4),
       noise=st.tuples(*[st.floats(-300.0, 300.0)] * 3), free=st.booleans())
def test_levenberg_marquardt_lanes_end_at_box_minima(r, theta, phi, a_iso,
                                                     noise, free):
    # noisy splittings so the minima carry a residual; lanes start on and off
    # the truth, some with the minimum outside their box
    pos = SphericalPosition(r * ANGSTROM, theta, phi)
    recs = [dataclasses.replace(rec, fp_m1=rec.fp_m1 + dn) for rec, dn in
            zip(_records(pos, a_iso, _COILS), noise)]
    coupling = _coupling(pos, a_iso)
    kernel = xi_kernel([(rec.measured_difference, rec.B0.components,
                         rec.dB.components) for rec in recs])

    def site(iso):
        return invert_many(coupling.a_par, coupling.a_perp, iso)

    offsets = np.array([-0.3, -0.05, 0.0, 0.05, 0.3])
    phi0 = phi + offsets
    iso0 = a_iso + 2e4 * offsets
    phi_box = (phi0 - 0.1, phi0 + 0.1)
    iso_box = (iso0 - 5e3, iso0 + 5e3) if free else (iso0, iso0)
    fit = _levenberg_marquardt(lambda idx: (site, kernel), phi0, iso0,
                               phi_box, iso_box, free_iso=free)

    assert fit.converged.all()
    assert np.all((fit.phi >= phi_box[0]) & (fit.phi <= phi_box[1]))
    assert np.all((fit.a_iso >= iso_box[0]) & (fit.a_iso <= iso_box[1]))
    np.testing.assert_allclose(fit.cost, sum_sq_xi(recs, coupling, fit.phi,
                                                   fit.a_iso), rtol=1e-12)
    edge = (fit.phi == phi_box[0]) | (fit.phi == phi_box[1])
    if free:
        edge |= (fit.a_iso == iso_box[0]) | (fit.a_iso == iso_box[1])
    else:
        np.testing.assert_array_equal(fit.a_iso, iso0)
    np.testing.assert_array_equal(fit.at_bound, edge)
    probes = [(1e-4, 0.0), (-1e-4, 0.0)]
    if free:
        probes += [(0.0, 10.0), (0.0, -10.0)]
    for d_phi, d_iso in probes:
        p, a = fit.phi + d_phi, fit.a_iso + d_iso
        inside = ((p >= phi_box[0]) & (p <= phi_box[1])
                  & (a >= iso_box[0]) & (a <= iso_box[1]))
        probe_cost = sum_sq_xi(recs, coupling, p, a)
        assert np.all(fit.cost[inside] <= probe_cost[inside]), (d_phi, d_iso)
