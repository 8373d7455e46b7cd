import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinloc import (
    DEFAULT_CONSTANTS,
    MIN_RADIUS,
    DftRow,
    DomainError,
    HyperfineModel,
    InconsistentInputError,
    SphericalPosition,
    dft_residual_map,
    dipolar_strength,
    dipole_tensor,
    invert_dipole,
    invert_many,
    secular_couplings,
)

ANGSTROM = 1e-10


def test_dipolar_strength_at_one_nanometre():
    # C / r^3 evaluated by hand for r = 10 A
    assert dipolar_strength(10 * ANGSTROM) == pytest.approx(19850.2135, abs=1e-3)


def test_dipolar_strength_below_floor():
    with pytest.raises(DomainError):
        dipolar_strength(0.5 * ANGSTROM)
    assert MIN_RADIUS == 1e-10


def test_on_axis_couplings():
    b = dipolar_strength(8 * ANGSTROM)
    a_par, a_perp = secular_couplings(8 * ANGSTROM, 0.0)
    assert a_par == pytest.approx(2.0 * b, rel=1e-14)
    assert a_perp == 0.0


def test_magic_angle_kills_the_axial_part():
    theta_m = math.acos(1.0 / math.sqrt(3.0))
    b = dipolar_strength(9 * ANGSTROM)
    a_par, a_perp = secular_couplings(9 * ANGSTROM, theta_m, a_iso=5e3)
    assert a_par == pytest.approx(5e3, abs=1e-6)
    assert a_perp == pytest.approx(b * math.sqrt(2.0), rel=1e-12)


def test_tensor_matches_scalar_couplings():
    pos = SphericalPosition(7.3 * ANGSTROM, math.radians(41.0), math.radians(200.0))
    hf = dipole_tensor(pos, a_iso=4.2e3)
    a_par, a_perp = secular_couplings(pos.r, pos.theta, 4.2e3)
    assert hf.a_par == pytest.approx(a_par, rel=1e-12)
    assert hf.a_perp == pytest.approx(a_perp, rel=1e-12)
    np.testing.assert_allclose(hf.secular_vector, hf.tensor[:, 2])


def test_dipolar_part_is_traceless():
    hf = dipole_tensor(SphericalPosition(6 * ANGSTROM, 0.7, 1.1), a_iso=2.5e3)
    assert np.trace(hf.tensor) == pytest.approx(3 * 2.5e3, rel=1e-12)
    assert hf.a_iso == 2.5e3


def test_tensor_needs_phi():
    with pytest.raises(ValueError):
        dipole_tensor(SphericalPosition(8 * ANGSTROM, 0.3))


def test_tensor_must_be_symmetric():
    A = np.zeros((3, 3))
    A[0, 1] = 1e3
    with pytest.raises(ValueError):
        HyperfineModel(A)


def test_position_validation():
    with pytest.raises(ValueError):
        SphericalPosition(-1.0, 0.5)
    with pytest.raises(ValueError):
        SphericalPosition(8 * ANGSTROM, 2.0)  # beyond pi/2
    # phi wraps into [0, 2 pi)
    pos = SphericalPosition(8 * ANGSTROM, 0.5, -0.5)
    assert pos.phi == pytest.approx(2.0 * math.pi - 0.5)
    with pytest.raises(ValueError):
        SphericalPosition(8 * ANGSTROM, 0.5).unit_vector()


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(3.0, 25.0),
    theta=st.floats(0.02, math.pi / 2 - 0.02),
    a_iso=st.floats(-2e4, 2e4),
)
def test_inversion_round_trip(r, theta, a_iso):
    r_m = r * ANGSTROM
    a_par, a_perp = secular_couplings(r_m, theta, a_iso)
    pos = invert_dipole(a_par, a_perp, a_iso)
    assert pos.r == pytest.approx(r_m, rel=1e-9)
    assert pos.theta == pytest.approx(theta, abs=1e-9)
    assert pos.phi is None


def test_solver_methods_agree():
    a_par, a_perp = secular_couplings(8.58 * ANGSTROM, math.radians(52.8))
    p1 = invert_dipole(a_par, a_perp, method="bracketed")
    p2 = invert_dipole(a_par, a_perp, method="closed-form")
    assert p1.theta == pytest.approx(p2.theta, abs=1e-10)
    assert p1.r == pytest.approx(p2.r, rel=1e-12)
    with pytest.raises(ValueError):
        invert_dipole(a_par, a_perp, method="newton")


def test_mirror_site_resolves_to_upper_hemisphere():
    theta = math.radians(70.0)
    up = secular_couplings(9 * ANGSTROM, theta)
    down = secular_couplings(9 * ANGSTROM, math.pi - theta)
    assert up == pytest.approx(down)
    pos = invert_dipole(*down)
    assert pos.theta == pytest.approx(theta, abs=1e-9)
    assert pos.theta <= math.pi / 2.0


def test_axis_and_plane_edge_cases():
    b = dipolar_strength(10 * ANGSTROM)
    on_axis = invert_dipole(2.0 * b, 0.0)
    assert on_axis.theta == 0.0
    assert on_axis.r == pytest.approx(10 * ANGSTROM, rel=1e-12)
    in_plane = invert_dipole(-b, 0.0)
    assert in_plane.theta == pytest.approx(math.pi / 2.0)
    assert in_plane.r == pytest.approx(10 * ANGSTROM, rel=1e-12)


def test_unconstrained_pair_rejected():
    with pytest.raises(InconsistentInputError):
        invert_dipole(3e3, 0.0, a_iso=3e3)


def test_negative_transverse_coupling_rejected():
    with pytest.raises(ValueError):
        invert_dipole(1e3, -1.0)


def test_inversion_respects_radius_floor():
    b = DEFAULT_CONSTANTS.dipolar_coefficient / (0.5 * ANGSTROM) ** 3
    with pytest.raises(DomainError):
        invert_dipole(2.0 * b, 0.0)


def test_invert_many_matches_scalar_and_flags_failures():
    a_par = np.array([3.1e3, 2.0e3, 1e9, 0.0])
    a_perp = np.array([44.5e3, 0.0, 0.0, 0.0])
    r, theta = invert_many(a_par, a_perp)
    ref = invert_dipole(3.1e3, 44.5e3, method="closed-form")
    assert r[0] == pytest.approx(ref.r, rel=1e-14)
    assert theta[0] == pytest.approx(ref.theta, abs=1e-14)
    assert theta[1] == 0.0
    # third: implied radius under the floor; fourth: fully unconstrained
    assert np.isnan(r[2]) and np.isnan(theta[2])
    assert np.isnan(r[3]) and np.isnan(theta[3])


def test_invert_many_broadcasts():
    iso = np.linspace(-5e3, 5e3, 7)
    r, theta = invert_many(12e3, 30e3, iso)
    assert r.shape == theta.shape == (7,)
    for k, a_iso in enumerate(iso):
        ref = invert_dipole(12e3, 30e3, float(a_iso))
        assert r[k] == pytest.approx(ref.r, rel=1e-12)
        assert theta[k] == pytest.approx(ref.theta, abs=1e-10)


def test_residual_map_round_trip_rows_and_failures():
    rows = []
    for r, theta in ((6.0, 20.0), (8.5, 52.8), (12.0, 88.0), (14.5, 130.0)):
        a_par, a_perp = secular_couplings(r * ANGSTROM, math.radians(theta))
        rows.append(DftRow(a_par=a_par, a_perp=a_perp,
                           r=r * ANGSTROM, theta=math.radians(theta)))
    rows.append(DftRow(a_par=0.0, a_perp=0.0, r=5 * ANGSTROM, theta=0.1))
    rmap = dft_residual_map(rows)
    assert rmap.n_total == 5
    assert len(rmap.entries) == 4
    assert len(rmap.failures) == 1
    assert rmap.failures[0].startswith("row 5")
    for entry in rmap.entries:
        assert abs(entry.dr) < 1e-6 * ANGSTROM
        assert abs(entry.dtheta) < 1e-8
    # bins cover the reference radii with 2 A slices from zero
    assert all(b.n_sites >= 1 for b in rmap.bins)
    assert sum(b.n_sites for b in rmap.bins) == 4


# invert_many (closed form, lane-wise) against invert_dipole (bracketed) at
# the edges of the inversion: q = a_perp = 0, the magic angle, q far below
# |a_par - a_iso| and couplings that do not invert.

def _assert_inversions_agree(a_par, a_perp, a_iso):
    r, theta = invert_many(np.array([a_par]), np.array([a_perp]), a_iso)
    try:
        ref = invert_dipole(a_par, a_perp, a_iso)
    except (DomainError, InconsistentInputError):
        assert np.isnan(r[0]) and np.isnan(theta[0])
        return
    assert r[0] == pytest.approx(ref.r, rel=1e-9)
    assert theta[0] == pytest.approx(ref.theta, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(-1e6, 1e6).filter(lambda v: abs(v) > 1e-3),
       a_iso=st.floats(-2e4, 2e4))
def test_invert_many_matches_scalar_with_zero_transverse_coupling(p, a_iso):
    _assert_inversions_agree(p + a_iso, 0.0, a_iso)


@settings(max_examples=100, deadline=None)
@given(r=st.floats(3.0, 25.0), a_iso=st.floats(-2e4, 2e4))
def test_invert_many_matches_scalar_at_magic_angle(r, a_iso):
    theta_m = math.acos(1.0 / math.sqrt(3.0))
    _assert_inversions_agree(*secular_couplings(r * ANGSTROM, theta_m, a_iso),
                             a_iso)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(3.0, 25.0), log_tilt=st.floats(-40.0, -3.0),
       in_plane=st.booleans(), offset=st.floats(-2e4, 2e4))
@example(r=10.0, log_tilt=-20.0, in_plane=False, offset=0.0)
def test_invert_many_matches_scalar_at_tiny_transverse_coupling(
        r, log_tilt, in_plane, offset):
    # sites within 10^log_tilt rad of the axis or of the transverse plane,
    # inverted at a contact term off by ``offset`` from the true one
    tilt = 10.0 ** log_tilt
    theta = math.pi / 2.0 - tilt if in_plane else tilt
    a_par, a_perp = secular_couplings(r * ANGSTROM, theta, 5384.0)
    _assert_inversions_agree(a_par, a_perp, 5384.0 + offset)


@settings(max_examples=300, deadline=None)
@given(a_par=st.floats(-1e6, 1e6),
       a_perp=st.one_of(st.just(0.0), st.floats(1e-3, 1e6)),
       a_iso=st.floats(-1e6, 1e6))
@example(a_par=3e3, a_perp=0.0, a_iso=3e3)
def test_invert_many_fails_exactly_where_scalar_raises(a_par, a_perp, a_iso):
    # couplings between 1 mHz and 1 MHz (or exactly zero) keep every site
    # between the radius floor and a micrometre
    p = a_par - a_iso
    assume(p == 0.0 or abs(p) >= 1e-3)
    _assert_inversions_agree(a_par, a_perp, a_iso)


def test_bracketed_theta_survives_rounded_bracket():
    # a_perp far below a_par - a_iso < 0: cos(pi/2) rounding flips the sign of
    # the bracket's upper end; the root is pi/2 to rounding, not an error
    a_par, a_perp = secular_couplings(1e-9, 1e-40, 5384.0)
    pos = invert_dipole(a_par, a_perp, a_par + 1.0)
    assert pos.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
    _assert_inversions_agree(a_par, a_perp, a_par + 1.0)
