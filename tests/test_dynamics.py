import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinloc import (
    DEFAULT_CONSTANTS,
    DEFAULT_REGISTRY,
    EXACT,
    GENERAL_FIELD,
    LOW_FIELD,
    CouplingEstimate,
    DomainError,
    FrameError,
    HyperfineModel,
    MeasurementRecord,
    SphericalPosition,
    SpinlocError,
    Vector3,
    dipole_tensor,
    enhancement_factor,
    hamiltonian,
    invert_dipole,
    odmr_lines,
    precession_frequency,
    secular_couplings,
    transition_frequencies,
    xi,
    xi_kernel,
)

GE = 28e9
GN = 10.705e6
ZFS = 2.87e9
ANGSTROM = 1e-10

_ZERO_NV0 = Vector3(np.zeros(3), "nv0")


def test_bare_zeeman_precession():
    B0 = Vector3([0.0, 0.0, 9.502e-3], "nv0")
    f = precession_frequency(B0, _ZERO_NV0, HyperfineModel(np.zeros((3, 3))), 0)
    assert f == pytest.approx(GN * 9.502e-3, rel=1e-12)  # 101718.91 Hz


def test_static_transverse_part_enters_the_norm():
    B0 = Vector3([0.028e-3, -0.056e-3, 9.502e-3], "nv0")
    f = precession_frequency(B0, _ZERO_NV0, HyperfineModel(np.zeros((3, 3))), 0)
    assert f == pytest.approx(GN * float(np.linalg.norm(B0.components)), rel=1e-12)
    assert f > GN * 9.502e-3


def test_on_axis_aligned_splitting_equals_a_par():
    hf = dipole_tensor(SphericalPosition(8 * ANGSTROM, 0.0, 0.0))
    B0 = Vector3([0.0, 0.0, 9.502e-3], "nv0")
    f0 = precession_frequency(B0, _ZERO_NV0, hf, 0)
    f_m1 = precession_frequency(B0, _ZERO_NV0, hf, -1)
    assert f0 == pytest.approx(GN * 9.502e-3, rel=1e-12)
    assert f_m1 - f0 == pytest.approx(hf.a_par, rel=1e-9)


def test_lower_manifold_only():
    B0 = Vector3([0.0, 0.0, 9.502e-3], "nv0")
    with pytest.raises(DomainError):
        precession_frequency(B0, _ZERO_NV0, HyperfineModel(np.zeros((3, 3))), 1)


def test_field_frames_must_agree():
    B0 = Vector3([0.0, 0.0, 9.502e-3], "nv0")
    dB = Vector3([1e-3, 0.0, 0.0], "lab")
    with pytest.raises(FrameError):
        precession_frequency(B0, dB, HyperfineModel(np.zeros((3, 3))), 0)


def test_low_field_enhancement_values():
    assert enhancement_factor(0, variant=LOW_FIELD) == pytest.approx(
        -2.0 * GE / (GN * ZFS), rel=1e-14)
    assert enhancement_factor(-1, variant=LOW_FIELD) == pytest.approx(
        GE / (GN * ZFS), rel=1e-14)
    assert enhancement_factor(1, variant=LOW_FIELD) == pytest.approx(
        GE / (GN * ZFS), rel=1e-14)


def test_general_enhancement_reduces_at_zero_field():
    for m_S in (-1, 0, 1):
        assert enhancement_factor(m_S, 0.0, GENERAL_FIELD) == pytest.approx(
            enhancement_factor(m_S, variant=LOW_FIELD), rel=1e-14)


def test_general_enhancement_hand_value():
    B0z = 9.502e-3
    expected = (1.0 * ZFS - GE * B0z) / (ZFS ** 2 - (GE * B0z) ** 2) * GE / GN
    k = enhancement_factor(-1, B0z)
    assert k == pytest.approx(expected, rel=1e-14)
    assert type(k) is float  # not a numpy scalar


def test_enhancement_resonance_guard():
    with pytest.raises(DomainError):
        enhancement_factor(-1, ZFS / GE)


def test_enhancement_rejects_bad_spin_projection():
    with pytest.raises(DomainError):
        enhancement_factor(2)
    with pytest.raises(ValueError):
        enhancement_factor(0, variant="secular")


def test_variants_agree_at_ten_millitesla():
    # a realistic strongly coupled site: both enhancement forms predict the
    # same coil-on frequencies to well under the linewidth
    hf = dipole_tensor(SphericalPosition(8.3 * ANGSTROM, math.radians(58.0),
                                         math.radians(238.0)), a_iso=9e3)
    B0 = Vector3([0.028e-3, -0.056e-3, 9.502e-3], "nv0")
    dB = Vector3([-1.715e-3, 0.614e-3, -1.547e-3], "nv0")
    for m_S in (0, -1):
        f_gen = precession_frequency(B0, dB, hf, m_S, GENERAL_FIELD)
        f_low = precession_frequency(B0, dB, hf, m_S, LOW_FIELD)
        assert abs(f_gen - f_low) < 100.0


# ---------------------------------------------------------------------------
# the lane-wise xi kernel against the scalar reference

_MAGIC = math.acos(1.0 / math.sqrt(3.0))
# theta = 0 puts the site on the axis (a_perp = 0) and _MAGIC makes
# a_par - a_iso vanish; other angles keep the margin of the inversion round
# trip in test_dipole, since a_perp far below a_par - a_iso (theta under
# about 1e-12 or within that of pi/2) defeats the scalar inversion itself
_sites = st.tuples(st.floats(4 * ANGSTROM, 20 * ANGSTROM),
                   st.one_of(st.sampled_from((0.0, _MAGIC)),
                             st.floats(0.02, math.pi / 2 - 0.02)),
                   st.floats(-5e4, 5e4))
_b0 = st.tuples(st.floats(-1e-4, 1e-4), st.floats(-1e-4, 1e-4),
                st.floats(2e-3, 5e-2))
_db = st.tuples(*[st.floats(-3e-3, 3e-3)] * 3)
_splitting = st.floats(-5e4, 5e4)


def _coupling(site):
    r, theta, a_iso = site
    a_par, a_perp = secular_couplings(r, theta, a_iso)
    return CouplingEstimate(a_par=a_par, a_perp=a_perp, method=EXACT)


def _record(b0, db, splitting):
    return MeasurementRecord(
        label="p", fp0=1e5, sigma_fp0=1.0, fp_m1=1e5 + splitting, sigma_fp_m1=1.0,
        B0=Vector3(np.asarray(b0), "nv0"), sigma_B0=1e-6,
        dB=Vector3(np.asarray(db), "nv0"), sigma_dB=1e-6)


def _invert(coupling, a_iso):
    """(r, theta) of the scalar inversion that localize.xi uses; NaN where
    the couplings do not invert, as invert_many reports it."""
    try:
        pos = invert_dipole(coupling.a_par, coupling.a_perp, float(a_iso))
    except SpinlocError:
        return math.nan, math.nan
    return pos.r, pos.theta


def _kernel(recs, coupling):
    return xi_kernel([(rec.measured_difference, rec.B0.components,
                       rec.dB.components) for rec in recs],
                     coupling.a_par, coupling.a_perp)


def _scalar_xi(rec, coupling, phi, a_iso):
    """localize.xi in the general field, NaN where the couplings do not
    invert."""
    try:
        return xi(rec, coupling, float(phi), float(a_iso))
    except SpinlocError:
        return math.nan


@settings(max_examples=60, deadline=None)
@given(site=_sites, b0=_b0, dbs=st.lists(_db, min_size=1, max_size=3),
       splitting=_splitting)
def test_xi_kernel_matches_scalar_xi_over_a_grid(site, b0, dbs, splitting):
    # one field set shared by a (phi, a_iso) grid, as in the point fit; the
    # last two a_iso columns put r below the floor
    coupling = _coupling(site)
    recs = [_record(b0, db, splitting) for db in dbs]
    a_par = coupling.a_par
    iso = np.array([site[2], site[2] - 2e4, site[2] + 2e4, a_par,
                    a_par - 1e9, a_par + 1e9])
    assert all(math.isnan(_invert(coupling, a)[0]) for a in iso[-2:])
    phi = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)[:, None]
    got = _kernel(recs, coupling)(phi, iso, derivatives=False)
    assert len(got) == len(recs)
    for rec, lanes in zip(recs, got):
        assert lanes.shape == (len(phi), len(iso))
        ref = [[_scalar_xi(rec, coupling, p, a) for a in iso]
               for p in phi[:, 0]]
        np.testing.assert_allclose(lanes, ref, rtol=0.0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(lanes=st.lists(st.tuples(_sites, _b0, _db, _splitting,
                                st.floats(0.0, 2.0 * math.pi),
                                st.floats(-3e4, 3e4)),
                      min_size=1, max_size=6))
def test_xi_kernel_matches_scalar_xi_per_lane(lanes):
    # fields, splitting and couplings of their own in every lane, as in the
    # Monte Carlo
    couplings = [_coupling(site) for site, *_ in lanes]
    recs = [_record(b0, db, s) for _, b0, db, s, _, _ in lanes]
    phi = np.array([lane[4] for lane in lanes])
    iso = np.array([lane[5] for lane in lanes])
    kernel = xi_kernel([(
        np.array([rec.measured_difference for rec in recs]),
        np.stack([rec.B0.components for rec in recs], axis=1),
        np.stack([rec.dB.components for rec in recs], axis=1))],
        np.array([c.a_par for c in couplings]),
        np.array([c.a_perp for c in couplings]))
    (got,) = kernel(phi, iso, derivatives=False)
    ref = [_scalar_xi(rec, c, p, a)
           for rec, c, p, a in zip(recs, couplings, phi, iso)]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-6)
    # xi alone is the first row of xi with its derivatives
    np.testing.assert_array_equal(kernel(phi, iso, False), kernel(phi, iso)[0])


@settings(max_examples=60, deadline=None)
@given(site=_sites, b0=_b0, dbs=st.lists(_db, min_size=1, max_size=3),
       splitting=_splitting)
def test_xi_kernel_derivatives_match_central_differences(site, b0, dbs,
                                                         splitting):
    # the a_iso derivative moves the site along the inversion; the last two
    # a_iso columns do not invert and must be NaN in all three outputs
    coupling = _coupling(site)
    kernel = _kernel([_record(b0, db, splitting) for db in dbs], coupling)
    iso = np.array([site[2], site[2] - 2e4, coupling.a_par - 1e9,
                    coupling.a_par + 1e9])
    phi = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)[:, None]
    got, d_phi, d_iso = kernel(phi, iso)
    assert np.isnan(np.stack([got, d_phi, d_iso])[..., 2:]).all()
    for d, (dp, di), floor in ((d_phi, (1e-6, 0.0), 1e-3),
                               (d_iso, (0.0, 1e-2), 1e-6)):
        ref = (kernel(phi + dp, iso + di, derivatives=False)
               - kernel(phi - dp, iso - di, derivatives=False)) / (2 * (dp + di))
        np.testing.assert_allclose(d[..., :2], ref[..., :2], rtol=1e-6,
                                   atol=floor)


def test_xi_kernel_resonant_lane_is_nan():
    crossing = DEFAULT_CONSTANTS.D / DEFAULT_CONSTANTS.gamma_e
    B0 = np.array([[0.0, 0.0], [0.0, 0.0], [9.502e-3, crossing]])
    dB = np.array([[1e-3, 1e-3], [0.0, 0.0], [0.0, 0.0]])
    a_par, a_perp = secular_couplings(8 * ANGSTROM, 1.0, 3e3)
    phi, a_iso = np.full(2, 2.0), np.full(2, 3e3)
    out = np.stack(xi_kernel([(np.zeros(2), B0, dB)], a_par, a_perp)(phi, a_iso))
    assert np.isfinite(out[..., 0]).all() and np.isnan(out[..., 1]).all()
    with pytest.raises(DomainError):
        enhancement_factor(0, crossing)


def test_hamiltonian_structure():
    H = hamiltonian(np.array([1e-3, 2e-3, 3e-3]))
    np.testing.assert_allclose(H, H.conj().T, atol=1e-3)
    assert np.trace(H).real == pytest.approx(2.0 * ZFS)


def test_aligned_field_lines_are_analytic():
    fr = DEFAULT_REGISTRY.get("nv0")
    B = Vector3(9.502e-3 * fr.rotation_to_lab[:, 2], "lab")
    pair = odmr_lines(B, fr)
    assert pair.f_minus == pytest.approx(ZFS - GE * 9.502e-3, abs=1.0)
    assert pair.f_plus == pytest.approx(ZFS + GE * 9.502e-3, abs=1.0)
    # 2.603944 GHz and 3.136056 GHz
    assert pair.f_minus == pytest.approx(2.603944e9, abs=1.0)
    assert pair.f_plus == pytest.approx(3.136056e9, abs=1.0)


def test_transverse_shifts_match_second_order_theory():
    # at zero axial field the lines sit near D + x and D + 2x with
    # x = (ge b_perp)^2 / D; agreement to 1% of the shift while ge b/D < 0.02
    for b_perp in (0.2e-3, 0.5e-3, 1.0e-3, 2.0e-3):
        assert GE * b_perp / ZFS < 0.02
        t_lo, t_hi = transition_frequencies(np.array([b_perp, 0.0, 0.0]))
        x = (GE * b_perp) ** 2 / ZFS
        assert abs(t_lo - (ZFS + x)) < 0.01 * x
        assert abs(t_hi - (ZFS + 2.0 * x)) < 0.01 * x


def test_lines_even_under_field_reversal():
    B = np.array([1.3e-3, -0.4e-3, 7.7e-3])
    np.testing.assert_allclose(transition_frequencies(B),
                               transition_frequencies(-B), rtol=1e-12)


def test_odmr_lines_requires_lab_frame_vector():
    fr = DEFAULT_REGISTRY.get("nv0")
    with pytest.raises(FrameError):
        odmr_lines(Vector3([0.0, 0.0, 1e-3], "nv0"), fr)


def test_tilted_lab_field_splits_orientations_differently():
    B = Vector3([0.0, 0.0, 5e-3], "lab")
    pairs = [odmr_lines(B, DEFAULT_REGISTRY.get(n)) for n in ("nv0", "nv90")]
    # same axial projection magnitude for all four orientations of a z field,
    # so the splittings agree even though the frames differ
    s0 = pairs[0].f_plus - pairs[0].f_minus
    s1 = pairs[1].f_plus - pairs[1].f_minus
    assert s0 == pytest.approx(s1, rel=1e-9)
    tilted = Vector3([3e-3, 1e-3, 4e-3], "lab")
    pairs = [odmr_lines(tilted, DEFAULT_REGISTRY.get(n))
             for n in ("nv0", "nv90", "nv180", "nv270")]
    splittings = sorted(p.f_plus - p.f_minus for p in pairs)
    assert splittings[-1] - splittings[0] > 1e6
