import math
import warnings

import numpy as np
import pytest

from spinloc import (
    BIAS_FIELD,
    COIL_FIELD,
    DEFAULT_REGISTRY,
    IdentifiabilityError,
    OdmrDataset,
    OdmrEntry,
    OdmrLinePair,
    Vector3,
    alignment_report,
    odmr_lines,
    solve_field,
)


def _dataset(B_lab, frames=("nv0", "nv90", "nv180", "nv270"), sigma=1e5,
             shift=0.0, context=COIL_FIELD):
    v = Vector3(np.asarray(B_lab), "lab")
    entries = []
    for name in frames:
        pair = odmr_lines(v, DEFAULT_REGISTRY.get(name))
        entries.append(OdmrEntry(
            frame=name,
            lines=OdmrLinePair(pair.f_minus + shift, pair.f_plus + shift),
            sigma=sigma))
    return OdmrDataset(entries=tuple(entries), context=context)


def test_dataset_validation():
    with pytest.raises(ValueError):
        OdmrEntry(frame="nv0", lines=OdmrLinePair(2.6e9, 3.1e9), sigma=0.0)
    with pytest.raises(ValueError):
        OdmrLinePair(3.1e9, 2.6e9)
    with pytest.raises(ValueError):
        OdmrDataset(entries=())
    with pytest.raises(ValueError):
        OdmrDataset(entries=(OdmrEntry("nv0", OdmrLinePair(2.6e9, 3.1e9), 1e5),),
                    context="gradiometer")
    ds = _dataset([1e-3, 0.0, 2e-3])
    assert ds.frames() == ["nv0", "nv90", "nv180", "nv270"]


def test_four_orientation_round_trip():
    B = np.array([1.2e-3, -0.8e-3, 2.5e-3])
    sol = solve_field(_dataset(B))
    np.testing.assert_allclose(sol.B.components, B, rtol=1e-9)
    assert sol.B.frame == "lab"
    assert sol.rms_residual < 1.0
    assert sol.condition < 1e3
    assert sol.sigma.shape == (3,)
    assert np.all(sol.sigma > 0.0)


def test_sign_branch_degeneracy_and_canonical_form():
    B = np.array([1.2e-3, -0.8e-3, 2.5e-3])
    flipped = solve_field(_dataset(-B))
    # the line set of -B is identical, so the canonical representative with
    # its largest-magnitude lab component positive comes back either way
    np.testing.assert_allclose(flipped.B.components, B, rtol=1e-9)
    c_plus, c_minus = flipped.branch_costs
    assert c_plus == pytest.approx(c_minus, abs=1e-12 + 1e-6 * max(c_plus, c_minus))


def test_two_orientations_warn_but_solve():
    # Two axes pin down |B| and both axial projections only; the component
    # out of the axes' plane keeps a free sign, so an unseeded solve may
    # land on the mirror field. Both branches reproduce the lines exactly.
    B = np.array([0.9e-3, 0.4e-3, 1.8e-3])
    with pytest.warns(UserWarning):
        sol = solve_field(_dataset(B, frames=("nv0", "nv90")))
    assert sol.rms_residual < 1.0
    np.testing.assert_allclose(np.linalg.norm(sol.B.components), np.linalg.norm(B), rtol=1e-9)
    for name in ("nv0", "nv90"):
        axis = DEFAULT_REGISTRY.get(name).rotation_to_lab[:, 2]
        np.testing.assert_allclose(
            abs(sol.B.components @ axis), abs(B @ axis), rtol=1e-7, atol=1e-12
        )
    # A seed near the true field selects the intended branch.
    with pytest.warns(UserWarning):
        seeded = solve_field(
            _dataset(B, frames=("nv0", "nv90")),
            initial_guess=Vector3(B, "lab"),
        )
    np.testing.assert_allclose(seeded.B.components, B, rtol=1e-7)


def test_repeated_single_orientation_rejected():
    B = np.array([0.9e-3, 0.4e-3, 1.8e-3])
    with pytest.raises(IdentifiabilityError):
        solve_field(_dataset(B, frames=("nv0",)))
    with pytest.raises(IdentifiabilityError):
        solve_field(_dataset(B, frames=("nv0", "nv0", "nv0")))


def test_common_mode_line_shift_appears_in_residuals():
    B = np.array([1.0e-3, -0.5e-3, 2.2e-3])
    sol = solve_field(_dataset(B, shift=2e5))
    assert sol.rms_residual > 1e4
    assert sol.residuals.shape == (8,)


def test_initial_guess_frame_checked():
    B = np.array([1.0e-3, -0.5e-3, 2.2e-3])
    with pytest.raises(ValueError):
        solve_field(_dataset(B), initial_guess=Vector3(B, "nv0"))
    sol = solve_field(_dataset(B), initial_guess=Vector3(B, "lab"))
    np.testing.assert_allclose(sol.B.components, B, rtol=1e-9)


def test_strongly_tilted_field_found_from_sign_enumeration():
    # a field with no dominant axial projection on any orientation
    B = np.array([-2.1e-3, 1.7e-3, -0.4e-3])
    sol = solve_field(_dataset(B))
    np.testing.assert_allclose(sol.B.components, -B, rtol=1e-8)  # canonical sign


def test_alignment_report_values():
    R = DEFAULT_REGISTRY.get("nv0").rotation_to_lab
    B_lab = R @ np.array([60e-6, 0.0, 9.502e-3])
    sol = solve_field(_dataset(B_lab, context=BIAS_FIELD))
    rep = alignment_report(sol, "nv0")
    assert rep.transverse == pytest.approx(60e-6, rel=1e-6)
    assert math.degrees(rep.tilt) == pytest.approx(
        math.degrees(math.atan2(60e-6, 9.502e-3)), rel=1e-6)
    assert rep.threshold == 50e-6
    assert not rep.passed
    ok = alignment_report(sol, "nv0", threshold=100e-6)
    assert ok.passed
    # seen from a different orientation the same field is far off axis
    rep90 = alignment_report(sol, "nv90")
    assert rep90.transverse > 1e-3


def test_well_aligned_field_passes():
    R = DEFAULT_REGISTRY.get("nv0").rotation_to_lab
    B_lab = R @ np.array([10e-6, -5e-6, 9.502e-3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_field(_dataset(B_lab))
    rep = alignment_report(sol, DEFAULT_REGISTRY.get("nv0"))
    assert rep.passed
    assert rep.transverse == pytest.approx(math.hypot(10e-6, 5e-6), rel=1e-6)
