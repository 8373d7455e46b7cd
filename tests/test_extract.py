import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinloc import (
    APPROXIMATE,
    EXACT,
    CouplingEstimate,
    CouplingInputs,
    DomainError,
    InconsistentInputError,
    extract_couplings,
    nominal_tau,
    rabi_frequency,
)
from spinloc.extract import _extract_arrays


def test_nominal_tau():
    assert nominal_tau(101.7e3, 114.2e3) == pytest.approx(1.0 / (2.0 * 215.9e3))


def test_input_validation():
    with pytest.raises(ValueError):
        CouplingInputs(f0=100e3, f_m1=0.0, f_rabi=10e3, tau=2e-6)
    with pytest.raises(ValueError):
        CouplingInputs(f0=100e3, f_m1=110e3, f_rabi=0.0, tau=2e-6)
    with pytest.raises(ValueError):
        CouplingInputs(f0=100e3, f_m1=110e3, f_rabi=10e3, tau=0.0)
    with pytest.raises(ValueError):
        CouplingInputs(f0=100e3, f_m1=110e3, f_rabi=10e3, tau=2e-6, sigma_f0=-1.0)
    with pytest.raises(ValueError):
        CouplingEstimate(a_par=1e3, a_perp=-1.0, method=EXACT)
    with pytest.raises(ValueError):
        CouplingEstimate(a_par=1e3, a_perp=1e3, method="guess")


def test_approximate_method_formulas():
    est = extract_couplings(101.7e3, 114.2e3, 14.4e3,
                            nominal_tau(101.7e3, 114.2e3), method=APPROXIMATE)
    assert est.a_par == pytest.approx(12.5e3)
    assert est.a_perp == pytest.approx(math.pi * 14.4e3)
    assert est.method == APPROXIMATE
    assert est.inputs.f0 == 101.7e3


def test_exact_forward_backward_round_trip():
    # forward: couplings -> the slow oscillation; backward: extraction
    a_par, a_perp, f0 = 3.4e3, 41.0e3, 97.0e3
    f_m1 = math.hypot(f0 + a_par, a_perp)
    tau = nominal_tau(f0, f_m1)
    f_rabi = rabi_frequency(f0, a_par, a_perp, tau)
    est = extract_couplings(f0, f_m1, f_rabi, tau)
    assert est.method == EXACT
    assert est.a_par == pytest.approx(a_par, abs=1e-6)
    assert est.a_perp == pytest.approx(a_perp, abs=1e-6)


def test_round_trip_with_f_m1_below_f0():
    # a negative parallel coupling puts the m_S = -1 line below f0
    a_par, a_perp, f0 = -15e3, 10e3, 101.7e3
    f_m1 = math.hypot(f0 + a_par, a_perp)
    assert f_m1 < f0
    tau = nominal_tau(f0, f_m1)
    est = extract_couplings(f0, f_m1, rabi_frequency(f0, a_par, a_perp, tau), tau)
    assert est.a_par == pytest.approx(a_par, abs=1e-6)
    assert est.a_perp == pytest.approx(a_perp, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    f0=st.floats(60e3, 140e3),
    a_par=st.floats(-20e3, 20e3),
    a_perp=st.floats(5e3, 60e3),
    detune=st.floats(0.8, 1.25),
)
def test_round_trip_property(f0, a_par, a_perp, detune):
    f_m1 = math.hypot(f0 + a_par, a_perp)
    tau = detune * nominal_tau(f0, f_m1)
    f_rabi = rabi_frequency(f0, a_par, a_perp, tau)
    if f_rabi <= 0.0:
        return  # phase fell on the branch edge; nothing to invert
    est = extract_couplings(f0, f_m1, f_rabi, tau)
    assert est.a_par == pytest.approx(a_par, abs=1e-3)
    assert est.a_perp == pytest.approx(a_perp, abs=1e-3)


def test_exact_differs_from_approximate_at_strong_coupling():
    f0, f_m1, f_rabi = 101.7e3, 114.2e3, 14.4e3
    tau = nominal_tau(f0, f_m1)
    exact = extract_couplings(f0, f_m1, f_rabi, tau, method=EXACT)
    approx = extract_couplings(f0, f_m1, f_rabi, tau, method=APPROXIMATE)
    # couplings here are comparable to the Zeeman scale, so the weak-coupling
    # shortcut is off by several kHz
    assert abs(exact.a_par - approx.a_par) > 5e3
    assert abs(exact.a_perp - approx.a_perp) > 1e3


def test_detuned_tau_draws_warning():
    f0, f_m1 = 101.7e3, 114.2e3
    with pytest.warns(UserWarning):
        extract_couplings(f0, f_m1, 14.4e3, 5.0 * nominal_tau(f0, f_m1))


def test_singular_tau_rejected():
    f0, f_m1 = 100e3, 110e3
    tau = 1.0 / (2.0 * f0)  # phase pi at the pulse spacing
    with pytest.raises(DomainError), pytest.warns(UserWarning):
        extract_couplings(f0, f_m1, 10e3, tau)


def test_inconsistent_triplet_rejected():
    # phases past pi/2 with a slow oscillation near zero push the inferred
    # direction cosine beyond 1; no real coupling pair reproduces that
    with pytest.raises(InconsistentInputError):
        extract_couplings(80e3, 85e3, 1e3, 5e-6)


def test_approximate_arrays_give_nan_a_perp_where_a_line_is_not_positive():
    # the approximate formulas hold for any line, so only the validity rule
    # marks the lanes whose lines are not all positive
    f0 = np.array([100e3, -1.0, 100e3, 100e3, 0.0])
    f_m1 = np.array([110e3, 110e3, 0.0, 110e3, 110e3])
    f_rabi = np.array([10e3, 10e3, 10e3, -5.0, 10e3])
    a_par, a_perp = _extract_arrays(f0, f_m1, f_rabi, 2e-6, APPROXIMATE)
    np.testing.assert_array_equal(a_par, f_m1 - f0)
    np.testing.assert_array_equal(a_perp, [math.pi * 10e3] + [math.nan] * 4)


def test_rabi_forward_guards():
    with pytest.raises(ValueError):
        rabi_frequency(100e3, 1e3, 1e3, 0.0)
    with pytest.raises(DomainError):
        rabi_frequency(0.0, 0.0, 0.0, 2e-6)
