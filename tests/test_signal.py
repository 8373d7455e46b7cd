import math

import numpy as np
import pytest

from spinloc import (
    DomainError,
    InconsistentInputError,
    TimeTrace,
    estimate_frequencies,
    synth_trace,
)


def _two_tone(noise=0.0, seed=0):
    # frequencies a few kHz apart, well resolved over a 1 ms window
    return synth_trace([(101.7e3, 1.0, 0.3), (114.2e3, 0.6, 1.1)],
                       duration=1.0e-3, dt=1.0 / (5.0 * 114.2e3),
                       noise_sigma=noise, seed=seed)


def test_trace_validation():
    with pytest.raises(ValueError):
        TimeTrace(t=[0.0], y=[1.0])
    with pytest.raises(ValueError):
        TimeTrace(t=[0.0, 1.0, 0.5], y=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        TimeTrace(t=[0.0, 1.0, 2.5], y=[0.0, 0.0, 0.0])
    tr = _two_tone()
    assert tr.nyquist == pytest.approx(0.5 / tr.dt)


def test_synth_rejects_aliasing_component():
    with pytest.raises(DomainError):
        synth_trace([(300e3, 1.0, 0.0)], duration=1e-3, dt=1.0 / (400e3))


def test_synth_trace_deterministic_per_seed():
    a = _two_tone(noise=0.05, seed=7)
    b = _two_tone(noise=0.05, seed=7)
    c = _two_tone(noise=0.05, seed=8)
    np.testing.assert_array_equal(a.y, b.y)
    assert np.any(a.y != c.y)


def test_clean_two_tone_recovery():
    est = estimate_frequencies(_two_tone(), 2)
    assert len(est) == 2
    assert est[0].f == pytest.approx(101.7e3, abs=1.0)
    assert est[1].f == pytest.approx(114.2e3, abs=1.0)
    assert est[0].amplitude == pytest.approx(1.0, abs=1e-3)
    assert est[1].amplitude == pytest.approx(0.6, abs=1e-3)
    assert est[0].f < est[1].f


def test_noisy_recovery_within_quoted_sigma():
    est = estimate_frequencies(_two_tone(noise=0.1, seed=3), 2)
    for e, truth in zip(est, (101.7e3, 114.2e3)):
        assert abs(e.f - truth) < 5.0 * e.sigma_f
        assert e.sigma_f > 0.0


def test_single_tone_with_decay():
    tr = synth_trace([(50e3, 1.0, 0.0)], duration=2e-3, dt=1e-6, decay=1e-3)
    (est,) = estimate_frequencies(tr, 1)
    assert est.f == pytest.approx(50e3, abs=20.0)


def test_too_many_components_rejected():
    tr = synth_trace([(50e3, 1.0, 0.0)], duration=1e-3, dt=1e-6)
    with pytest.raises(InconsistentInputError):
        estimate_frequencies(tr, 4)


def test_short_trace_rejected():
    tr = synth_trace([(50e3, 1.0, 0.0)], duration=8e-6, dt=1e-6)
    with pytest.raises(ValueError):
        estimate_frequencies(tr, 2)
