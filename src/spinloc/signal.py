"""Phenomenological time traces and sinusoid frequency estimation.

Bridges raw correlation-spectroscopy data and the frequency observations the
rest of the pipeline consumes: a trace is a sum of cosines (optionally with
an exponential decay envelope) plus white noise, and the estimator runs a
periodogram peak pick followed by a nonlinear least-squares multi-sinusoid
fit whose covariance supplies the frequency uncertainties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InconsistentInputError

_SIGMA_F_FLOOR = 1e-9  # Hz; keeps noiseless-fit sigmas positive

# Peak picking: reject periodogram maxima closer than this many bins to a
# stronger one, and below this fraction of the strongest peak's power (the
# rectangular window's first sidelobe sits near 5%... 1% keeps real second
# tones while dropping sidelobes of a dominant one).
_MIN_PEAK_SEPARATION_BINS = 3
_MIN_POWER_RATIO = 0.01


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled signal with optional per-point noise levels."""

    t: np.ndarray
    y: np.ndarray
    sigma_y: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        s = np.asarray(self.sigma_y, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need a 1-d time grid with at least 2 samples")
        if y.shape != t.shape or s.shape != t.shape:
            raise ValueError("t, y and sigma_y must have equal lengths")
        dt = np.diff(t)
        if dt.min() <= 0.0:
            raise ValueError("time grid must be strictly increasing")
        if (dt.max() - dt.min()) > 1e-9 * dt.mean():
            raise ValueError("time grid must be uniform to 1e-9 relative")
        if np.any(s < 0.0):
            raise ValueError("sigma_y must be non-negative")
        for name, arr in (("t", t), ("y", y), ("sigma_y", s)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def nyquist(self) -> float:
        return 0.5 / self.dt


@dataclass(frozen=True)
class FrequencyEstimate:
    f: float          # Hz
    sigma_f: float    # Hz
    amplitude: float
    phase: float      # rad

    def __post_init__(self):
        if self.f <= 0.0:
            raise ValueError(f"f must be positive, got {self.f!r}")
        if self.sigma_f <= 0.0:
            raise ValueError(f"sigma_f must be positive, got {self.sigma_f!r}")


def synth_trace(components, duration: float, dt: float, noise_sigma: float = 0.0,
                seed: int = 0, decay: float = math.inf) -> TimeTrace:
    """Sum-of-cosines trace: y(t) = sum a_k cos(2 pi f_k t + phi_k) * env(t).

    ``components`` is an iterable of (f, amplitude, phase). The optional
    envelope is exp(-t/decay). Gaussian noise of width noise_sigma is added
    from a counter-based generator keyed by seed, so equal seeds give
    bit-identical traces.
    """
    if dt <= 0.0 or duration <= dt:
        raise ValueError("need duration > dt > 0")
    comps = [(float(f), float(a), float(p)) for f, a, p in components]
    n = int(round(duration / dt))
    t = np.arange(n) * dt
    nyq = 0.5 / dt
    for f, _, _ in comps:
        if not (0.0 < f < nyq):
            raise DomainError(f"component at {f:g} Hz aliases on a {dt:g} s grid "
                              f"(Nyquist {nyq:g} Hz)")
    y = np.zeros(n)
    for f, a, p in comps:
        y += a * np.cos(2.0 * math.pi * f * t + p)
    if math.isfinite(decay):
        if decay <= 0.0:
            raise ValueError("decay constant must be positive")
        y *= np.exp(-t / decay)
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be non-negative")
    if noise_sigma > 0.0:
        rng = np.random.Generator(np.random.Philox(key=int(seed) % (1 << 64)))
        y = y + noise_sigma * rng.standard_normal(n)
    return TimeTrace(t=t, y=y, sigma_y=np.full(n, float(noise_sigma)))


def _pick_peaks(power: np.ndarray, n_wanted: int) -> list[int]:
    """Strongest local periodogram maxima, separation- and power-filtered."""
    interior = np.arange(1, len(power) - 1)
    is_max = (power[interior] >= power[interior - 1]) & (power[interior] > power[interior + 1])
    cand = interior[is_max]
    cand = cand[np.argsort(power[cand])[::-1]]
    if len(cand) == 0:
        return []
    top = power[cand[0]]
    picked: list[int] = []
    for i in cand:
        if power[i] < _MIN_POWER_RATIO * top:
            break
        if all(abs(i - j) >= _MIN_PEAK_SEPARATION_BINS for j in picked):
            picked.append(int(i))
        if len(picked) == n_wanted:
            break
    return picked


def _parabolic_refine(power: np.ndarray, i: int) -> float:
    """Sub-bin peak location by parabola through (i-1, i, i+1), in bins."""
    a, b, c = power[i - 1], power[i], power[i + 1]
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return float(i)
    return i + 0.5 * (a - c) / denom


def estimate_frequencies(trace: TimeTrace, n_components: int,
                         max_nfev: int = 2000) -> list[FrequencyEstimate]:
    """Fit n_components cosines to the trace; estimates sorted by frequency.

    The periodogram seeds frequencies; the nonlinear fit then uses the
    linear-in-amplitude parametrization y = sum alpha_k cos + beta_k sin per
    frequency, which keeps the problem well-behaved. sigma_f comes from the
    fit covariance scaled by the residual variance.
    """
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    n = len(trace.t)
    n_par = 3 * n_components
    if n <= 4 * n_components + 2:
        raise ValueError(f"trace too short ({n} samples) for {n_components} components")

    y = trace.y - np.mean(trace.y)
    power = np.abs(np.fft.rfft(y)) ** 2
    df = 1.0 / (n * trace.dt)
    peaks = _pick_peaks(power, n_components)
    if len(peaks) < n_components:
        raise InconsistentInputError(
            f"only {len(peaks)} resolvable spectral peaks for {n_components} "
            "requested components")
    f_seed = np.array(sorted(_parabolic_refine(power, i) * df for i in peaks))

    t = trace.t
    two_pi_t = 2.0 * math.pi * t

    def model_matrix(freqs):
        cols = []
        for f in freqs:
            cols.append(np.cos(two_pi_t * f))
            cols.append(np.sin(two_pi_t * f))
        return np.column_stack(cols)

    # linear seed for the amplitudes at the seeded frequencies
    M = model_matrix(f_seed)
    ab, *_ = np.linalg.lstsq(M, trace.y - np.mean(trace.y), rcond=None)

    mean_y = float(np.mean(trace.y))

    def unpack(x):
        return x[:n_components], x[n_components::2], x[n_components + 1::2]

    def residual(x):
        freqs, alphas, betas = unpack(x)
        yhat = np.full(n, mean_y)
        for f, a, b in zip(freqs, alphas, betas):
            yhat = yhat + a * np.cos(two_pi_t * f) + b * np.sin(two_pi_t * f)
        return yhat - trace.y

    from scipy.optimize import least_squares  # deferred: slow to import

    x0 = np.concatenate([f_seed, ab])
    res = least_squares(residual, x0, method="lm", max_nfev=max_nfev,
                        xtol=1e-15, ftol=1e-15)
    if not res.success and res.status <= 0:
        raise ConvergenceError(f"sinusoid fit did not converge: {res.message}")

    dof = n - n_par
    s2 = 2.0 * res.cost / dof if dof > 0 else 0.0
    JtJ = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(JtJ) * s2
    except np.linalg.LinAlgError:
        raise ConvergenceError("singular fit covariance; components degenerate")

    freqs, alphas, betas = unpack(res.x)
    nyq = trace.nyquist
    out = []
    for k in np.argsort(freqs):
        f = float(freqs[k])
        if not (0.0 < f < nyq):
            raise ConvergenceError(f"fitted frequency {f:g} Hz left (0, Nyquist)")
        sigma_f = max(float(math.sqrt(max(cov[k, k], 0.0))), _SIGMA_F_FLOOR)
        a, b = float(alphas[k]), float(betas[k])
        out.append(FrequencyEstimate(f=f, sigma_f=sigma_f,
                                     amplitude=float(math.hypot(a, b)),
                                     phase=float(math.atan2(-b, a))))
    return out
