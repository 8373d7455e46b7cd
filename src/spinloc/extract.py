"""Turn measured frequency triplets (f0, f_m1, f_rabi) into hyperfine scalars.

The sequence parameter tau passed in here is the sensing half-interval, the
one chosen as tau ~ [2(f0+f_m1)]^-1; the transformation formulas below are
written in terms of the pi-pulse spacing, which is twice that. All inputs
and outputs are ordinary frequencies in Hz and times in seconds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistentInputError

EXACT = "exact"
APPROXIMATE = "approximate"

# a tau beyond this factor of nominal, either way, draws a warning
TAU_TOLERANCE_FACTOR = 2.0
# |sin| of a precession phase below this makes the exact transformation singular
_SINGULAR_SIN = 1e-9


@dataclass(frozen=True)
class CouplingInputs:
    """Raw frequency observations behind a coupling estimate, kept so
    downstream uncertainty propagation can re-run the extraction."""

    f0: float
    f_m1: float
    f_rabi: float
    tau: float
    sigma_f0: float = 0.0
    sigma_f_m1: float = 0.0
    sigma_f_rabi: float = 0.0

    def __post_init__(self):
        # f_m1 may sit below f0 when a_par < 0; only positivity is required
        if not (self.f0 > 0.0 and self.f_m1 > 0.0):
            raise ValueError(
                f"need f0 > 0 and f_m1 > 0, got f0={self.f0!r}, f_m1={self.f_m1!r}")
        if self.f_rabi <= 0.0:
            raise ValueError(f"f_rabi must be positive, got {self.f_rabi!r}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        for name in ("sigma_f0", "sigma_f_m1", "sigma_f_rabi"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CouplingEstimate:
    """Secular coupling scalars in Hz, with the raw inputs behind them."""

    a_par: float
    a_perp: float
    method: str
    inputs: CouplingInputs | None = None

    def __post_init__(self):
        if self.a_perp < 0.0:
            raise ValueError(f"a_perp must be non-negative, got {self.a_perp!r}")
        if self.method not in (EXACT, APPROXIMATE):
            raise ValueError(f"method must be {EXACT!r} or {APPROXIMATE!r}")


def nominal_tau(f0: float, f_m1: float) -> float:
    """The half-interval [2(f0+f_m1)]^-1 the sequence is tuned to, seconds."""
    return 1.0 / (2.0 * (f0 + f_m1))


def _extract_arrays(f0, f_m1, f_rabi, tau, method):
    """Lane-wise extraction over broadcast frequency arrays.

    Returns (a_par, a_perp, ok). ok is the one validity rule: f0, f_m1 and
    f_rabi positive and, for the exact method, neither precession phase a
    multiple of pi and a non-negative square-root argument
    f_m1^2 - (f0+a_par)^2. a_perp is NaN where the exact method fails.
    """
    ok = (f0 > 0.0) & (f_m1 > 0.0) & (f_rabi > 0.0)
    if method == APPROXIMATE:
        return f_m1 - f0, math.pi * f_rabi, ok
    spacing = 2.0 * tau
    c0 = np.cos(math.pi * f0 * spacing)
    s0 = np.sin(math.pi * f0 * spacing)
    c1 = np.cos(math.pi * f_m1 * spacing)
    s1 = np.sin(math.pi * f_m1 * spacing)
    denom = s1 * s0
    ok &= (np.abs(s0) >= _SINGULAR_SIN) & (np.abs(s1) >= _SINGULAR_SIN)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_alpha = (c1 * c0 - np.cos(math.pi - 2.0 * math.pi * f_rabi * spacing)) / denom
        a_par = f_m1 * cos_alpha - f0
        arg = f_m1 ** 2 - (f0 + a_par) ** 2
        ok &= arg >= 0.0
        a_perp = np.sqrt(np.where(ok, arg, np.nan))
    return a_par, a_perp, ok


def extract_couplings(f0: float, f_m1: float, f_rabi: float, tau: float,
                      method: str = EXACT) -> CouplingEstimate:
    """Couplings (a_par, a_perp) from the measured frequency triplet.

    The exact method inverts the interferometric relation between the slow
    oscillation f_rabi and the two precession frequencies at pi-pulse spacing
    2*tau; the approximate method is the weak-coupling limit
    (a_par, a_perp) = (f_m1 - f0, pi*f_rabi). A tau far from the nominal
    [2(f0+f_m1)]^-1 (beyond TAU_TOLERANCE_FACTOR either way) draws a warning
    since the exact inversion degrades away from the tuned point.
    """
    inputs = CouplingInputs(f0=f0, f_m1=f_m1, f_rabi=f_rabi, tau=tau)
    ratio = tau / nominal_tau(f0, f_m1)
    if not (1.0 / TAU_TOLERANCE_FACTOR <= ratio <= TAU_TOLERANCE_FACTOR):
        warnings.warn(
            f"tau={tau:g} s is {ratio:.3g}x the nominal [2(f0+f_m1)]^-1; "
            "extraction assumes the sequence was tuned near nominal",
            stacklevel=2)
    if method not in (EXACT, APPROXIMATE):
        raise ValueError(f"method must be {EXACT!r} or {APPROXIMATE!r}, got {method!r}")

    a_par, a_perp, ok = _extract_arrays(
        np.float64(f0), np.float64(f_m1), np.float64(f_rabi), tau, method)
    if not ok:
        # the inputs are positive, so the exact transformation failed
        spacing = 2.0 * tau
        if min(abs(math.sin(math.pi * f * spacing)) for f in (f0, f_m1)) < _SINGULAR_SIN:
            raise DomainError(
                f"tau={tau:g} s makes a precession phase a multiple of pi; "
                "the exact transformation is singular there")
        raise InconsistentInputError(
            "square root argument f_m1^2 - (f0+a_par)^2 is negative; the "
            "frequency triplet is inconsistent (mis-identified peaks?)")
    return CouplingEstimate(a_par=float(a_par), a_perp=float(a_perp),
                            method=method, inputs=inputs)


def rabi_frequency(f0: float, a_par: float, a_perp: float, tau: float) -> float:
    """Forward relation: the slow oscillation frequency the sequence would
    show for given couplings, at half-interval tau.

    Inverse of the exact extract_couplings branch; the phase 2*pi*f_rabi
    times the pulse spacing is kept in (0, pi), consistent with a sequence
    tuned near the nominal tau.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    f_m1 = math.hypot(f0 + a_par, a_perp)
    if f_m1 == 0.0:
        raise DomainError("f_m1 vanishes; no oscillation to speak of")
    cos_alpha = (f0 + a_par) / f_m1
    spacing = 2.0 * tau
    c0 = math.cos(math.pi * f0 * spacing)
    s0 = math.sin(math.pi * f0 * spacing)
    c1 = math.cos(math.pi * f_m1 * spacing)
    s1 = math.sin(math.pi * f_m1 * spacing)
    x = min(1.0, max(-1.0, c1 * c0 - cos_alpha * s1 * s0))
    return (math.pi - math.acos(x)) / (2.0 * math.pi * spacing)
