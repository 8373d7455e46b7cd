"""Point-dipole hyperfine model and its inversion.

Maps a nuclear site (r, theta, phi) plus a contact term a_iso to the full
3x3 hyperfine tensor and the secular coupling scalars (a_par, a_perp), and
back. All couplings in Hz, distances in metres, angles in radians; file I/O
converts to Angstrom / kHz / degrees elsewhere. The residuals of this model
against reference coupling tables are in ``dft``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import DomainError, InconsistentInputError

MIN_RADIUS = 1e-10  # m; the point-dipole form is meaningless below ~1 Angstrom

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SphericalPosition:
    """Nuclear site in the sensor frame.

    r in metres, polar angle theta (rad) measured from the sensor axis and
    restricted to the upper hemisphere [0, pi/2] (the couplings cannot tell
    the hemispheres apart), azimuth phi (rad, wrapped to [0, 2pi)). phi may
    be None while still undetermined by the data.
    """

    r: float
    theta: float
    phi: float | None = None

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError(f"r must be positive and finite, got {self.r!r}")
        if not (0.0 <= self.theta <= math.pi / 2.0):
            raise ValueError(
                f"theta must lie in [0, pi/2] (hemisphere convention), got {self.theta!r}")
        if self.phi is not None:
            if not math.isfinite(self.phi):
                raise ValueError("phi must be finite")
            object.__setattr__(self, "phi", self.phi % _TWO_PI)

    def unit_vector(self) -> np.ndarray:
        if self.phi is None:
            raise ValueError("phi is undetermined for this position")
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi),
                         math.cos(self.theta)])

    def cartesian(self) -> np.ndarray:
        """(x, y, z) in metres."""
        return self.r * self.unit_vector()

    def with_phi(self, phi: float) -> "SphericalPosition":
        return SphericalPosition(self.r, self.theta, phi)


@dataclass(frozen=True)
class HyperfineModel:
    """Full 3x3 symmetric hyperfine tensor of one nuclear spin, in Hz.

    The secular vector is the third column (A_xz, A_yz, A_zz); a_par and
    a_perp are its axial component and transverse magnitude. a_iso records
    the isotropic part folded into the tensor so the purely dipolar part can
    be recovered as tensor - a_iso * I.
    """

    tensor: np.ndarray
    a_iso: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.tensor, dtype=float)
        if A.shape != (3, 3):
            raise ValueError(f"tensor must be 3x3, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("tensor entries must be finite")
        scale = np.abs(A).max()
        if np.abs(A - A.T).max() > 1e-9 * max(scale, 1.0):
            raise ValueError("tensor must be symmetric")
        A = 0.5 * (A + A.T)
        A.setflags(write=False)
        object.__setattr__(self, "tensor", A)

    @property
    def secular_vector(self) -> np.ndarray:
        return self.tensor[:, 2]

    @property
    def a_par(self) -> float:
        return float(self.tensor[2, 2])

    @property
    def a_perp(self) -> float:
        return float(math.hypot(self.tensor[0, 2], self.tensor[1, 2]))


def dipolar_strength(r: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """b(r) = C / r^3 in Hz for r in metres."""
    if r < MIN_RADIUS:
        raise DomainError(f"r={r:g} m below the {MIN_RADIUS:g} m point-dipole floor")
    return constants.dipolar_coefficient / r ** 3


def dipole_tensor(pos: SphericalPosition, a_iso: float = 0.0,
                  constants: PhysicalConstants = DEFAULT_CONSTANTS) -> HyperfineModel:
    """A = b(r) * (3 n n^T - I) + a_iso * I with n the unit vector to the site.

    Requires pos.phi to be set; the off-axis tensor entries depend on it.
    """
    if pos.phi is None:
        raise ValueError("dipole_tensor needs an azimuth; position has phi undetermined")
    b = dipolar_strength(pos.r, constants)
    n = pos.unit_vector()
    A = b * (3.0 * np.outer(n, n) - np.eye(3)) + a_iso * np.eye(3)
    return HyperfineModel(A, a_iso=a_iso)


def secular_couplings(r: float, theta: float, a_iso: float = 0.0,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS
                      ) -> tuple[float, float]:
    """(a_par, a_perp) in Hz for a site at (r, theta); phi does not enter.

    Accepts theta anywhere in [0, pi] since the scalars are hemisphere-blind.
    """
    b = dipolar_strength(r, constants)
    ct, st = math.cos(theta), math.sin(theta)
    return b * (3.0 * ct * ct - 1.0) + a_iso, abs(3.0 * b * st * ct)


def _invert(p, q):
    """(b, cos theta, sin theta) for couplings p = a_par - a_iso and
    q = a_perp, lane-wise over broadcast arrays, with b the dipolar strength.

    theta is the root on [0, pi/2] of 3 p sin t cos t = q (3 cos^2 t - 1).
    Substituting u = tan t turns it into q u^2 + 3 p u - 2 q = 0, whose
    positive root is unique for q > 0; for p > 0 it is taken in the form
    4q / (3p + sqrt(9p^2 + 8q^2)), which does not cancel at q << p; then
    cos t = 1 / sqrt(1 + u^2) and sin t = u cos t. At q = 0 the site is on
    the axis (p > 0) or in the transverse plane (p < 0: u is infinite, and
    sin t is set to 1); at p = q = 0 all three are NaN. b comes from the
    axial equation away from the magic angle, where it is the stabler one,
    and from the transverse one near it; b <= 0 means no inversion.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.sqrt(9.0 * p * p + 8.0 * q * q)
        u = np.where(p > 0.0, 4.0 * q / (3.0 * p + root),
                     (root - 3.0 * p) / (2.0 * q))
        ct = 1.0 / np.sqrt(1.0 + u * u)
        st = np.where(ct == 0.0, 1.0, u * ct)
        denom = 3.0 * ct * ct - 1.0
        b = np.where(np.abs(denom) > 0.5, p / denom, q / (3.0 * st * ct))
    return b, ct, st


def _site(p, q, constants: PhysicalConstants):
    """(r, theta, b) of ``_invert``; r is NaN or infinite where b <= 0."""
    b, ct, st = _invert(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((constants.dipolar_coefficient / b) ** (1.0 / 3.0),
                np.arctan2(st, ct), b)


def invert_dipole(a_par: float, a_perp: float, a_iso: float = 0.0,
                  constants: PhysicalConstants = DEFAULT_CONSTANTS
                  ) -> SphericalPosition:
    """Recover (r, theta) from the secular couplings; phi stays undetermined.

    The scalar face of ``invert_many``: the same arithmetic, raising where a
    lane of ``invert_many`` comes back NaN.
    """
    if a_perp < 0.0:
        raise ValueError(f"a_perp must be non-negative, got {a_perp!r}")
    p = a_par - a_iso
    if p == 0.0 and a_perp == 0.0:
        raise InconsistentInputError(
            "a_par - a_iso and a_perp both vanish; position is unconstrained")
    # one-lane arrays, so that numpy takes the same array loops as for lanes
    r, theta, b = (float(v[0]) for v in _site(
        np.array([p], dtype=float), np.array([a_perp], dtype=float), constants))
    if not b > 0.0:
        raise InconsistentInputError(
            f"inferred dipolar strength b={b:g} Hz is not positive; "
            "couplings are inconsistent with a point dipole at this a_iso")
    if r < MIN_RADIUS:
        raise DomainError(f"inversion gives r={r:g} m, below the {MIN_RADIUS:g} m floor")
    return SphericalPosition(r=r, theta=theta)


def invert_many(a_par, a_perp, a_iso=0.0,
                constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Vectorized inversion.

    Returns broadcast (r, theta) arrays; entries that do not invert (b <= 0,
    r under the floor) come back NaN instead of raising, so sampling callers
    can count failures.
    """
    p = np.asarray(a_par, dtype=float) - a_iso
    q = np.asarray(a_perp, dtype=float)
    r, theta, b = _site(*np.broadcast_arrays(p, q), constants)
    ok = (b > 0.0) & (r >= MIN_RADIUS)
    return np.where(ok, r, np.nan), np.where(ok, theta, np.nan)
