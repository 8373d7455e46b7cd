"""Forward spin physics: nuclear precession frequencies.

``precession_frequency`` is the scalar model; ``xi_kernel`` evaluates the
same model lane-wise over many trial azimuths, contact terms and fields at
once, with its exact derivatives, for the azimuth fit and the Monte Carlo.

The electronic spin is S = 1 with zero-field splitting D along its own z
axis; nuclear precession is modeled at the vector level with the hyperfine
secular column and the transverse-field enhancement matrix. Everything in
Hz and tesla; vectors carry frame tags and must agree before use. The
electron resonance (ODMR) lines of field calibration are in ``calibrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CONSTANTS, PhysicalConstants, Vector3
from .errors import DomainError, FrameError
from .dipole import MIN_RADIUS, HyperfineModel, _invert

LOW_FIELD = "low-field"
GENERAL_FIELD = "general-field"
_VARIANTS = (LOW_FIELD, GENERAL_FIELD)


def _check_variant(variant: str):
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _prefactor(m_S: int, B0z, variant: str, constants: PhysicalConstants):
    """k(m_S) of ``enhancement_factor`` for a float or an array of axial
    fields; NaN where the general form is resonant (gamma_e*B0z = D)."""
    ge, gn, D = constants.gamma_e, constants.gamma_n, constants.D
    pre = 3 * abs(m_S) - 2
    if variant == LOW_FIELD:
        return pre * ge / (gn * D)
    denom = D * D - (ge * B0z) ** 2
    denom = np.where(np.abs(denom) < 1e-9 * D * D, np.nan, denom)
    return (pre * D + m_S * ge * B0z) / denom * ge / gn


def enhancement_factor(m_S: int, B0z: float = 0.0, variant: str = GENERAL_FIELD,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Scalar prefactor k(m_S) of the enhancement matrix, in 1/Hz.

    The low-field form ignores B0z; the general form holds at any axial field
    away from the electronic level crossing gamma_e*B0z = D and reduces to
    the low-field one as B0z -> 0.
    """
    _check_variant(variant)
    if m_S not in (-1, 0, 1):
        raise DomainError(f"m_S must be -1, 0 or +1, got {m_S!r}")
    k = _prefactor(m_S, float(B0z), variant, constants)
    if math.isnan(k):
        raise DomainError(
            f"general-field enhancement diverges at gamma_e*B0z = D (B0z={B0z:g} T)")
    return float(k)


def precession_frequency(B0: Vector3, dB: Vector3, hf: HyperfineModel, m_S: int,
                         variant: str = GENERAL_FIELD,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Nuclear free-precession frequency in Hz for electronic projection m_S.

    Computes ||-gamma_n*B0 - gamma_n*(I+alpha)dB + m_S*A_z|| with all three
    terms as frequency vectors in the sensor frame. B0 is the full static
    vector (its small transverse part is kept); the enhancement acts on the
    switchable dB only. Only the m_S in {0, -1} manifold is supported here.
    """
    if m_S not in (0, -1):
        raise DomainError(f"precession model supports m_S in {{0, -1}}, got {m_S!r}")
    if B0.frame != dB.frame:
        raise FrameError(f"B0 frame {B0.frame!r} differs from dB frame {dB.frame!r}")
    # alpha = k(m_S) M, M the hyperfine tensor's top two rows (couplings in
    # Hz, so k carries 1/Hz): the axial response is not enhanced
    M = np.array(hf.tensor, dtype=float)
    M[2] = 0.0
    alpha = enhancement_factor(m_S, float(B0.components[2]), variant, constants) * M
    gn = constants.gamma_n
    vec = (-gn * B0.components
           - gn * (dB.components + alpha @ dB.components)
           + m_S * hf.secular_vector)
    f = float(np.linalg.norm(vec))
    if f <= 0.0:
        raise DomainError("precession frequency vanished; fields and couplings all zero")
    return f


def xi_kernel(records, a_par, a_perp,
              constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "XiKernel":
    """Lane-wise signed xi of a record set, and its exact derivatives, as a
    function of the azimuth and the contact term (see ``XiKernel``), with the
    general-field enhancement.

    ``records`` yields per record (measured fp_m1 - fp0, B0, dB) in Hz and
    tesla: sensor-frame field components shaped (3,) for one field set shared
    by every lane, or (3, m) for one per lane, with the splitting a scalar or
    (m,). The couplings a_par, a_perp (Hz) are scalars or (m,) arrays. The
    lane constants (couplings, splitting, c = -gamma_n (B0 + dB),
    q = gamma_n dB, enhancement prefactors k(0) and k(-1)) are packed here.
    """
    gn = constants.gamma_n
    rows = [a_par, a_perp]
    for meas, B0, dB in records:
        rows += [meas, *(-gn * (B0[i] + dB[i]) for i in range(3)),
                 *(gn * dB[i] for i in range(3)),
                 *(_prefactor(m, B0[2], GENERAL_FIELD, constants) for m in (0, -1))]
    return XiKernel(np.array(np.broadcast_arrays(*rows), dtype=float),
                    constants.dipolar_coefficient / MIN_RADIUS ** 3)


@dataclass(frozen=True, eq=False)
class XiKernel:
    """Called on broadcasting (phi, a_iso) lane arrays, inverts the couplings
    at a_iso (``dipole._invert``) and gives each record's xi, measured minus
    predicted coil-on splitting with the model of ``precession_frequency``,
    stacked over records, with dxi/dphi and dxi/da_iso from the same pass;
    ``derivatives=False`` gives xi alone, for grid scans. Lanes whose
    couplings do not invert, or at the level crossing, come out NaN.

    With n the unit vector to the site, b the dipolar strength and
    q = gamma_n dB, the hyperfine tensor A = 3b n n^T + (a_iso - b) I gives
    A q = 3b (n.q) n + (a_iso - b) q, and each derivative tensor
    T = 3(u n^T + n u^T) + d I gives T q = 3(u (n.q) + n (u.q)) + d q. Only
    their x and y rows enter, the enhancement's third row being zero; the
    secular columns A e_z and T e_z are computed once per call, and both
    m_S branches share A q and T q, their enhancements differing by the
    prefactor k alone.
    """

    consts: np.ndarray  # (2 + 9 records, *lanes): see xi_kernel
    b_max: float        # Hz, the dipolar strength at MIN_RADIUS

    def take(self, keep):
        """The kernel of the lanes ``keep`` (a mask or indices) of a kernel
        with constants per lane."""
        return XiKernel(self.consts[:, keep], self.b_max)

    @staticmethod
    def join(parts) -> "XiKernel":
        """One kernel with constants per lane of the lanes of every (kernel,
        lane count) in ``parts``, side by side in that order; a kernel whose
        lanes share their constants is widened to its count."""
        parts = list(parts)
        return XiKernel(np.concatenate(
            [np.broadcast_to(k.consts.reshape(len(k.consts), -1),
                             (len(k.consts), m)) for k, m in parts], axis=1),
            parts[0][0].b_max)

    def __call__(self, phi, a_iso, derivatives=True):
        consts = self.consts
        b, ct, st = _invert(consts[0] - a_iso, consts[1])
        b = np.where((b > 0.0) & (b <= self.b_max), b, np.nan)
        cp, sp = np.cos(phi), np.sin(phi)
        nx, ny = st * cp, st * sp
        bb, e = 3.0 * b, a_iso - b
        h = bb * ct
        az = (h * nx, h * ny, h * ct + e)  # A e_z
        if derivatives:  # 3u = 3b dn/dphi, with u_z = 0 and d = 0
            u_phi = (-bb * ny, bb * nx)
            # the site follows a_iso along a_par - a_iso = b(3cos^2 - 1),
            # a_perp = 3b sin cos: the 2x2 system has determinant
            # 3b(1 + cos^2) > 0, so b and theta move smoothly everywhere
            g = 1.0 / (1.0 + ct * ct)
            db = (st * st - ct * ct) * g  # db/da_iso
            w = 3.0 * st * ct * g         # 3b dtheta/da_iso
            u_iso = (1.5 * db * nx + w * ct * cp, 1.5 * db * ny + w * ct * sp,
                     1.5 * db * ct - w * st)
            d = 1.0 - db
            tz = (u_iso[0] * ct + nx * u_iso[2], u_iso[1] * ct + ny * u_iso[2],
                  2.0 * u_iso[2] * ct + d)  # T e_z
        recs = consts[2:].reshape((len(consts) - 2) // 9, 9, *consts.shape[1:])
        out = np.empty((3 if derivatives else 1, len(recs),
                        *np.broadcast_shapes(nx.shape, consts.shape[1:])))
        for i, (meas, cx, cy, cz, qx, qy, qz, k0, k1) in enumerate(recs):
            s = nx * qx + ny * qy + ct * qz
            bs = bb * s
            aqx, aqy = bs * nx + e * qx, bs * ny + e * qy
            v0x, v0y = cx - k0 * aqx, cy - k0 * aqy
            v1x, v1y, v1z = cx - az[0] - k1 * aqx, cy - az[1] - k1 * aqy, cz - az[2]
            f0 = np.sqrt(v0x * v0x + v0y * v0y + cz * cz)
            f1 = np.sqrt(v1x * v1x + v1y * v1y + v1z * v1z)
            np.subtract(meas, f1 - f0, out=out[0, i, ...])
            if not derivatives:
                continue
            # dxi = (v1 . T e_z) / f1 + (T q) . w over x and y, with
            # w = k(-1) v1 / f1 - k(0) v0 / f0
            a0, a1 = k0 / f0, k1 / f1
            wx, wy = a1 * v1x - a0 * v0x, a1 * v1y - a0 * v0y
            nw = nx * wx + ny * wy
            np.add(s * (u_phi[0] * wx + u_phi[1] * wy)
                   + (u_phi[0] * qx + u_phi[1] * qy) * nw,
                   ct * (v1x * u_phi[0] + v1y * u_phi[1]) / f1, out=out[1, i, ...])
            np.add(s * (u_iso[0] * wx + u_iso[1] * wy)
                   + (u_iso[0] * qx + u_iso[1] * qy + u_iso[2] * qz) * nw
                   + d * (qx * wx + qy * wy),
                   (v1x * tz[0] + v1y * tz[1] + v1z * tz[2]) / f1,
                   out=out[2, i, ...])
        return tuple(out) if derivatives else out[0]
