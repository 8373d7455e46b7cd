"""Forward spin physics: nuclear precession frequencies and ODMR lines.

``precession_frequency`` is the scalar model; ``xi_kernel`` evaluates the
same model lane-wise over many trial azimuths, contact terms and fields at
once, with its exact derivatives, for the azimuth fit and the Monte Carlo.

The electronic spin is S = 1 with zero-field splitting D along its own z
axis; nuclear precession is modeled at the vector level with the hyperfine
secular column and the transverse-field enhancement matrix. Everything in
Hz and tesla; vectors carry frame tags and must agree before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CONSTANTS, Frame, PhysicalConstants, LAB_FRAME_NAME, Vector3
from .errors import DomainError, FrameError
from .dipole import HyperfineModel, invert_many

LOW_FIELD = "low-field"
GENERAL_FIELD = "general-field"
_VARIANTS = (LOW_FIELD, GENERAL_FIELD)

# Spin-1 operators in the |+1>, |0>, |-1> basis.
_SQ2 = 1.0 / math.sqrt(2.0)
SPIN1_X = _SQ2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
SPIN1_Y = _SQ2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
_SZ2 = SPIN1_Z @ SPIN1_Z


def _check_variant(variant: str):
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


@dataclass(frozen=True)
class EnhancementTensor:
    """Dimensionless matrix amplifying the nuclear response to transverse
    fields; acts on field vectors in the sensor frame. Third row is zero:
    the axial response is not enhanced."""

    matrix: np.ndarray
    variant: str
    m_S: int

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (3, 3):
            raise ValueError(f"matrix must be 3x3, got {M.shape}")
        if np.abs(M[2]).max() != 0.0:
            raise ValueError("third row of the enhancement matrix must be zero")
        _check_variant(self.variant)
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)


def _prefactor(m_S: int, B0z, variant: str, constants: PhysicalConstants):
    """k(m_S) of ``enhancement_factor`` for a float or an array of axial
    fields; NaN where the general form is resonant (gamma_e*B0z = D)."""
    ge, gn, D = constants.gamma_e, constants.gamma_n, constants.D
    pre = 3 * abs(m_S) - 2
    if variant == LOW_FIELD:
        return pre * ge / (gn * D)
    denom = D * D - (ge * B0z) ** 2
    if isinstance(denom, np.ndarray):
        denom = np.where(np.abs(denom) < 1e-9 * D * D, np.nan, denom)
    elif abs(denom) < 1e-9 * D * D:  # one field for all lanes: skip np.where
        return math.nan
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
    return k


def enhancement(hf: HyperfineModel, m_S: int, B0z: float = 0.0,
                variant: str = GENERAL_FIELD,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> EnhancementTensor:
    """Enhancement matrix alpha(m_S) = k(m_S) * M for the given hyperfine
    tensor, with M its top two rows (couplings in Hz, so k carries 1/Hz)."""
    k = enhancement_factor(m_S, B0z, variant, constants)
    M = np.array(hf.tensor, dtype=float)
    M[2, :] = 0.0
    return EnhancementTensor(matrix=k * M, variant=variant, m_S=m_S)


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
    alpha = enhancement(hf, m_S, B0z=float(B0.components[2]), variant=variant,
                        constants=constants).matrix
    gn = constants.gamma_n
    vec = (-gn * B0.components
           - gn * (dB.components + alpha @ dB.components)
           + m_S * hf.secular_vector)
    f = float(np.linalg.norm(vec))
    if f <= 0.0:
        raise DomainError("precession frequency vanished; fields and couplings all zero")
    return f


def _tensor(u, n, d):
    """Upper triangle (xx, xy, xz, yy, yz, zz) of 3(u n^T + n u^T) + d I."""
    return (6.0 * u[0] * n[0] + d, 3.0 * (u[0] * n[1] + n[0] * u[1]),
            3.0 * (u[0] * n[2] + n[0] * u[2]), 6.0 * u[1] * n[1] + d,
            3.0 * (u[1] * n[2] + n[1] * u[2]), 6.0 * u[2] * n[2] + d)


def xi_kernel(records, a_par, a_perp, variant: str = GENERAL_FIELD,
              constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Lane-wise signed xi of a record set, and its exact derivatives, as a
    function of the azimuth and the contact term.

    ``records`` holds per record (measured fp_m1 - fp0, B0, dB) in Hz and
    tesla: sensor-frame field components shaped (3,) for one field set shared
    by every lane, or (3, m) for one per lane, with the splitting a scalar or
    (m,). The couplings a_par, a_perp (Hz) are scalars or (m,) arrays. The
    enhancement prefactors are computed here, once per record set.

    Returns a function of broadcasting (phi, a_iso) lane arrays. It inverts
    the couplings at a_iso (``invert_many``) and gives each record's xi,
    measured minus predicted coil-on splitting with the model of
    ``precession_frequency``, stacked over records, together with dxi/dphi
    and dxi/da_iso from the same pass. With ``derivatives=False`` it gives
    xi alone, for grid scans that need no Jacobian. Lanes whose couplings do
    not invert, or at the level crossing, come out NaN.
    """
    _check_variant(variant)
    gn = constants.gamma_n
    prepared = []
    for meas, B0, dB in records:
        prepared.append((meas, [-gn * (B0[i] + dB[i]) for i in range(3)],
                         [[gn * k * dB[i] for i in range(3)] for k in (
                             _prefactor(0, B0[2], variant, constants),
                             _prefactor(-1, B0[2], variant, constants))]))
    C = constants.dipolar_coefficient

    def xi(phi, a_iso, derivatives=True):
        r, theta = invert_many(a_par, a_perp, a_iso, constants)
        # A = b(3 n n^T - I) + a_iso I, and its derivatives, each of the form
        # 3(u n^T + n u^T) + d I
        b = C / r ** 3
        st, ct = np.sin(theta), np.cos(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        n = (st * cp, st * sp, ct)
        tensors = [_tensor([0.5 * b * c for c in n], n, a_iso - b)]
        if derivatives:
            tensors.append(_tensor((-b * n[1], b * n[0], 0.0), n, 0.0))
            # the site follows a_iso along a_par - a_iso = b(3cos^2 - 1),
            # a_perp = 3b sin cos: the 2x2 system has determinant
            # 3b(1 + cos^2) > 0, so b and theta move smoothly everywhere
            g = 1.0 / (1.0 + ct * ct)
            db = (st * st - ct * ct) * g  # db/da_iso
            t = st * ct * g               # b dtheta/da_iso
            tensors.append(_tensor((0.5 * db * n[0] + t * ct * cp,
                                    0.5 * db * n[1] + t * ct * sp,
                                    0.5 * db * ct - t * st), n, 1.0 - db))
        out = []
        for meas, c, ws in prepared:
            f = []  # per m_S: the frequency and its derivatives
            for m_S, w in zip((0, -1), ws):
                lin = [(m_S * xz - (xx * w[0] + xy * w[1] + xz * w[2]),
                        m_S * yz - (xy * w[0] + yy * w[1] + yz * w[2]),
                        m_S * zz) for xx, xy, xz, yy, yz, zz in tensors]
                v = [ci + li for ci, li in zip(c, lin[0])]
                norm = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
                f.append([norm] + [(v[0] * d[0] + v[1] * d[1] + v[2] * d[2])
                                   / norm for d in lin[1:]])
            out.append([meas - (f[1][0] - f[0][0])]
                       + [d0 - d1 for d0, d1 in zip(f[0][1:], f[1][1:])])
        parts = tuple(np.stack(col) for col in zip(*out))
        return parts if derivatives else parts[0]

    return xi


@dataclass(frozen=True)
class OdmrLinePair:
    """The two electron spin resonance frequencies of one NV orientation, Hz."""

    f_minus: float
    f_plus: float

    def __post_init__(self):
        if not (0.0 < self.f_minus <= self.f_plus):
            raise ValueError(
                f"lines must be positive and ordered, got ({self.f_minus!r}, {self.f_plus!r})")


def hamiltonian(B_frame: np.ndarray,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Ground-state Hamiltonian D*Sz^2 + gamma_e*B.S in Hz, B in the NV frame."""
    ge = constants.gamma_e
    H = constants.D * _SZ2 + ge * (B_frame[0] * SPIN1_X + B_frame[1] * SPIN1_Y
                                   + B_frame[2] * SPIN1_Z)
    return H


def transition_frequencies(B_frame: np.ndarray,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS
                           ) -> tuple[float, float]:
    """The two transitions out of the mostly-|0> eigenstate, ascending, Hz.

    B_frame in the NV frame. No positivity validation; fitting loops may
    probe unphysical fields transiently.
    """
    H = hamiltonian(B_frame, constants)
    # the Zeeman term is traceless, so the trace pins down the diagonal sum
    assert abs(np.trace(H).real - 2.0 * constants.D) <= 1e-6 * 2.0 * constants.D
    evals, evecs = np.linalg.eigh(H)
    k0 = int(np.argmax(np.abs(evecs[1, :]) ** 2))
    e0 = evals[k0]
    t = sorted(float(evals[k] - e0) for k in range(3) if k != k0)
    return t[0], t[1]


def odmr_lines(B: Vector3, frame: Frame,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> OdmrLinePair:
    """Transition frequencies of one NV orientation in a lab-frame field.

    Rotates B into the orientation's frame, diagonalizes the 3x3 spin-1
    Hamiltonian, and returns the two transitions out of the mostly-|0>
    eigenstate, sorted ascending.
    """
    if B.frame != LAB_FRAME_NAME:
        raise FrameError(f"odmr_lines expects a lab-frame field, got frame {B.frame!r}")
    B_nv = frame.rotation_to_lab.T @ B.components
    f_minus, f_plus = transition_frequencies(B_nv, constants)
    return OdmrLinePair(f_minus=f_minus, f_plus=f_plus)
