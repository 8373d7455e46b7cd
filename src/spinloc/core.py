"""Physical constants, coordinate frames and frame-tagged vectors.

Unit conventions used throughout the package: SI internally (tesla, metre,
second), angles in radians, and every gyromagnetic ratio or coupling stored as
an ordinary frequency in Hz (cycles per second), never as an angular frequency.
External file formats use kHz / mT / degrees and convert at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import FrameError, ParseError

GAMMA_N_BAND = (10.6e6, 10.8e6)  # admissible range for the nuclear ratio, Hz/T

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants used by the model.

    Only ``gamma_n`` is adjustable (within ``GAMMA_N_BAND``); the other values
    are part of the model definition.
    """

    mu0: ClassVar[float] = 4e-7 * math.pi  # vacuum permeability, T*m/A
    hbar: ClassVar[float] = 1.054e-34      # reduced Planck constant, J*s
    gamma_e: ClassVar[float] = 28e9        # electron gyromagnetic ratio, Hz/T
    D: ClassVar[float] = 2.87e9            # NV ground-state zero-field splitting, Hz
    gamma_n: float = 10.705e6              # 13C gyromagnetic ratio, Hz/T

    def __post_init__(self):
        lo, hi = GAMMA_N_BAND
        if not (lo <= self.gamma_n <= hi):
            raise ValueError(
                f"gamma_n={self.gamma_n:g} Hz/T outside the admissible band [{lo:g}, {hi:g}]")

    @property
    def dipolar_coefficient(self) -> float:
        """Point-dipole coupling scale C with b(r) = C / r**3, in Hz*m^3.

        With gyromagnetic ratios stored as ordinary frequencies the angular
        prefactor mu0*ge*gn*hbar/(4*pi*r^3) collapses to mu0*ge*gn*hbar/(2*r^3)
        once the result is expressed in Hz.
        """
        return self.mu0 * self.gamma_e * self.gamma_n * self.hbar / 2.0


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True, eq=False)
class Frame:
    """A right-handed orthonormal coordinate frame.

    ``rotation_to_lab`` maps components expressed in this frame to laboratory
    components: v_lab = R @ v_frame. Columns are the frame's basis vectors in
    lab coordinates.
    """

    name: str
    rotation_to_lab: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation_to_lab, dtype=float)
        if R.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {R.shape}")
        if np.abs(R @ R.T - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError(f"frame {self.name!r}: rotation is not orthogonal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError(f"frame {self.name!r}: determinant must be +1 (right-handed)")
        R = R.copy()
        R.setflags(write=False)
        object.__setattr__(self, "rotation_to_lab", R)


# Laboratory axes along the <110>, <-110>, <001> crystal directions; this
# matrix maps cubic-crystal components to lab components.
_CRYSTAL_TO_LAB = np.array([
    [1.0, 1.0, 0.0],
    [-1.0, 1.0, 0.0],
    [0.0, 0.0, math.sqrt(2.0)],
]) / math.sqrt(2.0)


def frame_from_axis(name: str, axis) -> Frame:
    """Build an NV-style frame from a cubic <111>-type symmetry axis.

    z runs along the axis; for axis (a, b, c) the x basis vector is the
    normalized (a, b, -2c), which for (1,1,1) reproduces the conventional
    x || <11-2>, y || <-110> choice. Axis components are crystal coordinates.
    """
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,) or np.linalg.norm(a) == 0.0:
        raise ValueError("axis must be a non-zero 3-vector")
    z = a / np.linalg.norm(a)
    x = np.array([a[0], a[1], -2.0 * a[2]])
    x = x - (x @ z) * z
    nx = np.linalg.norm(x)
    if nx < 1e-12 * np.linalg.norm(a):  # axis along +-z: any transverse direction works
        x = np.array([1.0, 0.0, 0.0])
        x = x - (x @ z) * z
        nx = np.linalg.norm(x)
    x = x / nx
    y = np.cross(z, x)
    basis_crystal = np.column_stack([x, y, z])
    return Frame(name, _CRYSTAL_TO_LAB @ basis_crystal)


# The four NV orientation classes, named by the lab azimuth of their
# transverse projection. nv0 is the target-NV frame (azimuth defines phi = 0).
_NV_AXES = {
    "nv0": (1, 1, 1),
    "nv90": (-1, 1, -1),
    "nv180": (-1, -1, 1),
    "nv270": (1, -1, -1),
}

LAB_FRAME_NAME = "lab"
SENSOR_FRAME_NAME = "nv0"

# contexts of an ODMR line set: taken with the switchable coil on, or with
# the bias field alone
COIL_FIELD = "coil-field"
BIAS_FIELD = "bias-field"


class FrameRegistry:
    """Mutable name -> Frame mapping with strict lookups."""

    def __init__(self, frames=()):
        self._frames: dict[str, Frame] = {}
        for f in frames:
            self.register(f)

    def register(self, frame: Frame):
        if frame.name in self._frames:
            raise ValueError(f"frame {frame.name!r} already registered")
        self._frames[frame.name] = frame

    def get(self, name: str) -> Frame:
        try:
            return self._frames[name]
        except KeyError:
            raise FrameError(
                f"unknown frame {name!r}; registered: {sorted(self._frames)}") from None

    def names(self):
        return sorted(self._frames)

    def __contains__(self, name: str) -> bool:
        return name in self._frames


def default_registry() -> FrameRegistry:
    """Lab frame plus the four NV orientation frames."""
    reg = FrameRegistry([Frame(LAB_FRAME_NAME, np.eye(3))])
    for name, axis in _NV_AXES.items():
        reg.register(frame_from_axis(name, axis))
    return reg


DEFAULT_REGISTRY = default_registry()


@dataclass(frozen=True, eq=False)
class Vector3:
    """A 3-vector tagged with the frame its components refer to.

    Fields are in tesla when the vector is a magnetic field; the class itself
    is unit-agnostic.
    """

    components: np.ndarray
    frame: str = LAB_FRAME_NAME

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != (3,):
            raise ValueError(f"expected 3 components, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("vector components must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "components", c)

    def _check_frame(self, other: "Vector3"):
        if self.frame != other.frame:
            raise FrameError(
                f"mixed-frame arithmetic: {self.frame!r} vs {other.frame!r}")

    def __add__(self, other: "Vector3") -> "Vector3":
        self._check_frame(other)
        return Vector3(self.components + other.components, self.frame)

    def __sub__(self, other: "Vector3") -> "Vector3":
        self._check_frame(other)
        return Vector3(self.components - other.components, self.frame)

    def __neg__(self) -> "Vector3":
        return Vector3(-self.components, self.frame)

    def scale(self, s: float) -> "Vector3":
        return Vector3(s * self.components, self.frame)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


def rotation_between(frame_from: Frame, frame_to: Frame) -> np.ndarray:
    """Matrix mapping components in ``frame_from`` to components in ``frame_to``."""
    return frame_to.rotation_to_lab.T @ frame_from.rotation_to_lab


# ---------------------------------------------------------------------------
# Configuration reading (YAML)

def registry_from_mapping(mapping: dict | None) -> FrameRegistry:
    """Build a registry from a config mapping; missing entries fall back to the
    default NV frames. Entries may give either ``axis`` (crystal-coordinate
    integer triple) or an explicit ``rotation_to_lab`` matrix; the lab frame
    is fixed and takes none."""
    reg = default_registry()
    if not mapping:
        return reg
    if LAB_FRAME_NAME in mapping:
        raise ValueError(f"frame {LAB_FRAME_NAME!r} is the reference frame and "
                         "cannot be configured")
    merged = FrameRegistry([Frame(LAB_FRAME_NAME, np.eye(3))])
    names = set(reg.names()) | set(mapping)
    for name in sorted(names - {LAB_FRAME_NAME}):
        spec = mapping.get(name)
        if spec is None:
            merged.register(reg.get(name))
        elif "rotation_to_lab" in spec:
            merged.register(Frame(name, np.asarray(spec["rotation_to_lab"], dtype=float)))
        elif "axis" in spec:
            merged.register(frame_from_axis(name, spec["axis"]))
        else:
            raise ValueError(f"frame {name!r}: config needs 'axis' or 'rotation_to_lab'")
    return merged


def load_config(path) -> tuple[PhysicalConstants, FrameRegistry]:
    """Read a YAML config file.

    Returns (constants, frame registry). The two sections are ``constants``,
    whose one key is ``gamma_n``, and ``frames``. Any other section or
    constant, bytes that are not UTF-8, text that is not YAML, or sections
    of the wrong shape raise ParseError (at the line of the bad byte or of
    the YAML error where it has one, else at line 1).
    """
    import yaml  # deferred: slow to import

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = yaml.safe_load(data.decode("utf-8")) or {}
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8: byte {data[exc.start]:#04x}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or exc
        raise ParseError(path, mark.line + 1 if mark else 1,
                         f"not valid YAML: {problem}") from None
    if not isinstance(raw, dict):
        raise ParseError(path, 1, "top level of config must be a mapping")
    for key in raw:
        if key not in ("constants", "frames"):
            raise ParseError(path, 1, f"unknown config section {key!r}; the "
                             "sections are 'constants' and 'frames'")
    cdict = raw.get("constants") or {}
    if not isinstance(cdict, dict):
        raise ParseError(path, 1, "malformed config: constants must be a mapping")
    for key in cdict:
        if key != "gamma_n":
            what = "fixed" if key in PhysicalConstants.__annotations__ else "unknown"
            raise ParseError(path, 1, f"malformed config: {what} constant {key!r}; "
                             "gamma_n is the only one a config sets")
    try:
        constants = PhysicalConstants(**{k: float(v) for k, v in cdict.items()})
        registry = registry_from_mapping(raw.get("frames"))
    except (TypeError, AttributeError, ValueError) as exc:
        raise ParseError(path, 1, f"malformed config: {exc}") from None
    return constants, registry
