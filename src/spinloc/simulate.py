"""Ground-truth files and the forward simulation of measurements.

A truth file gives nuclear sites, coil field configurations and noise
levels; ``simulate_measurements`` turns it into the measurements a
``localize`` run reads, with the precession model of ``dynamics`` and the
slow-oscillation relation of ``extract``. Truth files are read with the
schema of ``fileio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CONSTANTS, DEFAULT_REGISTRY, FrameRegistry, Vector3
from .dipole import SphericalPosition, dipole_tensor
from .dynamics import precession_frequency
from .errors import ParseError
from .extract import CouplingInputs, nominal_tau, rabi_frequency
from .fileio import (_TRUTH, NucleusMeasurements, _check, _check_frame,
                     _field_unit, _frame_line, _read_sections)
from .localize import MeasurementRecord

# floors applied when writing the coil-on line and field sigmas that the
# record contract requires positive
_SIGMA_F_FLOOR = 1e-6   # Hz
_SIGMA_B_FLOOR = 1e-12  # T


@dataclass(frozen=True)
class TruthNucleus:
    label: str
    r: float      # m
    theta: float  # rad
    phi: float    # rad
    a_iso: float  # Hz


@dataclass(frozen=True)
class FieldConfig:
    label: str
    B0: Vector3
    dB: Vector3


@dataclass(frozen=True)
class NoiseSpec:
    sigma_f: float = 0.0       # Hz, coil-off precession lines
    sigma_f_rabi: float = 0.0  # Hz
    sigma_fp: float = 0.0      # Hz, coil-on precession lines
    sigma_B: float = 0.0       # T, every field component


@dataclass(frozen=True)
class TruthSpec:
    nuclei: tuple
    fields: tuple
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0
    tau: float | None = None   # s; None means tuned per nucleus
    from_traces: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nuclei", tuple(self.nuclei))
        object.__setattr__(self, "fields", tuple(self.fields))


def load_truth(path, registry: FrameRegistry = DEFAULT_REGISTRY) -> TruthSpec:
    """Parse a truth file; every [fields] section names a frame of
    ``registry``, the same one."""
    nuclei: list[TruthNucleus] = []
    fields: list[FieldConfig] = []
    options: dict = {}
    for sec, v in _read_sections(path, "truth", _TRUTH):
        if sec.name == "nucleus":
            _check(path, sec, "r_A", v["r"] > 0.0, "must be positive")
            _check(path, sec, "theta_deg", 0.0 <= v["theta"] <= math.pi / 2.0,
                   "must lie in [0, 90]")
            nuclei.append(TruthNucleus(sec.args[0],
                                       **dict(v, phi=v["phi"] % (2 * math.pi))))
        elif sec.name == "fields":
            _check_frame(path, _frame_line(sec), v["frame"], registry)
            if fields and v["frame"] != fields[0].B0.frame:
                raise ParseError(path, sec.line,
                                 f"frame {v['frame']!r} differs from "
                                 f"{fields[0].B0.frame!r}; all field "
                                 "configurations must share one frame")
            fields.append(FieldConfig(sec.args[0], Vector3(v["B0"], v["frame"]),
                                      Vector3(v["dB"], v["frame"])))
        elif sec.name == "noise":
            for key in sec.values:
                _check(path, sec, key, v[_field_unit(key)[0]] >= 0.0,
                       "must be non-negative")
            options["noise"] = NoiseSpec(**v)
        elif sec.name == "options":
            # Philox takes a key in [0, 2**128), which has at most 39 digits
            seed = v["seed"].lstrip("0") or "0"
            _check(path, sec, "seed", v["seed"].isdecimal() and len(seed) <= 39
                   and int(seed) < 1 << 128,
                   f"must be an integer in [0, 2**128), got {v['seed']!r}")
            _check(path, sec, "tau_us", v["tau"] is None or v["tau"] > 0.0,
                   "must be positive")
            _check(path, sec, "from_traces", v["from_traces"] in ("yes", "no"),
                   "must be 'yes' or 'no'")
            options.update(seed=int(seed), tau=v["tau"],
                           from_traces=v["from_traces"] == "yes")
    if not nuclei:
        raise ParseError(path, 1, "no [nucleus] sections found")
    if not fields:
        raise ParseError(path, 1, "no [fields] sections found")
    return TruthSpec(nuclei=tuple(nuclei), fields=tuple(fields), **options)


def simulate_measurements(truth, constants=DEFAULT_CONSTANTS
                          ) -> dict[str, NucleusMeasurements]:
    """Forward-model a truth spec into per-nucleus measurement inputs.

    The coil-off pair (f0, f_m1) is evaluated at the first configuration's
    static field with the coil off; f_rabi follows from the forward slow-
    oscillation relation at the chosen half-interval. One record is made per
    field configuration. Noise is drawn from a single counter-based stream
    keyed by the truth seed, in file order: per nucleus first the three
    coupling lines (trace-based when from_traces is set), then per record
    fp0, fp_m1 and the six field components. Equal seeds give identical
    files regardless of the output path.
    """
    frames = {cfg.B0.frame for cfg in truth.fields}
    if len(frames) != 1:
        raise ValueError(f"all field configurations must share one frame, "
                         f"got {sorted(frames)}")
    frame = frames.pop()
    rng = np.random.Generator(np.random.Philox(key=truth.seed))
    noise = truth.noise
    zero = Vector3(np.zeros(3), frame)

    def lines(f_lo, f_hi, sigma):
        """A measured line pair and its sigma, lower line drawn first."""
        if truth.from_traces:
            return _lines_from_trace(f_lo, f_hi, sigma, rng)
        return (f_lo + rng.standard_normal() * sigma,
                f_hi + rng.standard_normal() * sigma, sigma)

    out: dict[str, NucleusMeasurements] = {}
    for nuc in truth.nuclei:
        hf = dipole_tensor(SphericalPosition(nuc.r, nuc.theta, nuc.phi),
                           nuc.a_iso, constants)
        B0 = truth.fields[0].B0
        f0 = precession_frequency(B0, zero, hf, 0, constants=constants)
        f_m1 = precession_frequency(B0, zero, hf, -1, constants=constants)
        tau = truth.tau if truth.tau is not None else nominal_tau(f0, f_m1)
        f_rabi = rabi_frequency(f0, hf.a_par, hf.a_perp, tau)
        f0_m, f_m1_m, s_f = lines(f0, f_m1, noise.sigma_f)
        f_rabi_m = f_rabi + rng.standard_normal() * noise.sigma_f_rabi
        inputs = CouplingInputs(
            f0=f0_m, f_m1=f_m1_m, f_rabi=f_rabi_m, tau=tau,
            sigma_f0=s_f, sigma_f_m1=s_f, sigma_f_rabi=noise.sigma_f_rabi)

        records = []
        for cfg in truth.fields:
            fp0 = precession_frequency(cfg.B0, cfg.dB, hf, 0, constants=constants)
            fp_m1 = precession_frequency(cfg.B0, cfg.dB, hf, -1, constants=constants)
            fp0_m, fp_m1_m, s_fp = lines(fp0, fp_m1, noise.sigma_fp)
            B0_m = cfg.B0.components + rng.standard_normal(3) * noise.sigma_B
            dB_m = cfg.dB.components + rng.standard_normal(3) * noise.sigma_B
            records.append(MeasurementRecord(
                label=cfg.label,
                fp0=fp0_m, sigma_fp0=max(s_fp, _SIGMA_F_FLOOR),
                fp_m1=fp_m1_m, sigma_fp_m1=max(s_fp, _SIGMA_F_FLOOR),
                B0=Vector3(B0_m, frame),
                sigma_B0=np.full(3, max(noise.sigma_B, _SIGMA_B_FLOOR)),
                dB=Vector3(dB_m, frame),
                sigma_dB=np.full(3, max(noise.sigma_B, _SIGMA_B_FLOOR))))
        out[nuc.label] = NucleusMeasurements(inputs=inputs, records=tuple(records))
    return out


def _lines_from_trace(f_lo: float, f_hi: float, sigma: float, rng):
    """Estimate a line pair from a synthesized two-tone trace.

    The trace carries white noise scaled so the fitted line uncertainty is
    of order sigma; the fitted sigma_f is what gets reported downstream.
    """
    from .signal import estimate_frequencies, synth_trace

    n = 4096
    dt = 1.0 / (5.0 * f_hi)
    trace_seed = int(rng.integers(0, 2 ** 63))
    # amplitude noise chosen empirically; 0 sigma still goes through the fit
    noise_amp = 0.0 if sigma == 0.0 else 0.05
    trace = synth_trace([(f_lo, 1.0, 0.0), (f_hi, 0.8, 0.4)],
                        duration=n * dt, dt=dt, noise_sigma=noise_amp,
                        seed=trace_seed)
    lo, hi = estimate_frequencies(trace, 2)
    sigma_f = max(lo.sigma_f, hi.sigma_f, sigma)
    return lo.f, hi.f, sigma_f
