"""Monte Carlo propagation of measurement uncertainties to (phi, a_iso, r, theta).

Every sample redraws all uncertain inputs from independent normals, re-runs
the extraction + azimuth fit + inversion pipeline, and contributes one
scatter point. Sampling is keyed per page of _PAGE consecutive sample
indices with a counter-based generator: sample i takes row i % _PAGE of its
page's draws, whatever admission draws the page. With the numerics below
strictly elementwise per sample, the result is bit-identical no matter how
the lane pool splits the samples into admissions.

The per-sample fit is the point fit's box-bounded Levenberg-Marquardt solver
(``localize._levenberg_marquardt``, whose NL2SOL secant curvature term lets
samples at large residuals converge) on the same lane-wise xi kernel
(``dynamics.xi_kernel``), with every sample's perturbed fields as its own
lane, and stopped at the precision the reports can show (the ``sample``
pools of ``localize._lm_step``). Each sample starts at its linear start: the
unperturbed optimum plus the first-order change that the solver's first
step would make for its draws, from one sensitivity matrix per nucleus
(``_slope``, one kernel call on the nucleus's own lanes; the linear
approximation of nonlinear regression, Bates and Watts, Nonlinear
Regression Analysis and Its Applications, 1988, ch. 2), zero where that
start is not trusted. Where a sample's cost has two minima inside its box,
that start can end it in the other one than a start at the optimum would.
The lane pool (``localize._solve``) alone groups and blocks lanes: the
samples of all nuclei of a ``propagate_many`` call that share a record
count are solved in one pool, a fixed a_iso held by an a_iso box of zero
width, which admits them in order as earlier lanes stop.
Basin hops to mirror minima are deliberately not sampled, since degenerate
minima are reported separately by the fit itself: the box keeps each sample
near the point fit, and samples that end on its edge are counted in
``SolverStats.at_bound``.

Each sample's one record is its solver lane (``localize._LaneFit``): the
couplings its lines extract and its fit. Lines that do not extract give a
NaN a_perp, which stays NaN through the kernel, the cost and the inversion
like any other failure; ``_estimate`` reads every outcome from the lanes and
applies each gate once.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_CONSTANTS, PhysicalConstants
from .dipole import invert_dipole, invert_many
from .dynamics import XiKernel, xi_kernel
from .errors import ConvergenceError, InconsistentInputError
from .extract import CouplingEstimate, _extract_arrays
from .localize import (_LANE_BLOCK, _LM_LAMBDA0, AzimuthFit, _dot, _isolate,
                       _LaneFit, _newton, _normal, _solve, fit_azimuths)

_TWO_PI = 2.0 * math.pi

PARAMETERS = ("phi", "a_iso", "r", "theta")
_COLUMN = {name: k for k, name in enumerate(PARAMETERS)}

# more samples failing the coupling extraction than this fraction abort the
# propagation, before any other failure is counted
MAX_EXTRACTION_FAILURE_FRACTION = 0.01
# more failed samples than this fraction abort the propagation
MAX_FAILURE_FRACTION = 0.05
# levels of the reported confidence intervals
CONFIDENCE_LEVELS = (0.6827, 0.95)


class PointEstimate(NamedTuple):
    phi: float    # rad
    a_iso: float  # Hz
    r: float      # m
    theta: float  # rad


class SolverStats(NamedTuple):
    """Per-sample solver outcome over the samples that did not fail."""

    max_iterations: int  # most Levenberg-Marquardt iterations of any sample
    unconverged: int     # samples stopped by the iteration cap at their best point
    at_bound: int        # samples that end on the edge of the search box


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 40_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 100:
            raise ValueError(f"n_samples must be at least 100, got {self.n_samples!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class EstimateResult:
    """Point estimates, confidence intervals and the scatter behind them.

    ``point`` is the fit on unperturbed inputs (primary), ``fit`` the
    azimuth fit behind it, ``solver`` the samples' solver outcome and
    ``coupling_sigma`` the sample standard deviations (a_par, a_perp) in Hz
    of the couplings extracted from the drawn frequency triplets (all None
    when built by hand). ``ci`` maps parameter name -> confidence level
    (CONFIDENCE_LEVELS) -> (low, high). For phi the interval brackets the
    circular spread around the circular mean and its endpoints may fall
    outside [0, 2pi) so that low < high always holds. The result keeps its
    own read-only copy of ``scatter``; ``_estimate`` alone passes ``_adopt``
    to hand over a read-only array that nothing else holds, without a copy.
    """

    point: PointEstimate
    ci: dict
    scatter: np.ndarray  # (n_ok, 4) columns phi, a_iso, r, theta
    n_samples: int
    n_failed: int
    fit: AzimuthFit | None = None
    solver: SolverStats | None = None
    coupling_sigma: tuple[float, float] | None = None
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        s = np.asarray(self.scatter, dtype=float)
        if s.ndim != 2 or s.shape[1] != 4:
            raise ValueError("scatter must have shape (n, 4)")
        if s.shape[0] != self.n_samples - self.n_failed:
            raise ValueError("scatter length must equal n_samples - n_failed")
        if not _adopt:
            s = s.copy()
            s.setflags(write=False)
        object.__setattr__(self, "scatter", s)


def circular_mean(phi: np.ndarray) -> float:
    return float(np.arctan2(np.mean(np.sin(phi)), np.mean(np.cos(phi)))) % _TWO_PI


def _recenter(phi: np.ndarray, center: float) -> np.ndarray:
    """Signed deviations from center, in (-pi, pi]."""
    return (np.asarray(phi) - center + math.pi) % _TWO_PI - math.pi


# Sample search box around the point fit (``_half_box``): phi +-_PHI_BOX
# (+-_PHI_BOX_FREE when a_iso is free) and a_iso +-_ISO_BOX when it is free.
# Samples whose minimum lies outside stay on its edge, counted as at_bound,
# rather than hop to a farther basin.
_PHI_BOX = math.pi / 6.0
_PHI_BOX_FREE = math.pi / 6.0 + 0.4  # rad
_ISO_BOX = 140e3                     # Hz
# samples drawn from one keyed generator
_PAGE = 256


def _draws(lo: int, hi: int, seed: int, n_draws: int) -> np.ndarray:
    """(hi - lo, n_draws) normals for samples lo..hi-1: sample i's are row
    i % _PAGE of standard_normal((_PAGE, n_draws)) on Philox keyed
    [seed, i // _PAGE]. Every page from lo's to hi - 1's is drawn whole into
    one buffer, by one generator re-keyed per page from a state of Python
    ints, which its setter converts faster than numpy scalars, and the
    samples' rows are a slice of that buffer."""
    bg = np.random.Philox(key=0)  # re-keyed below; a key >= 2**63 warns here
    rng = np.random.Generator(bg)
    zeros = [0, 0, 0, 0]
    key = [seed, 0]
    state = {"bit_generator": "Philox", "buffer": zeros, "buffer_pos": 4,
             "state": {"counter": zeros, "key": key}, "has_uint32": 0, "uinteger": 0}
    first, last = lo // _PAGE, (hi - 1) // _PAGE
    buf = np.empty(((last + 1 - first) * _PAGE, n_draws))
    for page in range(first, last + 1):
        key[1] = page
        bg.state = state
        start = (page - first) * _PAGE
        rng.standard_normal(out=buf[start:start + _PAGE])
    return buf[lo - first * _PAGE:hi - first * _PAGE]


@dataclass(eq=False)
class _Nucleus:
    """One problem of ``propagate_many`` on its way through the passes; the
    first error it meets ends it."""

    records: list
    coupling: CouplingEstimate
    fix_a_iso: float | None
    error: Exception | None = None
    fit: AzimuthFit | None = None
    point: PointEstimate | None = None
    # per sample: its couplings and the solver's outcome
    lanes: _LaneFit | None = None
    # the sensitivity of the samples' first solver step to their draws
    # (``_slope``), zero where the samples start at the point fit
    slope: np.ndarray | None = None


def _check_inputs(nuc: _Nucleus):
    if nuc.coupling.inputs is None:
        raise ValueError("coupling must carry its raw inputs to propagate")


def _set_point(nuc: _Nucleus, fit: AzimuthFit, constants):
    pos = invert_dipole(nuc.coupling.a_par, nuc.coupling.a_perp, fit.a_iso,
                        constants)
    nuc.fit = fit
    nuc.point = PointEstimate(fit.phi, fit.a_iso, pos.r, pos.theta)


def _lanes(nuc: _Nucleus, draws: np.ndarray, constants) -> XiKernel:
    """The xi kernel of a nucleus's inputs moved by ``draws``, one row of
    3 + 8 x records normals per lane in the draw order of ``propagate``, at
    the couplings that each row's lines extract: a lane whose lines do not
    extract has a NaN a_perp, and with it a NaN xi."""
    records, inputs = nuc.records, nuc.coupling.inputs
    a_par, a_perp = _extract_arrays(
        inputs.f0 + inputs.sigma_f0 * draws[:, 0],
        inputs.f_m1 + inputs.sigma_f_m1 * draws[:, 1],
        inputs.f_rabi + inputs.sigma_f_rabi * draws[:, 2],
        inputs.tau, nuc.coupling.method)
    # per record: the splitting fp_m1 - fp0, then B0 and dB, all perturbed
    return xi_kernel((
        (rec.fp_m1 + rec.sigma_fp_m1 * draws[:, k + 1]
         - (rec.fp0 + rec.sigma_fp0 * draws[:, k]),
         rec.B0.components[:, None] + rec.sigma_B0[:, None] * draws[:, k + 2:k + 5].T,
         rec.dB.components[:, None] + rec.sigma_dB[:, None] * draws[:, k + 5:k + 8].T)
        for k, rec in zip(range(3, 3 + 8 * len(records), 8), records)),
        a_par, a_perp, constants)


# Central-difference step of the input sensitivities, in sigma units. A
# central difference of xi misses h^2 xi''' / 6 and carries a rounding
# error of about eps |f| / h, f ~ 4e5 Hz being the precession frequencies
# whose difference xi is. On 60 random geometries over the test ranges, S
# at h = 0.1 and 0.01 differed from S at 1e-3 by up to 1.4e-7 and 1.3e-9 of
# its largest entry (the h^2 term, about 1.4e-5 h^2), and at h = 1e-4, 1e-5
# and 1e-6 by up to 2.0e-9, 1.9e-8 and 2.8e-7 (the 1/h term, about
# 2e-13 / h). Their sum is least near h = 2.5e-3; at h = 1e-3 S is good to
# about 2e-10 of its largest entry, far below the second-order error of the
# linear start itself, which the solver removes.
_SENSITIVITY_STEP = 1e-3
# A nucleus's linear starts are trusted where they spread, at this many
# standard deviations, no wider than its sample box. Wider spreads mean the
# first damped step overshoots a cost that is poorly determined over the
# box, where it would be rejected in the solver, and linear starts there
# end in another basin than starts at the point fit for up to 16 % of a
# nucleus's samples (3546 random geometries over the test ranges at 300
# samples: 15 geometries above 2 %). With the guard no geometry was above
# 1.3 %.
_START_SIGMAS = 2.0


def _half_box(nuc: _Nucleus) -> tuple:
    """The half-widths (phi, a_iso) of a nucleus's sample box."""
    return (_PHI_BOX_FREE, _ISO_BOX) if nuc.fix_a_iso is None else (_PHI_BOX, 0.0)


def _slope(nuc: _Nucleus, constants) -> np.ndarray:
    """The (2, 3 + 8 x records) sensitivity S of a nucleus's first damped
    solver step from its point fit to its draws. S is zero, and the samples
    start at the point fit, where it is not finite (a damped pivot that is
    not positive gives an infinite step) or where _START_SIGMAS standard
    deviations of a linear start, the norm of S's phi or a_iso row, reach
    past the half-width of the sample box.

    With J0 the (phi, a_iso) Jacobian of xi at the point fit and D the
    central differences dxi / d(draws),
    S = -(J0^T J0 + _LM_LAMBDA0 diag(J0^T J0))^-1 J0^T D, the solver's own
    step solve (``localize._newton``) with a_iso pinned where its sample box
    has zero width: the solver's first step, its secant term still zero,
    linearized at the point fit. Like the Gauss-Newton matrix, it leaves out the terms that
    the point fit's residual xi0 brings, here (dJ / d(draws))^T xi0, so it
    is the first step's derivative exactly only where xi0 vanishes. One
    kernel call gives xi and J0 on the lanes of draws 0 and +-h e_k for
    every input k, all at the point fit."""
    n_in = 3 + 8 * len(nuc.records)
    step = _SENSITIVITY_STEP * np.eye(n_in)
    draws = np.concatenate([np.zeros((1, n_in)), step, -step])
    m, half = len(draws), _half_box(nuc)
    res, *jac = _lanes(nuc, draws, constants)(np.full(m, nuc.point.phi),
                                              np.full(m, nuc.point.a_iso))
    d = (res[:, 1:1 + n_in] - res[:, 1 + n_in:]) / (2.0 * _SENSITIVITY_STEP)
    a, b, c, g, h = _normal([j[:, 0, None] for j in jac], d)
    slope = np.stack(_newton(a * (1.0 + _LM_LAMBDA0), b, c * (1.0 + _LM_LAMBDA0),
                             g, h, False, half[1] == 0.0))
    spread = np.sqrt((slope * slope).sum(axis=1))
    if np.isfinite(slope).all() and (_START_SIGMAS * spread <= half).all():
        return slope
    return np.zeros_like(slope)


def _sample_lanes(nuc: _Nucleus, lo: int, hi: int, seed: int, constants):
    """The solver lanes of samples lo..hi-1 of a nucleus, in the form
    ``localize._levenberg_marquardt`` takes them: each sample's perturbed
    fields and splittings in a kernel lane, started at its linear start,
    the point fit plus ``nuc.slope`` times its draws, clipped into its
    search box (``_half_box``); a zero slope starts every sample at the
    point fit itself, bit for bit. A sample whose drawn lines do not extract
    has no finite cost at its start, and the solver returns it unchanged."""
    draws = _draws(lo, hi, seed, 3 + 8 * len(nuc.records))
    point, (half_phi, half_iso) = nuc.point, _half_box(nuc)
    phi_box = (point.phi - half_phi, point.phi + half_phi)
    iso_box = (point.a_iso - half_iso, point.a_iso + half_iso)
    # each lane sums over its own row of draws, never with a BLAS product,
    # so that its start does not depend on the lane block
    phi = np.clip(point.phi + _dot(nuc.slope[0][:, None], draws.T), *phi_box)
    iso = np.clip(point.a_iso + _dot(nuc.slope[1][:, None], draws.T), *iso_box)
    return _lanes(nuc, draws, constants), phi, iso, phi_box, iso_box


def _quantiles(values: np.ndarray, probs) -> np.ndarray:
    """``np.quantile(values, probs)`` of a finite 1-d array, bit for bit,
    with numpy's default linear rule written out: the virtual index (n - 1) p
    between order statistics a and b, and numpy's two-sided interpolation.
    One partition of ``values`` in place, at numpy's own split points (the
    ends too, so that tied zeros of either sign land as numpy's do), finds
    every order statistic; numpy's quantile path, whose first call imports
    numpy.ma, is never entered."""
    virtual = (values.size - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(virtual)
    t = virtual - lo
    lo = lo.astype(np.intp)
    hi = np.minimum(lo + 1, values.size - 1)
    values.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = values[lo], values[hi]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1.0 - t), a + diff * t)


def _estimate(nuc: _Nucleus, n: int, constants) -> EstimateResult:
    """The gates, intervals and solver counts of a nucleus's solved samples.
    Releases the nucleus's lanes once the scatter is built."""
    lanes, extracted = nuc.lanes, np.isfinite(nuc.lanes.a_perp)
    n_unextracted = int(n - extracted.sum())
    if n_unextracted > MAX_EXTRACTION_FAILURE_FRACTION * n:
        raise InconsistentInputError(
            f"{n_unextracted}/{n} samples failed the exact transformation; "
            "input uncertainties are too large for these frequencies")
    # inverted a lane block at a time: the temporaries of one inversion of
    # every sample would set the peak memory of a run
    r, theta = np.empty(n), np.empty(n)
    for k in range(0, n, _LANE_BLOCK):
        block = slice(k, k + _LANE_BLOCK)
        r[block], theta[block] = invert_many(lanes.a_par[block], lanes.a_perp[block],
                                             lanes.a_iso[block], constants)
    # failed samples: couplings that do not extract (a NaN a_perp, and so a
    # NaN cost) or invert, or a resonant enhancement denominator
    good = np.isfinite(lanes.cost) & np.isfinite(r)
    n_failed = int(n - good.sum())
    if n_failed > MAX_FAILURE_FRACTION * n:
        raise ConvergenceError(
            f"{n_failed}/{n} Monte Carlo samples failed the pipeline; "
            "uncertainties are too large for a meaningful propagation")
    if n_failed == n:
        raise ConvergenceError("all Monte Carlo samples failed")
    solver = SolverStats(max_iterations=int(lanes.iterations[good].max()),
                         unconverged=int((~lanes.converged[good]).sum()),
                         at_bound=int(lanes.at_bound[good].sum()))
    coupling_sigma = (float(np.std(lanes.a_par[extracted], ddof=1)),
                      float(np.std(lanes.a_perp[extracted], ddof=1)))
    scatter = np.empty((n - n_failed, 4))
    for col, values in enumerate((lanes.phi, lanes.a_iso, r, theta)):
        scatter[:, col] = values[good] % _TWO_PI if col == 0 else values[good]
    scatter.setflags(write=False)  # the result keeps it without a copy
    nuc.lanes = None
    del lanes, extracted, r, theta, good

    # the lower and upper tail of every level, per column; phi's are those of
    # its deviations from the circular mean
    tails = [p for lv in CONFIDENCE_LEVELS
             for p in ((1.0 - lv) / 2.0, 1.0 - (1.0 - lv) / 2.0)]
    mu = circular_mean(scatter[:, 0])
    ci: dict = {}
    for name, col in _COLUMN.items():
        values = (_recenter(scatter[:, 0], mu) if name == "phi"
                  else scatter[:, col].copy())
        q = _quantiles(values, tails).tolist()
        if name == "phi":
            q = [mu + v for v in q]
        ci[name] = {lv: (q[2 * k], q[2 * k + 1])
                    for k, lv in enumerate(CONFIDENCE_LEVELS)}
    return EstimateResult(point=nuc.point, ci=ci, scatter=scatter,
                          n_samples=n, n_failed=n_failed, fit=nuc.fit,
                          solver=solver, coupling_sigma=coupling_sigma,
                          _adopt=True)


def propagate_many(problems, mc: McConfig,
                   constants: PhysicalConstants = DEFAULT_CONSTANTS) -> list:
    """``propagate`` of every (records, coupling, fix_a_iso) problem.

    Returns one entry per problem, in order: its EstimateResult, or the
    SpinlocError or ValueError that ended it. The passes run over all
    problems at once: the point fits (``localize.fit_azimuths``), then one
    sensitivity kernel call per nucleus (``_slope``), then the samples, one
    job per nucleus (``localize._solve``: one lane pool per record count,
    fixed and free a_iso alike), then each problem's gates and intervals.
    Every result equals that of the problem alone.
    """
    nuclei = [_Nucleus(list(records), coupling, fix_a_iso)
              for records, coupling, fix_a_iso in problems]
    for nuc in nuclei:
        nuc.error = _isolate(_check_inputs, nuc)
    live = [nuc for nuc in nuclei if nuc.error is None]
    fits = fit_azimuths([(nuc.records, nuc.coupling, nuc.fix_a_iso) for nuc in live],
                        constants=constants)
    for nuc, fit in zip(live, fits):
        nuc.error = fit if isinstance(fit, Exception) else _isolate(
            _set_point, nuc, fit, constants)
    live = [nuc for nuc in live if nuc.error is None]
    for nuc in live:
        nuc.slope = _slope(nuc, constants)
    n = mc.n_samples

    def job(nuc):
        return len(nuc.records), n, lambda lo, hi: _sample_lanes(
            nuc, lo, hi, mc.seed, constants)

    # each nucleus holds the only reference to its lanes, so that
    # ``_estimate`` releases them
    for nuc, lanes in zip(live, _solve(map(job, live), True)):
        nuc.lanes = lanes
    return [nuc.error or _isolate(_estimate, nuc, n, constants)
            for nuc in nuclei]


def propagate(records, coupling, mc: McConfig, fix_a_iso: float | None = None,
              constants: PhysicalConstants = DEFAULT_CONSTANTS) -> EstimateResult:
    """Full uncertainty propagation for one nucleus.

    The coupling must carry its raw inputs: every sample re-extracts the
    couplings from a drawn frequency triplet with the coupling's method.
    Per-sample draw order is fixed and documented: first f0, f_m1, f_rabi,
    then per record fp0, fp_m1, B0x, B0y, B0z, dBx, dBy, dBz. Sample i
    takes row i % _PAGE of the (_PAGE, draws) normals of a generator keyed
    by (seed, i // _PAGE), so any split of the samples into lane pool
    admissions produces the same scatter. Once all samples are solved, more
    than MAX_EXTRACTION_FAILURE_FRACTION of them failing the extraction
    raises InconsistentInputError; samples that fail extraction, inversion
    or the fit are dropped and counted, and more than MAX_FAILURE_FRACTION
    of them aborts. Every sample starts at the point fit on the unperturbed
    inputs moved by the first-order change its draws make in the solver's
    first step, or not moved where that change is not trusted (``_slope``);
    the point fit is returned as ``result.fit``, so callers need
    not fit again. The one-problem case of ``propagate_many``.
    """
    (result,) = propagate_many([(records, coupling, fix_a_iso)], mc, constants)
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray   # bins + 1 edges, in the parameter's native units
    counts: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float).copy()
        c = np.asarray(self.counts).copy()
        if len(e) != len(c) + 1:
            raise ValueError("need len(edges) = len(counts) + 1")
        e.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "counts", c)


def histogram(scatter: np.ndarray, parameter: str, bins: int) -> Histogram:
    """Marginal histogram of one scatter column; counts sum to len(scatter).

    phi is binned circularly: values are recentered on their circular mean
    before binning so a mode wrapping 0/2pi stays contiguous. The returned
    edges are then in recentered coordinates (mean + deviation), which may
    extend slightly outside [0, 2pi).
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins!r}")
    s = np.asarray(scatter, dtype=float)
    if s.ndim != 2 or s.shape[1] != 4 or s.shape[0] == 0:
        raise ValueError("scatter must be a non-empty (n, 4) array")
    if parameter not in _COLUMN:
        raise ValueError(f"parameter must be one of {PARAMETERS}, got {parameter!r}")
    col = s[:, _COLUMN[parameter]]
    if parameter == "phi":
        mu = circular_mean(col)
        dev = _recenter(col, mu)
        counts, edges = np.histogram(dev, bins=bins, range=(-math.pi, math.pi))
        return Histogram(edges=mu + edges, counts=counts)
    counts, edges = np.histogram(col, bins=bins)
    return Histogram(edges=edges, counts=counts)
