"""Geodesics on the model manifold and boundary-limit model reduction.

A geodesic launched in the sloppiest information direction runs into the
manifold boundary after a finite length; the parameter whose coordinate
diverges there names the next reduction limit.  The geodesic ODE is
integrated in rescaled arc variables (time in units of the initial boundary
distance estimate, velocity scaled to unit norm) so its components are all
order one regardless of how degenerate the metric is.  Near the boundary the
speed blows up like 1/(tau_b - tau), so the trace stops at the first step
whose speed has risen :data:`VEL_RATIO`-fold, and the boundary is found by
extrapolating 1/speed to zero.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dopri import DormandPrince, check_rtol
from .errors import ChainDivergenceError, DomainError, SolverError
from .fim import (
    JAC_STEP,
    central_columns,
    central_points,
    fim,
    generator_map,
    sensitivities,
    spectrum,
)
from .generator import (
    DEFAULT_GRID,
    LIMIT_REMOVES,
    IndependentParams,
    LimitFlags,
    ObservationGrid,
)

__all__ = [
    "GeodesicTrace",
    "BoundaryDiagnosis",
    "contraction_for_map",
    "trace_geodesic",
    "diagnose_boundary",
    "mbam_step",
    "mbam_chain",
    "sloppiest_direction",
]

#: relative eigenvalue floor for inverting the metric near degenerate boundaries
METRIC_FLOOR = 1e-13

#: second-difference step along the direction (log-parameter units)
DIR_STEP = 1e-2

# boundary thresholds of trace_geodesic: the rescaled speed (start speed 1) and
# the largest |log-parameter|; the second keeps exp() of a log-parameter finite
VEL_RATIO = 10.0
LOG_BOUND = 25.0

#: contractions one trace may evaluate: a trace whose step the error control
#: holds small creeps, and ends here as a failure rather than run unbounded
MAX_CONTRACTIONS = 2000

#: default step-control tolerance (rtol) of trace_geodesic
DEFAULT_GEODESIC_RTOL = 1e-6

#: tightest rtol mbam_step takes: the generator's contraction is differenced
#: from model-map solves, and against that noise a tighter error control makes
#: the trace crawl (at 1e-8 a ladder stage is at 4x its launch speed, far from
#: the boundary, after MAX_CONTRACTIONS)
MIN_GEODESIC_RTOL = 1e-7


@dataclass(frozen=True)
class GeodesicTrace:
    taus: np.ndarray
    thetas: np.ndarray  # (n_steps, n_params) log-parameters
    velocities: np.ndarray  # (n_steps, n_params)
    terminated: str  # "boundary" | "max_tau" | "failure"
    param_names: tuple[str, ...]
    detail: str = ""

    def __post_init__(self):
        if len(self.taus) > 1 and not np.all(np.diff(self.taus) > 0):
            raise DomainError("geodesic trace times must be strictly increasing")

    def speed_norms(self) -> np.ndarray:
        return np.linalg.norm(self.velocities, axis=1)


@dataclass(frozen=True)
class BoundaryDiagnosis:
    limit_param: str
    direction: str  # "to_zero" | "to_infinity"
    tau_boundary: float
    velocity_alignment: float

    def __post_init__(self):
        if not 0.0 <= self.velocity_alignment <= 1.0:
            raise DomainError("velocity alignment must lie in [0, 1]")


def _floored_inverse_apply(I: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve I x = rhs through an eigendecomposition with a relative floor.

    Near a boundary the metric degenerates; flooring its eigenvalues keeps the
    geodesic acceleration finite until a termination criterion fires.
    """
    lam, U = np.linalg.eigh(I)
    lam_max = lam[-1]
    if not np.isfinite(lam_max) or lam_max <= 0:
        raise SolverError("metric is not positive")
    lam_f = np.maximum(lam, METRIC_FLOOR * lam_max)
    return U @ ((U.T @ rhs) / lam_f)


def contraction_for_map(f: Callable[[np.ndarray], np.ndarray], log_theta: np.ndarray,
                        v: np.ndarray) -> np.ndarray:
    """Connection-coefficient contraction Gamma[v, v] for a batched map.

    Evaluates metric^-1 J^T (d^2 Y / d tau^2 along v); J is the sensitivity
    rule's central difference (step :data:`~genident.fim.JAC_STEP`) and the
    directional second derivative a central second difference along v, so the
    cost per call is 2n + 3 map evaluations in a single batch rather than O(n^2).
    """
    log_theta = np.asarray(log_theta, dtype=float)
    v = np.asarray(v, dtype=float)
    n = log_theta.size
    vn = np.linalg.norm(v)
    if vn == 0:
        return np.zeros(n)
    vhat = v / vn
    # the Jacobian's pairs, then the centre and the pair along v, in one batch
    Y = f(np.vstack((central_points(log_theta, JAC_STEP), log_theta,
                     log_theta + DIR_STEP * vhat, log_theta - DIR_STEP * vhat)))
    if not np.all(np.isfinite(Y)):
        raise SolverError("map returned non-finite values during contraction")
    J = central_columns(Y, n, JAC_STEP)
    d2 = (Y[2 * n + 1] - 2.0 * Y[2 * n] + Y[2 * n + 2]) / DIR_STEP**2 * vn**2
    return _floored_inverse_apply(J.T @ J, J.T @ d2)


def sloppiest_direction(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Metric-normalized initial velocity along the least identifiable mode.

    The sign is chosen so the dominant component points toward decreasing
    log-parameters, which is where the reduction limits of this model live.
    """
    u = eigenvectors[:, -1].copy()
    if u[np.argmax(np.abs(u))] > 0:
        u = -u
    lam_min = eigenvalues[-1]
    if lam_min <= 0:
        raise SolverError("metric has a non-positive eigenvalue; cannot normalize")
    return u / math.sqrt(lam_min)


def trace_geodesic(f: Callable[[np.ndarray], np.ndarray], theta: np.ndarray,
                   velocity: np.ndarray, *, tau_max: float,
                   rtol: float = DEFAULT_GEODESIC_RTOL,
                   param_names: Sequence[str] | None = None) -> GeodesicTrace:
    """Integrate the geodesic equation from log-parameters ``theta`` with
    d(theta)/d(tau) = ``velocity`` until it reaches a boundary.

    One Dormand–Prince run (:mod:`genident.dopri`, relative tolerance
    ``rtol``, held to :func:`~genident.dopri.check_rtol`) covers the whole
    ``tau_max`` arc budget, no step longer than a twentieth of it.  Every
    accepted step is kept, and the first at which the speed reaches
    :data:`VEL_RATIO` times its launch value, or a log-parameter reaches
    :data:`LOG_BOUND` in magnitude, is the last: a ``boundary``.  Running out
    the budget is ``max_tau``, not a boundary.  A failed step, a model
    breakdown, or a trace that would need more than :data:`MAX_CONTRACTIONS`
    evaluations of the geodesic equation ends a partial trace marked
    ``failure``.  ``tau_max`` must be finite and positive.  ``param_names``
    (default ``p0, p1, ...``) label the trace's columns.
    """
    check_rtol(rtol, "geodesic rtol")
    if not (math.isfinite(tau_max) and tau_max > 0):
        raise DomainError(f"geodesic tau_max must be finite and positive, got {tau_max!r}")
    theta0 = np.asarray(theta, dtype=float)
    v0 = np.asarray(velocity, dtype=float)
    n = theta0.size
    names = tuple(param_names) if param_names is not None else tuple(f"p{i}" for i in range(n))
    v0n = np.linalg.norm(v0)
    if v0n == 0.0:
        # no motion: the trace sits at the start point for the whole budget
        taus = np.array([0.0, tau_max])
        return GeodesicTrace(taus, np.tile(theta0, (2, 1)), np.tile(v0, (2, 1)),
                             "max_tau", names)

    # rescale: s = tau / T, w = v * T with T = 1/|v0|; Gamma[w, w] is bilinear
    # so the T factors cancel and every integrated quantity is order one
    T = 1.0 / v0n
    s_max = tau_max / T

    evals = 0

    def rhs(y):
        nonlocal evals
        evals += 1
        if evals > MAX_CONTRACTIONS:
            raise SolverError(f"no boundary within {MAX_CONTRACTIONS} contractions; "
                              "a looser rtol takes longer steps")
        theta, w = y[:n], y[n:]
        return np.concatenate([w, -contraction_for_map(f, theta, w)])

    ss = [0.0]
    ys = [np.concatenate([theta0, v0 * T])]
    reason, detail = "max_tau", ""
    try:
        solver = DormandPrince(rhs, 0.0, ys[0], s_max, rtol=rtol, atol=1e-8,
                               max_step=s_max / 20.0)
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                reason, detail = "failure", message
                break
            ss.append(solver.t)
            ys.append(solver.y)
            if np.linalg.norm(solver.y[n:]) >= VEL_RATIO:
                reason, detail = "boundary", "speed threshold"
                break
            if np.max(np.abs(solver.y[:n])) >= LOG_BOUND:
                reason, detail = "boundary", "log-parameter bound"
                break
    except (SolverError, FloatingPointError) as exc:
        reason, detail = "failure", str(exc)

    y_all = np.vstack(ys)
    return GeodesicTrace(np.asarray(ss) * T, y_all[:, :n], y_all[:, n:] / T, reason,
                         names, detail)


def _asymptote_tau(trace: GeodesicTrace) -> float:
    """Locate the vertical asymptote by extrapolating 1/|v| to zero.

    Near the boundary 1/|v| falls linearly, like tau_b - tau, so the line
    through its last two points meets zero at tau_b, past the end of the
    trace.  A trace that did not end by rising through :data:`VEL_RATIO`
    times its launch speed (one stopped at :data:`LOG_BOUND`, say) has no
    such fall to extrapolate: its boundary is its last time.
    """
    speeds = trace.speed_norms()
    taus = trace.taus
    if len(speeds) < 2 or speeds[-1] < VEL_RATIO * speeds[0] or speeds[-1] <= speeds[-2]:
        return float(taus[-1])
    # the line through (taus[i], 1 / speeds[i]) for i = -2, -1 meets zero here
    return float(taus[-1] + (taus[-1] - taus[-2]) * speeds[-2] / (speeds[-1] - speeds[-2]))


def diagnose_boundary(trace: GeodesicTrace) -> BoundaryDiagnosis:
    """Name the boundary limit from the terminal behavior of a geodesic.

    The terminal velocity decides the limit even when the initial direction
    mixes several parameters and rotates along the way.
    """
    if trace.terminated != "boundary":
        raise DomainError(f"trace did not reach a boundary (reason: {trace.terminated})")
    v_end = trace.velocities[-1]
    k = int(np.argmax(np.abs(v_end)))
    alignment = float(np.abs(v_end[k]) / np.linalg.norm(v_end))
    direction = "to_zero" if v_end[k] < 0 else "to_infinity"
    return BoundaryDiagnosis(trace.param_names[k], direction, _asymptote_tau(trace), alignment)


def mbam_step(flags: LimitFlags = LimitFlags(), grid: ObservationGrid = DEFAULT_GRID, *,
              rtol: float = DEFAULT_GEODESIC_RTOL,
              ) -> tuple[BoundaryDiagnosis, LimitFlags, GeodesicTrace]:
    """One reduction step: sloppiest geodesic of the flagged model at nominal, diagnosed.

    The geodesic launches from the spectrum of :func:`~genident.fim.sensitivities`
    and is traced with step-control tolerance ``rtol`` (:func:`trace_geodesic`)
    over an arc budget of ten times the square root of the smallest
    eigenvalue, turning round once if the first orientation runs that budget
    out.  Returns the boundary diagnosis, the flag set with the diagnosed limit
    applied, and the trace.  An ``rtol`` that fails
    :func:`~genident.dopri.check_rtol`, or lies below
    :data:`MIN_GEODESIC_RTOL`, raises :class:`DomainError` before anything is
    solved.  A diagnosis that no limit flag can apply (a parameter going to
    infinity, a parameter with no limit, or a flag set that fails validation)
    raises :class:`ChainDivergenceError`.
    """
    check_rtol(rtol, "geodesic rtol")
    if rtol < MIN_GEODESIC_RTOL:
        raise DomainError(f"geo_rtol must be at least {MIN_GEODESIC_RTOL:g} for the "
                          f"generator's geodesic, got {rtol!r}: its differenced "
                          "contraction is too noisy for a tighter step control")
    if flags == LimitFlags.all():
        raise DomainError("no reduction limits remain")
    nominal = IndependentParams.nominal()
    S = sensitivities(nominal, flags, grid)
    active = S.param_names
    spec = spectrum(fim(S), active)
    f = generator_map(flags, grid)
    theta0 = np.log([getattr(nominal, nm) for nm in active])
    lam_min = float(spec.eigenvalues[-1])
    tau_max = 10.0 * math.sqrt(lam_min)
    v0 = sloppiest_direction(spec.eigenvalues, spec.eigenvectors)
    for v in (v0, -v0):  # on max_tau the sign convention was unhelpful: turn round
        trace = trace_geodesic(f, theta0, v, tau_max=tau_max, rtol=rtol,
                               param_names=active)
        if trace.terminated != "max_tau":
            break
    if trace.terminated != "boundary":
        raise SolverError(f"geodesic did not reach a boundary ({trace.terminated}: {trace.detail})")
    diag = diagnose_boundary(trace)
    limit = next((nm for nm, param in LIMIT_REMOVES.items() if param == diag.limit_param), None)
    if limit is None or diag.direction != "to_zero":
        raise ChainDivergenceError(
            f"diagnosed limit {diag.limit_param} {diag.direction} is not a reduction limit",
            diagnosis=diag)
    try:
        return diag, replace(flags, **{limit: True}), trace
    except DomainError as exc:
        raise ChainDivergenceError(f"diagnosed limit {diag.limit_param} to_zero cannot be "
                                   f"applied to {flags}: {exc}", diagnosis=diag) from None


def mbam_chain(grid: ObservationGrid = DEFAULT_GRID, *,
               rtol: float = DEFAULT_GEODESIC_RTOL) -> list[dict]:
    """Run reduction steps from the full model while limits remain; returns stage reports.

    ``rtol`` goes to every :func:`mbam_step`.  Each stage applies the limit it
    diagnoses, so the order of the stages is what the geodesics find, not a
    fixed chain.

    Each finished stage reports ``from_params`` -> ``to_params``, the
    diagnosed limit, its wall-clock and its geodesic ``trace``.  A stage that
    raises :class:`ChainDivergenceError` or :class:`SolverError` ends the
    chain with a divergence record in place of a reduction: it has
    ``from_params`` and the error message under ``divergence``, but no
    ``to_params`` and no ``trace``.  Its ``limit_param``, ``direction``,
    ``tau_boundary`` and ``velocity_alignment`` are the diagnosis that could
    not be applied (the first two are None when no boundary was diagnosed).
    The finished stages before it are kept.
    """
    flags = LimitFlags()
    out = []
    while flags != LimitFlags.all():
        n_before = len(flags.active_params())
        t0 = time.monotonic()
        entry = {"from_params": n_before}
        try:
            diag, next_flags, trace = mbam_step(flags, grid, rtol=rtol)
            entry["to_params"] = n_before - 1
        except (ChainDivergenceError, SolverError) as exc:
            diag = getattr(exc, "diagnosis", None)
            trace = next_flags = None
            entry["divergence"] = str(exc)
        if diag is None:
            entry.update(limit_param=None, direction=None)
        else:
            entry.update(asdict(diag))
        entry["wall_clock_s"] = round(time.monotonic() - t0, 3)
        if trace is not None:
            entry["trace"] = trace
        out.append(entry)
        if next_flags is None:
            break
        flags = next_flags
    return out
