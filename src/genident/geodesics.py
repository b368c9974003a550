"""Geodesics on the model manifold and boundary-limit model reduction.

A geodesic launched in the sloppiest information direction runs into the
manifold boundary after a finite length; the parameter whose coordinate
diverges there names the next reduction limit.  The geodesic ODE is
integrated in rescaled arc variables (time in units of the initial boundary
distance estimate, velocity scaled to unit norm) so its components are all
order one regardless of how degenerate the metric is.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import ChainDivergenceError, DomainError, SolverError
from .fim import central_difference_jacobian, fim, generator_map, spectrum
from .generator import (
    DEFAULT_GRID,
    IQ_STANDARD,
    LIMIT_CHAIN,
    LIMIT_REMOVES,
    IndependentParams,
    LimitFlags,
    ObservationGrid,
)

__all__ = [
    "GeodesicState",
    "GeodesicTrace",
    "BoundaryDiagnosis",
    "christoffel_contraction",
    "contraction_for_map",
    "trace_geodesic",
    "diagnose_boundary",
    "mbam_step",
    "mbam_chain",
    "sloppiest_direction",
]

#: relative eigenvalue floor for inverting the metric near degenerate boundaries
METRIC_FLOOR = 1e-13

#: finite-difference steps (log-parameter units)
JAC_STEP = 1e-4
DIR_STEP = 1e-2

# a geodesic whose speed has risen this many times its start speed, and then
# grows by less than _PLATEAU_GROWTH (relative) over a chunk, has saturated
# against the metric floor
_PLATEAU_RATIO = 10.0
_PLATEAU_GROWTH = 0.02

#: model evaluations allowed per geodesic chunk before it counts as stalled
_CHUNK_EVAL_BUDGET = 300

_EPS = np.finfo(float).eps


class _ChunkStalled(Exception):
    """Internal: a geodesic chunk exhausted its evaluation budget."""


@dataclass(frozen=True)
class GeodesicState:
    theta: np.ndarray  # log-parameters
    velocity: np.ndarray  # d(theta)/d(tau)


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
        raise SolverError("metric is not positive", condition_number=float("inf"))
    lam_f = np.maximum(lam, METRIC_FLOOR * lam_max)
    return U @ ((U.T @ rhs) / lam_f)


def contraction_for_map(f: Callable[[np.ndarray], np.ndarray], log_theta: np.ndarray,
                        v: np.ndarray) -> np.ndarray:
    """Connection-coefficient contraction Gamma[v, v] for a batched map.

    Evaluates metric^-1 J^T (d^2 Y / d tau^2 along v); the directional second
    derivative is a central second difference along v, so the cost per call is
    2n + 3 map evaluations in a single batch rather than O(n^2).
    """
    log_theta = np.asarray(log_theta, dtype=float)
    v = np.asarray(v, dtype=float)
    n = log_theta.size
    vn = np.linalg.norm(v)
    if vn == 0:
        return np.zeros(n)
    vhat = v / vn
    pts = np.repeat(log_theta[None, :], 2 * n + 3, axis=0)
    for j in range(n):
        pts[2 * j, j] += JAC_STEP
        pts[2 * j + 1, j] -= JAC_STEP
    pts[2 * n + 1] += DIR_STEP * vhat
    pts[2 * n + 2] -= DIR_STEP * vhat
    Y = f(pts)
    if not np.all(np.isfinite(Y)):
        raise SolverError("map returned non-finite values during contraction")
    J = np.stack([(Y[2 * j] - Y[2 * j + 1]) / (2 * JAC_STEP) for j in range(n)], axis=1)
    d2 = (Y[2 * n + 1] - 2.0 * Y[2 * n] + Y[2 * n + 2]) / DIR_STEP**2 * vn**2
    return _floored_inverse_apply(J.T @ J, J.T @ d2)


def christoffel_contraction(p: IndependentParams, v: np.ndarray,
                            flags: LimitFlags = LimitFlags(),
                            grid: ObservationGrid = DEFAULT_GRID, *,
                            iq_form: str = IQ_STANDARD) -> np.ndarray:
    """Gamma[v, v] for the generator model at a parameter point (log coordinates)."""
    f = generator_map(flags, grid, iq_form=iq_form)
    theta = np.log([getattr(p, nm) for nm in flags.active_params()])
    return contraction_for_map(f, theta, v)


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


def trace_geodesic(f: Callable[[np.ndarray], np.ndarray], start: GeodesicState, *,
                   tau_max: float, vel_ratio: float = 1e3, log_bound: float = 25.0,
                   rtol: float = 1e-6,
                   param_names: Sequence[str] | None = None) -> GeodesicTrace:
    """Integrate the geodesic equation until a boundary indicator fires.

    Three signals count as reaching a boundary: a log-parameter exceeding
    ``log_bound``, the velocity norm growing past ``vel_ratio`` times its
    initial value, or the velocity saturating against the metric floor (risen
    by at least ``_PLATEAU_RATIO`` and then flat to within ``_PLATEAU_GROWTH``
    over a whole chunk).  The last matters for singular limits: past the
    floor the underlying model grows ever stiffer and chasing the nominal
    thresholds would cost unbounded work for no extra information.

    Integration proceeds in chunks whose arc length is capped so that no
    chunk travels more than about one log-unit, keeping the post-saturation
    overshoot bounded.  Every accepted step is kept.  A chunk that burns its
    evaluation budget has stalled: at a boundary if the speed it reached had
    risen by ``_PLATEAU_RATIO``, else a ``failure``.  Running out the
    ``tau_max`` arc budget is not a boundary; model breakdown yields a partial
    trace marked ``failure``.
    """
    theta0 = np.asarray(start.theta, dtype=float)
    v0 = np.asarray(start.velocity, dtype=float)
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

    budget = {"left": 0}

    def rhs(s, y):
        if budget["left"] <= 0:
            raise _ChunkStalled()
        budget["left"] -= 1
        theta, w = y[:n], y[n:]
        return np.concatenate([w, -contraction_for_map(f, theta, w)])

    # threshold indicators; a boundary is where one changes sign
    indicators = (lambda y: np.linalg.norm(y[n:]) - vel_ratio,
                  lambda y: np.max(np.abs(y[:n])) - log_bound)

    ss = [0.0]
    ys = [np.concatenate([theta0, v0 * T])]
    reason = "max_tau"
    detail = ""
    ds_base = s_max / 20.0
    first_step = None
    while ss[-1] < s_max:
        s_now, y_now = ss[-1], ys[-1]
        w_norm = np.linalg.norm(y_now[n:])
        ds = min(ds_base, 1.0 / max(w_norm, 1.0), s_max - s_now)
        budget["left"] = _CHUNK_EVAL_BUDGET
        g = [ind(y_now) for ind in indicators]
        try:
            solver = RK45(rhs, s_now, y_now, s_now + ds, rtol=rtol, atol=1e-8, max_step=ds,
                          first_step=None if first_step is None else min(first_step, 0.5 * ds))
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    reason, detail = "failure", message or ""
                    break
                first_step = solver.t - solver.t_old
                g_new = [ind(solver.y) for ind in indicators]
                crossed = [i for i, (a, b) in enumerate(zip(g, g_new))
                           if (a <= 0 <= b) or (a >= 0 >= b)]
                if crossed:
                    sol = solver.dense_output()
                    s_hit = min(brentq(lambda s, i=i: indicators[i](sol(s)),
                                       solver.t_old, solver.t, xtol=4 * _EPS, rtol=4 * _EPS)
                                for i in crossed)
                    ss.append(s_hit)
                    ys.append(sol(s_hit))
                    reason, detail = "boundary", "threshold event"
                    break
                g = g_new
                ss.append(solver.t)
                ys.append(solver.y)
        except _ChunkStalled:
            # near a boundary the solver stops converging because the
            # acceleration is dominated by differencing noise or blows up, so
            # the chunk burns its evaluation budget; the speed it reached
            # tells a boundary from a stall in the middle of the manifold
            if np.linalg.norm(ys[-1][n:]) >= _PLATEAU_RATIO:
                reason = "boundary"
                detail = "velocity growth stalled against the metric floor"
            else:
                reason, detail = "failure", "geodesic stalled before any blow-up"
        except (SolverError, FloatingPointError) as exc:
            reason, detail = "failure", str(exc)
        if reason != "max_tau":
            break
        w_end = np.linalg.norm(ys[-1][n:])
        if w_end >= _PLATEAU_RATIO and w_end - w_norm <= _PLATEAU_GROWTH * w_end:
            reason, detail = "boundary", "velocity saturated at the metric floor"
            break

    taus = np.asarray(ss) * T
    y_all = np.vstack(ys)
    thetas = y_all[:, :n]
    velocities = y_all[:, n:] / T
    keep = np.concatenate([[True], np.diff(taus) > 0])
    return GeodesicTrace(taus[keep], thetas[keep], velocities[keep], reason, names, detail)


def _asymptote_tau(trace: GeodesicTrace) -> float:
    """Locate the vertical asymptote by extrapolating 1/|v| to zero.

    The metric floor eventually freezes the velocity growth, so the fit uses
    only the strictly rising part of the speed profile.
    """
    speeds = trace.speed_norms()
    v0 = speeds[0]
    i_peak = int(np.argmax(speeds))
    v_peak = speeds[i_peak]
    rising = [i for i in range(i_peak + 1)
              if 2.0 * v0 <= speeds[i] <= 0.9 * v_peak]
    if len(rising) < 3 or v_peak < 5.0 * v0:
        return float(trace.taus[-1])
    idx = rising[-12:]
    x = trace.taus[idx]
    y = 1.0 / speeds[idx]
    b, a = np.polyfit(x, y, 1)
    if b >= 0:
        return float(trace.taus[-1])
    tau_b = -a / b
    lo, hi = float(trace.taus[idx[-1]]), float(trace.taus[-1])
    return float(min(max(tau_b, lo), hi))


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
              iq_form: str = IQ_STANDARD, vel_ratio: float = 1e3, log_bound: float = 25.0,
              rtol: float = 1e-6) -> tuple[BoundaryDiagnosis, LimitFlags, GeodesicTrace]:
    """One reduction step: sloppiest geodesic of the flagged model at nominal, diagnosed.

    Returns the boundary diagnosis, the augmented flag set, and the trace.
    A diagnosis that does not match the next limit of the supported chain
    raises :class:`ChainDivergenceError` rather than being silently accepted.
    """
    if flags.count() >= len(LIMIT_CHAIN):
        raise DomainError("no reduction limits remain")
    f = generator_map(flags, grid, iq_form=iq_form)
    active = flags.active_params()
    theta0 = np.log([getattr(IndependentParams.nominal(), nm) for nm in active])
    J = central_difference_jacobian(f, theta0, JAC_STEP)
    spec = spectrum(fim(J), active)
    lam_min = float(spec.eigenvalues[-1])
    tau_max = 10.0 * math.sqrt(lam_min)
    v0 = sloppiest_direction(spec.eigenvalues, spec.eigenvectors)
    for v in (v0, -v0):  # on max_tau the sign convention was unhelpful: turn round
        trace = trace_geodesic(f, GeodesicState(theta0, v), tau_max=tau_max,
                               vel_ratio=vel_ratio, log_bound=log_bound, rtol=rtol,
                               param_names=active)
        if trace.terminated != "max_tau":
            break
    if trace.terminated != "boundary":
        raise SolverError(f"geodesic did not reach a boundary ({trace.terminated}: {trace.detail})")
    diag = diagnose_boundary(trace)
    next_flag = LIMIT_CHAIN[flags.count()]
    expected_param = LIMIT_REMOVES[next_flag]
    if diag.limit_param != expected_param or diag.direction != "to_zero":
        raise ChainDivergenceError(
            f"diagnosed limit {diag.limit_param} {diag.direction} diverges from the "
            f"supported chain (expected {expected_param} to_zero)", diagnosis=diag)
    return diag, flags.with_next(), trace


def mbam_chain(grid: ObservationGrid = DEFAULT_GRID, *, iq_form: str = IQ_STANDARD,
               vel_ratio: float = 1e3, log_bound: float = 25.0, rtol: float = 1e-6,
               collect_traces: bool = False) -> list[dict]:
    """Run consecutive reduction steps from the full model; returns stage reports.

    ``vel_ratio``, ``log_bound`` and ``rtol`` go to every :func:`mbam_step`.

    Each finished stage reports ``from_params`` -> ``to_params``, the
    diagnosed limit, and its wall-clock (plus its ``trace`` with
    ``collect_traces``).  A stage that raises :class:`ChainDivergenceError`
    or :class:`SolverError` ends the chain with a divergence record in place
    of a reduction: it has ``from_params``, the ``expected_param`` of the
    supported chain, and the error message under ``divergence``, but no
    ``to_params``.  Its ``limit_param``, ``direction``, ``tau_boundary`` and
    ``velocity_alignment`` are the off-chain diagnosis (the first two are
    None when no boundary was diagnosed).  The finished stages before it are
    kept.
    """
    flags = LimitFlags()
    out = []
    for _ in LIMIT_CHAIN:
        n_before = len(flags.active_params())
        t0 = time.monotonic()
        entry = {"from_params": n_before}
        try:
            diag, next_flags, trace = mbam_step(flags, grid, iq_form=iq_form,
                                                vel_ratio=vel_ratio, log_bound=log_bound,
                                                rtol=rtol)
            entry["to_params"] = n_before - 1
        except (ChainDivergenceError, SolverError) as exc:
            diag = getattr(exc, "diagnosis", None)
            trace = next_flags = None
            entry["expected_param"] = LIMIT_REMOVES[LIMIT_CHAIN[flags.count()]]
            entry["divergence"] = str(exc)
        if diag is None:
            entry.update(limit_param=None, direction=None)
        else:
            entry.update(limit_param=diag.limit_param, direction=diag.direction,
                         tau_boundary=diag.tau_boundary,
                         velocity_alignment=diag.velocity_alignment)
        entry["wall_clock_s"] = round(time.monotonic() - t0, 3)
        if collect_traces and trace is not None:
            entry["trace"] = trace
        out.append(entry)
        if next_flags is None:
            break
        flags = next_flags
    return out
