"""Dormand–Prince 5(4) stepping with quartic dense output.

The explicit Runge–Kutta pair of Dormand & Prince (J. Comput. Appl. Math. 6,
1980) with Shampine's quartic interpolant (Math. Comp. 46, 1986), the RMS
error norm, step-size control and initial-step selection of Hairer, Nørsett &
Wanner (*Solving ODEs I*, Sec. II.4-5).  Every operation is scipy's ``RK45``
and ``OdeSolution`` in the same order, so a solve here has scipy's bits; the
tests hold the two side by side.  Both right-hand sides the package integrates
(the generator and the geodesic equation) are autonomous, ``fun(y)``, and run
forward in time, so the tableau's stage times are not needed.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Callable

import numpy as np

from .errors import DomainError, SolverError

__all__ = ["DormandPrince", "MIN_RTOL", "TOO_SMALL_STEP", "check_rtol", "solve"]

# the tableau: stage coefficients (row s combines stages 0..s-1), the fifth-order
# weights, the error weights (fifth minus embedded fourth order) and the
# interpolant's coefficients of x, x^2, x^3, x^4, over the seven stages
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# step-size control: safety factor, the bounds of one change, and the exponent
# -1/(q + 1) of the error norm for the embedded order q = 4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5

#: the message of a step that shrank below ten float spacings of the time
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

#: the smallest relative tolerance the step control takes: 100 machine epsilons,
#: below which scipy's RK45 would silently raise it
MIN_RTOL = 100 * np.finfo(float).eps


def check_rtol(rtol: float, what: str) -> None:
    """Raise :class:`DomainError`, naming ``what``, unless ``rtol`` is finite
    and at least :data:`MIN_RTOL`."""
    if not (math.isfinite(rtol) and rtol >= MIN_RTOL):
        raise DomainError(f"{what} must be finite and positive, and at least "
                          f"{MIN_RTOL:.3g}, got {rtol!r}")


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class DormandPrince:
    """One forward integration of ``fun(y)`` from ``y0`` at ``t0`` towards ``t_bound``.

    ``rtol`` is taken as given; callers hold it to :func:`check_rtol`.  A
    ``first_step`` of None is chosen from ``fun`` (one extra evaluation); any
    step, the first included, is cut to end at ``t_bound``.  :meth:`step`
    advances one accepted step and sets ``status`` to "finished" at
    ``t_bound`` or "failed".
    """

    def __init__(self, fun: Callable[[np.ndarray], np.ndarray], t0: float, y0: np.ndarray,
                 t_bound: float, *, rtol: float, atol: float, max_step: float,
                 first_step: float | None = None):
        self.fun, self.t, self.y, self.t_bound = fun, t0, y0, t_bound
        self.rtol, self.atol, self.max_step = rtol, atol, max_step
        self.f = fun(y0)
        self.h_abs = self._initial_step() if first_step is None else first_step
        self.K = np.empty((len(_E), y0.size))
        self.t_old = self.y_old = None
        self.status = "running"

    def _initial_step(self) -> float:
        """Hairer, Nørsett & Wanner's starting step, from the scaled sizes of
        y0, f0 and the change of ``fun`` over one small Euler step."""
        y0, f0, interval = self.y, self.f, self.t_bound - self.t
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        d2 = _rms((self.fun(y0 + h0 * f0) - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval, self.max_step)

    def _stages(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """The fifth-order solution one step ``h`` ahead and ``fun`` there,
        the seven stages left in ``K``."""
        K, y = self.K, self.y
        K[0] = self.f
        for s, a in enumerate(_A[1:], start=1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = self.fun(y + dy)
        y_new = y + h * np.dot(K[:-1].T, _B)
        f_new = self.fun(y_new)
        K[-1] = f_new
        return y_new, f_new

    def step(self) -> str | None:
        """Take one accepted step, or fail; returns the failure message or None."""
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = self._stages(h)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(np.dot(self.K.T, _E) * h / scale)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        factor = (_MAX_FACTOR if error_norm == 0
                  else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
        self.h_abs = h_abs * (min(1, factor) if rejected else factor)
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        if self.t >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self) -> Callable:
        """The quartic interpolant over the last step: a scalar time gives an
        (n,) state, an array of T times an (n, T) one."""
        Q = self.K.T.dot(_P)
        t_old, y_old = self.t_old, self.y_old
        h = self.t - t_old

        def interpolant(t):
            x = (np.asarray(t) - t_old) / h
            if np.ndim(x) == 0:
                return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old
            y = h * np.dot(Q, np.cumprod(np.tile(x, (4, 1)), axis=0))
            y += y_old[:, None]
            return y
        return interpolant


def solve(fun: Callable[[np.ndarray], np.ndarray], t0: float, y0: np.ndarray, t_bound: float,
          **options) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Integrate from ``t0`` to ``t_bound`` with :class:`DormandPrince` and ``options``.

    Returns the accepted step times, ``t0`` first, and the dense solution: a
    callable of a 1-D array of T times giving the (n, T) states.  A time on a
    step boundary takes the step that ends there, and times outside the span
    take the nearest step's polynomial.  A failed step raises
    :class:`SolverError`.
    """
    solver = DormandPrince(fun, t0, y0, t_bound, **options)
    ts, steps = [t0], []
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise SolverError(f"integration failed: {message}")
        ts.append(solver.t)
        steps.append(solver.dense_output())
    ts = np.array(ts)

    def dense(t):
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = (np.searchsorted(ts, t_sorted, side="left") - 1).clip(0, len(steps) - 1)
        ys, start = [], 0
        for segment, group in groupby(segments):
            end = start + len(list(group))
            ys.append(steps[segment](t_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, reverse]
    return ts, dense
