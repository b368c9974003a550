"""Infinite-bus synchronous generator: dynamics, reduction limits, observation.

The machine is a sixth-order two-axis model swinging against an ideal bus of
fixed voltage magnitude and angle.  States are the rotor angle ``delta`` (rad),
per-unit rotor speed ``omega``, and the four internal EMFs ``eq1`` (e'_q),
``ed1`` (e'_d), ``eq2`` (e''_q), ``ed2`` (e''_d).  The stator algebra is the
standard two-axis form (Sauer & Pai, 1998), i_d from e''_q and i_q from e''_d;
it is explicit, so after substitution the full model is a plain ODE.  In the
inertia limit the swing equation becomes the power balance P_g(delta, x) = P_m,
an index-1 DAE: the angle integrates with its implicit-function rate and is
projected back onto the balance at the output times.

Under every flag set the stator currents, the slaved EMFs and the EMF rates
are affine in z = (the integrated states after the angle, v_d, v_q, 1), and
so is the swing equation but for its -P_g/H term.  The model is therefore
written once, as coefficient rows over z formed once per parameter block
(:func:`_coefficients`); the right-hand side, the output reconstruction and
the power-angle Newton all evaluate those rows.  P_g = v_d i_d + v_q i_q, and
its partials in the angle and along the EMF rates are rows over z too.

Five singular/regular limits (damping -> 0, inertia -> 0, the two subtransient
time constants -> 0, and x_d -> x_q) each remove one parameter.  Each is a
flag on the full model rather than a separately coded equation set, and the
flags are independent: any set is valid as long as the inertia limit comes
with the damping one.  Every flag set has one state layout, its
``dynamic_states()``; a slaved EMF is the root of its own equation's right
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dopri import check_rtol, solve
from .errors import DomainError, SolverError

__all__ = [
    "IndependentParams",
    "LimitFlags",
    "Trajectory",
    "ObservationGrid",
    "PARAM_NAMES",
    "STATE_NAMES",
    "INITIAL_STATE",
    "LIMIT_CHAIN",
    "rhs",
    "integrate",
    "integrate_batch",
    "observe",
    "solve_power_angle",
]

# Independent parameter order used everywhere (column order of sensitivity
# matrices, CSV headers, JSON keys).  dx5 = x''_q - x''_d is pinned at zero and
# excluded from the varied set.
PARAM_NAMES = ("H", "D", "dx1", "dx2", "dx3", "dx4", "xdpp", "dTd", "dTq", "Tdpp", "Tqpp")

STATE_NAMES = ("delta", "omega", "eq1", "ed1", "eq2", "ed2")

#: The post-disturbance initial state, in :data:`STATE_NAMES` order.
INITIAL_STATE = (0.5, 0.98, 2.13, 0.02, 1.93, 0.02)

#: The paper's order of the limits, which names its nested models
#: (:meth:`LimitFlags.first`).  It is not a validity rule: the flags are
#: independent, and a reduction ladder applies whichever limit it diagnoses.
LIMIT_CHAIN = ("d_zero", "h_zero", "tdpp_zero", "tqpp_zero", "dx1_zero")

#: Parameter removed from the varied set by each limit.
LIMIT_REMOVES = {
    "d_zero": "D",
    "h_zero": "H",
    "tdpp_zero": "Tdpp",
    "tqpp_zero": "Tqpp",
    "dx1_zero": "dx1",
}

# fixed quantities of the infinite-bus configuration (per-unit system): the base
# angular frequency in rad/s, the field voltage, the mechanical power, the bus
# voltage magnitude and angle, and the reference speed (rotor speed is per-unit)
OMEGA_B = 120.0 * math.pi
V_F0 = 4.2
P_M = 0.7
V_BUS = 1.09
VARTHETA = 0.0
OMEGA_0 = 1.0


@dataclass(frozen=True)
class IndependentParams:
    """The 11 independently variable, non-negative machine parameters.

    The reactance increments ``dx1..dx4`` and time-constant increments
    ``dTd, dTq`` encode the physical ordering constraints on the bare
    reactances and open-circuit time constants, so any non-negative vector
    here maps to an admissible machine.
    """

    H: float = 2.53
    D: float = 0.5
    dx1: float = 0.12
    dx2: float = 2.02
    dx3: float = 1.932
    dx4: float = 0.448
    xdpp: float = 0.48
    dTd: float = 4.69
    dTq: float = 1.29
    Tdpp: float = 0.06
    Tqpp: float = 0.21

    def __post_init__(self):
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"independent parameter {name} must be >= 0, got {v!r}")

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES], dtype=float)

    @classmethod
    def nominal(cls) -> "IndependentParams":
        return cls()


def _bare(H, D, dx1, dx2, dx3, dx4, xdpp, dTd, dTq, Tdpp, Tqpp) -> dict:
    """Accumulate the increments into the bare parameters (scalars or arrays).

    The only increment-to-bare map: non-negative increments give
    x_d >= x_q >= x'_q >= x'_d >= x''_q >= x''_d >= 0 and T'_d0 >= T''_d0,
    T'_q0 >= T''_q0 by construction.
    """
    x_q2 = xdpp  # dx5 = 0, so x''_q == x''_d
    x_d1 = x_q2 + dx4
    x_q1 = x_d1 + dx3
    x_q = x_q1 + dx2
    x_d = x_q + dx1
    return {
        "H": H, "D": D,
        "x_d": x_d, "x_q": x_q, "x_q1": x_q1, "x_d1": x_d1, "x_q2": x_q2, "x_d2": xdpp,
        "T_d01": Tdpp + dTd, "T_d02": Tdpp,
        "T_q01": Tqpp + dTq, "T_q02": Tqpp,
    }


@dataclass(frozen=True)
class LimitFlags:
    """Active reduction limits, each independent of the others.

    The one rule is physical: the algebraic balance P_g = P_m is the inertia
    limit only when there is no damping, so ``h_zero`` requires ``d_zero``.
    """

    d_zero: bool = False
    h_zero: bool = False
    tdpp_zero: bool = False
    tqpp_zero: bool = False
    dx1_zero: bool = False

    def __post_init__(self):
        if self.h_zero and not self.d_zero:
            raise DomainError("h_zero requires d_zero: without damping removed, the "
                              "power balance P_g = P_m is not the inertia limit")

    @classmethod
    def all(cls) -> "LimitFlags":
        return cls(True, True, True, True, True)

    @classmethod
    def first(cls, n: int) -> "LimitFlags":
        """The first ``n`` limits of :data:`LIMIT_CHAIN`: the paper's nested models."""
        if not 0 <= n <= len(LIMIT_CHAIN):
            raise DomainError(f"chain prefix length must be in [0, {len(LIMIT_CHAIN)}]")
        return cls(**{name: i < n for i, name in enumerate(LIMIT_CHAIN)})

    def active_params(self) -> tuple[str, ...]:
        """Parameter names still varied once the flagged limits are applied."""
        removed = {param for name, param in LIMIT_REMOVES.items() if getattr(self, name)}
        return tuple(n for n in PARAM_NAMES if n not in removed)

    def dynamic_states(self) -> tuple[str, ...]:
        """State components that remain differential under these limits.

        The inertia limit makes the angle algebraic and drops the speed; each
        subtransient limit slaves its EMF.
        """
        slaved = {"delta": self.h_zero, "omega": self.h_zero,
                  "eq2": self.tdpp_zero, "ed2": self.tqpp_zero}
        return tuple(nm for nm in STATE_NAMES if not slaved.get(nm, False))


@dataclass(frozen=True)
class ObservationGrid:
    """Uniform sampling grid over the late, near-equilibrium window; all states are observed."""

    t_start: float = 3.0
    t_end: float = 5.0
    dt: float = 0.02

    def __post_init__(self):
        if not (self.t_start < self.t_end and self.dt > 0):
            raise DomainError("grid requires t_start < t_end and dt > 0")

    def times(self) -> np.ndarray:
        n = int(math.floor((self.t_end - self.t_start) / self.dt + 1e-9)) + 1
        return self.t_start + self.dt * np.arange(n)

    def size(self) -> int:
        return len(self.times()) * len(STATE_NAMES)


DEFAULT_GRID = ObservationGrid()


# ---------------------------------------------------------------------------
# the model: affine coefficient rows, formed once per parameter block
# ---------------------------------------------------------------------------

# positions of the model's affine quantities in a coefficient matrix: the currents
# (i_d, i_q), the slope pair s, the drift pair w, e''_q and e''_d (states or
# closed forms), then the rates of the integrated states (all of them, or all but
# the angle's in the inertia limit)
_SLOPE, _DRIFT, _EQ2, _ED2, _RATES = 2, 4, 6, 7, 8


def _integrated_states(flags: LimitFlags) -> tuple[str, ...]:
    """The states the solver integrates: the dynamic ones, and in the inertia
    limit (an index-1 DAE) the rotor angle ahead of them."""
    return (("delta",) if flags.h_zero else ()) + flags.dynamic_states()


def _coefficients(b: dict, flags: LimitFlags) -> np.ndarray:
    """Coefficients of the model's affine quantities over z, shape (n, m + 3, R).

    z = (the m integrated states after the angle, v_d, v_q, 1), with the speed
    entering as its slip omega - omega_0, and ``b`` holds (n, 1) bare-parameter
    arrays.  Column r holds quantity r's coefficients (positions ``_SLOPE``
    onwards), so ``z @ coef`` evaluates them all.  The EMF equations are
    written once; a subtransient limit slaves its EMF by solving its equation's
    right side = 0 for it and substituting the result everywhere.  The swing
    equation's rows leave out its one term that is not affine, -P_g/H.  With
    P_g = v . i and v' = (v_q, -v_d) along the angle, dP_g/d(delta) = v . s with
    s = di/d(delta) + (-i_q, i_d), and dP_g/dx . dx/dt = v . w with w the current
    rows applied to the EMF rate rows.  Raises :class:`DomainError` for a zero
    the model divides by under ``flags``.
    """
    divisors = {"x_d2": "xdpp", "T_d01": "T'_d0 = Tdpp + dTd", "T_q01": "T'_q0 = Tqpp + dTq",
                "H": "H", "T_d02": "Tdpp", "T_q02": "Tqpp"}
    unused = {"H": flags.h_zero, "T_d02": flags.tdpp_zero, "T_q02": flags.tqpp_zero}
    for key, name in divisors.items():
        if not unused.get(key) and np.any(b[key] == 0):
            raise DomainError(f"{name} = 0 is a denominator of the model under these limits")
    basis = STATE_NAMES[1:] + ("v_d", "v_q", "1")
    u = dict(zip(basis, np.eye(len(basis))))
    col = basis.index
    # the stator algebra: the standard two-axis currents
    i_d = (u["eq2"] - u["v_q"]) / b["x_d2"]
    i_q = (u["v_d"] - u["ed2"]) / b["x_q2"]
    # the EMF equations, as (time constant, right side)
    eqs = {"eq1": (b["T_d01"], -u["eq1"] - (b["x_d"] - b["x_d1"]) * i_d + V_F0 * u["1"]),
           "ed1": (b["T_q01"], -u["ed1"] + (b["x_q"] - b["x_q1"]) * i_q),
           "eq2": (b["T_d02"], -u["eq2"] + u["eq1"] - (b["x_d1"] - b["x_d2"]) * i_d),
           "ed2": (b["T_q02"], -u["ed2"] + u["ed1"] + (b["x_q1"] - b["x_q2"]) * i_q)}
    # over the full basis: the currents, e''_q, e''_d, then the four right sides
    rows = np.stack(np.broadcast_arrays(i_d, i_q, u["eq2"], u["ed2"],
                                        *(side for _, side in eqs.values())), axis=1)
    side = dict(zip(eqs, range(4, 8)))
    names = _integrated_states(flags)[1:]
    for nm in ("eq2", "ed2"):
        if nm not in names:  # slaved: its right side = 0, solved for it, substituted everywhere
            f = rows[:, side[nm]]
            rows += rows[:, :, col(nm), None] * (-f / f[:, col(nm), None])[:, None, :]
    emfs = [nm for nm in names if nm in eqs]
    rates = [rows[:, side[nm]] / eqs[nm][0] for nm in emfs]
    # s = di/d(delta) + (-i_q, i_d) and w = di/dx . dx/dt
    slope = (rows[:, :2, col("v_d"), None] * u["v_q"] - rows[:, :2, col("v_q"), None] * u["v_d"]
             + rows[:, 1::-1] * np.array([[-1.0], [1.0]]))
    drift = sum(rows[:, :2, col(nm), None] * rate[:, None] for nm, rate in zip(emfs, rates))
    if not flags.h_zero:
        # the swing equation, but for its -P_g/H term
        rates[:0] = [OMEGA_B * u["omega"], (P_M * u["1"] - b["D"] * u["omega"]) / b["H"]]
    coef = np.concatenate([rows[:, :2], slope, drift, rows[:, 2:4],
                           np.stack(np.broadcast_arrays(*rates), axis=1)], axis=1)
    keep = [col(nm) for nm in names + ("v_d", "v_q", "1")]
    return np.ascontiguousarray(coef[..., keep].transpose(0, 2, 1))


def _bare_arrays(ps: np.ndarray, flags: LimitFlags) -> dict:
    """Bare parameters of an (n_sets, 11) block as (n_sets, 1) arrays, with the
    limits substituted, and under ``"coef"`` their :func:`_coefficients`.

    Flagged limits override the supplied values: D is zero under d_zero and x_d
    is pinned to x_q under dx1_zero.  H drops out under h_zero.  Tdpp and Tqpp
    drop out of their own subtransient equations under their limits, but not
    out of the transient time constants T'_d0 = Tdpp + dTd and T'_q0 = Tqpp + dTq.
    """
    H, D, dx1, *rest = ps.T[..., None]
    b = _bare(H, np.zeros_like(D) if flags.d_zero else D,
              np.zeros_like(dx1) if flags.dx1_zero else dx1, *rest)
    b["coef"] = _coefficients(b, flags)
    return b


def _evaluate(coef: np.ndarray, rest: np.ndarray, delta: np.ndarray, swing: bool = False):
    """z and the affine quantities z @ coef at points of ``delta``'s shape (n, T).

    ``rest`` holds the integrated states after the angle, (m, n, T); z and the
    second result are component first too, (m + 3, n, T) and (columns of
    ``coef``, n, T), and ``coef`` may hold only its first columns.  With
    ``swing`` the first of ``rest`` is the speed, which enters z as its slip
    omega - omega_0.
    """
    m = len(rest)
    z = np.empty((m + 3,) + delta.shape)
    z[:m] = rest
    if swing:
        z[0] -= OMEGA_0
    angle = delta - VARTHETA
    np.multiply(V_BUS, np.sin(angle), out=z[m])
    np.multiply(V_BUS, np.cos(angle), out=z[m + 1])
    z[m + 2] = 1.0
    return z, (z.transpose(1, 2, 0) @ coef).transpose(2, 0, 1)


def _power(z: np.ndarray, val: np.ndarray, j: int) -> np.ndarray:
    """v . (val[j], val[j + 1]): P_g at j = 0, dP_g/d(delta) at ``_SLOPE`` and
    dP_g/dx . dx/dt at ``_DRIFT``."""
    return z[-3] * val[j] + z[-2] * val[j + 1]


def _rhs_kernel(y: np.ndarray, b: dict, flags: LimitFlags):
    """Rates of the integrated states at points (n, T); y is (len(integrated), n, T).

    y holds the states of :func:`_integrated_states`, component first.  In the
    inertia limit the angle's rate is the implicit-function derivative of
    P_g(delta, x) = P_m, d(delta)/dt = -(dP_g/dx . dx/dt) / (dP_g/d(delta));
    otherwise the swing equation's rows get their -P_g/H term.  Returns the
    rates (shaped like y), z and the affine quantities of :func:`_evaluate`.
    """
    z, val = _evaluate(b["coef"], y[1:], y[0], swing=not flags.h_zero)
    rates = np.empty(y.shape)
    if flags.h_zero:
        rates[0] = -_power(z, val, _DRIFT) / _power(z, val, _SLOPE)
        rates[1:] = val[_RATES:]
    else:
        rates[:] = val[_RATES:]
        rates[1] -= _power(z, val, 0) / b["H"]
    return rates, z, val


# the power-angle Newton stops once every |P_g - P_m| is below this, and gives
# up after this many iterations
_ANGLE_TOL = 1e-12
_ANGLE_MAX_ITER = 60


def solve_power_angle(rest: np.ndarray, b, guess=None) -> np.ndarray:
    """Rotor angle(s) satisfying the power balance P_g(delta) = P_m.

    Safeguarded Newton, its slope from the coefficient rows in ``b``, with a
    bisection fallback on the operating branch delta in (vartheta,
    vartheta + pi/2), from ``guess``.  ``rest`` holds the integrated states
    after the angle (:func:`_integrated_states`), (m, n, T) with n the
    parameter sets of ``b``; the angles come back as one (n, T) array.
    """
    coef = b["coef"][..., :_DRIFT]  # the currents and the slope pair
    shape = rest.shape[1:]
    bracket = np.empty((2,) + shape)
    bracket[0] = VARTHETA + 1e-12
    bracket[1] = VARTHETA + math.pi / 2 - 1e-12

    def residual(delta):  # P_g - P_m and its slope in delta
        z, val = _evaluate(coef, rest, delta)
        return _power(z, val, 0) - P_M, _power(z, val, _SLOPE)

    r_lo, r_hi = residual(bracket[0])[0], residual(bracket[1])[0]
    if (r_lo * r_hi > 0).any():
        raise SolverError("power balance has no root on the operating branch")
    lo, hi = bracket  # views
    delta = (np.full(shape, 0.8) if guess is None
             else np.asarray(guess, dtype=float)).clip(lo, hi)
    r, dr = residual(delta)
    for _ in range(_ANGLE_MAX_ITER):
        conv = np.abs(r) < _ANGLE_TOL
        if conv.all():
            return delta
        # keep the bracket current (in place: lo and hi are this call's own arrays)
        neg = r < 0
        np.copyto(lo, delta, where=neg)
        np.copyto(hi, delta, where=~neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dr != 0, r / dr, np.inf)
        cand = delta - step
        inside = (cand > lo) & (cand < hi) & np.isfinite(cand)
        # Newton step inside the bracket, else bisection; converged entries stay
        nxt = np.multiply(0.5, lo + hi, out=np.empty(shape))
        np.copyto(nxt, cand, where=inside)
        np.copyto(nxt, delta, where=conv)
        delta = nxt
        r, dr = residual(delta)
    raise SolverError("power-angle Newton failed to converge")


def rhs(s: Sequence[float], p: IndependentParams, flags: LimitFlags = LimitFlags()):
    """State derivative and algebraic residuals at one full six-component state.

    ``s`` holds the six states in :data:`STATE_NAMES` order.  The derivative
    covers the states of ``flags.dynamic_states()``, in that order.  Once
    ``h_zero`` is set the rotor angle is algebraic, solved from the power
    balance.  The residual dict reports the power-balance defect ``P_m - P_g``
    (at the solved angle once ``h_zero`` is set).
    """
    b = _bare_arrays(p.to_array()[None, :], flags)
    arr = np.asarray(s, dtype=float)
    y = arr[[STATE_NAMES.index(nm) for nm in _integrated_states(flags)]].reshape(-1, 1, 1)
    if flags.h_zero:
        y[0] = solve_power_angle(y[1:], b, guess=y[0] if arr[0] > 0 else None)
    rates, z, val = _rhs_kernel(y, b, flags)
    d = rates[1:, 0, 0] if flags.h_zero else rates[:, 0, 0]
    return d, {"power_balance": float(P_M - _power(z, val, 0)[0, 0])}


@dataclass(frozen=True)
class Trajectory:
    """Dense solution of one or more parameter sets over a common time span.

    ``at(times)`` reconstructs the full six-component state for every
    parameter set, including algebraically slaved components for reduced
    models.  ``times`` holds the accepted solver steps, which all sets share.
    """

    times: np.ndarray
    t_span: tuple[float, float]
    n_sets: int
    _evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def at(self, times) -> np.ndarray:
        """States at arbitrary times within the span; shape (n_sets, len(times), 6)."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if not t.size:
            return np.empty((self.n_sets, 0, len(STATE_NAMES)))
        if t.min() < self.t_span[0] - 1e-9 or t.max() > self.t_span[1] + 1e-9:
            raise DomainError(
                f"requested times outside trajectory span {self.t_span}")
        return self._evaluator(t)


def integrate_batch(params: np.ndarray, flags: LimitFlags = LimitFlags(),
                    ics: Sequence[float] | None = None, t_end: float = 5.0, *,
                    t_start: float = 0.0, rtol: float = 1e-7, atol: float = 1e-7) -> Trajectory:
    """Integrate many parameter sets over one shared adaptive-step sequence.

    Every set starts from ``ics``, the six states in :data:`STATE_NAMES` order
    (None means :data:`INITIAL_STATE`), at ``t_start``.  ``rtol`` and ``atol``
    are the tolerances of the Dormand–Prince 5(4) step control
    (:mod:`genident.dopri`); both must be finite and positive, and ``rtol``
    at least :data:`~genident.dopri.MIN_RTOL`.  The first step
    is 1e-4, cut to the span when that is shorter.

    Sharing the step sequence keeps the members' integration errors strongly
    correlated, which is what makes finite-difference sensitivities of the
    observed outputs accurate well below the raw solver tolerance.  In the
    inertia limit the rotor angle starts from one power-angle solve and is
    integrated with the EMFs; the returned trajectory projects it back onto
    the power balance, with one more solve per evaluation.

    The model's coefficient rows are formed once per call, so each right-hand
    side evaluation is sin and cos of the angles, one batched matmul over
    z = (states after the angle, v_d, v_q, 1), and either the swing equation's
    -P_g/H term or the inertia limit's angle rate (:func:`_rhs_kernel`).
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if not np.all(np.isfinite(params)) or np.any(params < 0):
        raise DomainError("parameter sets must be finite and non-negative")
    n = params.shape[0]
    x0 = np.asarray(INITIAL_STATE if ics is None else ics, dtype=float)
    if x0.shape != (len(STATE_NAMES),) or not np.all(np.isfinite(x0)):
        raise DomainError(f"ics must hold {len(STATE_NAMES)} finite states, got {ics!r}")
    if t_end < t_start:
        raise DomainError("t_end must be >= t_start")
    check_rtol(rtol, "rtol")
    if not (math.isfinite(atol) and atol > 0):
        raise DomainError(f"atol must be finite and positive, got {atol!r}")
    b = _bare_arrays(params, flags)
    integrated = [STATE_NAMES.index(nm) for nm in _integrated_states(flags)]

    def columns(y):
        """All six states, (6, n, T), from the (k, n, T) integrated ones; slaved
        EMFs from their coefficient rows.  In the inertia limit the angle is
        projected onto P_g = P_m (warm-started from the integrated one) and
        ``omega`` holds its rate."""
        if flags.h_zero:
            y = np.concatenate([solve_power_angle(y[1:], b, guess=y[0])[None], y[1:]])
        rates, _, val = _rhs_kernel(y, b, flags)
        x = np.empty((len(STATE_NAMES),) + y.shape[1:])
        x[integrated] = y
        if flags.h_zero:
            x[1] = rates[0]
        if flags.tdpp_zero:
            x[4] = val[_EQ2]
        if flags.tqpp_zero:
            x[5] = val[_ED2]
        return x

    # the solver's state is component first: each integrated state for all n sets
    s0 = np.repeat(x0[integrated, None], n, axis=1)
    if flags.h_zero:
        # consistent start; rotor speed follows the angle's rate from its supplied value
        start = columns(s0[..., None])
        s0[0], ddelta0 = start[0, :, 0], start[1]

    def f(y):
        return _rhs_kernel(y.reshape(-1, n, 1), b, flags)[0].ravel()

    if t_end > t_start:
        times, dense = solve(f, t_start, s0.ravel(), t_end, rtol=rtol, atol=atol,
                             first_step=1e-4, max_step=0.05)
    else:  # a zero span holds the consistent start
        times, dense = np.array([t_start]), lambda t: np.repeat(s0.reshape(-1, 1), len(t), 1)

    def evaluator(t):
        x = columns(dense(t).reshape(-1, n, len(t)))
        if flags.h_zero:
            x[1] = x0[1] + (x[1] - ddelta0) / OMEGA_B
        return np.stack(x, axis=-1)

    return Trajectory(times, (t_start, t_end), n, evaluator)


def integrate(p: IndependentParams, flags: LimitFlags = LimitFlags(),
              ics: Sequence[float] | None = None, t_end: float = 5.0, *,
              t_start: float = 0.0, rtol: float = 1e-7, atol: float = 1e-7) -> Trajectory:
    """Integrate a single parameter set from ``ics`` (None means
    :data:`INITIAL_STATE`); see :func:`integrate_batch`."""
    return integrate_batch(p.to_array()[None, :], flags, ics, t_end,
                           t_start=t_start, rtol=rtol, atol=atol)


def observe(traj: Trajectory, grid: ObservationGrid = DEFAULT_GRID) -> np.ndarray:
    """Sample all six states onto the grid and stack time-major.

    Result length is n_times * 6, ordered as every state at t_1, then every
    state at t_2, and so on.  For a batched trajectory the result is a
    (n_sets, M) matrix.
    """
    flat = traj.at(grid.times()).reshape(traj.n_sets, -1)
    return flat[0] if traj.n_sets == 1 else flat
