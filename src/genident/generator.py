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

Five singular/regular limits (damping -> 0, inertia -> 0, the two subtransient
time constants -> 0, and x_d -> x_q) each remove one parameter.  Each is a
flag on the full model rather than a separately coded equation set, and the
flags are independent: any set is valid as long as the inertia limit comes
with the damping one.  Every flag set has one state layout, its
``dynamic_states()``; slaved EMFs are closed by the stator algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, SolverError

__all__ = [
    "Constants",
    "IndependentParams",
    "BareParams",
    "StateVector",
    "AlgebraicVars",
    "LimitFlags",
    "Trajectory",
    "ObservationGrid",
    "PARAM_NAMES",
    "STATE_NAMES",
    "LIMIT_CHAIN",
    "DEFAULT_CONSTANTS",
    "independent_to_bare",
    "bare_to_independent",
    "algebraic_eval",
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

@dataclass(frozen=True)
class Constants:
    """Fixed quantities of the infinite-bus configuration (per-unit system).

    ``omega_b`` is the base angular frequency in rad/s; rotor speed itself is
    per-unit, so the reference speed ``omega_0`` is 1.
    """

    omega_b: float = 120.0 * math.pi
    v_f0: float = 4.2
    P_m: float = 0.7
    V: float = 1.09
    vartheta: float = 0.0
    omega_0: float = 1.0

    def __post_init__(self):
        for name in ("omega_b", "v_f0", "P_m", "V", "omega_0"):
            if getattr(self, name) <= 0:
                raise DomainError(f"constant {name} must be positive")


DEFAULT_CONSTANTS = Constants()


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
    def from_array(cls, a: Sequence[float]) -> "IndependentParams":
        a = np.asarray(a, dtype=float)
        if a.shape != (len(PARAM_NAMES),):
            raise DomainError(f"expected {len(PARAM_NAMES)} parameters, got shape {a.shape}")
        return cls(**{n: float(v) for n, v in zip(PARAM_NAMES, a)})

    @classmethod
    def nominal(cls) -> "IndependentParams":
        return cls()


@dataclass(frozen=True)
class BareParams:
    """Machine parameters in their physical (ordering-constrained) form."""

    H: float
    D: float
    x_d: float
    x_q: float
    x_q1: float  # x'_q
    x_d1: float  # x'_d
    x_q2: float  # x''_q
    x_d2: float  # x''_d
    T_d01: float  # T'_d0
    T_d02: float  # T''_d0
    T_q01: float  # T'_q0
    T_q02: float  # T''_q0

    def ordering_satisfied(self, tol: float = 1e-12) -> bool:
        chain = (self.x_d, self.x_q, self.x_q1, self.x_d1, self.x_q2, self.x_d2, 0.0)
        react_ok = all(a >= b - tol for a, b in zip(chain, chain[1:]))
        t_ok = self.T_d01 >= self.T_d02 - tol >= -tol and self.T_q01 >= self.T_q02 - tol >= -tol
        return react_ok and t_ok


def _bare(H, D, dx1, dx2, dx3, dx4, xdpp, dTd, dTq, Tdpp, Tqpp) -> dict:
    """Accumulate the increments into the bare parameters (scalars or arrays)."""
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


def independent_to_bare(p: IndependentParams) -> BareParams:
    """Accumulate the increment parameters into the physical reactance chain.

    The result satisfies x_d >= x_q >= x'_q >= x'_d >= x''_q >= x''_d >= 0 and
    the time-constant orderings by construction.
    """
    return BareParams(**_bare(*(getattr(p, n) for n in PARAM_NAMES)))


def bare_to_independent(b: BareParams) -> IndependentParams:
    """Inverse of :func:`independent_to_bare` by successive differencing."""
    return IndependentParams(
        H=b.H, D=b.D,
        dx1=b.x_d - b.x_q, dx2=b.x_q - b.x_q1, dx3=b.x_q1 - b.x_d1,
        dx4=b.x_d1 - b.x_q2, xdpp=b.x_d2,
        dTd=b.T_d01 - b.T_d02, dTq=b.T_q01 - b.T_q02,
        Tdpp=b.T_d02, Tqpp=b.T_q02,
    )


@dataclass(frozen=True)
class StateVector:
    """Full model state; defaults are the post-disturbance initial data."""

    delta: float = 0.5
    omega: float = 0.98
    eq1: float = 2.13
    ed1: float = 0.02
    eq2: float = 1.93
    ed2: float = 0.02

    def to_array(self) -> np.ndarray:
        return np.array([self.delta, self.omega, self.eq1, self.ed1, self.eq2, self.ed2])

    @classmethod
    def from_array(cls, a: Sequence[float]) -> "StateVector":
        a = np.asarray(a, dtype=float)
        return cls(*(float(v) for v in a))


@dataclass(frozen=True)
class AlgebraicVars:
    v_d: float
    v_q: float
    i_d: float
    i_q: float
    P_g: float


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
# the model: stator algebra, EMF equations, parameter map
# ---------------------------------------------------------------------------

def _stator(delta, x: dict, b, flags: LimitFlags):
    """Stator algebra at rotor angle(s) ``delta``, for scalars or arrays.

    ``x`` maps state names to values; e''_q and e''_d are read from it unless
    their subtransient limit slaves them, in which case they are closed here.
    Returns (v_d, v_q, i_d, i_q, P_g, eq2, ed2).
    """
    c = DEFAULT_CONSTANTS
    angle = delta - c.vartheta
    v_d = c.V * np.sin(angle)
    v_q = c.V * np.cos(angle)
    if flags.tdpp_zero:
        # e''_q = e'_q - (x'_d - x''_d) i_d closed under i_d = (e''_q - v_q)/x''_d
        eq2 = (b["x_d2"] * x["eq1"] + (b["x_d1"] - b["x_d2"]) * v_q) / b["x_d1"]
    else:
        eq2 = x["eq2"]
    i_d = (eq2 - v_q) / b["x_d2"]
    if flags.tqpp_zero:
        # e''_d = e'_d + (x'_q - x''_q) i_q closed under i_q = (v_d - e''_d)/x''_q
        ed2 = (b["x_q2"] * x["ed1"] + (b["x_q1"] - b["x_q2"]) * v_d) / b["x_q1"]
    else:
        ed2 = x["ed2"]
    i_q = (v_d - ed2) / b["x_q2"]
    P_g = v_d * i_d + v_q * i_q
    return v_d, v_q, i_d, i_q, P_g, eq2, ed2


def _emf_rates(x: dict, alg, b, flags: LimitFlags) -> dict:
    """The four EMF equations, for the EMFs that stay differential under ``flags``.

    ``alg`` is :func:`_stator`'s result at the same state; the rates are keyed
    by state name.
    """
    _, _, i_d, i_q, _, eq2, ed2 = alg
    g = b["gaps"]
    rates = {"eq1": (-x["eq1"] - g[0] * i_d + DEFAULT_CONSTANTS.v_f0) / b["T_d01"],
             "ed1": (-x["ed1"] + g[1] * i_q) / b["T_q01"]}
    if not flags.tdpp_zero:
        rates["eq2"] = (-eq2 + x["eq1"] - g[2] * i_d) / b["T_d02"]
    if not flags.tqpp_zero:
        rates["ed2"] = (-ed2 + x["ed1"] + g[3] * i_q) / b["T_q02"]
    return rates


def _bare_arrays(ps: np.ndarray, flags: LimitFlags) -> dict:
    """Bare-parameter arrays for a (n_sets, 11) block, with limits substituted.

    Flagged limits override the supplied values: D drops out, x_d is pinned to
    x_q under dx1_zero; H, Tdpp, Tqpp disappear from the equations wherever
    their limit flag is set.
    """
    H, D, dx1, *rest = ps.T
    b = _bare(H, np.zeros_like(D) if flags.d_zero else D,
              np.zeros_like(dx1) if flags.dx1_zero else dx1, *rest)
    # the reactance differences the EMF equations use, formed once per block
    b["gaps"] = np.array((b["x_d"] - b["x_d1"], b["x_q"] - b["x_q1"],
                          b["x_d1"] - b["x_d2"], b["x_q1"] - b["x_q2"]))
    return b


def algebraic_eval(s: StateVector, b: BareParams) -> AlgebraicVars:
    """Evaluate the stator algebraic block at one state.

    The currents are the standard two-axis ones: i_d = (e''_q - v_q)/x''_d and
    i_q = (v_d - e''_d)/x''_q.
    """
    if b.x_d2 == 0 or b.x_q2 == 0:
        raise ZeroDivisionError("subtransient reactances must be nonzero")
    if b.x_d2 < 0 or b.x_q2 < 0:
        raise DomainError("subtransient reactances must be positive")
    v_d, v_q, i_d, i_q, P_g, _, _ = _stator(s.delta, vars(s), vars(b), LimitFlags())
    return AlgebraicVars(float(v_d), float(v_q), float(i_d), float(i_q), float(P_g))


# complex-step size for the derivatives of P_g; the real parts stay the plain values
_CS_STEP = 1e-30


def _stator_slope(delta, x: dict, b, flags: LimitFlags):
    """:func:`_stator` at (delta, x) and dP_g/d(delta), from one complex-step evaluation."""
    alg = _stator(delta + 1j * _CS_STEP, x, b, flags)
    return [a.real for a in alg], alg[4].imag / _CS_STEP


def _rates(x: dict, b, flags: LimitFlags):
    """Stator algebra and the rate of every integrated state, keyed by state name.

    These are the states of ``flags.dynamic_states()``, plus in the inertia
    limit the rotor angle, whose rate is the implicit-function derivative of
    P_g(delta, x) = P_m, d(delta)/dt = -(dP_g/dx . dx/dt) / (dP_g/d(delta)),
    with both partials taken by complex step.  Vectorized over parameter sets.
    """
    if flags.h_zero:
        alg, dP_delta = _stator_slope(x["delta"], x, b, flags)
        rates = _emf_rates(x, alg, b, flags)
        moved = {nm: x[nm] + 1j * _CS_STEP * r for nm, r in rates.items()}
        dP_x = _stator(x["delta"], moved, b, flags)[4].imag / _CS_STEP
        rates["delta"] = -dP_x / dP_delta
        return alg, rates
    c = DEFAULT_CONSTANTS
    alg = _stator(x["delta"], x, b, flags)
    rates = _emf_rates(x, alg, b, flags)
    slip = x["omega"] - c.omega_0
    acc = c.P_m - alg[4]
    if not flags.d_zero:
        acc = acc - b["D"] * slip
    rates["delta"], rates["omega"] = c.omega_b * slip, acc / b["H"]
    return alg, rates


# the power-angle Newton stops once every |P_g - P_m| is below this, and gives
# up after this many iterations
_ANGLE_TOL = 1e-12
_ANGLE_MAX_ITER = 60


def solve_power_angle(st: dict, b, flags: LimitFlags, guess=None) -> np.ndarray:
    """Rotor angle(s) satisfying the power balance P_g(delta) = P_m.

    Safeguarded Newton (slope by complex step) with a bisection fallback on
    the operating branch delta in (vartheta, vartheta + pi/2), from ``guess``.
    Fully vectorized: the state arrays may carry any shape (parameter sets,
    or parameter sets x time nodes), broadcast against the bare arrays.
    """
    c = DEFAULT_CONSTANTS
    shape = np.broadcast(st["eq1"], b["x_d2"]).shape
    bracket = np.empty((2,) + shape)
    bracket[0] = c.vartheta + 1e-12
    bracket[1] = c.vartheta + math.pi / 2 - 1e-12

    def residual(delta):  # P_g - P_m and its slope in delta
        alg, slope = _stator_slope(delta, st, b, flags)
        return alg[4] - c.P_m, slope

    # the residual is elementwise, so stacked angle arrays share one evaluation
    r_lo, r_hi = residual(bracket)[0]
    if (r_lo * r_hi > 0).any():
        bad = float(np.min(np.minimum(np.abs(r_lo), np.abs(r_hi))[r_lo * r_hi > 0]))
        raise SolverError("power balance has no root on the operating branch",
                          residual=bad)
    lo, hi = bracket[0, ...], bracket[1, ...]  # views, also for 0-d states
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
    raise SolverError("power-angle Newton failed to converge",
                      residual=float(np.max(np.abs(r))))


def rhs(s: StateVector | Sequence[float], p: IndependentParams, flags: LimitFlags = LimitFlags()):
    """State derivative and algebraic residuals at one full six-component state.

    The derivative covers the states of ``flags.dynamic_states()``, in that
    order.  Once ``h_zero`` is set the rotor angle is algebraic, solved from
    the power balance.  The residual dict reports the power-balance defect
    ``P_m - P_g`` (at the solved angle once ``h_zero`` is set).
    """
    b = _bare_arrays(p.to_array()[None, :], flags)
    arr = np.asarray(s.to_array() if isinstance(s, StateVector) else s, dtype=float)
    x = {name: arr[i:i + 1] for i, name in enumerate(STATE_NAMES)}
    if flags.h_zero:
        x["delta"] = solve_power_angle(x, b, flags, guess=arr[:1] if arr[0] > 0 else None)
    alg, rates = _rates(x, b, flags)
    d = np.concatenate([rates[nm] for nm in flags.dynamic_states()])
    return d, {"power_balance": float(DEFAULT_CONSTANTS.P_m - alg[4][0])}


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
        if t.size and (t.min() < self.t_span[0] - 1e-9 or t.max() > self.t_span[1] + 1e-9):
            raise DomainError(
                f"requested times outside trajectory span {self.t_span}")
        return self._evaluator(t)

    def state_at(self, t: float) -> StateVector:
        return StateVector.from_array(self.at([t])[0, 0])


def integrate_batch(params: np.ndarray, flags: LimitFlags = LimitFlags(),
                    ics: StateVector | None = None, t_end: float = 5.0, *,
                    t_start: float = 0.0, rtol: float = 1e-7, atol: float = 1e-7) -> Trajectory:
    """Integrate many parameter sets over one shared adaptive-step sequence.

    Sharing the step sequence keeps the members' integration errors strongly
    correlated, which is what makes finite-difference sensitivities of the
    observed outputs accurate well below the raw solver tolerance.  In the
    inertia limit the rotor angle starts from one power-angle solve and is
    integrated with the EMFs; the returned trajectory projects it back onto
    the power balance, with one more solve per evaluation.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if not np.all(np.isfinite(params)) or np.any(params < 0):
        raise DomainError("parameter sets must be finite and non-negative")
    n = params.shape[0]
    if ics is None:
        ics = StateVector()
    if t_end < t_start:
        raise DomainError("t_end must be >= t_start")
    b = _bare_arrays(params, flags)
    x0 = ics.to_array()

    if t_end == t_start:
        return Trajectory(np.array([t_start]), (t_start, t_end), n,
                          lambda t: np.tile(x0, (n, len(t), 1)))

    # the integrated states: the dynamic ones, and in the inertia limit (an index-1
    # DAE) the rotor angle ahead of them, with its implicit-function rate
    names = (("delta",) if flags.h_zero else ()) + flags.dynamic_states()
    b2 = {key: np.asarray(val)[..., None] for key, val in b.items()}  # broadcast over time

    def columns(s):
        """All six states, (n, m) each, from (n, k, m) integrated ones; slaved EMFs
        from the stator.  In the inertia limit the angle is projected onto P_g = P_m
        (warm-started from the integrated one) and ``omega`` holds its rate."""
        x = dict(zip(names, s.transpose(1, 0, 2)))
        if flags.h_zero:
            x["delta"] = solve_power_angle(x, b2, flags, guess=x["delta"])
            alg, rates = _rates(x, b2, flags)
            x["omega"] = rates["delta"]
        else:
            alg = _stator(x["delta"], x, b2, flags)
        x["eq2"], x["ed2"] = alg[5], alg[6]
        return x

    s0 = np.tile(x0[[STATE_NAMES.index(nm) for nm in names]], (n, 1))
    if flags.h_zero:
        # consistent start; rotor speed follows the angle's rate from its supplied value
        start = columns(s0[..., None])
        s0[:, 0], ddelta0 = start["delta"][:, 0], start["omega"]

    def f(t, y):
        _, rates = _rates(dict(zip(names, y.reshape(n, -1).T)), b, flags)
        out = np.empty((n, len(names)))
        for j, nm in enumerate(names):
            out[:, j] = rates[nm]
        return out.ravel()

    sol = solve_ivp(f, (t_start, t_end), s0.ravel(), method="RK45", rtol=rtol, atol=atol,
                    dense_output=True, first_step=1e-4, max_step=0.05)
    if sol.status != 0:
        raise SolverError(f"integration failed: {sol.message}")

    def evaluator(t):
        x = columns(sol.sol(t).reshape(n, -1, len(t)))
        if flags.h_zero:
            x["omega"] = ics.omega + (x["omega"] - ddelta0) / DEFAULT_CONSTANTS.omega_b
        return np.stack([x[nm] for nm in STATE_NAMES], axis=-1)

    return Trajectory(sol.t.copy(), (t_start, t_end), n, evaluator)


def integrate(p: IndependentParams, flags: LimitFlags = LimitFlags(),
              ics: StateVector | None = None, t_end: float = 5.0, *,
              t_start: float = 0.0, rtol: float = 1e-7, atol: float = 1e-7) -> Trajectory:
    """Integrate a single parameter set; see :func:`integrate_batch`."""
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
