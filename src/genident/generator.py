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

A chain of five singular/regular limits (damping -> 0, inertia -> 0, the two
subtransient time constants -> 0, and x_d -> x_q) reduces the model one
parameter at a time; each limit is realized here as a flag on the full model
rather than a separately coded equation set.
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

#: Reduction-chain order; each limit was derived on the model with all previous
#: limits applied, so a valid flag set is a prefix of this sequence.
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
    """Active reduction limits; must form a prefix of :data:`LIMIT_CHAIN`."""

    d_zero: bool = False
    h_zero: bool = False
    tdpp_zero: bool = False
    tqpp_zero: bool = False
    dx1_zero: bool = False

    def __post_init__(self):
        seq = [getattr(self, name) for name in LIMIT_CHAIN]
        if any(seq[i] and not all(seq[:i]) for i in range(len(seq))):
            raise DomainError(
                f"limit flags must be a prefix of the chain {LIMIT_CHAIN}; got {self}"
            )

    @classmethod
    def all(cls) -> "LimitFlags":
        return cls(True, True, True, True, True)

    @classmethod
    def first(cls, n: int) -> "LimitFlags":
        if not 0 <= n <= len(LIMIT_CHAIN):
            raise DomainError(f"chain prefix length must be in [0, {len(LIMIT_CHAIN)}]")
        return cls(**{name: i < n for i, name in enumerate(LIMIT_CHAIN)})

    def count(self) -> int:
        return sum(getattr(self, name) for name in LIMIT_CHAIN)

    def with_next(self) -> "LimitFlags":
        n = self.count()
        if n >= len(LIMIT_CHAIN):
            raise DomainError("all limits already applied")
        return LimitFlags.first(n + 1)

    def active_params(self) -> tuple[str, ...]:
        """Parameter names still varied once the flagged limits are applied."""
        removed = {LIMIT_REMOVES[name] for name in LIMIT_CHAIN if getattr(self, name)}
        return tuple(n for n in PARAM_NAMES if n not in removed)

    def dynamic_states(self) -> tuple[str, ...]:
        """State components that remain differential under these limits."""
        if not self.h_zero:
            return STATE_NAMES
        names = ["eq1", "ed1"]
        if not self.tdpp_zero:
            names.append("eq2")
        if not self.tqpp_zero:
            names.append("ed2")
        return tuple(names)


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


def _emf_rates(x: dict, alg, b, flags: LimitFlags) -> list:
    """The four EMF equations, for the EMFs that stay differential under ``flags``.

    ``alg`` is :func:`_stator`'s result at the same state; the rates come in
    the order of ``flags.dynamic_states()``.
    """
    _, _, i_d, i_q, _, eq2, ed2 = alg
    g = b["gaps"]
    rates = [(-x["eq1"] - g[0] * i_d + DEFAULT_CONSTANTS.v_f0) / b["T_d01"],
             (-x["ed1"] + g[1] * i_q) / b["T_q01"]]
    if not flags.tdpp_zero:
        rates.append((-eq2 + x["eq1"] - g[2] * i_d) / b["T_d02"])
    if not flags.tqpp_zero:
        rates.append((-ed2 + x["ed1"] + g[3] * i_q) / b["T_q02"])
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


class _FullRHS:
    """RHS of the sixth-order model, vectorized over n parameter sets."""

    def __init__(self, b, n, flags: LimitFlags):
        self.b, self.n, self.flags = b, n, flags
        self.damped = not np.all(b["D"] == 0)

    def __call__(self, t, y):
        c, b = DEFAULT_CONSTANTS, self.b
        s = y.reshape(self.n, 6)
        x = dict(zip(STATE_NAMES, s.T))
        alg = _stator(x["delta"], x, b, self.flags)
        out = np.empty_like(s)
        slip = x["omega"] - c.omega_0
        out[:, 0] = c.omega_b * slip
        acc = c.P_m - alg[4]
        if self.damped:
            acc = acc - b["D"] * slip
        out[:, 1] = acc / b["H"]
        for j, rate in enumerate(_emf_rates(x, alg, b, self.flags), start=2):
            out[:, j] = rate
        return out.ravel()


# complex-step size for the derivatives of P_g; the real parts stay the plain values
_CS_STEP = 1e-30


def _stator_slope(delta, x: dict, b, flags: LimitFlags):
    """:func:`_stator` at (delta, x) and dP_g/d(delta), from one complex-step evaluation."""
    alg = _stator(delta + 1j * _CS_STEP, x, b, flags)
    return [a.real for a in alg], alg[4].imag / _CS_STEP


def _angle_rate(delta, x: dict, b, flags: LimitFlags):
    """Stator algebra, EMF rates and rotor-angle rate on the power balance.

    The angle rate is the implicit-function derivative of P_g(delta, x) = P_m,
    d(delta)/dt = -(dP_g/dx . dx/dt) / (dP_g/d(delta)), with dx/dt from the EMF
    equations and both partials taken by complex step.
    """
    alg, dP_delta = _stator_slope(delta, x, b, flags)
    rates = _emf_rates(x, alg, b, flags)
    moved = {nm: x[nm] + 1j * _CS_STEP * r for nm, r in zip(flags.dynamic_states(), rates)}
    dP_x = _stator(delta, moved, b, flags)[4].imag / _CS_STEP
    return alg, rates, -dP_x / dP_delta


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
    """State derivative and algebraic residuals at one state.

    For models without the inertia limit this returns the six-component
    derivative of the full state.  Once ``h_zero`` is set, the rotor angle is
    algebraic: it is solved from the power balance, and the derivative covers
    only the remaining EMF states (in the order given by
    ``flags.dynamic_states()``).  In both cases the returned residual dict
    reports the power-balance defect ``P_m - P_g`` (at the solved angle once
    ``h_zero`` is set).
    """
    b = _bare_arrays(p.to_array()[None, :], flags)
    arr = np.asarray(s.to_array() if isinstance(s, StateVector) else s, dtype=float)
    x = {name: arr[i:i + 1] for i, name in enumerate(STATE_NAMES)}
    if flags.h_zero:
        delta = solve_power_angle(x, b, flags, guess=arr[:1] if arr[0] > 0 else None)
        alg = _stator(delta, x, b, flags)
        d = np.concatenate(_emf_rates(x, alg, b, flags))
    else:
        d = _FullRHS(b, 1, flags)(0.0, arr)
        alg = _stator(x["delta"], x, b, flags)
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
        states = np.tile(x0, (n, 1))

        def evaluator(t):
            return np.broadcast_to(states[:, None, :], (n, len(t), 6)).copy()

        return Trajectory(np.array([t_start]), (t_start, t_end), n, evaluator)

    if flags.h_zero:
        # index-1 DAE: the rotor angle integrates ahead of the EMF states with its
        # implicit-function rate, from an angle solved onto the power balance
        names = flags.dynamic_states()
        k = 1 + len(names)
        b2 = {key: np.asarray(val)[..., None] for key, val in b.items()}  # broadcast over time

        def project(s):
            """(n, m) EMFs, angle projected back onto P_g = P_m (warm-started from
            the integrated one), stator algebra and angle rate from (n, k, m) states."""
            x = dict(zip(names, s[:, 1:].transpose(1, 0, 2)))
            delta = solve_power_angle(x, b2, flags, guess=s[:, 0])
            alg, _, ddelta = _angle_rate(delta, x, b2, flags)
            return x, delta, alg, ddelta

        s0 = np.tile(x0[[0] + [STATE_NAMES.index(nm) for nm in names]], (n, 1))[..., None]
        # consistent start; rotor speed follows the angle's rate from its supplied value
        _, s0[:, 0], _, ddelta0 = project(s0)
        y0 = s0.ravel()

        def f(t, y):
            s = y.reshape(n, k)
            _, rates, ddelta = _angle_rate(s[:, 0], dict(zip(names, s[:, 1:].T)), b, flags)
            return np.array((ddelta, *rates)).T.ravel()
    else:
        f = _FullRHS(b, n, flags)
        y0 = np.tile(x0, n)
    sol = solve_ivp(f, (t_start, t_end), y0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=True, first_step=1e-4, max_step=0.05)
    if sol.status != 0:
        raise SolverError(f"integration failed: {sol.message}")

    if not flags.h_zero:
        def evaluator(t):
            return sol.sol(t).reshape(n, 6, len(t)).transpose(0, 2, 1)

        return Trajectory(sol.t.copy(), (t_start, t_end), n, evaluator)

    def evaluator(t):
        x, delta, alg, ddelta = project(sol.sol(t).reshape(n, k, len(t)))
        omega = ics.omega + (ddelta - ddelta0) / DEFAULT_CONSTANTS.omega_b
        return np.stack((delta, omega, x["eq1"], x["ed1"], alg[5], alg[6]), axis=-1)

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
