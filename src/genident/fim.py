"""Model map, sensitivities, Fisher information spectrum, effective dimension.

Sensitivities are central differences in log-parameter coordinates evaluated
through a single shared-step batched integration, so the differenced outputs
carry correlated solver error and the sloppiest directions (column norms many
orders below the raw tolerance) remain resolvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .generator import (
    DEFAULT_GRID,
    PARAM_NAMES,
    IndependentParams,
    LimitFlags,
    ObservationGrid,
    integrate_batch,
    observe,
)

__all__ = [
    "SensitivityMatrix",
    "FIMatrix",
    "InfoSpectrum",
    "model_map",
    "generator_map",
    "central_points",
    "central_columns",
    "central_difference_jacobian",
    "sensitivities",
    "fim",
    "spectrum",
    "effective_dimension",
    "DEFAULT_CUTOFF",
    "JAC_STEP",
    "SENSITIVITY_RTOL",
]

#: central-difference step of the sensitivity Jacobian (log-parameter units)
JAC_STEP = 1e-4

# tolerance used for derivative-quality integrations; tighter than a plain
# trajectory run so truncation of the JAC_STEP differences stays dominant
SENSITIVITY_RTOL = 1e-9

#: eigenvalue cutoff of :func:`effective_dimension` (dimensionless convention)
DEFAULT_CUTOFF = 1e-2


@dataclass(frozen=True)
class SensitivityMatrix:
    entries: np.ndarray  # (M, n_params), log-parameter columns
    param_names: tuple[str, ...]

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise DomainError("sensitivity matrix has non-finite entries")


@dataclass(frozen=True)
class FIMatrix:
    entries: np.ndarray  # (n, n)

    def __post_init__(self):
        a = self.entries
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("FIM must be square")
        scale = max(np.abs(a).max(), 1.0)
        if np.abs(a - a.T).max() > 1e-12 * scale:
            raise DomainError("FIM must be symmetric")


@dataclass(frozen=True)
class InfoSpectrum:
    eigenvalues: np.ndarray  # descending
    participation: np.ndarray  # (n_params, n_modes), squared components
    param_names: tuple[str, ...]
    eigenvectors: np.ndarray  # (n_params, n_modes), sign-fixed

    def identifiable_projection(self, k: int) -> dict[str, float]:
        """Norm of each parameter axis projected onto the span of the top-k modes."""
        return {name: float(np.sqrt(self.participation[i, :k].sum()))
                for i, name in enumerate(self.param_names)}


def generator_map(flags: LimitFlags = LimitFlags(),
                  grid: ObservationGrid = DEFAULT_GRID) -> Callable[[np.ndarray], np.ndarray]:
    """Batched map from log-parameter rows (of the active parameters) to outputs.

    The returned callable accepts a (k, n_active) array of log-parameters and
    returns (k, M) outputs, integrating all rows in one shared-step solve at
    the tolerance :data:`SENSITIVITY_RTOL`.
    Inactive (flagged-away) parameters are held at their nominal values.  D, H
    and dx1 then drop out of the equations; Tdpp and Tqpp do not, since they
    still enter the transient time constants T'_d0 = Tdpp + dTd and
    T'_q0 = Tqpp + dTq.
    """
    active = flags.active_params()
    nominal = IndependentParams.nominal().to_array()
    idx = [PARAM_NAMES.index(nm) for nm in active]

    def f(log_theta: np.ndarray) -> np.ndarray:
        lt = np.atleast_2d(np.asarray(log_theta, dtype=float))
        ps = np.tile(nominal, (lt.shape[0], 1))
        ps[:, idx] = np.exp(lt)
        traj = integrate_batch(ps, flags, t_end=grid.t_end, rtol=SENSITIVITY_RTOL,
                               atol=SENSITIVITY_RTOL)
        out = observe(traj, grid)
        return np.atleast_2d(out)

    f.param_names = active
    f.output_dim = grid.size()
    return f


def model_map(p: IndependentParams, flags: LimitFlags = LimitFlags(),
              grid: ObservationGrid = DEFAULT_GRID) -> np.ndarray:
    """Concatenated observation vector for one parameter set (deterministic)."""
    traj = integrate_batch(p.to_array()[None, :], flags, t_end=grid.t_end)
    return observe(traj, grid)


def central_points(x0: np.ndarray, step: float) -> np.ndarray:
    """The 2n points x0 + step e_j and x0 - step e_j, in that order for each j."""
    n = x0.size
    pts = np.repeat(x0[None, :], 2 * n, axis=0)
    for j in range(n):
        pts[2 * j, j] += step
        pts[2 * j + 1, j] -= step
    return pts


def central_columns(Y: np.ndarray, n: int, step: float) -> np.ndarray:
    """Jacobian columns from a map's rows at the :func:`central_points` of n coordinates."""
    return np.stack([(Y[2 * j] - Y[2 * j + 1]) / (2 * step) for j in range(n)], axis=1)


def central_difference_jacobian(f: Callable[[np.ndarray], np.ndarray],
                                x0: np.ndarray, step: float) -> np.ndarray:
    """Jacobian of a batched vector map by central differences.

    All 2n perturbed points are pushed through ``f`` in one call so that any
    shared-state evaluation (here: the shared-step ODE solve) correlates their
    errors.
    """
    x0 = np.asarray(x0, dtype=float)
    Y = f(central_points(x0, step))
    if not np.all(np.isfinite(Y)):
        raise DomainError("map returned non-finite values at perturbed points")
    return central_columns(Y, x0.size, step)


def sensitivities(p: IndependentParams, flags: LimitFlags = LimitFlags(),
                  grid: ObservationGrid = DEFAULT_GRID) -> SensitivityMatrix:
    """Output sensitivities with respect to the active log-parameters.

    Column j is (Y(theta * exp(+h e_j)) - Y(theta * exp(-h e_j))) / 2h, with
    h = :data:`JAC_STEP`.
    """
    active = flags.active_params()
    theta = np.array([getattr(p, nm) for nm in active])
    if np.any(theta <= 0):
        raise DomainError("log-parameter differencing requires strictly positive parameters")
    J = central_difference_jacobian(generator_map(flags, grid), np.log(theta), JAC_STEP)
    return SensitivityMatrix(J, active)


def fim(J: SensitivityMatrix | np.ndarray) -> FIMatrix:
    """Fisher information J^T J, with the noise scale fixed to 1 by convention."""
    entries = J.entries if isinstance(J, SensitivityMatrix) else np.asarray(J, dtype=float)
    if not np.all(np.isfinite(entries)):
        raise DomainError("sensitivity matrix has non-finite entries")
    M = entries.T @ entries
    return FIMatrix(0.5 * (M + M.T))


def spectrum(I: FIMatrix, names: Sequence[str] | None = None) -> InfoSpectrum:
    """Eigen-decomposition of the information matrix, modes ordered stiff to sloppy.

    Participation entries are squared eigenvector components, so each column
    sums to one.  Signs are fixed by making the largest-magnitude component of
    each eigenvector positive.
    """
    lam, U = np.linalg.eigh(I.entries)
    lam, U = lam[::-1].copy(), U[:, ::-1].copy()
    for k in range(U.shape[1]):
        if U[np.argmax(np.abs(U[:, k])), k] < 0:
            U[:, k] = -U[:, k]
    n = I.entries.shape[0]
    if names is None:
        names = tuple(f"p{i}" for i in range(n))
    if len(names) != n:
        raise DomainError("names length must match matrix size")
    return InfoSpectrum(lam, U**2, tuple(names), U)


def effective_dimension(s: InfoSpectrum, cutoff: float = DEFAULT_CUTOFF) -> int:
    """Number of eigenvalues above the cutoff (dimensionless convention)."""
    if cutoff <= 0:
        raise DomainError("cutoff must be positive")
    return int(np.sum(s.eigenvalues > cutoff))
