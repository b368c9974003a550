"""Geometric-harmonics regression and local-bijectivity (Jacobian) checks.

A Gaussian kernel eigenbasis on the training inputs serves as the function
basis.  Its Nystrom extension folds into one weight per training point and
target, w = V diag(sigma)^-1 V^T F, so an out-of-sample value is the kernel sum
f(x) = sum_i k(x, x_i) w_i, and it differentiates in closed form, which is
what the determinant checks rely on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dmaps import gaussian_kernel, median_epsilon, pairwise_sq_dists, top_eigenpairs
from .errors import DomainError

__all__ = [
    "GHModel",
    "JacobianReport",
    "gh_fit",
    "gh_predict",
    "gh_gradient",
    "distance_to_training",
    "jacobian_report",
]

DEFAULT_RETAIN = 250
DEFAULT_DELTA = 1e-9


@dataclass(frozen=True)
class GHModel:
    """Fitted geometric-harmonics regressor (immutable, thread-safe)."""

    training_inputs: np.ndarray  # (N, d)
    epsilon_star: float
    eigenvalues: np.ndarray  # retained sigma_alpha, descending
    weights: np.ndarray  # (N, n_targets) Nystrom weights V diag(sigma)^-1 V^T F
    target_names: tuple[str, ...] | None = None
    target_ndim: int = 2  # rank of the fitted target; gh_predict follows it

    @property
    def n_retained(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class JacobianReport:
    determinants: np.ndarray
    sign_consistent: bool
    min_abs: float


def gh_fit(inputs: np.ndarray, targets: np.ndarray, epsilon_star: float | None = None, *,
           retain: int = DEFAULT_RETAIN, delta: float = DEFAULT_DELTA,
           epsilon_mult: float = 1.0, target_names=None) -> GHModel:
    """Project target columns onto the kernel eigenbasis of the inputs.

    ``retain`` caps the basis size; eigenvalues below ``delta`` times the
    leading one are dropped regardless (they make the Nystrom division
    explode), and 0 <= ``delta`` < 1 keeps at least the leading one.  When
    ``epsilon_star`` is omitted it defaults to ``epsilon_mult`` times the
    median squared pairwise distance of the inputs.  A 1-D target is fitted as
    one column; the model records its rank so that ``gh_predict`` returns 1-D
    values for it.  The model predicts in the units of the targets given.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    F = np.asarray(targets, dtype=float)
    target_ndim = 1 if F.ndim == 1 else 2
    if F.ndim == 1:
        F = F[:, None]
    n = X.shape[0]
    if F.shape[0] != n:
        raise DomainError("inputs and targets must have matching row counts")
    if retain < 1:
        raise DomainError("retain must be >= 1")
    if not 0 <= delta < 1:
        raise DomainError(f"delta must lie in [0, 1), got {delta}")
    if n < 2:
        raise DomainError("need at least two training rows")
    if epsilon_star is None:
        epsilon_star = median_epsilon(X, epsilon_mult)
    if epsilon_star <= 0:
        raise DomainError("epsilon_star must be positive")

    W = gaussian_kernel(pairwise_sq_dists(X), epsilon_star)
    vals, vecs = top_eigenpairs(W, min(retain, n))
    keep = vals > delta * vals[0]
    if not np.all(keep):
        warnings.warn(f"dropped {int((~keep).sum())} eigenpair(s) below the "
                      f"delta * sigma_0 floor")
    vals, vecs = vals[keep], vecs[:, keep]
    weights = (vecs / vals) @ (vecs.T @ F)
    return GHModel(X.copy(), float(epsilon_star), vals, weights,
                   target_names=tuple(target_names) if target_names else None,
                   target_ndim=target_ndim)


def _kernel_to_training(m: GHModel, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(x_new, dtype=float))
    if X.shape[1] != m.training_inputs.shape[1]:
        raise DomainError(
            f"input dimension {X.shape[1]} does not match training dimension "
            f"{m.training_inputs.shape[1]}")
    return X, gaussian_kernel(pairwise_sq_dists(X, m.training_inputs), m.epsilon_star)


def gh_predict(m: GHModel, x_new: np.ndarray) -> np.ndarray:
    """Nystrom extension of the fitted targets to new points.

    On a training point this reproduces the projected (not raw) target.  Far
    from the training set the kernel vanishes and predictions decay to zero.
    The output rank follows the fitted target's: (m,) for a 1-D target, else
    (m, n_targets); a single 1-D point drops the leading axis.
    """
    _, K = _kernel_to_training(m, x_new)
    out = K @ m.weights
    if m.target_ndim == 1:
        out = out[:, 0]
    return out[0] if np.asarray(x_new).ndim == 1 else out


def distance_to_training(m: GHModel, x_new: np.ndarray) -> np.ndarray:
    """Extrapolation diagnostic: nearest training distance in kernel-scale units."""
    X = np.atleast_2d(np.asarray(x_new, dtype=float))
    d2 = pairwise_sq_dists(X, m.training_inputs)
    return np.sqrt(d2.min(axis=1) / m.epsilon_star)


def gh_gradient(m: GHModel, x_new: np.ndarray) -> np.ndarray:
    """Closed-form gradient of the extension at new points.

    Differentiating the kernel in the Nystrom sum gives, per target, a
    weighted sum of (training_point - x) displacement vectors; shape is
    (d, n_targets) for a single point, else (m, d, n_targets).
    """
    single = np.asarray(x_new).ndim == 1
    X, K = _kernel_to_training(m, x_new)
    diff = m.training_inputs[None, :, :] - X[:, None, :]  # (m, N, d)
    wk = K[:, :, None] * diff / m.epsilon_star  # (m, N, d)
    grad = np.einsum("mnd,nt->mdt", wk, m.weights, optimize=True)
    return grad[0] if single else grad


def jacobian_report(m: GHModel, points: np.ndarray) -> JacobianReport:
    """Jacobian determinants of a square map at each point, plus sign consistency."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    d = m.training_inputs.shape[1]
    t = m.weights.shape[1]
    if d != t:
        raise DomainError(f"Jacobian check needs a square map, got {d} -> {t}")
    grads = gh_gradient(m, X)  # (m, d, d)
    dets = np.linalg.det(np.swapaxes(grads, 1, 2))
    sign_consistent = bool(np.all(dets > 0) or np.all(dets < 0))
    return JacobianReport(dets, sign_consistent, float(np.abs(dets).min()))
