"""Diffusion-maps embedding of ensemble outputs and non-harmonic coordinate selection.

The kernel is density-normalized before the row-stochastic operator is built,
so the embedding reflects the geometry of the sampled manifold rather than the
sampling density.  Higher eigenvectors that merely re-parameterize directions
already found (harmonics) are weeded out by leave-one-out local linear
regression residuals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "DMapsEmbedding",
    "ResidualReport",
    "NonharmonicSelection",
    "rescale01",
    "median_epsilon",
    "pairwise_sq_dists",
    "gaussian_kernel",
    "dmaps",
    "local_linear_residuals",
    "select_nonharmonic",
]

# exact pairwise medians get memory-hungry past this many rows; a seeded
# subsample keeps the estimate deterministic and close
_MEDIAN_SUBSAMPLE = 4096

# the multiplicity of eigenvalue 1 counts the kernel graph's components; a
# second eigenvalue this close to 1 means the graph has come apart
_DISCONNECTED_GAP = 1e-10

# regression kernel width as a fraction of the median predictor distance: a
# local fit, not a near-global one (Dsilva et al., ACHA 44, 2018)
DEFAULT_RESIDUAL_BANDWIDTH_MULT = 0.5

# a largest residual gap ratio below this is ambiguous
_AMBIGUITY_RATIO = 1.5


@dataclass(frozen=True)
class DMapsEmbedding:
    eigenvalues: np.ndarray  # descending, lambda_0 = 1 first
    eigenvectors: np.ndarray  # (N, k), unit norm, sign-fixed
    epsilon: float


@dataclass(frozen=True)
class ResidualReport:
    residuals: np.ndarray  # r_k for k = 1..K (r_1 = 1 by convention)
    indices: tuple[int, ...]  # eigenvector indices the residuals refer to
    bandwidth_mult: float
    ridge_fallbacks: int = 0


@dataclass(frozen=True)
class NonharmonicSelection:
    indices: tuple[int, ...]
    ambiguous: bool
    gap_ratio: float
    alternate: tuple[int, ...] = ()


def rescale01(raw: np.ndarray) -> np.ndarray:
    """Columnwise min-max rescaling onto [0, 1], as a new array; constant columns map to 0.5."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 2:
        raise DomainError("need a 2-D matrix with at least two rows")
    if not np.all(np.isfinite(raw)):
        raise DomainError("data contain non-finite entries")
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    span = hi - lo
    const = span == 0
    if np.any(const):
        warnings.warn(f"{int(const.sum())} constant column(s) mapped to 0.5")
    safe = np.where(const, 1.0, span)
    rows = (raw - lo) / safe
    rows[:, const] = 0.5
    return rows


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between row sets (Gram-based, clipped at 0)."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    xx = np.einsum("ij,ij->i", x, x)
    yy = xx if y is x else np.einsum("ij,ij->i", y, y)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def gaussian_kernel(d2: np.ndarray, epsilon: float) -> np.ndarray:
    """The Gaussian kernel exp(-d^2 / 2 epsilon) of squared distances, written over ``d2``."""
    d2 /= -2.0 * epsilon
    return np.exp(d2, out=d2)


def _middle_pairs(d2: np.ndarray, iu: tuple) -> np.ndarray:
    """The one or two middle values of the pairs ``d2[iu]``: their mean is the median."""
    pairs = d2[iu]
    half = pairs.size // 2
    middle = [half] if pairs.size % 2 else [half - 1, half]
    pairs.partition(middle)
    return pairs[middle]


def _median_offdiag_sq(x: np.ndarray, seed: int = 0) -> float:
    n = x.shape[0]
    if n > _MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(seed)
        x = x[rng.choice(n, _MEDIAN_SUBSAMPLE, replace=False)]
        n = _MEDIAN_SUBSAMPLE
    return float(np.mean(_middle_pairs(pairwise_sq_dists(x), np.triu_indices(n, k=1))))


def median_epsilon(rows: np.ndarray, multiplier: float = 1.0) -> float:
    """Kernel scale as a multiple of the median squared pairwise distance of ``rows``.

    The squared-distance convention matches the kernel exponent
    exp(-d^2 / 2 eps); the multiplier absorbs any other convention.  Two or
    more coincident points can drive the median to zero, which is reported as
    a degeneracy warning.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] < 2:
        raise DomainError("need at least two rows")
    med = _median_offdiag_sq(rows)
    if med == 0.0:
        warnings.warn("median pairwise distance is zero (degenerate data)")
    return multiplier * med


def top_eigenpairs(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs of a symmetric matrix, in descending order.

    Up to 3000 rows, or with a quarter of the pairs or more wanted, numpy's
    full ``eigh`` solves the matrix and the top k are kept.  That keeps
    scipy's LAPACK out of the process: it brings a second OpenBLAS, whose
    threads slow numpy's matrix products after it.  At 600 rows the full
    solve is also faster than scipy's subset solve; at 2000 rows, for a few
    dozen pairs, it is slower.  Larger matrices go to ARPACK, started from a
    fixed, seeded vector so that reruns are byte-identical.
    """
    n = A.shape[0]
    if n <= 3000 or k >= n // 4:
        vals, vecs = np.linalg.eigh(A)
        return vals[::-1][:k], vecs[:, ::-1][:, :k]
    import scipy.sparse.linalg  # here: below 3000 rows the data track needs no scipy

    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    vals, vecs = scipy.sparse.linalg.eigsh(A, k=k, which="LA", v0=v0)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def dmaps(rows: np.ndarray, epsilon: float, k: int = 26) -> DMapsEmbedding:
    """Density-normalized diffusion-maps eigen-embedding of the (N, m) ``rows``.

    Builds the Gaussian affinity exp(-d^2/2 eps), removes the sampling-density
    factor by dividing by the outer product of row sums, row-normalizes to a
    stochastic operator, and extracts its top-k eigenpairs through the
    conjugate symmetric matrix so the result is guaranteed real.  A kernel
    graph that falls apart into components (an isolated point, or a second
    eigenvalue equal to 1) raises ``SolverError``.  Column k of the result's
    ``eigenvectors`` holds phi_k, phi_0 the constant one.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if not 1 <= k < n:
        raise DomainError("need 1 <= k < N eigenpairs")

    A = gaussian_kernel(pairwise_sq_dists(rows), epsilon)
    p = A.sum(axis=1)
    off_mass = p - 1.0  # diagonal of the Gaussian kernel is 1
    if np.any(off_mass < 1e-300):
        raise SolverError("kernel graph is disconnected at this epsilon "
                          f"(weakest row mass {off_mass.min():.3e})")
    A /= p[:, None]
    A /= p[None, :]
    d = A.sum(axis=1)
    d_isqrt = 1.0 / np.sqrt(d)
    A *= d_isqrt[:, None]
    A *= d_isqrt[None, :]  # now the symmetric conjugate of the stochastic operator
    A = 0.5 * (A + A.T)

    vals, vecs = top_eigenpairs(A, k)
    if k >= 2 and 1.0 - vals[1] < _DISCONNECTED_GAP:
        raise SolverError("kernel graph is disconnected at this epsilon "
                          f"(1 - lambda_1 = {1.0 - vals[1]:.3e})")
    phi = vecs * d_isqrt[:, None]  # back-transform to right eigenvectors of K
    phi /= np.linalg.norm(phi, axis=0)[None, :]
    for j in range(k):
        col = phi[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            phi[:, j] = -col
    return DMapsEmbedding(vals, phi, float(epsilon))


def _weights(pred: np.ndarray, bandwidth_mult: float, iu: tuple) -> np.ndarray:
    d2 = pairwise_sq_dists(pred)
    # the median of the distances, without a square root of every pair: sqrt
    # is monotone, so the middle ranks of d^2 are the middle ranks of d
    med = float(np.mean(np.sqrt(_middle_pairs(d2, iu))))
    if med == 0.0:
        raise DomainError("coincident predictor coordinates")
    sigma = bandwidth_mult * med
    w = gaussian_kernel(d2, sigma**2 / 2)  # exp(-d^2 / sigma^2)
    np.fill_diagonal(w, 0.0)  # leave-one-out
    return w


def local_linear_residuals(phi: np.ndarray,
                           bandwidth_mult: float = DEFAULT_RESIDUAL_BANDWIDTH_MULT,
                           max_k: int | None = None) -> ResidualReport:
    """Leave-one-out local-linear prediction error of each coordinate.

    Column k of ``phi`` holds phi_k, and column 0 is never read: a
    :class:`DMapsEmbedding`'s ``eigenvectors`` and ``embedding.csv`` (sample
    ids in column 0) serve as they are.  Coordinate k = 2..``max_k`` (all when
    None) is regressed on coordinates 1..k-1 with Gaussian weights
    exp(-d^2 / sigma^2), where sigma is ``bandwidth_mult`` (> 0) times the
    median pairwise distance of the predictors (the default is the pipeline
    ``Config``'s); a residual near zero marks it as a harmonic of earlier
    coordinates, while a large residual marks a genuinely new direction.
    r_1 = 1 by convention.

    Every row's weighted normal equations come from one matrix product per
    chunk of 512 rows: the chunk's weights times the packed upper triangle of
    the predictor products x_j x_l (j <= l) side by side with x_j y, so the
    Gram stack never holds more than one chunk.
    """
    # C order, as embedding.csv reads back: the distance GEMM rounds differently
    # on a LAPACK (Fortran-order) eigenvector matrix
    phi = np.ascontiguousarray(phi, dtype=float)
    n, total = phi.shape
    if total < 2:
        raise DomainError("need at least two columns: one unread, then phi_1")
    if max_k is not None and max_k < 1:
        raise DomainError(f"max_k must be at least 1, got {max_k}")
    if not bandwidth_mult > 0:
        raise DomainError(f"bandwidth_mult must be positive, got {bandwidth_mult}")
    K = (total - 1) if max_k is None else min(max_k, total - 1)
    residuals = np.empty(K)
    residuals[0] = 1.0
    fallbacks = 0
    chunk = max(1, min(512, n))
    iu = np.triu_indices(n, k=1)
    for k in range(2, K + 1):
        X = np.column_stack([np.ones(n), phi[:, 1:k]])  # intercept + phi_1..phi_{k-1}
        y = phi[:, k]
        w = _weights(phi[:, 1:k], bandwidth_mult, iu)
        ju, lu = np.triu_indices(k)
        tri = ju.size
        products = np.empty((n, tri + k))  # [x_j x_l for j <= l | x_j y]
        np.multiply(X[:, ju], X[:, lu], out=products[:, :tri])
        np.multiply(X, y[:, None], out=products[:, tri:])
        yhat = np.empty(n)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            moments = w[lo:hi] @ products  # (b, tri + k)
            G = np.empty((hi - lo, k, k))
            G[:, ju, lu] = moments[:, :tri]
            G[:, lu, ju] = moments[:, :tri]
            r = moments[:, tri:]
            try:
                beta = np.linalg.solve(G, r[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                beta = np.empty((hi - lo, X.shape[1]))
                ridge = 1e-10 * np.trace(G, axis1=1, axis2=2).mean() / X.shape[1]
                eye = np.eye(X.shape[1])
                for b in range(hi - lo):
                    try:
                        beta[b] = np.linalg.solve(G[b], r[b])
                    except np.linalg.LinAlgError:
                        beta[b] = np.linalg.solve(G[b] + ridge * eye, r[b])
                        fallbacks += 1
            yhat[lo:hi] = np.einsum("bj,bj->b", X[lo:hi], beta)
        # a wildly extrapolating fit can overshoot; the residual is capped at
        # the trivial-predictor level of 1
        residuals[k - 1] = min(np.linalg.norm(y - yhat) / np.linalg.norm(y), 1.0)
    if fallbacks:
        warnings.warn(f"{fallbacks} singular local regressions used a ridge fallback")
    return ResidualReport(residuals, tuple(range(1, K + 1)), bandwidth_mult, fallbacks)


def select_nonharmonic(report: ResidualReport,
                       target_dim: int | None = None) -> NonharmonicSelection:
    """Pick the non-harmonic eigenvector indices from the residual profile.

    With ``target_dim`` the largest residuals win outright; otherwise the cut
    is placed at the largest ratio between consecutive sorted residuals, which
    needs at least two of them.  An ambiguous largest gap (ratio below
    ``_AMBIGUITY_RATIO``) is reported with both candidate sets.
    """
    r = np.asarray(report.residuals, dtype=float)
    idx = np.asarray(report.indices)
    order = np.argsort(r)[::-1]
    if target_dim is not None:
        if not 1 <= target_dim <= len(r):
            raise DomainError("target_dim out of range")
        chosen = np.sort(idx[order[:target_dim]])
        return NonharmonicSelection(tuple(int(i) for i in chosen), False, float("inf"))
    if len(r) < 2:
        raise DomainError(f"the residual-gap rule needs at least two residuals, got {len(r)}")
    sorted_r = r[order]
    with np.errstate(divide="ignore"):
        ratios = sorted_r[:-1] / sorted_r[1:]
    cut = int(np.argmax(ratios))
    best = float(ratios[cut])
    chosen = np.sort(idx[order[: cut + 1]])
    second = int(np.argsort(ratios)[::-1][1]) if len(ratios) > 1 else cut
    alternate = np.sort(idx[order[: second + 1]])
    ambiguous = best < _AMBIGUITY_RATIO
    if ambiguous:
        warnings.warn(f"largest residual gap ratio {best:.2f} is ambiguous; "
                      f"alternate candidate set reported")
    return NonharmonicSelection(tuple(int(i) for i in chosen), ambiguous, best,
                                tuple(int(i) for i in alternate) if ambiguous else ())
