"""Parameter-ensemble generation, parallel simulation, and track comparison."""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dopri import check_rtol
from .errors import DomainError, SolverError
from .fim import DEFAULT_CUTOFF, InfoSpectrum, effective_dimension
from .generator import (
    DEFAULT_GRID,
    PARAM_NAMES,
    SOLVE_TOL,
    IndependentParams,
    ObservationGrid,
    integrate_batch,
    observe,
)

__all__ = [
    "EnsembleRun",
    "ComparisonReport",
    "sample_ensemble",
    "run_ensemble",
    "compare_tracks",
    "lowest_error_parameters",
]

# rows integrated per shared-step solve; fixed so results do not depend on the
# worker count
_CHUNK = 64

#: half-width of the ensemble's uniform box, relative to nominal
DEFAULT_PERTURBATION = 0.10

#: projection norm above which a parameter counts as identifiable in compare_tracks
DEFAULT_PROJECTION_THRESHOLD = 0.8


@dataclass(frozen=True)
class EnsembleRun:
    outputs: np.ndarray  # (n_ok, M), original row order preserved
    row_indices: np.ndarray  # source row of each output row
    failures: tuple[int, ...]


@dataclass(frozen=True)
class ComparisonReport:
    fim_effective_dim: int
    dmaps_dim: int
    fim_identifiable_set: frozenset[str]
    gh_identifiable_set: frozenset[str]
    agreement: bool

    def to_dict(self) -> dict:
        return {
            "fim_effective_dim": self.fim_effective_dim,
            "dmaps_dim": self.dmaps_dim,
            "fim_identifiable_set": sorted(self.fim_identifiable_set),
            "gh_identifiable_set": sorted(self.gh_identifiable_set),
            "agreement": self.agreement,
        }


def sample_ensemble(n_samples: int, perturbation: float = DEFAULT_PERTURBATION,
                    seed: int = 0) -> np.ndarray:
    """Uniform box sample of ``n_samples`` independent-parameter rows around nominal.

    Each of the 11 parameters is drawn independently from
    [nominal (1 - w), nominal (1 + w)], w = ``perturbation``; deterministic for
    a given ``seed``.  Raises :class:`DomainError` for fewer than two rows, w
    outside [0, 1) or a negative seed.
    """
    if n_samples < 2:
        raise DomainError("need at least two ensemble members")
    if not 0.0 <= perturbation < 1.0:
        raise DomainError("perturbation half-width must lie in [0, 1)")
    if seed < 0:
        raise DomainError(f"ensemble seed must be non-negative, got {seed}")
    nominal = IndependentParams.nominal().to_array()
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(n_samples, len(PARAM_NAMES)))
    return nominal[None, :] * (1.0 + perturbation * u)


def _run_chunk(args):
    idx, ps, grid, rtol = args
    try:
        traj = integrate_batch(ps, t_end=grid.t_end, rtol=rtol, atol=rtol)
        return idx, np.atleast_2d(observe(traj, grid)), []
    except (SolverError, DomainError):
        # retry row by row so one bad member does not sink the chunk
        outs, failed = [], []
        for r in range(ps.shape[0]):
            try:
                traj = integrate_batch(ps[r:r + 1], t_end=grid.t_end, rtol=rtol, atol=rtol)
                outs.append(np.atleast_2d(observe(traj, grid)))
            except (SolverError, DomainError):
                failed.append(r)
        ok = np.vstack(outs) if outs else np.empty((0, grid.size()))
        return idx, ok, failed


def run_ensemble(params: np.ndarray, grid: ObservationGrid = DEFAULT_GRID,
                 workers: int = 1, *,
                 rtol: float = SOLVE_TOL, max_failure_frac: float = 0.01) -> EnsembleRun:
    """Observed full-model output for every parameter row.

    Rows are integrated in fixed-size shared-step chunks, so the result is
    identical for any worker count; failed rows are dropped with a warning and
    more than ``max_failure_frac`` failures aborts the run.  ``rtol``, the
    solver tolerance of every row, must pass :func:`~genident.dopri.check_rtol`:
    it is checked here, since a row that fails is retried and then dropped.
    """
    check_rtol(rtol, "rtol")
    params = np.atleast_2d(np.asarray(params, dtype=float))
    n = params.shape[0]
    tasks = [(lo, params[lo:lo + _CHUNK], grid, rtol)
             for lo in range(0, n, _CHUNK)]
    results = {}
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for idx, out, failed in pool.map(_run_chunk, tasks, chunksize=1):
                results[idx] = (out, failed)
    else:
        for task in tasks:
            idx, out, failed = _run_chunk(task)
            results[idx] = (out, failed)

    blocks, rows, failures = [], [], []
    for lo in sorted(results):
        out, failed = results[lo]
        keep = [r for r in range(out.shape[0] + len(failed)) if r not in failed]
        blocks.append(out)
        rows.extend(lo + r for r in keep)
        failures.extend(lo + r for r in failed)
    if failures:
        warnings.warn(f"{len(failures)} ensemble member(s) failed to integrate "
                      f"and were excluded: rows {failures[:10]}...")
    if len(failures) > max_failure_frac * n:
        raise SolverError(f"{len(failures)}/{n} ensemble members failed")
    outputs = np.vstack(blocks) if blocks else np.empty((0, grid.size()))
    return EnsembleRun(outputs, np.asarray(rows, dtype=int), tuple(failures))


def lowest_error_parameters(test_mae: Mapping[str, float], d: int) -> list[str]:
    """The data track's identifiable set: the ``d`` parameters of least test error, least first."""
    return sorted(test_mae, key=test_mae.get)[:d]


def compare_tracks(spec: InfoSpectrum, dmaps_dim: int, test_mae: Mapping[str, float], *,
                   cutoff: float = DEFAULT_CUTOFF,
                   projection_threshold: float = DEFAULT_PROJECTION_THRESHOLD,
                   ) -> ComparisonReport:
    """Cross-validate the analytic and data-driven identifiable-parameter claims.

    The information-side set holds the parameters whose axes project (norm)
    above the threshold onto the top-``dmaps_dim`` eigenmode subspace; the
    data side is the :func:`lowest_error_parameters` of ``test_mae``.
    Agreement requires equal dimensions and equal sets.
    """
    fim_dim = effective_dimension(spec, cutoff)
    proj = spec.identifiable_projection(dmaps_dim)
    fim_set = frozenset(nm for nm, v in proj.items() if v > projection_threshold)
    gh_set = frozenset(lowest_error_parameters(test_mae, dmaps_dim))
    agreement = (fim_dim == dmaps_dim) and (fim_set == gh_set)
    return ComparisonReport(fim_dim, dmaps_dim, fim_set, gh_set, agreement)
