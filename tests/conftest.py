import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from genident.generator import IndependentParams, LimitFlags, ObservationGrid, integrate
from genident.fim import fim, sensitivities, spectrum

# Heavy artifacts (ensemble, embeddings, geodesic chain) are built once per
# session and shared by the unit and acceptance tests.


@pytest.fixture(scope="session")
def nominal_trajectory():
    return integrate(IndependentParams.nominal())


@pytest.fixture(scope="session")
def nominal_spectrum():
    S = sensitivities(IndependentParams.nominal())
    return spectrum(fim(S), S.param_names)


_TIMINGS = {}


@pytest.fixture(scope="session")
def ensemble_2000():
    import time
    from genident.ensemble import EnsembleSpec, run_ensemble, sample_ensemble
    spec = EnsembleSpec(n_samples=2000, seed=0)
    params = sample_ensemble(spec)
    t0 = time.monotonic()
    run = run_ensemble(params, workers=1)
    _TIMINGS["ensemble"] = time.monotonic() - t0
    return params[run.row_indices], run.outputs


@pytest.fixture(scope="session")
def ensemble_time(ensemble_2000):
    return _TIMINGS["ensemble"]


@pytest.fixture(scope="session")
def dmaps_track(ensemble_2000):
    """Embedding, residuals, and selection for the generator ensemble."""
    import time
    import warnings
    from genident.dmaps import (dmaps, local_linear_residuals, median_epsilon,
                                rescale01, select_nonharmonic)
    from genident.pipeline import Config
    cfg = Config()
    params, outputs = ensemble_2000
    t0 = time.monotonic()
    ds = rescale01(outputs)
    eps = median_epsilon(ds, cfg.dmaps_epsilon_mult)
    emb = dmaps(ds, eps, k=cfg.dmaps_k)
    rep = local_linear_residuals(emb, cfg.residual_bandwidth_mult,
                                 max_k=cfg.residual_max_k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sel = select_nonharmonic(rep)
    elapsed = time.monotonic() - t0
    return {"dataset": ds, "epsilon": eps, "embedding": emb,
            "residuals": rep, "selection": sel, "elapsed": elapsed}


@pytest.fixture(scope="session")
def mbam_chain_result():
    import time
    from genident.geodesics import mbam_chain
    t0 = time.monotonic()
    chain = mbam_chain(collect_traces=True)
    return chain, time.monotonic() - t0


@pytest.fixture(scope="session")
def full_model_geodesic(mbam_chain_result, nominal_spectrum):
    """First reduction stage recast for the single-geodesic criterion."""
    import math
    from genident.geodesics import diagnose_boundary
    chain, _ = mbam_chain_result
    stage = chain[0]
    diag = diagnose_boundary(stage["trace"])
    sqrt_lmin = math.sqrt(nominal_spectrum.eigenvalues[-1])
    return diag, stage["trace"], stage["wall_clock_s"], sqrt_lmin


@pytest.fixture(scope="session")
def gh_track(ensemble_2000, dmaps_track):
    """Both geometric-harmonics regressions plus test-set errors."""
    from genident.pipeline import Config, fit_gh_track
    params, _ = ensemble_2000
    sel = dmaps_track["selection"].indices
    coords = dmaps_track["embedding"].eigenvectors[:, list(sel)]
    return fit_gh_track(params, coords, sel, Config())


@pytest.fixture(scope="session")
def ift_reports(gh_track):
    """Jacobian-determinant reports for the two square regression maps."""
    from genident.pipeline import Config, square_ift_reports
    t = gh_track
    _, fwd, inv = square_ift_reports(t.forward, t.forward_mae, t.params01, t.coords01,
                                     t.train, t.test, Config())
    return fwd, inv
