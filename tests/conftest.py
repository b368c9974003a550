import multiprocessing
import os
import sys
import time
import traceback

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
    from genident.pipeline import Config, embed_outputs, select_coordinates
    cfg = Config()
    _, outputs = ensemble_2000
    t0 = time.monotonic()
    emb = embed_outputs(outputs, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep, sel = select_coordinates(emb, cfg)
    elapsed = time.monotonic() - t0
    return {"embedding": emb, "residuals": rep, "selection": sel, "elapsed": elapsed}


# The reduction ladder is by far the slowest artifact and shares nothing with
# the others, so it is built in a background process that starts once the
# session knows a test wants it; those tests run last, and the rest of the
# suite overlaps the ladder.
_LADDER_FIXTURES = {"mbam_chain_result", "full_model_geodesic"}
_ladder = {}


def _build_ladder(conn):
    from genident.geodesics import mbam_chain
    try:
        t0 = time.monotonic()
        chain = mbam_chain(collect_traces=True)
        conn.send(("ok", (chain, time.monotonic() - t0)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    conn.close()


def _start_ladder():
    if "conn" not in _ladder:
        receiver, sender = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(target=_build_ladder, args=(sender,), daemon=True)
        proc.start()
        sender.close()
        _ladder.update(conn=receiver, proc=proc)


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(config, items):
    waiting = {id(item) for item in items if _LADDER_FIXTURES & set(item.fixturenames)}
    if not waiting or config.option.collectonly:
        return
    items.sort(key=lambda item: id(item) in waiting)  # stable: order kept within each part
    _start_ladder()


@pytest.fixture(scope="session")
def mbam_chain_result():
    _start_ladder()
    proc = _ladder["proc"]
    try:
        status, value = _ladder["conn"].recv()
    except EOFError:  # the process died without reporting
        status, value = "error", ""
    proc.join()
    if status != "ok":
        raise RuntimeError(f"reduction ladder failed in its background process "
                           f"(exit code {proc.exitcode}):\n{value}")
    return value


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
