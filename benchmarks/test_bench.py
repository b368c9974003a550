"""Tests of the benchmark harness itself (not part of the library's suite).

    python3 -m pytest benchmarks -q
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from genident import dmaps, ensemble, fim, generator, geodesics, harmonics, pipeline  # noqa: E402
from genident.generator import IndependentParams, LimitFlags, ObservationGrid  # noqa: E402
from tracing import Tracer  # noqa: E402

# a short window keeps every traced integration to a few milliseconds
GRID = ObservationGrid(t_start=0.1, t_end=0.2, dt=0.05)


def _nominal_log(flags):
    p = IndependentParams.nominal()
    return np.log([getattr(p, nm) for nm in flags.active_params()])


def test_wrappers_replace_from_imported_names_and_are_removed():
    originals = {
        (fim, "integrate_batch"): generator.integrate_batch,
        (ensemble, "integrate_batch"): generator.integrate_batch,
        (harmonics, "pairwise_sq_dists"): dmaps.pairwise_sq_dists,
        (generator, "solve_power_angle"): generator.solve_power_angle,
        (geodesics, "generator_map"): fim.generator_map,
        (pipeline, "gh_fit"): harmonics.gh_fit,
    }
    stages = dict(pipeline.STAGES)
    finish = pipeline.Stage.finish
    with Tracer():
        for (mod, name), original in originals.items():
            assert getattr(mod, name) is not original, f"{mod.__name__}.{name} not rebound"
        assert all(pipeline.STAGES[k] is not fn for k, fn in stages.items())
        assert pipeline.Stage.finish is not finish
    for (mod, name), original in originals.items():
        assert getattr(mod, name) is original, f"{mod.__name__}.{name} not restored"
    assert pipeline.STAGES == stages
    assert pipeline.Stage.finish is finish


def test_from_imported_and_global_calls_are_counted():
    rng = np.random.default_rng(0)
    with Tracer() as t:
        # generator.integrate -> module-global integrate_batch; the inertia
        # limit solves the power angle through the module-global name
        generator.integrate(IndependentParams.nominal(), LimitFlags.first(2), t_end=0.05)
        # ensemble's from-imported integrate_batch
        ensemble.run_ensemble(np.tile(IndependentParams.nominal().to_array(), (2, 1)), GRID)
        # harmonics' from-imported pairwise_sq_dists
        harmonics.gh_fit(rng.uniform(size=(20, 2)), rng.uniform(size=20), retain=5)
    c = t.snapshot()
    assert c["generator.solve_power_angle.calls"] > 0
    assert c["generator.integrate_batch.calls"] == 2
    assert c["generator.integrate_batch.rows"] == 3
    assert c["ensemble.run_ensemble.rows"] == 2 and c["ensemble.ok_ratio"] == 1.0
    assert "ensemble.retry_rows" not in c
    assert c["dmaps.pairwise_sq_dists.calls"] >= 2  # median_epsilon and the kernel
    assert c["harmonics.gh_fit.calls"] == 1 and c["harmonics.gh_fit.retained"] >= 1


def test_row_by_row_retry_is_counted():
    params = np.tile(IndependentParams.nominal().to_array(), (3, 1))
    params[1, 0] = -1.0  # rejected, which sends the whole chunk to the row-by-row retry
    with Tracer() as t:
        run = ensemble.run_ensemble(params, GRID, max_failure_frac=0.5)
    c = t.snapshot()
    assert run.failures == (1,)
    assert c["ensemble.retry_rows"] == 3
    assert c["ensemble.run_ensemble.failures"] == 1
    assert c["ensemble.ok_ratio"] == pytest.approx(2 / 3)


def test_full_model_sensitivities_is_one_map_call_of_22_rows():
    with Tracer() as t:
        fim.sensitivities(IndependentParams.nominal(), LimitFlags(), GRID)
    c = t.snapshot()
    assert c["fim.sensitivities.calls"] == 1
    assert c["fim.map.calls"] == 1 and c["fim.map.rows"] == 22
    assert c["generator.integrate_batch.calls"] == 1
    assert c["generator.integrate_batch.rows"] == 22


@pytest.mark.parametrize("n_limits", [0, 3])
def test_contraction_is_2n_plus_3_rows(n_limits):
    flags = LimitFlags.first(n_limits)
    theta = _nominal_log(flags)
    n = theta.size
    v = np.ones(n) / np.sqrt(n)
    with Tracer() as t:
        f = geodesics.generator_map(flags, GRID)
        geodesics.contraction_for_map(f, theta, v)
    c = t.snapshot()
    assert c["geodesics.contraction_for_map.calls"] == 1
    assert c["fim.map.calls"] == 1 and c["fim.map.rows"] == 2 * n + 3
    assert c["generator.integrate_batch.under_contraction.s"] == c["generator.integrate_batch.s"]


def test_self_times_add_up_to_top_level_time():
    with Tracer() as t:
        fim.spectrum(fim.fim(fim.sensitivities(IndependentParams.nominal(), LimitFlags(), GRID)))
    c = t.snapshot()
    self_total = sum(v for k, v in c.items() if k.endswith(".s") and ".under_" not in k)
    assert self_total == pytest.approx(c["trace.top_level_s"], rel=1e-9)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "analytic",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_cross_checks_count_mismatches(tmp_path, monkeypatch):
    import run
    monkeypatch.setattr(run, "REFERENCE", str(tmp_path / "reference.json"))
    ev = [1.0, 0.5, 1e-9]
    repeats = [{"digest": {"a": "x", "b": "y"}, "fingerprint": {"ev": ev}},
               {"digest": {"a": "x", "b": "z"}, "fingerprint": {"ev": [1.0, 0.5 * (1 + 1e-12), 1e-9]}},
               {"digest": {"a": "x", "b": "y"}, "fingerprint": {"ev": [1.0, 0.6, 1e-9]}}]
    attempted, failures = run.cross_checks("w", 1, repeats, 0, [], False)
    assert attempted == 4  # two digests for each later repeat
    assert failures == ["determinism: b differs between repeats"]

    # at the reference seed the first repeat's fingerprint is checked as well
    run.cross_checks("w", run.REFERENCE_SEED, repeats[:1], 0, [], True)
    assert run.cross_checks("w", run.REFERENCE_SEED, repeats[1:2], 0, [], False) == (1, [])
    attempted, failures = run.cross_checks("w", run.REFERENCE_SEED, repeats[2:], 0, [], False)
    assert attempted == 1 and failures == ["reference: ev differs from reference.json"]
