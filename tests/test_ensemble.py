import numpy as np
import pytest

from genident import ensemble
from genident.ensemble import (
    compare_tracks,
    run_ensemble,
    sample_ensemble,
)
from genident.errors import DomainError
from genident.fim import SensitivityMatrix, fim, spectrum, central_difference_jacobian
from genident.generator import IndependentParams, integrate, observe

NOM = IndependentParams.nominal().to_array()


class TestSampling:
    def test_zero_width_returns_nominal_rows(self):
        rows = sample_ensemble(5, perturbation=0.0, seed=0)
        np.testing.assert_allclose(rows, np.broadcast_to(NOM, rows.shape), rtol=1e-15)

    def test_seed_determinism(self):
        a = sample_ensemble(50, seed=3)
        b = sample_ensemble(50, seed=3)
        np.testing.assert_array_equal(a, b)
        c = sample_ensemble(50, seed=4)
        assert np.abs(a - c).max() > 0

    def test_empirical_box_coverage(self):
        # statistical oracle: extremes of 1e5 uniform draws sit within 0.2%
        # of the box endpoints (per column)
        rows = sample_ensemble(100000, perturbation=0.10, seed=1)
        lo = NOM * 0.9
        hi = NOM * 1.1
        width = hi - lo
        assert np.all((rows.min(axis=0) - lo) / width < 0.002)
        assert np.all((hi - rows.max(axis=0)) / width < 0.002)
        assert np.all(rows.min(axis=0) >= lo - 1e-12)
        assert np.all(rows.max(axis=0) <= hi + 1e-12)

    def test_spec_preconditions(self):
        with pytest.raises(DomainError):
            sample_ensemble(1)
        with pytest.raises(DomainError):
            sample_ensemble(10, perturbation=1.0)
        with pytest.raises(DomainError):
            sample_ensemble(10, seed=-1)


class TestRunEnsemble:
    def test_single_nominal_row_matches_model_map(self):
        run = run_ensemble(NOM[None, :])
        np.testing.assert_array_equal(run.outputs[0],
                                      observe(integrate(IndependentParams.nominal())))
        assert run.failures == ()

    def test_worker_count_does_not_change_results(self):
        rows = sample_ensemble(130, seed=2)
        r1 = run_ensemble(rows, workers=1)
        r8 = run_ensemble(rows, workers=8)
        np.testing.assert_array_equal(r1.outputs, r8.outputs)
        np.testing.assert_array_equal(r1.row_indices, r8.row_indices)

    @pytest.mark.parametrize("rtol", [0.0, -1e-7, 1e-15], ids=["zero", "negative", "below-floor"])
    def test_tolerance_not_positive_rejected_before_solving(self, monkeypatch, rtol):
        # checked up front: a row that fails to integrate is retried, then dropped
        def solve(*args, **kwargs):
            raise AssertionError("the model was solved")

        monkeypatch.setattr(ensemble, "integrate_batch", solve)
        with pytest.raises(DomainError, match="must be finite and positive"):
            run_ensemble(NOM[None, :], rtol=rtol)

    def test_row_order_preserved(self):
        rows = sample_ensemble(70, seed=5)
        run = run_ensemble(rows)
        assert run.outputs.shape == (70, 606)
        np.testing.assert_array_equal(run.row_indices, np.arange(70))


def _orthogonal_three_parameter_tracks():
    """Synthetic model with orthogonal order-one sensitivities, both tracks."""
    ts = np.linspace(0, 1, 8)

    def f(log_theta):
        th = np.exp(np.atleast_2d(log_theta))
        blocks = [np.sin(np.pi * ts[None, :] * th[:, :1]),
                  np.cos(np.pi * ts[None, :] * th[:, 1:2]),
                  (th[:, 2:3] ** 2) * ts[None, :]]
        return np.concatenate(blocks, axis=1)

    names = ("a", "b", "c")
    x0 = np.log([1.0, 1.3, 0.8])
    J = central_difference_jacobian(f, x0, 1e-5)
    sp = spectrum(fim(SensitivityMatrix(J, names)), names)
    mae = {"a": 0.004, "b": 0.006, "c": 0.005}
    return sp, mae, names


class TestCompare:
    def test_synthetic_identifiable_model_agrees(self):
        sp, mae, names = _orthogonal_three_parameter_tracks()
        report = compare_tracks(sp, 3, mae, cutoff=1e-2)
        assert report.fim_effective_dim == 3
        assert report.dmaps_dim == 3
        assert report.fim_identifiable_set == frozenset(names)
        assert report.gh_identifiable_set == frozenset(names)
        assert report.agreement

    def test_mismatched_dims_disagree(self):
        sp, mae, names = _orthogonal_three_parameter_tracks()
        report = compare_tracks(sp, 2, mae, cutoff=1e-2)
        assert not report.agreement

    def test_report_serialization(self):
        sp, mae, names = _orthogonal_three_parameter_tracks()
        d = compare_tracks(sp, 3, mae).to_dict()
        assert d["agreement"] is True
        assert d["gh_identifiable_set"] == sorted(names)
