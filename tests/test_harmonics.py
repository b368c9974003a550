import numpy as np
import pytest

from genident.errors import DomainError
from genident.harmonics import (
    DEFAULT_RETAIN,
    distance_to_training,
    gh_fit,
    gh_gradient,
    gh_predict,
    jacobian_report,
)


@pytest.fixture(scope="module")
def sine_model():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0, 2 * np.pi, 400))[:, None]
    f = np.sin(x[:, 0])
    return gh_fit(x, f, epsilon_mult=0.02), x, f


class TestFit:
    def test_eigenvector_target_reproduced(self, gh_basis):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (150, 2))
        m0 = gh_fit(X, np.zeros(150), retain=40)
        psi0 = gh_basis(m0, 40)[:, 0]
        m = gh_fit(X, psi0, retain=40, epsilon_star=m0.epsilon_star)
        pred = gh_predict(m, X)
        np.testing.assert_allclose(pred, psi0, atol=1e-8)

    def test_constant_target_concentrates_on_leading_mode(self, gh_basis):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (120, 2))
        m = gh_fit(X, np.ones(120), retain=30)
        # the projections <f, psi_alpha> of the target on the retained basis
        proj = np.abs(gh_basis(m, 30).T @ np.ones(120))
        assert proj[0] > 0.99 * np.linalg.norm(proj)
        pred = gh_predict(m, X + 1e-3)
        assert np.abs(pred - 1.0).max() < 1e-2

    def test_retained_ordering_and_positivity(self, sine_model):
        m, _, _ = sine_model
        assert np.all(np.diff(m.eigenvalues) <= 0)
        assert np.all(m.eigenvalues > 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            gh_fit(np.zeros((10, 2)), np.zeros(9))

    def test_small_eigenvalues_dropped_with_warning(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (60, 1))
        with pytest.warns(UserWarning, match="dropped"):
            m = gh_fit(X, X[:, 0], retain=60, epsilon_mult=50.0)
        assert m.n_retained < 60

    def test_training_rms_monotone_in_basis_size(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (200, 2))
        y = np.sin(3 * X[:, 0]) * X[:, 1]
        errs = []
        for retain in (5, 20, 80):
            m = gh_fit(X, y, retain=retain, epsilon_mult=0.1)
            pred = gh_predict(m, X)
            errs.append(float(np.sqrt(np.mean((pred - y) ** 2))))
        assert errs[0] >= errs[1] >= errs[2]


class TestPredict:
    def test_nystrom_consistency_on_training_points(self, sine_model, gh_basis):
        m, x, f = sine_model
        pred = gh_predict(m, x)
        # the delta-truncated projection of the training targets
        V = gh_basis(m, DEFAULT_RETAIN)
        np.testing.assert_allclose(pred, V @ (V.T @ f), atol=1e-8)

    def test_midpoint_interpolation_error(self, sine_model):
        m, x, f = sine_model
        mids = 0.5 * (x[:-1] + x[1:])
        pred = gh_predict(m, mids)
        want = np.sin(mids[:, 0])
        assert np.abs(pred - want).max() < 1e-3

    def test_far_extrapolation_decays_to_zero(self, sine_model):
        m, x, _ = sine_model
        far = np.array([[x.max() + 60 * np.sqrt(m.epsilon_star)]])
        assert abs(gh_predict(m, far)[0]) < 1e-12
        assert distance_to_training(m, far)[0] > 10.0

    def test_dimension_mismatch_rejected(self, sine_model):
        m, _, _ = sine_model
        with pytest.raises(DomainError):
            gh_predict(m, np.zeros((3, 2)))


class TestGradient:
    def test_matches_finite_differences(self, sine_model):
        m, x, _ = sine_model
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.5, 5.5, (20, 1))
        g = gh_gradient(m, pts)[:, 0, 0]
        h = 1e-5
        fd = (gh_predict(m, pts + h) - gh_predict(m, pts - h)) / (2 * h)
        assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-4

    def test_constant_target_has_zero_gradient(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (100, 2))
        m = gh_fit(X, np.full(100, 2.5), retain=30)
        g = gh_gradient(m, X[:10])
        assert np.abs(g).max() < 1e-6

    def test_linear_function_slope(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (600, 1))
        y = 2.0 * X[:, 0]
        m = gh_fit(X, y, retain=200, epsilon_mult=0.05)
        pts = rng.uniform(0.2, 0.8, (25, 1))
        g = gh_gradient(m, pts)[:, 0, 0]
        np.testing.assert_allclose(g, 2.0, rtol=0.02)


class TestJacobianReport:
    def test_identity_map(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (500, 2))
        m = gh_fit(X, X, retain=300, epsilon_mult=0.05)
        rep = jacobian_report(m, X[::10])
        assert rep.sign_consistent
        np.testing.assert_allclose(rep.determinants, 1.0, atol=0.05)
        assert rep.min_abs > 0.9

    def test_non_square_rejected(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (50, 2))
        m = gh_fit(X, X[:, :1], retain=20)
        with pytest.raises(DomainError):
            jacobian_report(m, X[:5])

    def test_orientation_reversing_map_has_negative_determinants(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, (500, 2))
        target = X[:, ::-1]  # swap coordinates: det -1
        m = gh_fit(X, target, retain=300, epsilon_mult=0.05)
        rep = jacobian_report(m, X[::10])
        assert rep.sign_consistent
        assert np.all(rep.determinants < 0)
