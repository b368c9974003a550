import numpy as np
import pytest
import scipy.linalg

from genident.dmaps import (
    dmaps,
    local_linear_residuals,
    median_epsilon,
    pairwise_sq_dists,
    rescale01,
    select_nonharmonic,
    top_eigenpairs,
)
from genident.errors import DomainError, SolverError


class TestRescale:
    def test_simple_column(self):
        rows = rescale01(np.array([[0.0], [5.0], [10.0]]))
        np.testing.assert_allclose(rows[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_half_with_warning(self):
        raw = np.column_stack([np.arange(4.0), np.full(4, 2.0)])
        with pytest.warns(UserWarning, match="constant"):
            rows = rescale01(raw)
        np.testing.assert_array_equal(rows[:, 1], 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            rescale01(np.array([[0.0], [np.nan]]))


class TestMedianEpsilon:
    def test_hand_enumerated_line(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        # squared distances {1, 9, 4}; median 4
        assert median_epsilon(pts, 1.0) == pytest.approx(4.0)

    def test_multiplier_scales(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        assert median_epsilon(pts, 2.5) == pytest.approx(10.0)

    def test_identical_points_warn(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert median_epsilon(np.zeros((2, 3))) == 0.0


class TestDmaps:
    def test_circle_embedding(self):
        rng = np.random.default_rng(0)
        th = np.sort(rng.uniform(0, 2 * np.pi, 400))
        X = np.column_stack([np.cos(th), np.sin(th)])
        emb = dmaps(X, median_epsilon(X, 0.05), k=5)
        r = np.hypot(emb.eigenvectors[:, 1], emb.eigenvectors[:, 2])
        assert np.std(r) / np.mean(r) < 0.05

    def test_trivial_eigenpair(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((120, 4))
        emb = dmaps(X, median_epsilon(X, 1.0), k=6)
        assert emb.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        assert np.ptp(emb.eigenvectors[:, 0]) < 1e-8

    def test_near_identical_points_have_flat_spectrum(self):
        rng = np.random.default_rng(4)
        X = np.ones((50, 3)) + 1e-12 * rng.standard_normal((50, 3))
        emb = dmaps(X, 1.0, k=5)
        assert np.abs(emb.eigenvalues[1:]).max() < 1e-6

    def test_row_stochasticity_and_eigenvalue_bound(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (80, 3))
        eps = median_epsilon(X, 1.0)
        # rebuild the operator the same way to verify the normalization
        A = np.exp(-pairwise_sq_dists(X) / (2 * eps))
        p = A.sum(axis=1)
        At = A / np.outer(p, p)
        K = At / At.sum(axis=1)[:, None]
        np.testing.assert_allclose(K.sum(axis=1), 1.0, atol=1e-10)
        emb = dmaps(X, eps, k=10)
        assert np.abs(emb.eigenvalues).max() <= 1.0 + 1e-10

    def test_row_permutation_permutes_eigenvectors(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (60, 2))
        eps = median_epsilon(X, 1.0)
        emb1 = dmaps(X, eps, k=4)
        perm = rng.permutation(60)
        emb2 = dmaps(X[perm], eps, k=4)
        for j in range(4):
            a = emb1.eigenvectors[perm, j]
            b = emb2.eigenvectors[:, j]
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8

    def test_density_invariance_on_circle(self):
        # non-uniform 2:1 sampling should still recover the circle geometry
        rng = np.random.default_rng(7)
        th_dense = rng.uniform(0, np.pi, 400)
        th_sparse = rng.uniform(np.pi, 2 * np.pi, 200)
        th = np.sort(np.concatenate([th_dense, th_sparse]))
        X = np.column_stack([np.cos(th), np.sin(th)])
        emb = dmaps(X, median_epsilon(X, 0.05), k=3)
        C = np.column_stack([np.cos(th), np.sin(th)])
        Phi = emb.eigenvectors[:, 1:3]
        A, *_ = np.linalg.lstsq(Phi, C, rcond=None)
        resid = Phi @ A - C
        rel = np.linalg.norm(resid) / np.linalg.norm(C)
        assert rel < 0.10

    def test_disconnected_graph_detected(self):
        X = np.vstack([np.zeros((10, 2)), np.full((10, 2), 100.0)])
        with pytest.raises(SolverError, match="disconnected"):
            dmaps(X, 1e-3, k=4)

    def test_eigsh_path_reruns_are_byte_identical(self):
        # above 3000 rows dmaps and gh_fit hand the eigenproblem to ARPACK
        from genident.harmonics import gh_fit
        x = np.random.default_rng(5).uniform(0, 1, (3100, 3))
        eps = median_epsilon(x)
        a, b = dmaps(x, eps, k=10), dmaps(x, eps, k=10)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
        y = np.sin(3 * x)
        g, h = gh_fit(x, y, retain=20), gh_fit(x, y, retain=20)
        assert g.eigenvalues.tobytes() == h.eigenvalues.tobytes()
        assert g.weights.tobytes() == h.weights.tobytes()

    def test_eigsh_path_matches_the_dense_subset_solve(self):
        # scipy's dense subset eigh is the reference: for ARPACK on the same
        # 3100-row kernel, and for numpy's full eigh on a 300-row one.  The
        # bound is relative, so the 300-row kernel is narrow enough that its
        # 150th eigenvalue stays far above rounding (with the median scale it
        # is 1e-8 of the first, and the two solvers part at 1e-6 there)
        for n, mult, ks in ((3100, 1.0, (10, 20)), (300, 0.05, (10, 150))):
            x = np.random.default_rng(5).uniform(0, 1, (n, 3))
            W = np.exp(pairwise_sq_dists(x) / (-2.0 * median_epsilon(x, mult)))
            ref_vals, ref_vecs = scipy.linalg.eigh(W, subset_by_index=(n - ks[-1], n - 1))
            ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]
            for k in ks:
                vals, vecs = top_eigenpairs(W, k)
                assert vals.shape == (k,) and vecs.shape == (n, k)
                assert np.max(np.abs(vals - ref_vals[:k]) / ref_vals[:k]) < 1e-10
                cos = np.abs(np.sum(vecs * ref_vecs[:, :k], axis=0))
                assert np.max(1.0 - cos) < 1e-10

    def test_epsilon_and_k_preconditions(self):
        X = np.random.default_rng(8).uniform(0, 1, (20, 2))
        with pytest.raises(DomainError):
            dmaps(X, -1.0, k=3)
        with pytest.raises(DomainError):
            dmaps(X, 1.0, k=20)


class TestResiduals:
    @pytest.fixture(scope="class")
    def rectangle_embedding(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 4, 1500)
        y = rng.uniform(0, 1, 1500)
        R = np.column_stack([x, y])
        emb = dmaps(R, median_epsilon(R, 0.02), k=8)
        return emb, y

    def test_first_residual_is_one_by_convention(self, rectangle_embedding):
        emb, _ = rectangle_embedding
        rep = local_linear_residuals(emb.eigenvectors)
        assert rep.residuals[0] == 1.0
        assert rep.indices[0] == 1

    def test_harmonics_have_small_residuals(self, rectangle_embedding):
        emb, y = rectangle_embedding
        rep = local_linear_residuals(emb.eigenvectors)
        cors = np.array([abs(np.corrcoef(emb.eigenvectors[:, k], y)[0, 1])
                         for k in rep.indices])
        short_axis = rep.indices[int(np.argmax(cors))]
        r = dict(zip(rep.indices, rep.residuals))
        assert r[short_axis] > 0.5
        harmonics = [k for k in rep.indices if k not in (1, short_axis)]
        assert max(r[k] for k in harmonics) < 0.3
        sel = select_nonharmonic(rep)
        assert set(sel.indices) == {1, short_axis}

    def test_matches_direct_weighted_least_squares(self):
        # every leave-one-out fit solved on its own: lstsq on sqrt(w)-scaled
        # rows, with the weights and their median bandwidth built by hand
        rng = np.random.default_rng(0)
        R = np.column_stack([rng.uniform(0, 4, 150), rng.uniform(0, 1, 150)])
        emb = dmaps(R, median_epsilon(R, 0.05), k=8)
        phi = emb.eigenvectors
        n = phi.shape[0]
        rep = local_linear_residuals(phi, bandwidth_mult=0.5)
        want = [1.0]
        for k in range(2, 8):
            X = np.column_stack([np.ones(n), phi[:, 1:k]])
            y = phi[:, k]
            d = np.linalg.norm(phi[:, None, 1:k] - phi[None, :, 1:k], axis=2)
            sigma = 0.5 * np.median(d[np.triu_indices(n, k=1)])
            yhat = np.empty(n)
            for i in range(n):
                sqrt_w = np.exp(-0.5 * (d[i] / sigma) ** 2)
                sqrt_w[i] = 0.0
                beta = np.linalg.lstsq(X * sqrt_w[:, None], y * sqrt_w, rcond=None)[0]
                yhat[i] = X[i] @ beta
            want.append(min(np.linalg.norm(y - yhat) / np.linalg.norm(y), 1.0))
        np.testing.assert_allclose(rep.residuals, want, rtol=1e-10, atol=0)

    def test_singular_local_fits_take_the_ridge_fallback(self):
        # three clusters in phi_1 and a bandwidth far below their spacing:
        # every row's neighbours share its phi_1, so every local fit is singular
        phi = np.column_stack([np.ones(60), np.repeat([0.0, 0.5, 1.0], 20),
                               np.random.default_rng(0).standard_normal(60)])
        with pytest.warns(UserWarning, match="ridge fallback"):
            rep = local_linear_residuals(phi, bandwidth_mult=0.01)
        assert rep.ridge_fallbacks == 60
        assert np.all(np.isfinite(rep.residuals))

    def test_needs_two_eigenvectors(self):
        with pytest.raises(DomainError):
            local_linear_residuals(np.ones((10, 1)))


class TestSelection:
    def _report(self, residuals):
        from genident.dmaps import ResidualReport
        r = np.asarray(residuals, dtype=float)
        return ResidualReport(r, tuple(range(1, len(r) + 1)), 1.0)

    def test_clean_gap(self):
        sel = select_nonharmonic(self._report([1.0, 0.9, 0.05, 0.04, 0.03]))
        assert sel.indices == (1, 2)
        assert not sel.ambiguous

    def test_gap_rule_needs_two_residuals(self):
        with pytest.raises(DomainError, match="at least two residuals"):
            select_nonharmonic(self._report([1.0]))
        assert select_nonharmonic(self._report([1.0]), target_dim=1).indices == (1,)

    def test_target_dim_overrides_gap(self):
        sel = select_nonharmonic(self._report([1.0, 0.9, 0.05, 0.04, 0.03]),
                                 target_dim=4)
        assert sel.indices == (1, 2, 3, 4)

    def test_target_dim_all(self):
        r = [1.0, 0.5, 0.4, 0.3]
        sel = select_nonharmonic(self._report(r), target_dim=4)
        assert sel.indices == (1, 2, 3, 4)

    def test_ambiguous_gap_reports_alternate(self):
        with pytest.warns(UserWarning, match="ambiguous"):
            sel = select_nonharmonic(self._report([1.0, 0.8, 0.6, 0.45, 0.35]))
        assert sel.ambiguous
        assert sel.alternate != ()

    def test_generator_track_selects_six(self, dmaps_track):
        sel = dmaps_track["selection"]
        assert len(sel.indices) == 6
