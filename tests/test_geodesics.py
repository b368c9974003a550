import math

import numpy as np
import pytest

from genident.errors import ChainDivergenceError, DomainError
from genident.fim import central_difference_jacobian, fim, spectrum, generator_map
from genident.generator import IndependentParams, LimitFlags
from genident.geodesics import (
    GeodesicState,
    GeodesicTrace,
    christoffel_contraction,
    contraction_for_map,
    diagnose_boundary,
    sloppiest_direction,
    trace_geodesic,
)

NOM = IndependentParams.nominal()


def linear_map(A):
    def f(x):
        return np.atleast_2d(x) @ A.T
    return f


def exp_sum_map(ts):
    """y(theta; t) = exp(-theta_1 t) + exp(-theta_2 t), batched in log-params."""
    ts = np.asarray(ts)

    def f(log_theta):
        th = np.exp(np.atleast_2d(log_theta))
        return np.exp(-th[:, :1] * ts[None, :]) + np.exp(-th[:, 1:2] * ts[None, :])

    return f


class TestChristoffel:
    def test_linear_map_has_no_curvature(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 4))
        g = contraction_for_map(linear_map(A), rng.standard_normal(4),
                                rng.standard_normal(4))
        np.testing.assert_allclose(g, 0.0, atol=1e-8)

    def test_bilinear_scaling(self):
        f = exp_sum_map([0.5, 1.0, 2.0])
        x0 = np.log([1.0, 3.0])
        v = np.array([0.6, -0.2])
        g1 = contraction_for_map(f, x0, v)
        g2 = contraction_for_map(f, x0, 2.0 * v)
        np.testing.assert_allclose(g2, 4.0 * g1, rtol=1e-5)

    def test_against_full_tensor_oracle_on_submodel(self):
        # three-parameter restriction of the generator model; the oracle builds
        # the full connection tensor from all pairwise second differences
        sub = ("dx2", "dx3", "xdpp")
        full_names = LimitFlags().active_params()
        base = np.log(NOM.to_array())
        idx = [full_names.index(nm) for nm in sub]
        fmap = generator_map()

        def f(lt):
            lt = np.atleast_2d(lt)
            pts = np.repeat(base[None, :], lt.shape[0], axis=0)
            pts[:, idx] = lt
            return fmap(pts)

        x0 = base[idx]
        h = 1e-3
        n = 3
        # oracle: second-derivative tensor d2Y[a, b] by central differences
        Y0 = f(x0)
        M = Y0.shape[-1] if Y0.ndim > 1 else len(np.atleast_1d(Y0))
        Y0 = np.atleast_2d(Y0)[0]
        d2Y = np.empty((n, n, M))
        for a in range(n):
            for b in range(n):
                if a == b:
                    e = np.zeros(n); e[a] = h
                    d2Y[a, a] = (f(x0 + e)[0] - 2 * Y0 + f(x0 - e)[0]) / h**2
                else:
                    ea = np.zeros(n); ea[a] = h
                    eb = np.zeros(n); eb[b] = h
                    d2Y[a, b] = (f(x0 + ea + eb)[0] - f(x0 + ea - eb)[0]
                                 - f(x0 - ea + eb)[0] + f(x0 - ea - eb)[0]) / (4 * h**2)
        J = central_difference_jacobian(f, x0, 1e-4)
        I = J.T @ J
        rng = np.random.default_rng(4)
        v = rng.standard_normal(n)
        contracted_d2 = np.einsum("a,b,abm->m", v, v, d2Y)
        oracle = np.linalg.solve(I, J.T @ contracted_d2)
        got = contraction_for_map(f, x0, v)
        assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) <= 1e-3

    def test_generator_signature_wrapper_matches_generic(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(11)
        got = christoffel_contraction(NOM, v)
        f = generator_map()
        want = contraction_for_map(f, np.log(NOM.to_array()), v)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


class TestTraceGeodesic:
    def test_zero_velocity_is_constant_to_max_tau(self):
        f = exp_sum_map([0.5, 1.0])
        tr = trace_geodesic(f, GeodesicState(np.log([1.0, 2.0]), np.zeros(2)),
                            tau_max=1.0)
        assert tr.terminated == "max_tau"
        np.testing.assert_array_equal(tr.thetas[-1], np.log([1.0, 2.0]))

    def test_synthetic_exponential_boundary(self):
        # the fast rate is the sloppy one; its boundary is the vanishing-term
        # limit theta_2 -> infinity
        ts = np.array([0.25, 0.75, 1.5, 3.0])
        f = exp_sum_map(ts)
        x0 = np.log([1.0, 3.0])
        J = central_difference_jacobian(f, x0, 1e-5)
        sp = spectrum(fim(J), ("th1", "th2"))
        v0 = sloppiest_direction(sp.eigenvalues, sp.eigenvectors)
        tau_max = 10 * math.sqrt(sp.eigenvalues[-1])
        # both orientations end at a boundary well inside tau_max: the one
        # raising theta_2 at theta_2 -> infinity, the other at the
        # rate-coalescence edge theta_1 = theta_2
        up = v0 if v0[1] > 0 else -v0
        tr = trace_geodesic(f, GeodesicState(x0, up), tau_max=tau_max,
                            param_names=("th1", "th2"))
        assert tr.terminated == "boundary"
        diag = diagnose_boundary(tr)
        assert diag.limit_param == "th2"
        assert diag.direction == "to_infinity"
        # analytic check of the limit: the model map converges as theta_2 grows
        lim = np.exp(-1.0 * ts)
        far = f(np.array([[0.0, 8.0]]))[0]
        assert np.abs(far - lim).max() < 1e-3
        other = trace_geodesic(f, GeodesicState(x0, -up), tau_max=tau_max,
                               param_names=("th1", "th2"))
        assert other.terminated == "boundary"
        th1, th2 = np.exp(other.thetas[-1])
        assert abs(th1 / th2 - 1.0) < 0.1

    def test_taus_strictly_increasing_invariant(self):
        with pytest.raises(DomainError):
            GeodesicTrace(np.array([0.0, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)),
                          "max_tau", ("a", "b"))


class TestDiagnose:
    def test_synthetic_unit_velocity(self):
        tr = GeodesicTrace(np.array([0.0, 1.0]), np.zeros((2, 3)),
                           np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]),
                           "boundary", ("a", "b", "c"))
        diag = diagnose_boundary(tr)
        assert diag.limit_param == "c"
        assert diag.direction == "to_infinity"
        assert diag.velocity_alignment == pytest.approx(1.0)

    def test_non_boundary_trace_rejected(self):
        tr = GeodesicTrace(np.array([0.0]), np.zeros((1, 2)), np.ones((1, 2)),
                           "max_tau", ("a", "b"))
        with pytest.raises(DomainError):
            diagnose_boundary(tr)

    def test_to_zero_sign(self):
        tr = GeodesicTrace(np.array([0.0, 1.0]), np.zeros((2, 2)),
                           np.array([[-0.1, 0.0], [-3.0, 0.1]]),
                           "boundary", ("a", "b"))
        diag = diagnose_boundary(tr)
        assert diag.limit_param == "a"
        assert diag.direction == "to_zero"


class TestSpeedConservation:
    def test_metric_speed_constant_until_near_boundary(self):
        # affine parameterization: v^T I v is conserved along a true geodesic
        ts = np.array([0.25, 0.75, 1.5, 3.0])
        f = exp_sum_map(ts)
        x0 = np.log([1.0, 3.0])
        J = central_difference_jacobian(f, x0, 1e-5)
        sp = spectrum(fim(J), ("th1", "th2"))
        v0 = sloppiest_direction(sp.eigenvalues, sp.eigenvectors)
        tau_max = 10 * math.sqrt(sp.eigenvalues[-1])
        tr = trace_geodesic(f, GeodesicState(x0, v0), tau_max=tau_max)
        if tr.terminated == "max_tau":
            tr = trace_geodesic(f, GeodesicState(x0, -v0), tau_max=tau_max)
        diag = diagnose_boundary(tr)
        speeds = []
        for i in range(len(tr.taus)):
            if tr.taus[i] > 0.95 * diag.tau_boundary:
                break
            Ji = central_difference_jacobian(f, tr.thetas[i], 1e-5)
            Ii = Ji.T @ Ji
            speeds.append(float(tr.velocities[i] @ Ii @ tr.velocities[i]))
        speeds = np.array(speeds)
        assert len(speeds) >= 3
        assert np.abs(speeds / speeds[0] - 1.0).max() <= 0.10


class TestMbamChain:
    def test_divergence_record_keeps_finished_stages(self, monkeypatch):
        from genident import geodesics
        from genident.geodesics import BoundaryDiagnosis, mbam_chain
        names = LimitFlags().active_params()
        trace = GeodesicTrace(np.array([0.0, 1.0]), np.zeros((2, len(names))),
                              np.ones((2, len(names))), "boundary", names)

        def step(flags, grid, **options):
            if flags.count() == 0:
                return BoundaryDiagnosis("D", "to_zero", 4e-5, 1.0), flags.with_next(), trace
            raise ChainDivergenceError("off chain",
                                       diagnosis=BoundaryDiagnosis("dx1", "to_zero", 9e-3, 1.0))

        monkeypatch.setattr(geodesics, "mbam_step", step)
        chain = mbam_chain(collect_traces=True)
        assert [(e["limit_param"], e["direction"]) for e in chain] == [
            ("D", "to_zero"), ("dx1", "to_zero")]
        assert chain[0]["to_params"] == 10 and chain[0]["trace"] is trace
        record = chain[1]
        assert "to_params" not in record and "trace" not in record
        assert record["from_params"] == 10
        assert record["expected_param"] == "H"
        assert record["divergence"] == "off chain"
