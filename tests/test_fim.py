import json
import os

import numpy as np
import pytest

from genident.errors import DomainError
from genident.fim import (
    SensitivityMatrix,
    central_difference_jacobian,
    effective_dimension,
    fim,
    sensitivities,
    spectrum,
)
from genident.generator import (LIMIT_CHAIN, PARAM_NAMES, IndependentParams, LimitFlags,
                                integrate, observe)

NOM = IndependentParams.nominal()
IDENTIFIABLE = ("dx2", "dx3", "dx4", "xdpp", "dTd", "dTq")
REFERENCE = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "reference.json")


class TestModelMap:
    def test_output_length(self):
        assert observe(integrate(NOM)).shape == (606,)

    def test_determinism(self):
        y1 = observe(integrate(NOM))
        y2 = observe(integrate(NOM))
        np.testing.assert_array_equal(y1, y2)

    def test_sloppy_damping_barely_moves_output(self):
        y0 = observe(integrate(NOM))
        bumped = IndependentParams(**{**NOM.__dict__, "D": NOM.D * 1.1})
        y1 = observe(integrate(bumped))
        rms = np.sqrt(np.mean((y1 - y0) ** 2))
        assert rms < 1e-3


class TestJacobian:
    def test_constant_output_gives_zero_column(self):
        def f(x):
            x = np.atleast_2d(x)
            out = np.column_stack([x[:, 0] ** 2, np.ones(x.shape[0])])
            return out

        J = central_difference_jacobian(f, np.array([0.3, 0.7]), 1e-5)
        np.testing.assert_allclose(J[:, 1], 0.0, atol=1e-9)
        np.testing.assert_allclose(J[1, :], 0.0, atol=1e-9)

    def test_richardson_ratio_near_four(self):
        # smooth nonlinear map with analytic jacobian
        def f(x):
            x = np.atleast_2d(x)
            return np.column_stack([np.exp(np.sin(x[:, 0])), np.cos(x[:, 0] * x[:, 1])])

        x0 = np.array([0.4, 1.1])
        exact = np.array([
            [np.cos(x0[0]) * np.exp(np.sin(x0[0])), 0.0],
            [-np.sin(x0[0] * x0[1]) * x0[1], -np.sin(x0[0] * x0[1]) * x0[0]],
        ])
        e1 = np.abs(central_difference_jacobian(f, x0, 2e-2) - exact).max()
        e2 = np.abs(central_difference_jacobian(f, x0, 1e-2) - exact).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_flagged_away_values_come_from_the_point(self):
        # under tdpp_zero, Tdpp still enters T'_d0 = Tdpp + dTd: the Jacobian at a
        # point with another Tdpp is not the nominal one, and the map holds that
        # point's value
        from genident.fim import SENSITIVITY_RTOL, generator_map
        flags = LimitFlags(tdpp_zero=True)
        q = IndependentParams(**{**NOM.__dict__, "Tdpp": 0.03})
        assert not np.array_equal(sensitivities(q, flags).entries,
                                  sensitivities(NOM, flags).entries)
        theta = np.array([getattr(q, nm) for nm in flags.active_params()])
        want = observe(integrate(q, flags, rtol=SENSITIVITY_RTOL, atol=SENSITIVITY_RTOL))
        np.testing.assert_array_equal(generator_map(flags, held=q)(np.log(theta))[0], want)

    def test_damping_column_has_smallest_norm(self):
        S = sensitivities(NOM)
        norms = np.linalg.norm(S.entries, axis=0)
        d_idx = S.param_names.index("D")
        assert np.argmin(norms) == d_idx


class TestFim:
    def test_zero_jacobian(self):
        I = fim(SensitivityMatrix(np.zeros((10, 3)), ("a", "b", "c")))
        np.testing.assert_array_equal(I, np.zeros((3, 3)))

    def test_rank_deficiency_shows_in_spectrum(self):
        rng = np.random.default_rng(5)
        J = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 5))  # rank 2
        lam = spectrum(fim(SensitivityMatrix(J, tuple("abcde")))).eigenvalues
        assert np.sum(lam < 1e-12 * lam[0]) == 3

    def test_nominal_span_at_least_ten_decades(self, nominal_spectrum):
        lam = nominal_spectrum.eigenvalues
        assert np.log10(lam[0] / lam[-1]) >= 10.0

    def test_psd_at_random_points_near_nominal(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            a = NOM.to_array() * (1 + 0.1 * rng.uniform(-1, 1, 11))
            p = IndependentParams(**dict(zip(PARAM_NAMES, a)))
            S = sensitivities(p)
            I = fim(S)
            lam = np.linalg.eigvalsh(I)
            assert np.abs(I - I.T).max() <= 1e-12 * np.abs(I).max()
            assert lam.min() >= -1e-10 * lam.max()


class TestSpectrum:
    def test_identity_matrix(self):
        sp = spectrum(np.eye(4), list("abcd"))
        np.testing.assert_allclose(sp.eigenvalues, 1.0)
        np.testing.assert_allclose(sorted(sp.participation.max(axis=1)), 1.0)
        np.testing.assert_allclose(sp.participation.sum(axis=0), 1.0, atol=1e-10)

    def test_participation_columns_sum_to_one(self, nominal_spectrum):
        np.testing.assert_allclose(nominal_spectrum.participation.sum(axis=0), 1.0,
                                   atol=1e-10)

    def test_sloppiest_mode_is_damping(self, nominal_spectrum):
        d = nominal_spectrum.param_names.index("D")
        assert nominal_spectrum.participation[d, -1] > 0.9

    def test_second_sloppiest_is_inertia(self, nominal_spectrum):
        h = nominal_spectrum.param_names.index("H")
        assert nominal_spectrum.participation[h, -2] > 0.5

    def test_identifiable_axes_live_in_top_six_modes(self, nominal_spectrum):
        proj = nominal_spectrum.identifiable_projection(6)
        for name in IDENTIFIABLE:
            assert proj[name] > 0.8, f"{name}: {proj[name]:.3f}"

    def test_scaling_observations_scales_eigenvalues(self):
        rng = np.random.default_rng(2)
        J = rng.standard_normal((40, 6))
        names = tuple("abcdef")
        s1 = spectrum(fim(SensitivityMatrix(J, names)))
        s2 = spectrum(fim(SensitivityMatrix(3.0 * J, names)))
        np.testing.assert_allclose(s2.eigenvalues, 9.0 * s1.eigenvalues, rtol=1e-12)
        np.testing.assert_allclose(s2.participation, s1.participation, atol=1e-12)

    def test_directional_derivative_matches_jacobian(self):
        from genident.fim import generator_map
        S = sensitivities(NOM)
        rng = np.random.default_rng(23)
        u = rng.standard_normal(11)
        u /= np.linalg.norm(u)
        f = generator_map()
        h = 1e-4
        lt = np.log(NOM.to_array())
        Y = f(np.vstack([lt + h * u, lt - h * u]))
        dd = (Y[0] - Y[1]) / (2 * h)
        Ju = S.entries @ u
        assert np.linalg.norm(dd - Ju) / np.linalg.norm(Ju) < 1e-4


class TestLadderSpectra:
    @pytest.mark.parametrize("n", range(len(LIMIT_CHAIN) + 1))
    def test_matches_the_benchmark_reference(self, n):
        # the benchmark's rule: rtol 1e-4, atol 1e-12 of the largest reference value
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = np.asarray(json.load(fh)["ladder-probe"][f"fim_eigenvalues_first{n}"])
        S = sensitivities(NOM, LimitFlags.first(n))
        got = spectrum(fim(S), S.param_names).eigenvalues
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-12 * np.abs(ref).max())


class TestEffectiveDimension:
    def test_cutoff_above_top_eigenvalue(self, nominal_spectrum):
        assert effective_dimension(nominal_spectrum,
                                   nominal_spectrum.eigenvalues[0] * 2) == 0

    def test_counts_strictly_above_cutoff(self):
        sp = spectrum(np.diag([1.0, 0.5, 1e-4]))
        assert effective_dimension(sp, 1e-2) == 2

    def test_cutoff_must_be_positive(self, nominal_spectrum):
        with pytest.raises(DomainError):
            effective_dimension(nominal_spectrum, 0.0)

    def test_reduced_model_keeps_six_identifiable_directions(self):
        from genident.generator import LimitFlags
        S = sensitivities(NOM, LimitFlags.all())
        sp = spectrum(fim(S), S.param_names)
        assert effective_dimension(sp, 1e-2) == 6
