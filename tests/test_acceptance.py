"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria and tolerances are fixed here; the heavy inputs (information
spectrum, desk-scale ensemble, embeddings, regressions) come from the shared
session fixtures so the suite computes them once.
"""

import math
import time

import numpy as np

from genident.generator import IndependentParams, LimitFlags
from genident.pipeline import Config, full_vs_reduced

NOM = IndependentParams.nominal()
IDENTIFIABLE = ("dx2", "dx3", "dx4", "xdpp", "dTd", "dTq")
UNIDENTIFIABLE = ("H", "D", "dx1", "Tdpp", "Tqpp")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestCriterion1Sloppiness:
    def test_eigenvalue_span_and_uniform_gaps(self, nominal_spectrum):
        t0 = time.monotonic()
        lam = nominal_spectrum.eigenvalues
        span = math.log10(lam[0] / lam[-1])
        gaps = -np.diff(np.log10(lam))
        ratio = gaps.max() / np.median(gaps)
        elapsed = time.monotonic() - t0
        ok = span >= 10.0 and ratio <= 3.0 and elapsed < 120.0
        _report(1, ok, f"span={span:.2f} decades, max/median log-gap={ratio:.2f}, "
                       f"{elapsed:.1f}s")


class TestCriterion2Participation:
    def test_sloppy_and_identifiable_structure(self, nominal_spectrum):
        sp = nominal_spectrum
        d = sp.param_names.index("D")
        h = sp.param_names.index("H")
        p_d = sp.participation[d, -1]
        p_h = sp.participation[h, -2]
        proj = sp.identifiable_projection(6)
        worst = min(proj[nm] for nm in IDENTIFIABLE)
        ok = p_d > 0.9 and p_h > 0.5 and worst > 0.8
        _report(2, ok, f"D sloppiest={p_d:.3f} (>0.9), H next={p_h:.3f} (>0.5), "
                       f"min top-6 projection={worst:.3f} (>0.8)")


class TestCriterion3EffectiveDimension:
    def test_cutoff_gives_six(self, nominal_spectrum):
        from genident.fim import effective_dimension
        dim = effective_dimension(nominal_spectrum, 1e-2)
        lam = nominal_spectrum.eigenvalues
        detail = (f"dim@1e-2={dim} (expected 6); "
                  f"6th eigenvalue={lam[5]:.3e}, 7th={lam[6]:.3e}")
        _report(3, dim == 6, detail)


class TestCriterion4GeodesicBoundary:
    def test_sloppiest_geodesic_hits_damping_boundary(self, full_model_geodesic):
        diag, trace, elapsed, sqrt_lmin = full_model_geodesic
        ratio = diag.tau_boundary / sqrt_lmin
        ok = (diag.limit_param == "D" and diag.direction == "to_zero"
              and 2e-5 <= diag.tau_boundary <= 6e-5
              and 0.5 <= ratio <= 2.0 and elapsed < 300.0)
        _report(4, ok, f"{diag.limit_param} {diag.direction}, "
                       f"tau_b={diag.tau_boundary:.2e} in [2e-5, 6e-5], "
                       f"tau_b/sqrt(lam_min)={ratio:.2f}, {elapsed:.0f}s")


class TestCriterion5MbamChain:
    def test_five_limits_in_order(self, mbam_chain_result):
        chain, elapsed = mbam_chain_result
        got = [(e["limit_param"], e["direction"]) for e in chain]
        want = [("D", "to_zero"), ("H", "to_zero"), ("Tdpp", "to_zero"),
                ("Tqpp", "to_zero"), ("dx1", "to_zero")]
        _report(5, got == want, f"chain={got} ({elapsed:.0f}s)")


class TestCriterion6ReducedFidelity:
    def test_reduced_tracks_full_model(self):
        _, _, rel = full_vs_reduced(Config(), np.linspace(3.0, 5.0, 401))
        ok = all(rel[nm] <= 0.05 for nm in ("delta", "omega", "eq1", "ed1")) and \
            all(rel[nm] <= 0.15 for nm in ("eq2", "ed2"))
        _report(6, ok, "max rel dev: " + ", ".join(f"{k}={v:.3f}" for k, v in rel.items()))


class TestCriterion7DmapsDimensionality:
    def test_residual_gap_isolates_six(self, dmaps_track, ensemble_time):
        sel = dmaps_track["selection"]
        elapsed = dmaps_track["elapsed"] + ensemble_time
        ok = len(sel.indices) == 6 and elapsed < 900.0
        _report(7, ok, f"selected {sel.indices} (n={len(sel.indices)}), "
                       f"gap ratio={sel.gap_ratio:.2f}, track time {elapsed:.0f}s")


class TestCriterion8GhSeparation:
    def test_identifiable_errors_small_rest_large(self, gh_track):
        mae = gh_track.forward_mae
        worst_id = max(mae[nm] for nm in IDENTIFIABLE)
        best_un = min(mae[nm] for nm in UNIDENTIFIABLE)
        sep = best_un / worst_id
        ok = worst_id <= 0.02 and best_un >= 0.1 and sep >= 10.0
        detail = (f"max identifiable MAE={worst_id:.4f} (<=0.02), "
                  f"min unidentifiable MAE={best_un:.4f} (>=0.1), sep={sep:.1f}x; "
                  + ", ".join(f"{nm}={mae[nm]:.4f}" for nm in IDENTIFIABLE))
        _report(8, ok, detail)


class TestCriterion9IftChecks:
    def test_single_signed_jacobians_both_ways(self, ift_reports):
        fwd, inv = ift_reports
        ok = (fwd.sign_consistent and inv.sign_consistent
              and fwd.min_abs > 0 and inv.min_abs > 0)
        _report(9, ok, f"forward: sign_consistent={fwd.sign_consistent}, "
                       f"min|det|={fwd.min_abs:.3e}; inverse: "
                       f"sign_consistent={inv.sign_consistent}, min|det|={inv.min_abs:.3e}")


class TestCriterion10PropertySuite:
    def test_bundled_properties(self, nominal_spectrum, gh_track, gh_basis):
        from genident.dmaps import median_epsilon, pairwise_sq_dists
        from genident.ensemble import run_ensemble, sample_ensemble
        from genident.fim import fim, sensitivities
        from genident.harmonics import gh_gradient, gh_predict
        checks = {}

        # FIM symmetry / positive semidefiniteness
        S = sensitivities(NOM)
        I = fim(S)
        lam = np.linalg.eigvalsh(I)
        checks["fim_sym_psd"] = (np.abs(I - I.T).max() <= 1e-12 * np.abs(I).max()
                                 and lam.min() >= -1e-10 * lam.max())

        # row stochasticity of the diffusion operator
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (100, 3))
        eps = median_epsilon(X, 1.0)
        A = np.exp(-pairwise_sq_dists(X) / (2 * eps))
        p = A.sum(axis=1)
        At = A / np.outer(p, p)
        K = At / At.sum(axis=1)[:, None]
        checks["row_stochastic"] = bool(np.abs(K.sum(axis=1) - 1.0).max() < 1e-10)

        # Nystrom consistency on training points
        fwd = gh_track.forward
        train_inputs = fwd.training_inputs
        pred = gh_predict(fwd, train_inputs)
        V = gh_basis(fwd, Config().gh_retain)
        projected = V @ (V.T @ gh_track.params01[gh_track.train])
        checks["nystrom_consistency"] = bool(np.abs(pred - projected).max() < 1e-8)

        # gradient vs finite differences (random test points)
        pts = train_inputs[rng.choice(len(train_inputs), 20, replace=False)]
        g = gh_gradient(fwd, pts)
        h = 1e-5
        err = 0.0
        for axis in range(pts.shape[1]):
            e = np.zeros(pts.shape[1])
            e[axis] = h
            fd = (gh_predict(fwd, pts + e) - gh_predict(fwd, pts - e)) / (2 * h)
            err = max(err, float(np.abs(g[:, axis, :] - fd).max()
                                 / max(np.abs(fd).max(), 1e-12)))
        checks["gh_gradient_fd"] = err <= 1e-4

        # christoffel contraction vs the full-tensor oracle (3-parameter submodel)
        from genident.fim import central_difference_jacobian, generator_map
        sub = ("dx2", "dx3", "xdpp")
        full_names = LimitFlags().active_params()
        base = np.log(NOM.to_array())
        idx = [full_names.index(nm) for nm in sub]
        fmap = generator_map()

        def f(lt):
            lt = np.atleast_2d(lt)
            pts2 = np.repeat(base[None, :], lt.shape[0], axis=0)
            pts2[:, idx] = lt
            return fmap(pts2)

        x0 = base[idx]
        hh = 1e-3
        Y0 = np.atleast_2d(f(x0))[0]
        d2Y = np.empty((3, 3, len(Y0)))
        for a in range(3):
            for b in range(3):
                ea = np.zeros(3); ea[a] = hh
                eb = np.zeros(3); eb[b] = hh
                if a == b:
                    d2Y[a, a] = (f(x0 + ea)[0] - 2 * Y0 + f(x0 - ea)[0]) / hh**2
                else:
                    d2Y[a, b] = (f(x0 + ea + eb)[0] - f(x0 + ea - eb)[0]
                                 - f(x0 - ea + eb)[0] + f(x0 - ea - eb)[0]) / (4 * hh**2)
        J = central_difference_jacobian(f, x0, 1e-4)
        v = rng.standard_normal(3)
        oracle = np.linalg.solve(J.T @ J, J.T @ np.einsum("a,b,abm->m", v, v, d2Y))
        from genident.geodesics import contraction_for_map
        got = contraction_for_map(f, x0, v)
        checks["christoffel_oracle"] = bool(
            np.linalg.norm(got - oracle) / np.linalg.norm(oracle) <= 1e-3)

        # ensemble determinism under parallelism
        rows = sample_ensemble(96, seed=11)
        r1 = run_ensemble(rows, workers=1)
        r4 = run_ensemble(rows, workers=4)
        checks["ensemble_determinism"] = bool(np.array_equal(r1.outputs, r4.outputs))

        ok = all(checks.values())
        _report(10, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                                  for k, v in checks.items()))
