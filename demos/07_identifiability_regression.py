"""Regressing parameters from diffusion coordinates, and the bijectivity check.

With the six non-harmonic coordinates in hand, geometric harmonics learns the
map from coordinates to all eleven rescaled parameters on an 80/20 split.
The six identifiable parameters come back with test errors two orders of
magnitude below the unidentifiable five, and the 6x6 Jacobian determinants of
the coordinate<->parameter maps hold one sign across the test set: the two
descriptions are locally one-to-one.

Runs the full data track; expect several minutes.
"""

from genident.ensemble import run_ensemble, sample_ensemble
from genident.pipeline import (Config, embed_outputs, fit_gh_track, select_coordinates,
                               square_ift_reports)

cfg = Config()
params = sample_ensemble(cfg.n_samples, seed=cfg.seed)
run = run_ensemble(params, workers=cfg.workers)
params = params[run.row_indices]

emb = embed_outputs(run.outputs, cfg)
_, sel = select_coordinates(emb.eigenvectors, cfg)
print(f"non-harmonic coordinates: {sel.indices}")

track = fit_gh_track(params, emb.eigenvectors[:, list(sel.indices)], sel.indices, cfg)
mae = track.forward_mae
print("\ntest MAE per parameter (rescaled units), sorted:")
for nm in sorted(mae, key=mae.get):
    print(f"  {nm:5s} {mae[nm]:.4f}")

identifiable, rf, ri, _ = square_ift_reports(track.forward, mae, track.params01,
                                             track.coords01, track.train, track.test, cfg)
print("\nidentifiable set by regression error:", sorted(identifiable))
print(f"\ncoords -> params: sign-consistent={rf.sign_consistent}, "
      f"min|det|={rf.min_abs:.2e}")
print(f"params -> coords: sign-consistent={ri.sign_consistent}, "
      f"min|det|={ri.min_abs:.2e}")
