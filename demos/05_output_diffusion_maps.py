"""Output diffusion maps: dimensionality of the response from samples alone.

A 2000-member ensemble perturbs the eleven independent parameters by up to
ten percent, each member contributing its rescaled, concatenated observation
vector.  The density-normalized diffusion embedding of those vectors, pruned
of harmonic repeats by local-linear regression residuals, exposes exactly six
genuinely independent coordinates: the data-driven count of identifiable
parameters, found without ever differentiating the model.

Expect a few minutes; the ensemble itself integrates in seconds but the
leave-one-out residuals grind through every eigenvector.
"""

import numpy as np

from genident.ensemble import run_ensemble, sample_ensemble
from genident.pipeline import DMAPS_EPSILON_MULT, Config, embed_outputs, select_coordinates
from genident.svgplot import line_plot

cfg = Config()
params = sample_ensemble(cfg.n_samples, seed=cfg.seed)
run = run_ensemble(params, workers=cfg.workers)
print(f"simulated {run.outputs.shape[0]} members, "
      f"{run.outputs.shape[1]} observations each")

emb = embed_outputs(run.outputs, cfg)
print(f"kernel scale epsilon = {emb.epsilon:.1f} "
      f"({DMAPS_EPSILON_MULT} x median squared pairwise distance)")

rep, sel = select_coordinates(emb.eigenvectors, cfg)

print("\nresiduals r_k (large = genuinely new coordinate):")
for k, r in zip(rep.indices, rep.residuals):
    mark = "  <- selected" if k in sel.indices else ""
    print(f"  phi_{k:<3d} {r:.3f}{mark}")
print(f"\nnon-harmonic coordinates: {sel.indices} "
      f"(count {len(sel.indices)}, gap ratio {sel.gap_ratio:.2f})")

line_plot("residuals.svg", np.asarray(rep.indices, dtype=float),
          {"residual": rep.residuals}, title="Local-linear regression residuals",
          xlabel="eigenvector index", ylabel="r_k", markers=True)
print("wrote residuals.svg")
