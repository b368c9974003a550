"""Geodesic in the sloppiest information direction of the full model.

Starting from the nominal parameters with a metric-normalized velocity along
the least identifiable eigenvector, the geodesic runs into a manifold
boundary after a finite length: the damping coordinate dives toward zero
while the velocity norm blows up.  The boundary distance agrees with the
square root of the smallest information eigenvalue, and the diagnosed limit
(D -> 0) is the first rung of the reduction ladder.

Takes about ten seconds: every geodesic step re-integrates the model 25 times.
"""

import math

import numpy as np

from genident.fim import fim, generator_map, sensitivities, spectrum
from genident.generator import IndependentParams, LimitFlags
from genident.geodesics import diagnose_boundary, sloppiest_direction, trace_geodesic
from genident.svgplot import line_plot

f = generator_map(LimitFlags())
S = sensitivities(IndependentParams.nominal())
names = S.param_names
theta0 = np.log(IndependentParams.nominal().to_array())

sp = spectrum(fim(S), names)
sqrt_lmin = math.sqrt(sp.eigenvalues[-1])
print(f"sqrt(lambda_min) = {sqrt_lmin:.3e}")

v0 = sloppiest_direction(sp.eigenvalues, sp.eigenvectors)
trace = trace_geodesic(f, theta0, v0, tau_max=10 * sqrt_lmin, param_names=names)
print(f"terminated: {trace.terminated} ({trace.detail}) after "
      f"{len(trace.taus)} steps, tau_end={trace.taus[-1]:.3e}")

diag = diagnose_boundary(trace)
print(f"diagnosis: {diag.limit_param} {diag.direction}, "
      f"tau_boundary={diag.tau_boundary:.3e}, "
      f"alignment={diag.velocity_alignment:.3f}")
print(f"tau_boundary / sqrt(lambda_min) = {diag.tau_boundary / sqrt_lmin:.2f}")

line_plot("geodesic.svg", trace.taus,
          {nm: trace.thetas[:, i] for i, nm in enumerate(names)},
          title="Sloppiest-direction geodesic", xlabel="tau",
          ylabel="log parameter")
print("wrote geodesic.svg")
