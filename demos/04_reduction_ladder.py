"""The reduction ladder and the fully reduced model's fidelity.

Each rung launches a sloppiest-direction geodesic on the current model,
reads off the diverging parameter at the boundary, and applies that limit as
a flag, in whatever order the geodesics find: damping out, inertia out (power
balance becomes algebraic), a subtransient EMF slaved, or x_d pinned to x_q.
A rung whose boundary no limit can apply (a parameter going to infinity or
one with no limit), or whose geodesic reaches no boundary, stops the ladder;
its divergence record is printed in place of a reduction.  The model with
all five limits applied reproduces the full trajectories on the observation
window to within a few percent.

The ladder re-solves many geodesics; expect about a minute.
"""

import numpy as np

from genident.geodesics import mbam_chain
from genident.pipeline import Config, full_vs_reduced

chain = mbam_chain()
print("reduction ladder:")
for e in chain:
    if "divergence" in e:
        # the chain stopped here: a stage that raised leaves a divergence record
        print(f"  {e['from_params']:2d} parameters: diverged, diagnosed "
              f"{e['limit_param']} {e['direction']}\n    {e['divergence']}")
        continue
    print(f"  {e['from_params']:2d} -> {e['to_params']:2d} parameters: "
          f"{e['limit_param']} {e['direction']}  "
          f"(tau_b={e['tau_boundary']:.2e}, alignment={e['velocity_alignment']:.2f})")

# fidelity of the final reduced model, restarted from the full state at t=3
_, _, rel = full_vs_reduced(Config(), np.linspace(3.0, 5.0, 401))
print("\nfull vs reduced on [3, 5], max deviation relative to signal size:")
for name, dev in rel.items():
    print(f"  {name:6s} {100 * dev:5.2f}%")
