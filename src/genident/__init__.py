"""Parameter identifiability of the infinite-bus synchronous generator.

Two independent tracks over the same benchmark model:

* an analytic track (sensitivities, Fisher information spectrum, geodesics on
  the model manifold, boundary-limit model reduction), and
* a data-driven track (output diffusion maps, non-harmonic coordinate
  selection, geometric-harmonics regression, Jacobian-determinant checks),

plus an ensemble/pipeline layer that runs both and compares which parameters
they declare identifiable.
"""

from .errors import ChainDivergenceError, DomainError, SolverError
from .generator import (
    IndependentParams,
    LimitFlags,
    ObservationGrid,
    Trajectory,
    integrate,
    observe,
)

__version__ = "0.1.0"
