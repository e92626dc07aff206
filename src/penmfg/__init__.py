"""Penalized particle methods for mean field games with reflected dynamics.

The package approximates mean field games whose state is constrained to a
convex domain.  Instead of simulating the reflected dynamics directly, the
constraint is replaced by a strong restoring drift of intensity n together
with a matching boundary-cost surcharge; as n grows the penalized equilibria
converge to the reflected one.  The pieces:

- ``domain``       convex geometry: projections, distances, membership
- ``model``        coefficient bundles, penalized transforms, presets
- ``measures``     empirical measures, Wasserstein-2 distances, control measures
- ``controls``     control laws as node tables, sampling, chattering
- ``simulate``     penalized and reflected particle schemes, costs, residuals
- ``dp``           Markov-chain dynamic programming for best responses
- ``equilibrium``  fixed-point iteration, penalization sweeps, strict runs
- ``cli``          config-driven command line front end
"""

__version__ = "0.1.0"

from . import (  # noqa: E402  (version must exist before cli imports it)
    cli,
    config,
    controls,
    domain,
    dp,
    equilibrium,
    measures,
    model,
    rng,
    simulate,
)
from .errors import (  # noqa: E402
    ConfigError,
    ContractViolationError,
    DivergenceError,
    DomainError,
    GridError,
    PenmfgError,
)
