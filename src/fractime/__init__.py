"""Fractional Hamiltonian dynamics driven by stochastic internal time.

Three layers:

* deterministic calculus: Mittag-Leffler evaluation, Caputo derivatives and
  Riemann-Liouville integrals on uniform grids, a fractional
  Adams-Bashforth-Moulton solver, and fractional variational residuals;
* stochastic internal time: positive stable subordinators, their inverses
  (sampled paths, or the exact one-time law), and heavy-tailed renewal
  processes with their scaling limit;
* the bridge: Monte Carlo subordination of classical Hamiltonian flow and
  the statistical checks tying its ensemble means to the fractional
  canonical equations.

The top level re-exports the names of the README's library tour and the
base error; everything else is imported from its module, e.g.
``from fractime.bridge import verify_compatibility``.
"""

from __future__ import annotations

from .bridge import subordinate_flow, verify_stanislavsky
from .dynamics import solve_fde
from .errors import FractimeError
from .fracops import FracOrder
from .grids import TimeGrid
from .special import MLParams, mittag_leffler, mittag_leffler_array
from .stochastic_time import exact_marginal_ensemble, inverse_subordinator_paths
from .systems import harmonic

__version__ = "0.1.0"

__all__ = [
    "FracOrder",
    "TimeGrid",
    "MLParams",
    "mittag_leffler",
    "mittag_leffler_array",
    "harmonic",
    "solve_fde",
    "inverse_subordinator_paths",
    "exact_marginal_ensemble",
    "subordinate_flow",
    "verify_stanislavsky",
    "FractimeError",
]
