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
``from fractime.bridge import verify_compatibility``.  Each re-export loads
its module on first use, so ``import fractime`` alone loads no numpy: the
command line sets its BLAS thread count before numpy starts (see cli).
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# each re-exported name -> the module that defines it
_SOURCES = {
    "FracOrder": "fracops",
    "TimeGrid": "grids",
    "MLParams": "special",
    "mittag_leffler": "special",
    "mittag_leffler_array": "special",
    "harmonic": "systems",
    "solve_fde": "dynamics",
    "inverse_subordinator_paths": "stochastic_time",
    "exact_marginal_ensemble": "stochastic_time",
    "subordinate_flow": "bridge",
    "verify_stanislavsky": "bridge",
    "FractimeError": "errors",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCES[name]}", __name__), name)
