"""Toolkit for surfaces of constant spacetime mean curvature and asymptotic charges.

Builds surfaces with constant sqrt(H^2 - P^2) in asymptotically Euclidean
initial data sets, sweeps them into foliations, and evaluates the associated
flux integrals: ADM energy/momentum, the Beig-O Murchadha center, the
momentum-squared correction term, and their sum (the center attached to the
constant-spacetime-mean-curvature foliation).

All grids, providers, and transform plans are immutable after construction;
the pointwise and per-surface computations are pure functions, so concurrent
read-only use is safe.
"""

from .chart import (
    EuclideanProvider,
    GraphicalSchwarzschildProvider,
    MetricJet,
    ExtrinsicJet,
    PerturbationProvider,
    RotatedProvider,
    SchwarzschildProvider,
    TranslatedProvider,
    build_provider,
    christoffel,
    conjugate_momentum,
    constraint_densities,
    ricci_scalar_curvature,
)
from .charges import (
    adm_energy,
    adm_mass,
    fit_power_tail,
    sphere_fluxes,
    stcmc_center_coordinate,
    velocity_integral,
)
from .solver import (
    SolveConfig,
    SolveResult,
    assemble_linearization,
    foliate,
    graph_jacobian,
    laplace_spectrum,
    newton_solve,
    uniqueness_cross_check,
)
from .spectral import build_grid
from .surfaces import (
    GraphSurface,
    appendix_graph_residual,
    rebase,
    solve_graph_residual,
    surface_frames,
    surface_to_csv,
)

__all__ = [
    "EuclideanProvider",
    "GraphicalSchwarzschildProvider",
    "MetricJet",
    "ExtrinsicJet",
    "PerturbationProvider",
    "RotatedProvider",
    "SchwarzschildProvider",
    "TranslatedProvider",
    "build_provider",
    "christoffel",
    "conjugate_momentum",
    "constraint_densities",
    "ricci_scalar_curvature",
    "adm_energy",
    "adm_mass",
    "fit_power_tail",
    "sphere_fluxes",
    "stcmc_center_coordinate",
    "velocity_integral",
    "SolveConfig",
    "SolveResult",
    "assemble_linearization",
    "foliate",
    "graph_jacobian",
    "laplace_spectrum",
    "newton_solve",
    "uniqueness_cross_check",
    "build_grid",
    "GraphSurface",
    "appendix_graph_residual",
    "rebase",
    "solve_graph_residual",
    "surface_frames",
    "surface_to_csv",
]

__version__ = "0.1.0"
