"""Exception types raised by the geometry, solver, and charge pipelines."""


class StcmcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StcmcError):
    """Invalid provider config, run configuration, or CLI arguments."""


class PointInsideCore(StcmcError):
    """Evaluation point lies inside the inner chart radius of the data provider."""


class HorizonReached(StcmcError):
    """Schwarzschild areal radius at or below 2m for positive mass."""


class SliceNotSpacelike(StcmcError):
    """Graphical slice fails 1 - N^2 |dT|^2 > 0 at an evaluation point."""


class SingularMetric(StcmcError):
    """Metric is not invertible at an evaluation point."""


class BandLimitTooSmall(ConfigError):
    """Requested spherical-harmonic band limit below the supported minimum."""


class ShapeMismatch(StcmcError):
    """Nodal array or coefficient vector has the wrong shape for the grid."""


class DegenerateInducedMetric(StcmcError):
    """Induced surface metric is degenerate at a node."""


class TrappedRegion(StcmcError):
    """H^2 < P^2 somewhere: the spacetime mean curvature is not real."""


class IterationFailure(StcmcError):
    """An iterative solve stopped without meeting its tolerance.

    `sigma`, `iteration` and `residual_sup` hold the leaf radius, the
    iteration and the residual sup where it stopped; each is None where it
    does not apply (e.g. `rebase`, which has no leaf radius or residual).
    """

    def __init__(self, message, *, sigma=None, iteration=None, residual_sup=None):
        super().__init__(message)
        self.sigma = sigma
        self.iteration = iteration
        self.residual_sup = residual_sup


class NewtonDiverged(IterationFailure):
    """Residual increased under full and damped Newton steps."""


class MaxIterations(IterationFailure):
    """Newton iteration limit reached without meeting the tolerance."""


class EigenSolverFailure(StcmcError):
    """Generalized symmetric eigensolve did not converge."""


class ZeroEnergy(StcmcError):
    """Center-of-mass integrals are undefined for vanishing energy."""


class SpacelikeEnergyMomentum(StcmcError):
    """Energy-momentum vector is spacelike: |P| exceeds E."""


class NotOrthogonal(ConfigError):
    """Rotation matrix is not orthogonal to machine precision."""


class FoliationNotSupported(StcmcError):
    """Graph-equation residual supports only the flat polar background."""
