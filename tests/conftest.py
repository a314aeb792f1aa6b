"""Fixtures and the test oracles that more than one test module reads.

The oracles are second routes that tests compare program output against:
a provider with its extrinsic curvature scaled, the area and center of an
arbitrary nodal immersion, and the paper's a-priori class inequalities.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from stcmc.chart import (
    DataProvider,
    EuclideanProvider,
    GraphicalSchwarzschildProvider,
    SchwarzschildProvider,
)
from stcmc.surfaces import (
    CurvatureField,
    _det_2x2,
    _euclidean_center,
    _euclidean_density,
    surface_scalars,
)

settings.register_profile("suite", max_examples=20, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def euclid():
    return EuclideanProvider()


@pytest.fixture(scope="session")
def schw():
    return SchwarzschildProvider(1.0)


@pytest.fixture(scope="session")
def graphical():
    return GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0])


@pytest.fixture(scope="session")
def sample_points():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(6, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(15.0, 40.0, size=(6, 1))


class ScaledExtrinsicProvider(DataProvider):
    """Same metric, extrinsic curvature scaled by tau (constraints re-derived)."""

    def __init__(self, inner, tau):
        self.inner = inner
        self.tau = float(tau)

    def metric_jet(self, x):
        return self.inner.metric_jet(x)

    def extrinsic_jet(self, x):
        ej = self.inner.extrinsic_jet(x)
        tau = self.tau
        return type(ej)(tau * ej.K, lambda: tau * ej.dK)


def parametrized_area_and_center(grid, X, metric_of=None):
    """Area and Euclidean center of an arbitrary nodal immersion X on a grid.

    Tangents are obtained by spectral differentiation of the components of X.
    If metric_of is a provider, the area is taken in its metric; otherwise the
    Euclidean one.
    """
    th, _ = grid.mesh()
    st = np.sin(th)
    comps = [grid.analyze(X[:, i]) for i in range(3)]
    jets = [grid.synth_jet(c) for c in comps]
    Xt = np.stack([j["ft"] for j in jets], axis=1)
    Xp = np.stack([j["fp"] for j in jets], axis=1)
    tang = np.stack([Xt, Xp], axis=1)
    if metric_of is not None:
        g = metric_of.metric_jet(X).g
    else:
        g = np.broadcast_to(np.eye(3), (X.shape[0], 3, 3))
    dens = np.sqrt(_det_2x2(np.einsum("nai,nij,nbj->nab", tang, g, tang))) / st
    return grid.integrate(dens), _euclidean_center(grid, X, _euclidean_density(grid, tang))


@dataclass
class AprioriCheck:
    center_ok: bool
    radius_ok: bool
    willmore_ok: bool
    center_slack: float
    radius_slack: float
    willmore_slack: float


# Relative roundoff allowance of the a-priori class inequalities: ~20x the
# quadrature error measured on flat round spheres, ~1e5x below the Willmore
# deficit (2.4e-7) of a radius-10 flat sphere with an l=2 height coefficient 1e-3.
APRIORI_ROUNDOFF = 64.0 * np.finfo(float).eps


def apriori_class_check(fr: CurvatureField, a, b, eta, eps):
    """Membership in the asymptotically-centered class (genus 0).

    Checks |z| <= a r + b r^(1-eta),  r^(2+eta) <= min |x|^(5/2+eps)  and
    int H^2 dmu - 16 pi <= b / r^eta.  Each `*_ok` flag allows a roundoff of
    APRIORI_ROUNDOFF times the magnitude the compared quantities carry: the
    largest coordinate radius max |x| for the center bound, the larger side
    for the radius bound and 16 pi for the Willmore bound, so the equality
    cases of a flat round sphere (zero deficit; |z| = 0 when centered) pass.
    The `*_slack` fields are the raw rhs - lhs, without allowance.
    """
    sc = surface_scalars(fr)
    r = sc.area_radius
    coord_r = np.linalg.norm(fr.X, axis=1)
    zn = np.linalg.norm(sc.center)
    lhs1, rhs1 = zn, a * r + b * r ** (1.0 - eta)
    lhs2, rhs2 = r ** (2.0 + eta), coord_r.min() ** (2.5 + eps)
    lhs3, rhs3 = fr.integrate(fr.H**2) - 16.0 * np.pi, b / r**eta
    return AprioriCheck(
        center_ok=bool(lhs1 <= rhs1 + APRIORI_ROUNDOFF * coord_r.max()),
        radius_ok=bool(lhs2 <= rhs2 + APRIORI_ROUNDOFF * max(lhs2, rhs2)),
        willmore_ok=bool(lhs3 <= rhs3 + APRIORI_ROUNDOFF * 16.0 * np.pi),
        center_slack=float(rhs1 - lhs1),
        radius_slack=float(rhs2 - lhs2),
        willmore_slack=float(rhs3 - lhs3),
    )
