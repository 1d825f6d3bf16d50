"""Risk drivers g(t, z) and allocation drivers g(t, z, z_y).

A driver is the generator of the backward equation defining the risk
measure; convexity in z makes the induced measure convex, and the Lipschitz
constant bounds the admissible measure tilts.  Allocation drivers take the
portfolio control z_y as a second argument; those that agree with the base
driver on the diagonal z == z_y induce full allocation rules.

Vectorization convention: the last axis of ``z`` is the coordinate axis of
R^d.  A scalar argument is a single point with d = 1 and produces scalar
output.  A 1-d array is a single point of R^d.  Batched evaluation passes
arrays of shape (..., d).

Invariants (convexity, subgradient inequality, Fenchel-Young equality at
the selected subgradient, diagonal agreement) are enforced by randomized
probing at construction with a fixed seed; drivers are opaque callables, so
probing rather than symbolic checking is the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Driver", "AllocDriver", "driver_zero", "driver_scaled_norm",
    "driver_entropic", "alloc_driver_gradient", "alloc_driver_subdiff",
    "alloc_driver_marginal", "alloc_driver_entropic_drift",
    "alloc_driver_entropic_two_level", "alloc_driver_f_family", "make_driver",
]

_PROBE_SEED = 20240915
_PROBE_COUNT = 1000
CONVEXITY_TOL = 1e-12
SUBGRADIENT_TOL = 1e-10
DIAGONAL_TOL = 1e-12


def _prep(z):
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return z[None], True
    return z, False


def _scalar_out(values, scalar):
    return float(values) if scalar else values


def _dot(a, b):
    """Inner product over the coordinate axis; at d = 1 a plain product,
    whose + 0.0 turns -0 into +0 as ``np.sum`` does, bit for bit."""
    if a.shape[-1] == b.shape[-1] == 1:
        return a[..., 0] * b[..., 0] + 0.0
    return np.sum(a * b, axis=-1)


def _sq_norm(z):
    return _dot(z, z)


@dataclass(frozen=True)
class Driver:
    """Convex driver with subgradient selection and convex conjugate.

    ``lipschitz`` is the z-Lipschitz constant, or None when the driver only
    has quadratic growth.
    """

    name: str
    _evaluate: Callable = field(repr=False)
    _subgradient: Callable = field(repr=False)
    _conjugate: Callable = field(repr=False)
    lipschitz: float | None = None
    normalized: bool = True
    positively_homogeneous: bool = False

    def evaluate(self, t, z):
        z, scalar = _prep(z)
        return _scalar_out(self._evaluate(t, z), scalar)

    def subgradient(self, t, z):
        """A selected element of the subdifferential at z (fixed selection)."""
        z, scalar = _prep(z)
        q = self._subgradient(t, z)
        return _scalar_out(q[..., 0] if scalar else q, scalar)

    def conjugate(self, t, q):
        """Convex conjugate sup_z {q·z - g(t, z)}; +inf outside the domain."""
        q, scalar = _prep(q)
        return _scalar_out(self._conjugate(t, q), scalar)

    def with_subgradient(self, selection: Callable) -> "Driver":
        """Replace the subgradient selection rule (re-probed for validity)."""
        out = replace(self, _subgradient=selection)
        _probe_driver(out)
        return out


@dataclass(frozen=True)
class AllocDriver:
    """Two-argument allocation driver g(t, z, z_y) built over a base driver.

    ``diagonal`` records whether the driver claims agreement with the base
    on z == z_y (probed at construction); the gradient driver over a
    non-homogeneous base does not.  ``_subgradient_z`` is a selected
    element of the subdifferential in the first control argument, when the
    driver has one; it identifies supporting scenarios of the induced
    allocation.
    """

    name: str
    base: Driver
    _evaluate: Callable = field(repr=False)
    diagonal: bool = True
    lipschitz: float | None = None
    _subgradient_z: Callable | None = field(default=None, repr=False)

    def evaluate(self, t, z, z_y):
        z, scalar = _prep(z)
        z_y, scalar_y = _prep(z_y)
        return _scalar_out(self._evaluate(t, z, z_y), scalar and scalar_y)

    @property
    def subdifferentiable(self) -> bool:
        return self._subgradient_z is not None

    def subgradient_z(self, t, z, z_y):
        """Selected subgradient in z; defined when ``subdifferentiable``."""
        if self._subgradient_z is None:
            raise InvalidArgumentError(
                f"allocation driver {self.name!r} carries no subgradient "
                "selection in z")
        z, scalar = _prep(z)
        z_y, scalar_y = _prep(z_y)
        q = self._subgradient_z(t, z, z_y)
        both = scalar and scalar_y
        return _scalar_out(q[..., 0] if both else q, both)


def _probe_points(count=_PROBE_COUNT, dim=1):
    rng = np.random.Generator(np.random.Philox(key=_PROBE_SEED))
    t = rng.uniform(0.0, 1.0, count)
    z = rng.uniform(-5.0, 5.0, (count, dim))
    u = rng.uniform(-5.0, 5.0, (count, dim))
    alpha = rng.uniform(0.0, 1.0, (count, 1))
    return t, z, u, alpha


def _probe_driver(drv: Driver):
    for dim in (1, 2):
        t, z, u, alpha = _probe_points(dim=dim)
        gz = drv._evaluate(t, z)
        gu = drv._evaluate(t, u)
        if drv.normalized:
            g0 = drv._evaluate(t, np.zeros_like(z))
            if np.max(np.abs(g0)) > CONVEXITY_TOL:
                raise InvalidArgumentError(
                    f"driver {drv.name!r} marked normalized but g(t,0) != 0")
        mid = alpha * z + (1.0 - alpha) * u
        gap = drv._evaluate(t, mid) - (alpha[:, 0] * gz + (1.0 - alpha[:, 0]) * gu)
        if np.max(gap) > CONVEXITY_TOL:
            raise InvalidArgumentError(
                f"driver {drv.name!r} failed the convexity probe by {np.max(gap):.3e}")
        q = drv._subgradient(t, z)
        support = gz + np.sum(q * (u - z), axis=-1) - gu
        if np.max(support) > SUBGRADIENT_TOL:
            raise InvalidArgumentError(
                f"driver {drv.name!r} failed the subgradient inequality by "
                f"{np.max(support):.3e}")
        fy = np.abs(gz - (np.sum(q * z, axis=-1) - drv._conjugate(t, q)))
        if np.max(fy) > SUBGRADIENT_TOL:
            raise InvalidArgumentError(
                f"driver {drv.name!r} failed the Fenchel-Young equality by "
                f"{np.max(fy):.3e}")
        if drv.lipschitz is not None:
            qn = np.sqrt(_sq_norm(q))
            if np.max(qn) > drv.lipschitz + SUBGRADIENT_TOL:
                raise InvalidArgumentError(
                    f"driver {drv.name!r}: subgradient norm {np.max(qn):.6f} exceeds "
                    f"the Lipschitz bound {drv.lipschitz}")


def _probe_alloc(alloc: AllocDriver):
    if not alloc.diagonal:
        return
    for dim in (1, 2):
        t, z, _, _ = _probe_points(dim=dim)
        gap = np.abs(alloc._evaluate(t, z, z) - alloc.base._evaluate(t, z))
        if np.max(gap) > DIAGONAL_TOL:
            raise InvalidArgumentError(
                f"allocation driver {alloc.name!r} failed the diagonal probe by "
                f"{np.max(gap):.3e}")


def make_driver(name, evaluate, subgradient, conjugate, *, lipschitz=None,
                normalized=True, positively_homogeneous=False) -> Driver:
    """Build and probe a driver from raw vectorized callables."""
    drv = Driver(name, evaluate, subgradient, conjugate, lipschitz=lipschitz,
                 normalized=normalized,
                 positively_homogeneous=positively_homogeneous)
    _probe_driver(drv)
    return drv


# The risk-driver factories are cached: one parameter set builds one driver,
# so a solve and the kernels or caches built on it match by identity.
@cache
def driver_zero() -> Driver:
    """Risk-neutral baseline: g == 0, conjugate is the indicator of {0}."""

    def conjugate(t, q):
        ok = np.sqrt(_sq_norm(q)) <= 1e-12
        return np.where(ok, 0.0, np.inf)

    return make_driver(
        "zero",
        lambda t, z: np.zeros(z.shape[:-1]),
        lambda t, z: np.zeros_like(z),
        conjugate,
        lipschitz=0.0,
        positively_homogeneous=True,
    )


KINK_TOL = 1e-11


@cache
def driver_scaled_norm(mu: float) -> Driver:
    """Coherent driver mu * ||z||; the worst-case-drift family.

    The subgradient selection at the kink z = 0 is q = 0, which keeps
    q·z == g(z) everywhere and hence makes full allocation exact for the
    induced coherent measures.  Use ``with_subgradient`` to plug another
    selection.

    Controls with norm at or below ``KINK_TOL`` classify as the kink.
    Backward solves produce exact zeros and rounding-noise zeros (~1e-13)
    for the same region depending on constant offsets in the terminal
    value; a discontinuous selection must not split those, or allocation
    identities degrade by the selection jump.  The tolerance sits far
    above the noise floor and far below any control the solvers treat as
    signal.
    """
    if not 0 < mu < math.inf:
        raise InvalidArgumentError(f"mu must be positive and finite, got {mu}")

    def subgradient(t, z):
        n = np.sqrt(_sq_norm(z))
        scale = np.divide(mu, n, out=np.zeros_like(n), where=n > KINK_TOL)
        return z * scale[..., None]

    def conjugate(t, q):
        ok = np.sqrt(_sq_norm(q)) <= mu * (1.0 + 1e-9) + 1e-15
        return np.where(ok, 0.0, np.inf)

    return make_driver(
        f"norm:mu={mu:g}",
        lambda t, z: mu * np.sqrt(_sq_norm(z)),
        subgradient,
        conjugate,
        lipschitz=float(mu),
        positively_homogeneous=True,
    )


@cache
def driver_entropic(lam: float) -> Driver:
    """Quadratic driver ||z||^2 / (2 lam) of the entropic risk measure."""
    if not 0 < lam < math.inf:
        raise InvalidArgumentError(
            f"lambda must be positive and finite, got {lam}")
    return make_driver(
        f"entropic:lambda={lam:g}",
        lambda t, z: _sq_norm(z) / (2.0 * lam),
        lambda t, z: z / lam,
        lambda t, q: lam * _sq_norm(q) / 2.0,
        lipschitz=None,
    )


def _finish_alloc(alloc: AllocDriver) -> AllocDriver:
    _probe_alloc(alloc)
    return alloc


def alloc_driver_gradient(base: Driver) -> AllocDriver:
    """Linear driver q(z_y)·z with q the base subgradient at the portfolio.

    Induces the gradient allocation.  Agrees with the base on the diagonal
    only for positively homogeneous bases; for strictly convex bases the
    diagonal value exceeds the base by the conjugate term, which is exactly
    why gradient allocation breaks no-undercut there.
    """

    def evaluate(t, z, z_y):
        q = base._subgradient(t, z_y)
        return _dot(q, z)

    return _finish_alloc(AllocDriver(
        "grad", base, evaluate,
        diagonal=base.positively_homogeneous,
        lipschitz=base.lipschitz,
        _subgradient_z=lambda t, z, z_y: base._subgradient(t, z_y) + 0.0 * z,
    ))


def alloc_driver_subdiff(base: Driver) -> AllocDriver:
    """Supporting-plane driver q(z_y)·(z - z_y) + g(z_y).

    Diagonal by construction, and dominated by the base driver pointwise
    (the supporting plane of a convex function lies below it), which is the
    driver-level condition behind no-undercut.

    For a positively homogeneous base every supporting plane passes through
    the origin (g(z_y) = q·z_y), so the plane is q·z.  That form stays below
    g for any q in ∂g(0), which also covers a kink selection (q = 0 for
    ||z_y|| <= KINK_TOL) where q·(z - z_y) + g(z_y) would exceed g by g(z_y).
    Such a selection is not a subgradient at z_y, so q·z misses the diagonal
    by the offset g(z_y) - q·z_y > 0; there the driver adds the offset back,
    capped by g(z) - q·z to stay below the base.  The lift is computed at
    the missed cells only (for each reader, when ``z`` has leading reader
    axes); every other cell is the plane itself.
    """

    def evaluate(t, z, z_y):
        q = base._subgradient(t, z_y)
        if base.positively_homogeneous:
            plane = _dot(q, z)
            offset = base._evaluate(t, z_y) - _dot(q, z_y)
            missed = offset > 0
            if not np.any(missed):
                return plane
            if missed.ndim and z.shape[:-1] == plane.shape and \
                    plane.shape[plane.ndim - missed.ndim:] == missed.shape:
                # the control's missed cells, across any leading reader axes
                cells = (Ellipsis, *np.nonzero(missed))
                at = plane[cells]
                plane[cells] = at + np.minimum(offset[missed], base._evaluate(
                    t, z[cells + (slice(None),)]) - at)
                return plane
            lift = np.minimum(offset, base._evaluate(t, z) - plane)
            return np.where(missed, plane + lift, plane)
        return _dot(q, z - z_y) + base._evaluate(t, z_y)

    return _finish_alloc(AllocDriver(
        "subdiff", base, evaluate,
        lipschitz=base.lipschitz,
        _subgradient_z=lambda t, z, z_y: base._subgradient(t, z_y) + 0.0 * z,
    ))


def alloc_driver_marginal(base: Driver) -> AllocDriver:
    """Increment driver g(z_y) - g(z_y - z); requires a normalized base.

    Concave in z for a convex base, so it carries no subgradient selection
    (its supporting planes lie above, not below).
    """
    if not base.normalized:
        raise InvalidArgumentError(
            "marginal allocation driver needs a normalized base (g(t,0) = 0)")

    def evaluate(t, z, z_y):
        return base._evaluate(t, z_y) - base._evaluate(t, z_y - z)

    return _finish_alloc(AllocDriver(
        "marginal", base, evaluate,
        lipschitz=base.lipschitz,
    ))


def alloc_driver_entropic_drift(lam: float, c: float) -> AllocDriver:
    """Entropic-base driver c·(z - z_y) + ||z_y||^2 / (2 lam).

    Linear (hence Lipschitz with constant c) in z; the induced allocation
    charges the sub-portfolio through a constant-drift change of measure.
    """
    if not (0 < lam < math.inf and 0 < c < math.inf):
        raise InvalidArgumentError(
            f"lam and c must be positive and finite, got {lam}, {c}")
    base = driver_entropic(lam)

    def evaluate(t, z, z_y):
        return c * np.sum(z - z_y, axis=-1) + _sq_norm(z_y) / (2.0 * lam)

    return _finish_alloc(AllocDriver(
        f"ent1:c={c:g}", base, evaluate, lipschitz=float(c),
        _subgradient_z=lambda t, z, z_y: np.full_like(z, c),
    ))


def alloc_driver_entropic_two_level(lam: float, lam_sub: float) -> AllocDriver:
    """Double-entropic driver ||z - z_y||^2 / (2 lam_sub) + ||z_y||^2 / (2 lam).

    Two risk-aversion levels: ``lam`` prices the whole portfolio, ``lam_sub``
    the remainder once the sub-portfolio is carved out.
    """
    if not (0 < lam < math.inf and 0 < lam_sub < math.inf):
        raise InvalidArgumentError(
            "risk aversion parameters must be positive and finite, got "
            f"{lam}, {lam_sub}")
    base = driver_entropic(lam)

    def evaluate(t, z, z_y):
        return _sq_norm(z - z_y) / (2.0 * lam_sub) + _sq_norm(z_y) / (2.0 * lam)

    return _finish_alloc(AllocDriver(
        f"ent2:lt={lam_sub:g}", base, evaluate,
        _subgradient_z=lambda t, z, z_y: (z - z_y) / lam_sub,
    ))


def alloc_driver_f_family(base: Driver, f: Callable, *, name="custom-f",
                          lipschitz=None, subgradient_z=None) -> AllocDriver:
    """Driver f(t, z_y, z - z_y) + g(z_y) for any f vanishing at w = 0.

    ``f`` must be vectorized like driver callables: (t, z_y, w) with w of
    shape (..., d), returning shape (...).  The vanishing condition
    f(t, z_y, 0) = 0 is probed; it is what makes the driver diagonal.
    """
    t, z_y, _, _ = _probe_points()
    at_zero = np.abs(np.asarray(f(t, z_y, np.zeros_like(z_y)), dtype=float))
    if np.max(at_zero) > DIAGONAL_TOL:
        raise InvalidArgumentError(
            f"f violates f(t, z_y, 0) = 0 on a probe by {np.max(at_zero):.3e}")

    def evaluate(t, z, z_y):
        return np.asarray(f(t, z_y, z - z_y), dtype=float) + base._evaluate(t, z_y)

    return _finish_alloc(AllocDriver(
        name, base, evaluate, lipschitz=lipschitz,
        _subgradient_z=subgradient_z,
    ))
