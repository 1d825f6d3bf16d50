import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskalloc import (InvalidArgumentError, alloc_driver_entropic_drift,
                       alloc_driver_entropic_two_level, alloc_driver_f_family,
                       alloc_driver_gradient, alloc_driver_marginal,
                       alloc_driver_subdiff, driver_entropic,
                       driver_scaled_norm, driver_zero, make_driver)

T = 0.3  # drivers here are time-homogeneous; any probe time works


def test_zero_driver():
    drv = driver_zero()
    assert drv.evaluate(T, 2.0) == 0.0
    assert drv.subgradient(T, -1.5) == 0.0
    assert drv.conjugate(T, 0.0) == 0.0
    assert drv.conjugate(T, 0.3) == np.inf


def test_scaled_norm_values():
    drv = driver_scaled_norm(0.5)
    assert drv.evaluate(T, 2.0) == pytest.approx(1.0)
    assert drv.subgradient(T, -3.0) == pytest.approx(-0.5)
    assert drv.conjugate(T, 0.6) == np.inf
    assert drv.conjugate(T, 0.5) == 0.0
    assert drv.subgradient(T, 0.0) == 0.0
    assert drv.lipschitz == 0.5
    assert drv.positively_homogeneous


def test_scaled_norm_rejects_bad_mu():
    with pytest.raises(InvalidArgumentError):
        driver_scaled_norm(0.0)
    with pytest.raises(InvalidArgumentError):
        driver_scaled_norm(-1.0)
    for mu in (np.inf, np.nan):
        with pytest.raises(InvalidArgumentError, match="finite"):
            driver_scaled_norm(mu)


def test_entropic_values():
    assert driver_entropic(1.0).evaluate(T, 2.0) == pytest.approx(2.0)
    assert driver_entropic(2.0).subgradient(T, 3.0) == pytest.approx(1.5)
    assert driver_entropic(1.0).conjugate(T, 2.0) == pytest.approx(2.0)
    assert driver_entropic(1.0).lipschitz is None
    with pytest.raises(InvalidArgumentError):
        driver_entropic(-0.5)
    for lam in (np.inf, np.nan):
        with pytest.raises(InvalidArgumentError, match="finite"):
            driver_entropic(lam)


def test_vector_inputs():
    drv = driver_scaled_norm(2.0)
    assert drv.evaluate(T, np.array([3.0, 4.0])) == pytest.approx(10.0)
    batch = np.array([[1.0], [-2.0]])
    assert np.allclose(drv.evaluate(T, batch), [2.0, 4.0])
    assert np.allclose(drv.subgradient(T, batch), [[2.0], [-2.0]])


def test_gradient_alloc_driver():
    ent = driver_entropic(1.0)
    grad = alloc_driver_gradient(ent)
    assert grad.evaluate(T, 3.0, 2.0) == pytest.approx(6.0)
    # strictly convex base: the diagonal exceeds the base value
    assert grad.evaluate(T, 2.0, 2.0) == pytest.approx(4.0)
    assert ent.evaluate(T, 2.0) == pytest.approx(2.0)
    assert not grad.diagonal
    norm = driver_scaled_norm(0.5)
    gn = alloc_driver_gradient(norm)
    assert gn.evaluate(T, 4.0, -1.0) == pytest.approx(-2.0)
    assert gn.diagonal


def test_subdiff_alloc_driver():
    ent = driver_entropic(1.0)
    sub = alloc_driver_subdiff(ent)
    assert sub.evaluate(T, 3.0, 2.0) == pytest.approx(4.0)
    assert sub.evaluate(T, 2.0, 2.0) == pytest.approx(2.0)
    norm = driver_scaled_norm(0.5)
    sn = alloc_driver_subdiff(norm)
    assert sn.evaluate(T, 0.0, 2.0) == pytest.approx(0.0)


def test_marginal_alloc_driver():
    ent = driver_entropic(1.0)
    marg = alloc_driver_marginal(ent)
    assert marg.evaluate(T, 2.0, 2.0) == pytest.approx(2.0)
    assert marg.evaluate(T, 1.0, 3.0) == pytest.approx(2.5)
    norm = driver_scaled_norm(1.0)
    mn = alloc_driver_marginal(norm)
    assert mn.evaluate(T, 5.0, 1.0) == pytest.approx(-3.0)


def test_marginal_requires_normalized_base():
    shifted = make_driver(
        "affine-quadratic",
        lambda t, z: np.sum(z * z, axis=-1) / 2.0 + 0.5,
        lambda t, z: z,
        lambda t, q: np.sum(q * q, axis=-1) / 2.0 - 0.5,
        normalized=False)
    with pytest.raises(InvalidArgumentError):
        alloc_driver_marginal(shifted)


def test_entropic_drift_driver():
    d = alloc_driver_entropic_drift(1.0, 2.0)
    assert d.evaluate(T, 3.0, 3.0) == pytest.approx(4.5)
    assert d.evaluate(T, 3.0, 1.0) == pytest.approx(4.5)
    d2 = alloc_driver_entropic_drift(2.0, 1.0)
    assert d2.evaluate(T, 0.0, 2.0) == pytest.approx(-1.0)
    assert d.lipschitz == pytest.approx(2.0)
    with pytest.raises(InvalidArgumentError):
        alloc_driver_entropic_drift(1.0, -2.0)
    with pytest.raises(InvalidArgumentError, match="finite"):
        alloc_driver_entropic_drift(1.0, np.inf)


def test_entropic_two_level_driver():
    d = alloc_driver_entropic_two_level(1.0, 1.0)
    assert d.evaluate(T, 2.0, 2.0) == pytest.approx(2.0)
    assert d.evaluate(T, 0.0, 0.0) == pytest.approx(0.0)
    d2 = alloc_driver_entropic_two_level(1.0, 2.0)
    assert d2.evaluate(T, 4.0, 2.0) == pytest.approx(3.0)
    with pytest.raises(InvalidArgumentError):
        alloc_driver_entropic_two_level(0.0, 1.0)
    with pytest.raises(InvalidArgumentError, match="finite"):
        alloc_driver_entropic_two_level(1.0, np.inf)


def test_f_family():
    ent = driver_entropic(1.0)
    trivial = alloc_driver_f_family(ent, lambda t, zy, w: np.zeros(np.shape(w)[:-1]))
    assert trivial.evaluate(T, 5.0, 2.0) == pytest.approx(ent.evaluate(T, 2.0))

    drift_like = alloc_driver_f_family(ent, lambda t, zy, w: 2.0 * np.sum(w, axis=-1))
    ref = alloc_driver_entropic_drift(1.0, 2.0)
    for z, zy in [(3.0, 1.0), (0.0, 2.0), (-1.5, 0.5)]:
        assert drift_like.evaluate(T, z, zy) == pytest.approx(ref.evaluate(T, z, zy))

    pair_like = alloc_driver_f_family(
        ent, lambda t, zy, w: np.sum(w * w, axis=-1) / 4.0)
    ref2 = alloc_driver_entropic_two_level(1.0, 2.0)
    for z, zy in [(4.0, 2.0), (1.0, -1.0)]:
        assert pair_like.evaluate(T, z, zy) == pytest.approx(ref2.evaluate(T, z, zy))

    with pytest.raises(InvalidArgumentError):
        alloc_driver_f_family(ent, lambda t, zy, w: np.sum(w, axis=-1) + 1.0)


def test_probe_rejects_nonconvex():
    with pytest.raises(InvalidArgumentError):
        make_driver("concave", lambda t, z: -np.sum(z * z, axis=-1),
                    lambda t, z: -2.0 * z,
                    lambda t, q: np.zeros(q.shape[:-1]))


def test_with_subgradient_replacement():
    norm = driver_scaled_norm(1.0)

    def selection(t, z):
        # same ray selection, but a nonzero (still valid) pick at the kink
        n = np.sqrt(np.sum(z * z, axis=-1, keepdims=True))
        return np.where(n > 1e-11, z / np.maximum(n, 1e-300), 0.25)

    picked = norm.with_subgradient(selection)
    assert picked.subgradient(T, 0.0) == pytest.approx(0.25)
    assert picked.subgradient(T, -2.0) == pytest.approx(-1.0)
    with pytest.raises(InvalidArgumentError):
        norm.with_subgradient(lambda t, z: np.full_like(z, 5.0))


DRIVERS = {
    "zero": driver_zero,
    "norm": lambda: driver_scaled_norm(0.7),
    "entropic": lambda: driver_entropic(0.8),
}


@given(st.sampled_from(sorted(DRIVERS)),
       st.floats(-8, 8), st.floats(-8, 8), st.floats(0, 1))
@settings(max_examples=400, deadline=None)
def test_subgradient_inequality_and_fenchel_young(name, z, u, t):
    drv = DRIVERS[name]()
    q = drv.subgradient(t, z)
    assert drv.evaluate(t, u) >= drv.evaluate(t, z) + q * (u - z) - 1e-10
    # equality of the support value at the chosen subgradient
    conj = drv.conjugate(t, q)
    assert abs(drv.evaluate(t, z) - (q * z - conj)) <= 1e-10
    if drv.lipschitz is not None:
        assert abs(q) <= drv.lipschitz + 1e-12


ALLOCS = {
    "subdiff": lambda: alloc_driver_subdiff(driver_entropic(0.8)),
    "subdiff-norm": lambda: alloc_driver_subdiff(driver_scaled_norm(0.7)),
    "marginal": lambda: alloc_driver_marginal(driver_entropic(0.8)),
    "ent1": lambda: alloc_driver_entropic_drift(0.8, 1.2),
    "ent2": lambda: alloc_driver_entropic_two_level(0.8, 1.5),
}


@given(st.sampled_from(sorted(ALLOCS)), st.floats(-8, 8), st.floats(0, 1))
# inside the kink band of the norm: the selection q = 0 misses the diagonal
@example("subdiff-norm", 1e-11, 0.0)
@settings(max_examples=300, deadline=None)
def test_diagonal_condition(name, z, t):
    alloc = ALLOCS[name]()
    assert abs(alloc.evaluate(t, z, z) - alloc.base.evaluate(t, z)) <= 1e-12


@given(st.floats(-8, 8), st.floats(-8, 8), st.floats(0, 1))
# a portfolio control inside the kink band: restoring the diagonal must
# not lift the driver above the base at z = 0
@example(0.0, 5.66515410773801e-12, 0.0)
@settings(max_examples=300, deadline=None)
def test_subdiff_driver_below_base(z, zy, t):
    for base in (driver_entropic(0.8), driver_scaled_norm(0.7)):
        alloc = alloc_driver_subdiff(base)
        assert alloc.evaluate(t, z, zy) <= base.evaluate(t, z) + 1e-12
