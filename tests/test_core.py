import math

import numpy as np
import pytest

from ptstab.core import (
    ChainSpec,
    dilate,
    dilation_matrix,
    hong_weights,
    jordan_block,
    kappa_grid,
    pnf_weights,
    sample_sphere,
    signed_power,
    sphere_residual,
)


def test_chain_spec_validation():
    ChainSpec(n=3, T=1.0, b_lower=0.5, b_upper=2.0, d_bound=1.0)
    with pytest.raises(ValueError):
        ChainSpec(n=0, T=1.0)
    with pytest.raises(ValueError):
        ChainSpec(n=2, T=-1.0)
    with pytest.raises(ValueError):
        ChainSpec(n=2, T=1.0, b_lower=2.0, b_upper=1.0)
    with pytest.raises(ValueError):
        ChainSpec(n=2, T=1.0, d_bound=-0.1)
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon T"):
            ChainSpec(n=2, T=T)
    for d_bound in (math.inf, math.nan):
        with pytest.raises(ValueError, match="d_bound"):
            ChainSpec(n=2, T=1.0, d_bound=d_bound)


def test_pnf_weights_values():
    assert pnf_weights(3).r == (3.0, 2.0, 1.0)
    assert hong_weights(3, 0.1).r == (1.0, 1.1, 1.2)
    with pytest.raises(ValueError):
        hong_weights(3, 0.5)


def test_dilate_identity():
    w = pnf_weights(2)
    assert np.allclose(dilate(w, 1.0, [3.0, -4.0]), [3.0, -4.0])


def test_dilate_pnf_example():
    w = pnf_weights(2)
    assert np.allclose(dilate(w, 2.0, [1.0, 1.0]), [4.0, 2.0])


def test_dilate_hong_kappa0():
    w = hong_weights(3, 0.0)
    assert np.allclose(dilate(w, 5.0, [1.0, 1.0, 1.0]), [5.0, 5.0, 5.0])


def test_dilate_domain_error():
    with pytest.raises(ValueError):
        dilate(pnf_weights(2), 0.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        dilate(pnf_weights(2), -1.0, [1.0, 1.0])


def test_dilation_group_law():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        w = pnf_weights(n)
        for _ in range(50):
            lam, mu = rng.uniform(0.1, 10.0, size=2)
            x = rng.standard_normal(n)
            lhs = dilate(w, lam, dilate(w, mu, x))
            rhs = dilate(w, lam * mu, x)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_conjugation_identity():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5):
        w = pnf_weights(n)
        J = jordan_block(n)
        en = np.zeros(n)
        en[-1] = 1.0
        for _ in range(20):
            lam = rng.uniform(0.1, 10.0)
            D = dilation_matrix(w, lam)
            lhs = D @ J @ np.linalg.inv(D)
            assert np.max(np.abs(lhs - lam * J)) < 1e-12 * max(1.0, lam)
            assert np.allclose(D @ en, lam * en, rtol=1e-12)


def test_signed_power_examples():
    assert signed_power(-8.0, 1.0 / 3.0) == pytest.approx(-2.0)
    assert signed_power(0.0, 0.7) == 0.0
    assert signed_power(4.0, 1.5) == pytest.approx(8.0)
    assert signed_power(2.5, 1.0) == 2.5


def test_signed_power_inverse_property():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(-10.0, 10.0)
        a = rng.uniform(0.3, 3.0)
        back = signed_power(signed_power(x, a), 1.0 / a)
        assert back == pytest.approx(x, rel=1e-10, abs=1e-12)


def test_signed_power_domain_error():
    with pytest.raises(ValueError):
        signed_power(1.0, 0.0)
    with pytest.raises(ValueError):
        signed_power(1.0, -2.0)


def test_sample_sphere_dim1():
    pts = sample_sphere(1, [0.0, 0.1], 5, seed=0)
    assert np.max(np.abs(np.abs(pts) - 1.0)) < 1e-12


def test_sample_sphere_kappa0_is_euclidean():
    pts = sample_sphere(2, [0.0], 100, seed=3)[0]
    assert np.max(np.abs(np.sum(pts**2, axis=1) - 1.0)) < 1e-12


def test_sample_sphere_residual():
    pts = sample_sphere(3, [1.0 / 6.0], 10, seed=7)[0]
    assert sphere_residual(pts, 1.0 / 6.0) < 1e-12


def test_sample_sphere_deterministic():
    a = sample_sphere(3, kappa_grid(3), 20, seed=42)
    b = sample_sphere(3, kappa_grid(3), 20, seed=42)
    assert np.array_equal(a, b)


def test_sample_sphere_domain_error():
    with pytest.raises(ValueError):
        sample_sphere(2, [0.3], 5, seed=0)
    with pytest.raises(ValueError):
        sample_sphere(2, [0.0], 0, seed=0)


def test_kappa_grid_bounds():
    g = kappa_grid(4, 11)
    assert g[0] == pytest.approx(-1.0 / 8.0)
    assert g[-1] == pytest.approx(1.0 / 8.0)
    assert len(g) == 11
