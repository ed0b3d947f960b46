"""Foundational numerics: weights, dilations, degree grids, sphere sampling.

A weight vector r = (r_1, ..., r_n) of a dilation D^r_lam = diag(lam^{r_i})
is a plain tuple of floats.

Everything here is pure and deterministic; higher modules build gain
synthesis, certificates and simulations on top of these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ChainSpec",
    "pnf_weights",
    "hong_weights",
    "jordan_block",
    "dilate",
    "dilate_rows",
    "kappa_grid",
    "onto_sphere",
    "sample_sphere",
]


@dataclass(frozen=True)
class ChainSpec:
    """Plant description for the n-th order perturbed chain of integrators.

    Parameters
    ----------
    n : int
        Plant order (number of states), n >= 1.
    T : float
        Prescribed horizon in seconds, finite and > 0.
    b_lower : float
        Lower bound on the control gain b(t), finite and > 0.
    b_upper : float
        Upper bound on b(t); may be ``math.inf``.
    d_bound : float
        Bound on the matched disturbance, finite and >= 0.
    """

    n: int
    T: float
    b_lower: float = 1.0
    b_upper: float = math.inf
    d_bound: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"plant order n must be a positive integer, got {self.n}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")
        if not (0 < self.b_lower <= self.b_upper and self.b_lower < math.inf):
            raise ValueError(
                f"need 0 < b_lower <= b_upper with b_lower finite, got ({self.b_lower}, {self.b_upper})"
            )
        if not 0 <= self.d_bound < math.inf:
            raise ValueError(f"d_bound must be finite and nonnegative, got {self.d_bound}")


@lru_cache(maxsize=64)  # immutable result; the envelopes ask for it at every sample time
def pnf_weights(n: int) -> tuple:
    """Weights (n, n-1, ..., 1) used by the time-varying linear feedback."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(float(n - i) for i in range(n))


def _hong_r(count: int, kappa: float) -> tuple:
    """r_j = 1 + (j-1)*kappa for j = 1..count, unchecked.

    The cascade exponents of n levels read r_{n+1}, whose kappa range is
    that of n levels, not of n+1.
    """
    return tuple(1.0 + j * kappa for j in range(count))


def hong_weights(n: int, kappa: float) -> tuple:
    """Weights r_j = 1 + (j-1)*kappa of the n-level cascade, for |kappa| <= 1/(2n) only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(kappa) > 1.0 / (2 * n) + 1e-12:
        raise ValueError(f"kappa={kappa} outside [-1/(2n), 1/(2n)] for n={n}")
    return _hong_r(n, kappa)


def jordan_block(n: int) -> np.ndarray:
    """Upper shift matrix J_n with J e_i = e_{i-1} (ones on the superdiagonal)."""
    J = np.zeros((n, n))
    for i in range(n - 1):
        J[i, i + 1] = 1.0
    return J


def dilate(r: tuple, lam: float, x) -> np.ndarray:
    """Apply the dilation D^r_lam = diag(lam^{r_i}) to x (last axis is the state)."""
    if not lam > 0:
        raise ValueError(f"dilation parameter must be positive, got {lam}")
    scales = np.asarray([lam**ri for ri in r])
    return np.asarray(x, dtype=float) * scales


def dilate_rows(r: tuple, lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row k of X dilated by diag(lam[k]^{r_i}); numpy powers, unlike dilate."""
    return X * lam[:, None] ** np.array(r)[None, :]


def kappa_grid(n: int, points: int = 11, hi: float | None = None) -> np.ndarray:
    """Evenly spaced degree grid over [-1/(2n), hi]; hi defaults to 1/(2n).

    A smaller hi gives the certified interval of a gain set (see
    hong.kappa_pos_certified).
    """
    return np.linspace(-1.0 / (2 * n), 1.0 / (2 * n) if hi is None else hi, points)


def _sphere_sum(r: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_i |x_i|^{2/r_i} per row; the weighted unit sphere is its level set 1."""
    return np.sum(np.abs(X) ** (2.0 / r), axis=-1)


def onto_sphere(r: tuple, Z: np.ndarray) -> np.ndarray:
    """Rows of Z (none zero) dilated exactly onto the unit sphere of the weights r.

    The defining map scales as lam^2 under the dilation, so the placing
    parameter is lam = nu(z)^{-1/2}.
    """
    return dilate_rows(r, _sphere_sum(np.array(r), Z) ** -0.5, Z)


def _sphere_directions(j: int, count: int, N: int, seed: int) -> np.ndarray:
    """The standard-normal directions of sample_sphere, shape (count, N, j).

    Block g is what sample_sphere dilates onto the sphere of its g-th kappa:
    one draw in grid order, with exact-zero rows (which no dilation places
    on the sphere) replaced by ones.
    """
    z = np.random.default_rng(seed).standard_normal((count, N, j))
    if not z.all():  # a zero row has a zero entry; z.all() is 10x cheaper than the row test
        z[np.all(z == 0.0, axis=-1)] = 1.0
    return z


def sample_sphere(j: int, kappa_grid, N: int, seed: int) -> np.ndarray:
    """Sample N points per kappa on the weighted unit sphere in R^j.

    For each kappa a standard-normal direction z is drawn and dilated onto
    the sphere {sum |x_i|^{2/r_i(kappa)} = 1} (see onto_sphere), so
    membership is exact by construction.

    Returns an array of shape (len(kappa_grid), N, j).
    """
    if j < 1:
        raise ValueError("dimension j must be >= 1")
    if N < 1:
        raise ValueError("need at least one sample point")
    grid = np.atleast_1d(np.asarray(kappa_grid, dtype=float))
    weights = [hong_weights(j, kap) for kap in grid]
    out = _sphere_directions(j, len(grid), N, seed)
    for g, w in enumerate(weights):
        out[g] = onto_sphere(w, out[g])
    return out
