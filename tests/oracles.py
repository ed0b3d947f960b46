"""Reference computations and check summaries that only the tests use.

Each reference restates a quantity of the package from its definition, so
that a test can compare the package's bound or batched form against it.
"""

import numpy as np

from ptstab.core import dilate, dilate_rows, hong_weights
from ptstab.hong import _cascade_rows, alpha_of, hong_value
from ptstab.pnf import _lmi_checks
from ptstab.switching import _band_scan, _band_worst


def dilation_matrix(r, lam):
    """Dense diag(lam^{r_i}); D^r_1 is the identity."""
    return np.diag(dilate(r, lam, np.ones(len(r))))


def pnf_u(K, s, x):
    """-K^T D^r_s x, r = (n, ..., 1): the products K_i (s^r_i x_i) in Python floats, added left to right from 0.0."""
    total = 0.0
    n = len(x)
    for i in range(n):
        total += float(K[i]) * (float(s) ** float(n - i) * float(x[i]))
    return -total


def sphere_residual(x, kappa):
    """max over rows of |sum_i |x_i|^{2/r_i} - 1| for the kappa-weighted unit sphere in R^j."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = 1.0 + kappa * np.arange(x.shape[-1])
    return float(np.max(np.abs(np.sum(np.abs(x) ** (2.0 / r), axis=-1) - 1.0)))


def quadratic_form(g):
    """The matrix P with V0(x) = x'Px = sum_j (r_j x)^2/2, r_j x = x_j - v_{j-1} of the kappa=0 cascade.

    The rows r_j follow v_j = -ell_j (x_j - v_{j-1}) and v_0 = 0.
    """
    P = np.zeros((g.n, g.n))
    prev = np.zeros(g.n)
    for j, el in enumerate(g.ell):
        row = -prev
        row[j] += 1.0
        P += 0.5 * np.outer(row, row)
        prev = -el * row
    return P


def quadratic_v0(g, x):
    """V0(x) = x'Px, P = quadratic_form(g), for a float list or array x."""
    x = np.asarray(x, dtype=float)
    return float(x @ quadratic_form(g) @ x)


def kappa_of_x(g, sp, x):
    """The switching degree at x: +kappa0 above the band 1 +- m of V0, -kappa0 below it, affine across it."""
    v0, hi = quadratic_v0(g, x), 1.0 + sp.m
    if v0 > hi:
        return sp.kappa0
    if v0 < 1.0 - sp.m:
        return -sp.kappa0
    return sp.kappa0 * (1.0 + (v0 - hi) / sp.m)


def z_value(g, sp, x):
    """Residual metric Z = min(V0, V_{+k0}^{1+a}, V_{-k0}^{1-a}), a = alpha(kappa0)."""
    a = alpha_of(sp.kappa0)
    vp, vm = hong_value(g, sp.kappa0, x), hong_value(g, -sp.kappa0, x)
    return min(quadratic_v0(g, x), vp ** (1.0 + a), vm ** (1.0 - a))


def band_decay_margin(g, sp, n_samples=10000, seed=21):
    """(max over band samples of |dV0/dx_n| b_upper |omega_k(x) - omega_0|, C(1-m)/2).

    The first below the second forces dV0 <= -C V0 / 2 across the band.  The
    same two steps as one halving of design_switch_params: its band scan,
    then the band's worst sample at sp.kappa0.
    """
    blocks = _band_scan(g, sp.m, sp.b_upper, n_samples, seed)
    return _band_worst(g, blocks, sp.kappa0), sp.C * (1.0 - sp.m) / 2.0


def sample_vkappa_level(g, kappa, level, N, seed):
    """N points on {V_kappa = level}; exact by the degree-(2+kappa) homogeneity."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, g.n))
    V = _cascade_rows(g.ell, kappa, z, grad=False)[0]
    return dilate_rows(hong_weights(g.n, kappa), (level / V) ** (1.0 / (2.0 + kappa)), z)


def verify_lmi(g):
    """(passed, endpoint margin, slope min-eig) of a gain's S > 0, endpoint and slope checks."""
    checks = _lmi_checks(g)
    return all(ok for _, _, ok in checks), checks[1][1], checks[2][1]
