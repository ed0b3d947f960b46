"""State-dependent homogeneity degree: fixed-time and prescribed-time control.

The degree kappa(x) saturates at +kappa0 outside {V0 <= 1+m}, at -kappa0
inside {V0 < 1-m} and interpolates affinely across the band, where V0 = x'Px
is the quadratic Lyapunov function of the kappa=0 cascade.  Outside the band
the closed loop is homogeneous of positive (resp. negative) degree, which
gives fixed-time convergence onto the band and finite-time convergence to
the origin, with the crossing controlled by a smallness condition on
kappa0: design_switch_params halves kappa0 from the largest certified
degree until a sampled band-decay margin holds.  A dilation of the state by
mu >= T_settle/T_target converts the fixed-time law into a prescribed-time
one (sim.prescribed_time_controller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChainSpec, dilate_rows, hong_weights
from .hong import CHUNK, HongGainSet, _cascade, _cascade_rows, _exponents, _level_exponents, alpha_of, hong_value

__all__ = [
    "SwitchDesignError",
    "SwitchParams",
    "quadratic_form",
    "v0_value",
    "kappa_of_x",
    "fixed_time_law",
    "fixed_time_feedback",
    "MatchedRobustLaw",
    "settling_bound",
    "design_switch_params",
    "sample_v0_level",
    "sample_vkappa_level",
    "band_decay_margin",
    "bind_diagnostics",
]


# design_switch_params: samples per level set, and band samples of the decay margin
DESIGN_SAMPLES = 4000
BAND_SAMPLES = 30000


class SwitchDesignError(RuntimeError):
    """The band decay could not be certified for any tried kappa0."""


@dataclass
class SwitchParams:
    """Designed switching parameters plus the containment radii certificate."""

    m: float
    kappa0: float
    P: np.ndarray
    r_plus: float
    r_minus: float
    T_settle: float
    C: float
    E: float = 0.0
    b_upper: float = 1.0


def quadratic_form(g: HongGainSet) -> np.ndarray:
    """SPD matrix P with V0(x) = x'Px for the linear (kappa=0) cascade."""
    n = g.n
    rows = []
    prev = np.zeros(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        row = e - prev
        rows.append(row)
        prev = -g.ell[j] * row
    P = 0.5 * sum(np.outer(r, r) for r in rows)
    return 0.5 * (P + P.T)


def v0_value(P: np.ndarray, x) -> float:
    """x'Px for a float list or array x.

    The ndarray.dot calls run the BLAS calls of x @ P @ x (a vector-matrix
    product, then a dot) with less dispatch, and give the same bits.
    """
    x = np.asarray(x, dtype=float)
    return float(x.dot(P).dot(x))


def kappa_of_x(sp: SwitchParams, x) -> float:
    """Continuous switching degree: saturated outside the band, affine inside."""
    return _kappa_law(sp)(v0_value(sp.P, x))


def _kappa_law(sp: SwitchParams):
    """v0 -> kappa: +kappa0 above the band 1 +- m, -kappa0 below it, affine across it."""
    k0, m = sp.kappa0, sp.m
    hi, lo = 1.0 + m, 1.0 - m

    def kappa(v0: float) -> float:
        if v0 > hi:
            return k0
        if v0 < lo:
            return -k0
        return k0 * (1.0 + (v0 - hi) / m)

    return kappa


def fixed_time_law(g: HongGainSet, sp: SwitchParams, b_lower: float = 1.0):
    """The feedback x -> omega^H_{kappa(x)}(x) / b_lower with its constants bound once.

    kappa0 is checked against g once (every kappa(x) lies in [-kappa0, kappa0]),
    and ell and the +-kappa0 exponents are fixed here; a degree inside the
    band gets its exponents computed per call.  x is a float list or array.
    """
    g.check_kappa(sp.kappa0)
    n, ell, P = g.n, g.ell.tolist(), sp.P
    kappa_of_v0 = _kappa_law(sp)
    saturated = {sp.kappa0: _exponents(n, sp.kappa0), -sp.kappa0: _exponents(n, -sp.kappa0)}

    def law(x) -> float:
        kappa = kappa_of_v0(v0_value(P, x))
        exps = saturated.get(kappa) or _level_exponents(n, kappa)
        return _cascade(ell, exps, x, want_value=False)[0] / b_lower

    return law


def fixed_time_feedback(g: HongGainSet, sp: SwitchParams, x, b_lower: float = 1.0) -> float:
    """u = omega^H_{kappa(x)}(x) / b_lower (v_n is linear in the last gain ell_n)."""
    return fixed_time_law(g, sp, b_lower)(x)


class MatchedRobustLaw:
    """Two-mode sliding feedback (1/b_lower)(omega0 + D*sgn_eps(omega0)).

    omega0 switches between the +kappa0 and -kappa0 cascades on the surface
    V_{-kappa0} = 1; the set-valued sign is regularized as z/max(|z|, eps).
    The per-level exponents of both cascades are computed once.  A call runs
    the -kappa0 pass, whose last v is omega0 on the sliding set
    {V_{-kappa0} <= 1}; only off that set does it run the +kappa0 pass.

    The -kappa0 pass yields V_{-kappa0} as a by-product.  v_minus(y) returns
    it without another pass when y is the state of the last evaluation, or
    of the last such reuse: a two-entry memo keyed on the state list
    itself, with an equality fallback for another list or an array of the
    same values.  So the step-cap surface and the diagnostics at an
    accepted step reuse the feedback's value there, also after rejected
    attempts have evaluated other states.  States are float lists, which
    must not be mutated after a call, or float64 arrays of length n.
    """

    def __init__(self, g: HongGainSet, sp: SwitchParams, spec: ChainSpec, reg_eps: float):
        if not reg_eps > 0:
            raise ValueError("reg_eps must be positive")
        g.check_kappa(sp.kappa0)
        self._ell = g.ell.tolist()
        self._plus = _exponents(g.n, sp.kappa0)
        self._minus = _exponents(g.n, -sp.kappa0)
        self._d_bound = spec.d_bound
        self._b_lower = spec.b_lower
        self._eps = reg_eps
        # (state, V_{-kappa0}) of the last evaluation and of the last v_minus hit,
        # each replaced in one assignment
        self._memo = self._held = (None, None)

    def __call__(self, y) -> float:
        return self.u(None, y)

    def u(self, t, y) -> float:
        """The feedback at state y as a Controller.u (the law does not read t)."""
        if type(y) is not list:
            y = np.asarray(y, dtype=float).tolist()
        w0, vm = _cascade(self._ell, self._minus, y)
        self._memo = (y, vm)
        if vm > 1.0:
            w0 = _cascade(self._ell, self._plus, y, want_value=False)[0]
        sgn = w0 / max(abs(w0), self._eps)
        return (w0 + self._d_bound * sgn) / self._b_lower

    def v_minus(self, y) -> float:
        """V_{-kappa0}(y), from the memo when y is a state it holds."""
        memo = self._memo
        if y is memo[0]:
            self._held = memo
            return memo[1]
        if type(y) is not list:
            y = np.asarray(y, dtype=float).tolist()
        if y == memo[0]:
            self._held = memo
            return memo[1]
        key, vm = self._held
        if y is key or y == key:
            return vm
        vm = _cascade(self._ell, self._minus, y)[1]
        self._memo = (y, vm)
        return vm


def settling_bound(C: float, m: float, kappa0: float, r_plus: float, r_minus: float) -> float:
    """Settling-time bound of the switched loop from the three-phase estimate.

    (1/C) * [ r_plus^{-a+}/a+  - 2 ln(2m) + r_minus^{-a-}/(-a-) ] with
    a+ = alpha(kappa0) > 0 and a- = alpha(-kappa0) < 0.
    """
    ap = alpha_of(kappa0)
    am = alpha_of(-kappa0)
    return (r_plus ** (-ap) / ap - 2.0 * math.log(2.0 * m) + r_minus ** (-am) / (-am)) / C


def z_value(g: HongGainSet, sp: SwitchParams, x, alt_exponent: bool = False) -> float:
    """Residual metric Z = min(V0, V_{+k0}^{1+a}, V_{-k0}^{1-a}), a = alpha(kappa0).

    alt_exponent uses 1+alpha(-kappa0) on the third term instead of 1-a.
    """
    ep, em = _z_exponents(sp.kappa0, alt_exponent)
    return min(v0_value(sp.P, x), hong_value(g, sp.kappa0, x) ** ep, hong_value(g, -sp.kappa0, x) ** em)


def _z_exponents(kappa0: float, alt_exponent: bool = False) -> tuple:
    """The exponents (1+a, 1-a) of Z's level-set terms; alt_exponent makes the second 1+alpha(-kappa0)."""
    a = alpha_of(kappa0)
    return 1.0 + a, (1.0 + alpha_of(-kappa0) if alt_exponent else 1.0 - a)


def bind_diagnostics(g: HongGainSet, sp: SwitchParams):
    """The function (x, vm=None) -> {V0, Vkp, Vkm, kappa, Z} at x, each level set evaluated once.

    ``vm`` supplies V_{-kappa0}(x) when the caller already has it; x is a
    float list or array.  kappa0 is checked once, and ell, the +-kappa0
    exponents, the band and Z's exponents are bound once.
    """
    g.check_kappa(sp.kappa0)
    ell, P = g.ell.tolist(), sp.P
    plus, minus = _exponents(g.n, sp.kappa0), _exponents(g.n, -sp.kappa0)
    kappa_of_v0 = _kappa_law(sp)
    ep, em = _z_exponents(sp.kappa0)

    def diag(x, vm: float | None = None) -> dict:
        v0 = v0_value(P, x)
        vp = _cascade(ell, plus, x)[1]
        if vm is None:
            vm = _cascade(ell, minus, x)[1]
        return {"V0": v0, "Vkp": vp, "Vkm": vm, "kappa": kappa_of_v0(v0), "Z": min(v0, vp**ep, vm**em)}

    return diag


def sample_v0_level(P: np.ndarray, lo: float, hi: float, N: int, seed: int) -> np.ndarray:
    """N points with x'Px uniform in [lo, hi]; lo == hi gives the level set {x'Px = lo}.

    A direction z is drawn per point, then its level; each point is z scaled
    exactly onto its level.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, P.shape[0]))
    q = np.einsum("ij,jk,ik->i", z, P, z)
    levels = rng.uniform(lo, hi, size=N)
    return z * np.sqrt(levels / q)[:, None]


def sample_vkappa_level(g: HongGainSet, kappa: float, level: float, N: int, seed: int) -> np.ndarray:
    """N points on {V_kappa = level}; exact by the degree-(2+kappa) homogeneity."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, g.n))
    V = _cascade_rows(g.ell, kappa, z, grad=False)[0]
    return dilate_rows(hong_weights(g.n, kappa), (level / V) ** (1.0 / (2.0 + kappa)), z)


def _band_scan(g: HongGainSet, P: np.ndarray, m: float, b_upper: float, n_samples: int, seed: int) -> list:
    """The kappa0-independent part of the band scan, per CHUNK-row block.

    Each block is (X, lever 2|x'Pe_n| b_upper, kappa(x)/kappa0, omega_0) over
    n_samples points with V0 uniform on [1-m, 1+m].
    """
    X = sample_v0_level(P, 1.0 - m, 1.0 + m, n_samples, seed)
    lever = 2.0 * np.abs(X @ P[:, g.n - 1]) * b_upper
    v0 = np.einsum("ij,jk,ik->i", X, P, X)
    # _kappa_law row by row, divided by kappa0 and before the clip
    frac = 1.0 + (v0 - (1.0 + m)) / m
    blocks = []
    for s in range(0, n_samples, CHUNK):
        rows = slice(s, s + CHUNK)
        u_0 = _cascade_rows(g.ell, 0.0, X[rows], grad=False)[1][-1]
        blocks.append((X[rows], lever[rows], frac[rows], u_0))
    return blocks


def _band_worst(g: HongGainSet, blocks: list, kappa0: float) -> float:
    """max over the band scan of 2|x'Pe_n| b_upper |omega_k(x) - omega_0|.

    omega_k runs with each row's own degree kappa(x); the clip pins rounding
    just outside the band to +-kappa0.
    """
    block_max = []
    for X, lever, frac, u_0 in blocks:
        kap = np.clip(kappa0 * frac, -kappa0, kappa0)
        u_k = _cascade_rows(g.ell, kap, X, grad=False)[1][-1]
        block_max.append(np.max(lever * np.abs(u_k - u_0)))
    return float(np.max(block_max))


def band_decay_margin(
    g: HongGainSet,
    sp: SwitchParams,
    n_samples: int = 10000,
    seed: int = 21,
) -> tuple:
    """(max over band samples of 2|x'Pe_n| b_upper |omega_k(x) - omega_0|, C(1-m)/2).

    The first below the second forces dV0 <= -C V0 / 2 across the band.  The
    same two steps as one halving of design_switch_params: _band_scan, then
    _band_worst at sp.kappa0.
    """
    blocks = _band_scan(g, sp.P, sp.m, sp.b_upper, n_samples, seed)
    return _band_worst(g, blocks, sp.kappa0), sp.C * (1.0 - sp.m) / 2.0


def design_switch_params(
    g: HongGainSet,
    m: float = 0.5,
    b_upper: float = 1.0,
    seed: int = 17,
) -> SwitchParams:
    """Pick kappa0 for the band m, certify the band decay, and bound the settling time.

    kappa0 starts at min(0.999 kappa_pos, 0.999/(2n)), just inside the
    certified degree interval, and is halved (at most 40 times) until the
    band-decay margin over BAND_SAMPLES points holds with the given b_upper;
    nothing else chooses it.  The band samples, their lever arms and omega_0
    are computed once; a halving reruns only omega_kappa.  r_plus/r_minus
    come from level-set extrema with 0.9 and 1.1 safety factors.
    """
    if not 0.0 < m < 1.0:
        raise ValueError("m must lie in (0, 1)")
    P = quadratic_form(g)
    kappa0 = min(0.999 * g.kappa_pos, 0.999 / (2 * g.n))
    sp = SwitchParams(
        m=m, kappa0=kappa0, P=P, r_plus=0.0, r_minus=0.0, T_settle=0.0, C=g.C, b_upper=b_upper
    )
    blocks = _band_scan(g, P, m, b_upper, BAND_SAMPLES, seed + 2)
    allowed = sp.C * (1.0 - m) / 2.0
    for _ in range(40):
        if _band_worst(g, blocks, sp.kappa0) <= allowed:
            break
        sp.kappa0 *= 0.5
    else:
        raise SwitchDesignError("band decay could not be certified; gains look inconsistent")

    plus_pts = sample_v0_level(P, 1.0 + m, 1.0 + m, DESIGN_SAMPLES, seed + 3)
    Vp = _cascade_rows(g.ell, sp.kappa0, plus_pts, grad=False)[0]
    sp.r_plus = 0.9 * float(np.min(Vp))
    minus_pts = sample_v0_level(P, 1.0 - m, 1.0 - m, DESIGN_SAMPLES, seed + 4)
    Vm = _cascade_rows(g.ell, -sp.kappa0, minus_pts, grad=False)[0]
    sp.r_minus = 1.1 * float(np.max(Vm))

    sphere_minus = sample_vkappa_level(g, -sp.kappa0, 1.0, DESIGN_SAMPLES, seed + 5)
    Vplus_on = _cascade_rows(g.ell, sp.kappa0, sphere_minus, grad=False)[0]
    sp.E = 0.9 * float(np.min(Vplus_on))

    sp.T_settle = settling_bound(sp.C, m, sp.kappa0, sp.r_plus, sp.r_minus)
    return sp
