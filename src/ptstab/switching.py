"""State-dependent homogeneity degree: fixed-time and prescribed-time control.

The degree kappa(x) saturates at +kappa0 outside {V0 <= 1+m}, at -kappa0
inside {V0 < 1-m} and interpolates affinely across the band, where V0 is
the cascade's V_kappa at kappa = 0, sum_j (x_j - v_{j-1})^2/2, a quadratic
form that every caller reads off the hong cascade kernels at kappa = 0.
Outside the band the closed loop is homogeneous of positive (resp. negative)
degree, which gives fixed-time convergence onto the band and finite-time
convergence to the origin, with the crossing controlled by a smallness
condition on kappa0: design_switch_params halves kappa0 from the largest
certified degree until a sampled band-decay margin holds.  A dilation of
the state by mu >= T_settle/T_target converts the fixed-time law into a
prescribed-time one (sim.prescribed_time_controller).

This module holds the design, the level-set sampler and the batched run
diagnostics; sim's controllers bind the per-step laws (the band law and the
matched-robust sliding law) on the scalar hong cascade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hong import CHUNK, HongGainSet, _cascade_rows, alpha_of

__all__ = [
    "SwitchDesignError",
    "SwitchParams",
    "settling_bound",
    "design_switch_params",
    "sample_v0_level",
    "bind_diagnostics",
]


# design_switch_params: samples per containment level set, and band samples of the decay margin
DESIGN_SAMPLES = 4000
BAND_SAMPLES = 30000


class SwitchDesignError(RuntimeError):
    """The band decay could not be certified for any tried kappa0."""


@dataclass
class SwitchParams:
    """Designed switching parameters plus the containment radii certificate."""

    m: float
    kappa0: float
    r_plus: float
    r_minus: float
    T_settle: float
    C: float
    b_upper: float = 1.0


def _band_frac(v0, m: float):
    """kappa/kappa0 of the band law at V0 = v0, before the clip to [-1, 1]."""
    return 1.0 + (v0 - (1.0 + m)) / m


def _band_kappa(v0: float, k0: float, m: float) -> float:
    """The band law's kappa at V0 = v0, clipped to +-k0: bind_diagnostics' np.clip on one float."""
    return min(max(k0 * _band_frac(v0, m), -k0), k0)


def settling_bound(C: float, m: float, kappa0: float, r_plus: float, r_minus: float) -> float:
    """Settling-time bound of the switched loop from the three-phase estimate.

    (1/C) * [ r_plus^{-a+}/a+  - 2 ln(2m) + r_minus^{-a-}/(-a-) ] with
    a+ = alpha(kappa0) > 0 and a- = alpha(-kappa0) < 0.
    """
    ap = alpha_of(kappa0)
    am = alpha_of(-kappa0)
    return (r_plus ** (-ap) / ap - 2.0 * math.log(2.0 * m) + r_minus ** (-am) / (-am)) / C


def bind_diagnostics(g: HongGainSet, sp: SwitchParams):
    """The function X -> {V0, Vkp, Vkm, kappa, Z}, one float64 column per name over the rows of X.

    Vkp and Vkm are V_{+-kappa0} from the batched cascade, kappa is the band
    law clipped to +-kappa0, and Z = min(V0, Vkp^(1+a), Vkm^(1-a)) with
    a = alpha(kappa0), all elementwise.  kappa0 is checked once.
    """
    g.check_kappa(sp.kappa0)
    k0, a = sp.kappa0, alpha_of(sp.kappa0)

    def diag(X) -> dict:
        v0 = _cascade_rows(g.ell, 0.0, X, grad=False)[0]
        vp = _cascade_rows(g.ell, k0, X, grad=False)[0]
        vm = _cascade_rows(g.ell, -k0, X, grad=False)[0]
        kappa = np.clip(k0 * _band_frac(v0, sp.m), -k0, k0)
        Z = np.minimum(np.minimum(v0, vp ** (1.0 + a)), vm ** (1.0 - a))
        return {"V0": v0, "Vkp": vp, "Vkm": vm, "kappa": kappa, "Z": Z}

    return diag


def sample_v0_level(g: HongGainSet, lo: float, hi: float, N: int, seed: int) -> np.ndarray:
    """N points with V0 uniform in [lo, hi]; lo == hi gives the level set {V0 = lo}.

    A direction z is drawn per point, then its level; each point is z scaled
    exactly onto its level.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, g.n))
    q = _cascade_rows(g.ell, 0.0, z, grad=False)[0]
    levels = rng.uniform(lo, hi, size=N)
    return z * np.sqrt(levels / q)[:, None]


def _band_scan(g: HongGainSet, m: float, b_upper: float, n_samples: int, seed: int) -> list:
    """The kappa0-independent part of the band scan, per CHUNK-row block.

    Each block is (X, lever |dV0/dx_n| b_upper, kappa(x)/kappa0, omega_0) over
    n_samples points with V0 uniform on [1-m, 1+m], all from one kappa=0 pass.
    """
    X = sample_v0_level(g, 1.0 - m, 1.0 + m, n_samples, seed)
    blocks = []
    for s in range(0, n_samples, CHUNK):
        Xb = X[s : s + CHUNK]
        v0, vs, gradV, _, _ = _cascade_rows(g.ell, 0.0, Xb)
        blocks.append((Xb, np.abs(gradV[-1]) * b_upper, _band_frac(v0, m), vs[-1]))
    return blocks


def _band_worst(g: HongGainSet, blocks: list, kappa0: float) -> float:
    """max over the band scan of |dV0/dx_n| b_upper |omega_k(x) - omega_0|.

    omega_k runs with each row's own degree kappa(x); the clip pins rounding
    just outside the band to +-kappa0.
    """
    block_max = []
    for X, lever, frac, u_0 in blocks:
        kap = np.clip(kappa0 * frac, -kappa0, kappa0)
        u_k = _cascade_rows(g.ell, kap, X, grad=False)[1][-1]
        block_max.append(np.max(lever * np.abs(u_k - u_0)))
    return float(np.max(block_max))


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
    kappa0 = min(0.999 * g.kappa_pos, 0.999 / (2 * g.n))
    blocks = _band_scan(g, m, b_upper, BAND_SAMPLES, seed + 2)
    allowed = g.C * (1.0 - m) / 2.0
    for _ in range(40):
        if _band_worst(g, blocks, kappa0) <= allowed:
            break
        kappa0 *= 0.5
    else:
        raise SwitchDesignError("band decay could not be certified; gains look inconsistent")

    plus_pts = sample_v0_level(g, 1.0 + m, 1.0 + m, DESIGN_SAMPLES, seed + 3)
    r_plus = 0.9 * float(np.min(_cascade_rows(g.ell, kappa0, plus_pts, grad=False)[0]))
    minus_pts = sample_v0_level(g, 1.0 - m, 1.0 - m, DESIGN_SAMPLES, seed + 4)
    r_minus = 1.1 * float(np.max(_cascade_rows(g.ell, -kappa0, minus_pts, grad=False)[0]))
    T_settle = settling_bound(g.C, m, kappa0, r_plus, r_minus)
    return SwitchParams(m=m, kappa0=kappa0, r_plus=r_plus, r_minus=r_minus, T_settle=T_settle, C=g.C, b_upper=b_upper)
