"""Time warping for prescribed-time control.

A density a(t) >= 0 with positive tail integral A(t) = int_t^T a defines the
blow-up gain lambda(t) = 1/A(t) and the warped clock s(t) = int_0^t lambda.
The state map y = D^r_{lambda(t)} x turns the prescribed-time problem on
[0, T) into an ordinary stabilization problem on s in [0, inf).

The constant and power clocks are closed forms.  The expflat clock is a
table of Gauss-Legendre panels built once per time scale, continued by the
asymptotic series of its antiderivative (see _ExpflatClock); no density
needs scipy.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Density",
    "TimeScale",
    "build",
]

# evaluations are refused this close to the horizon; lambda overflows at T
HORIZON_GUARD = 1e-9
# the expflat clock sums panels up to this u and uses the asymptotic series
# of its antiderivative beyond: the series' smallest term, which bounds its
# error, is 3e-15 relative at 40 and falls like e^-u; each unit of u below
# costs one panel
ASYMPTOTIC_U = 40.0
# the inverse expflat clock stops once |ln(s/sigma)| is this small, or once
# no double lies strictly inside its bracket
CLOCK_RESID_TOL = 2.0**-46
# the expflat clock refuses an h = t/(T(T-t)), or for T < 1 a t (about T^2 h), below
# this: a smaller subnormal keeps fewer than the 46 bits that CLOCK_RESID_TOL resolves
CLOCK_TINY = 2.0**-1028
# 8-point Gauss-Legendre rule on [0, 1] for the clock's panels (3e-15
# relative): its nodes x < 1/2 with their weights, mirrored at 1 - x
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_HALF = tuple(zip((0.5 * (1.0 + _GL_X[:4])).tolist(), (0.5 * _GL_W[:4]).tolist()))
_E64 = math.exp(64.0)
# the horizons T of an expflat time scale: lambda(0) = e^(1/T) and the peak
# 2T^2 of a pair of panel nodes near v = 1/T must stay finite
EXPFLAT_T_RANGE = (1.0 / math.log(sys.float_info.max), math.sqrt(0.5 * sys.float_info.max))


@dataclass(frozen=True)
class Density:
    """One of the closed catalog of densities.

    tag "constant": a(t) = c                       (param = c, finite and > 0)
    tag "power":    a(t) = (T-t)^(m-1)             (param = m >= 1 integer)
    tag "expflat":  a(t) = exp(-1/(T-t))/(T-t)^2   (param unused)

    TimeScale evaluates constant and power as a(t) = c (T-t)^(m-1).
    """

    tag: str
    param: float = 1.0

    def __post_init__(self):
        if self.tag == "constant":
            if not 0 < self.param < math.inf:
                raise ValueError(f"constant density needs a finite c > 0, got {self.param}")
        elif self.tag == "power":
            m = self.param
            if not (m >= 1 and float(m).is_integer()):
                raise ValueError("power density needs integer m >= 1")
        elif self.tag != "expflat":
            raise ValueError(f"unknown density tag {self.tag!r}")


def _g_scaled(u: float) -> float:
    """u^2 e^-u G(u) from its asymptotic series sum_k (k+1)!/u^k, for u > ASYMPTOTIC_U."""
    total = term = 1.0
    k = 1
    while True:
        nxt = term * (k + 1) / u
        if nxt >= term:  # the series has reached its smallest term
            return total
        term = nxt
        total += term
        if term < 1e-17 * total:
            return total
        k += 1


def _exp_times(e: float, m: float) -> float:
    """e^e * m for m > 0, inf once the product leaves the double range."""
    if e <= 700.0:
        return math.exp(e) * m
    try:
        return math.exp(e - 64.0) * m * _E64
    except OverflowError:
        return math.inf


def _gl_panel(u: float, d: float) -> float:
    """int_u^{u+d} e^(v-u)/v^2 dv by the 8-point Gauss-Legendre rule.

    The node pair v, d - v shares one exp: e^(d-v) = e^d / e^v.
    """
    exp = math.exp
    e_d = exp(d)
    acc = 0.0
    for x, w in _GL_HALF:
        v = d * x
        e_v = exp(v)
        q = u + v
        r = u + (d - v)
        acc += w * (e_v / q / q + e_d / e_v / r / r)
    return d * acc


class _ExpflatClock:
    """The expflat clock s = int_{u0}^{u0+h} e^v/v^2 dv and its inverse in h.

    The substitution u = 1/(T - xi) turns s(t) = int_0^t exp(1/(T - xi)) dxi
    into that integral with u0 = 1/T and h = 1/(T - t) - 1/T.  Values are
    returned as a pair (E, M) with s = e^E * M, so that neither the clock nor
    its logarithm overflows before s does.

    The build lays panels from h_0 = 0, each of span min(1, (u0 + h_k)/2),
    where the 8-point Gauss-Legendre rule holds to 3e-15, up to the first
    node h_K with u0 + h_K >= ASYMPTOTIC_U (a single panel of span 1 when u0
    is past it already), and stores the sums P_k = e^-u0 int_{u0}^{u0+h_k}:

    - h <= h_K: P_k plus one Gauss-Legendre panel from h_k to h (E = u0), a
      sum of positive terms;
    - beyond: G(U) - G(u0) for the antiderivative G(u) = e^u/u^2 *
      _g_scaled(u) (E = U), with G(u0) = G(u0 + h_K) - e^u0 P_K; the last
      panel spans 1, so G(u0) < 0.4 G(U) and the difference loses under a
      bit.
    """

    def __init__(self, u0: float):
        self.u0 = u0
        # per node: h_k, u0 + h_k, e^h_k and P_k
        hs, us, es, ps = [0.0], [u0], [1.0], [0.0]
        while len(hs) == 1 or us[-1] < ASYMPTOTIC_U:
            h = hs[-1] + min(1.0, 0.5 * us[-1])
            ps.append(ps[-1] + es[-1] * _gl_panel(us[-1], h - hs[-1]))
            hs.append(h)
            us.append(u0 + h)
            es.append(math.exp(h))
        self._h, self._u, self._e, self._p = hs, us, es, ps
        self._last = len(hs) - 1
        self.m0 = es[-1] * _g_scaled(us[-1]) / (us[-1] * us[-1]) - ps[-1]  # G(u0) = e^u0 * m0
        # from h_min on, h and the panel sum e^-u0 s (about h/u0^2) are at least CLOCK_TINY;
        # s_min = s(2*h_min) leaves room for rounding, so t_of_s returns no h below h_min
        self.h_min = CLOCK_TINY * max(1.0, u0 * u0)
        self.s_min = _exp_times(*self.scaled(2.0 * self.h_min))

    def _at(self, k: int, h: float):
        """scaled(h) for h in panel k, [h_k, h_(k+1)], or beyond h_K for k = K."""
        if k < self._last:
            return self.u0, self._p[k] + self._e[k] * _gl_panel(self._u[k], h - self._h[k])
        U = self.u0 + h
        return U, _g_scaled(U) / (U * U) - math.exp(self.u0 - U) * self.m0

    def scaled(self, h: float):
        """(E, M) with s(h) = e^E * M and M > 0 for h > 0."""
        return self._at(max(bisect_left(self._h, h) - 1, 0), h)

    def _start(self, q: float):
        """Panel k, first iterate and bracket [lo, hi] for e^-u0 s(h) = q.

        Below P_K, k is the panel whose sums enclose the target and the
        iterate the root of the Taylor quadratic at its left node (s'' =
        s'(1 - 2/u)); above, k = K and G(U) ~ e^U/U^2 (1 + 2/U) is solved
        for U from the end of the table.
        """
        hs = self._h
        k = bisect_right(self._p, q) - 1
        if k < self._last:
            lo, hi = hs[k], hs[k + 1]
            uk = self._u[k]
            gap = (q - self._p[k]) * (uk * uk) / self._e[k]
            disc = 1.0 + 2.0 * (1.0 - 2.0 / uk) * gap
            h = lo + (2.0 * gap / (1.0 + math.sqrt(disc)) if disc > 0 else gap)
            if not lo < h < hi:
                h = math.nextafter(lo, hi) if h <= lo else 0.5 * (lo + hi)
            return k, h, lo, hi
        target = self.u0 + math.log(q + self.m0)  # ln(sigma + G(u0))
        U = max(target, 2.0)
        for _ in range(4):
            U = max(2.0, target + 2.0 * math.log(U) - math.log1p(2.0 / U))
        return k, max(U - self.u0, hs[-1]), hs[-1], math.inf

    def solve(self, sig: float) -> float:
        """The h with s(h) = sig for finite sig > 0.

        Safeguarded Newton on phi(h) = ln(s(h)/sig), with phi' = s'/s and
        s' = e^U/U^2 and Halley's curvature term (phi'' = phi'(1 - 2/U -
        phi')), started in the panel that _start picks: each iterate
        narrows the bracket [lo, hi], a step that leaves it bisects (or
        doubles while hi is unknown), and a step below the resolution of h
        moves one double towards the root.  Stops on the residual |phi| <=
        CLOCK_RESID_TOL, or when no double lies inside the bracket,
        returning the iterate of least residual.
        """
        u0 = self.u0
        ln_sig = math.log(sig)
        # phi = (E - c) + ln M - ln(sig e^-c) keeps every term small near the root
        c = min(max(ln_sig, -700.0), 700.0)
        lq = math.log(sig / math.exp(c))
        k, h, lo, hi = self._start(math.exp(ln_sig - u0))
        best_h, best_r = h, math.inf
        for _ in range(100):  # each pass narrows the bracket; 2-4 passes are typical
            E, M = self._at(k, h)
            r = (E - c) + math.log(M) - lq if M > 0 else -math.inf
            if abs(r) < abs(best_r):
                best_h, best_r = h, r
            if abs(r) <= CLOCK_RESID_TOL:
                return h
            if r < 0:
                lo = h
            else:
                hi = h
            h_new = math.nan
            if math.isfinite(r):
                U = u0 + h
                d1 = math.exp(U - E) / (U * U * M)
                h_new = h - r / d1 / (1.0 - 0.5 * r * (1.0 - 2.0 / U - d1) / d1)
            if h_new == h:
                h_new = math.nextafter(h, hi if r < 0 else lo)
            elif not lo < h_new < hi:
                h_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * h + 1.0
            if not lo < h_new < hi:
                break
            h = h_new
        return best_h


class TimeScale:
    """Bundle (a, A, lambda, s) with the inverse clock map t_of_s.

    Closed forms are used for the constant and power densities.  For
    expflat the clock s(t) = int_{1/T}^{1/(T-t)} e^u/u^2 du comes from a
    panel table and an asymptotic series (see _ExpflatClock); it raises
    OverflowError where s exceeds the double range, and t_of_s inverts it
    by a safeguarded Newton solve in u = 1/(T-t), returning t < T for every
    finite warped time; lambda = exp(1/(T-t)) is inf once it leaves the
    double range.  Below the clock's resolution s raises ValueError for
    h = t/(T(T-t)) < h_min, and t_of_s for a warped time < s_min.  An
    expflat T outside EXPFLAT_T_RANGE raises ValueError.
    All evaluations require t <= T*(1 - 1e-9).
    """

    def __init__(self, T: float, density: Density):
        if not T > 0:
            raise ValueError("T must be positive")
        self.T = float(T)
        self.density = density
        self._clock = None
        if density.tag == "expflat":
            lo, hi = EXPFLAT_T_RANGE
            if not lo <= self.T <= hi:
                raise ValueError(f"expflat density needs T in [{lo!r}, {hi!r}], got {T!r}")
            self._clock = _ExpflatClock(1.0 / self.T)
        elif density.tag == "constant":
            self._c, self._m = density.param, 1.0
        else:
            self._c, self._m = 1.0, density.param

    def _check_t(self, t: float) -> float:
        t = float(t)
        if t < 0 or t > self.T * (1.0 - HORIZON_GUARD):
            raise ValueError(f"time {t} outside [0, T*(1-1e-9)] with T={self.T}")
        return t

    def a(self, t: float) -> float:
        t = self._check_t(t)
        u = self.T - t
        if self._clock is None:
            return self._c * u ** (self._m - 1.0)
        return math.exp(-1.0 / u) / u**2

    def a_sup(self) -> float:
        """max of a over [0, T] (the perturbation size C_a seen by the LMI)."""
        T = self.T
        if self._clock is None:
            return self._c * T ** (self._m - 1.0)
        # expflat: maximized at T-t = 1/2 when reachable, else at t = 0
        if T >= 0.5:
            return 4.0 * math.exp(-2.0)
        return math.exp(-1.0 / T) / T**2

    def A(self, t: float) -> float:
        t = self._check_t(t)
        if self._clock is None:
            return self._c * (self.T - t) ** self._m / self._m
        return math.exp(-1.0 / (self.T - t))

    def lam(self, t: float) -> float:
        t = self._check_t(t)
        if self._clock is None:  # 1/A(t), A's expression inlined
            return 1.0 / (self._c * (self.T - t) ** self._m / self._m)
        try:
            return math.exp(1.0 / (self.T - t))
        except OverflowError:  # T - t below about 1/709.8
            return math.inf

    def s(self, t: float) -> float:
        t = self._check_t(t)
        T = self.T
        if self._clock is None:
            m = self._m
            if m == 1.0:
                return math.log(T / (T - t)) / self._c
            return m / (m - 1.0) * ((T - t) ** (1.0 - m) - T ** (1.0 - m)) / self._c
        h = t / (T * (T - t))
        if t > 0.0 and h < self._clock.h_min:
            raise ValueError(
                f"expflat clock s({t!r}) with T={T!r}: h = t/(T(T-t)) = {h!r} is below h_min = {self._clock.h_min!r}"
            )
        E, M = self._clock.scaled(h)
        val = _exp_times(E, M)
        if val == math.inf:
            raise OverflowError(f"expflat clock s({t!r}) exceeds the double range with T={T!r}")
        return val

    def t_of_s(self, sig: float) -> float:
        if sig < 0:
            raise ValueError("warped time must be nonnegative")
        if sig == 0.0:
            return 0.0
        T = self.T
        if self._clock is None:
            m, cs = self._m, self._c * sig
            if m == 1.0:
                return T * (1.0 - math.exp(-cs))
            base = T ** (1.0 - m) + cs * (m - 1.0) / m
            return T - base ** (-1.0 / (m - 1.0))
        if not math.isfinite(sig):
            raise ValueError("warped time must be finite")
        if sig < self._clock.s_min:
            raise ValueError(f"expflat t_of_s({sig!r}) with T={T!r}: below s_min = {self._clock.s_min!r}")
        h = self._clock.solve(sig)
        U = self._clock.u0 + h
        # T*h/U keeps the relative precision of small t, T - 1/U that of t near T
        t = T * h / U if h <= self._clock.u0 else T - 1.0 / U
        return min(t, math.nextafter(T, 0.0))


def build(T: float, density: Density) -> TimeScale:
    """Construct the TimeScale for a horizon and catalog density."""
    return TimeScale(T, density)
