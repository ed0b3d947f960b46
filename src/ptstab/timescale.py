"""Time warping for prescribed-time control.

A density a(t) >= 0 with positive tail integral A(t) = int_t^T a defines the
blow-up gain lambda(t) = 1/A(t) and the warped clock s(t) = int_0^t lambda.
The state map y = D^r_{lambda(t)} x turns the prescribed-time problem on
[0, T) into an ordinary stabilization problem on s in [0, inf).

Only the expflat clock needs scipy (scipy.special.expi); each _ExpflatClock
imports it once, when it is built, so the constant and power densities do
not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import WeightVector, dilate

__all__ = [
    "Density",
    "constant_density",
    "power_density",
    "expflat_density",
    "TimeScale",
    "build",
    "x_to_y",
]

# evaluations are refused this close to the horizon; lambda overflows at T
HORIZON_GUARD = 1e-9
# the expflat clock uses the asymptotic series of G above this u; scipy's
# expi loses up to 3e-14 relative between 40 and 45, where the series is good
# to 3e-15 and better beyond
ASYMPTOTIC_U = 40.0
# the inverse expflat clock stops once |ln(s/sigma)| is this small, or once
# no double lies strictly inside its bracket
CLOCK_RESID_TOL = 2.0**-46
# 8-point Gauss-Legendre rule on [0, 1] for short clock spans (3e-15 relative)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_RULE = tuple(zip((0.5 * (1.0 + _GL_X)).tolist(), (0.5 * _GL_W).tolist()))
_E64 = math.exp(64.0)


@dataclass(frozen=True)
class Density:
    """One of the closed catalog of densities.

    tag "constant": a(t) = c                       (param = c > 0)
    tag "power":    a(t) = (T-t)^(m-1)             (param = m >= 1 integer)
    tag "expflat":  a(t) = exp(-1/(T-t))/(T-t)^2   (param unused)

    TimeScale evaluates constant and power as a(t) = c (T-t)^(m-1).
    """

    tag: str
    param: float = 1.0

    def __post_init__(self):
        if self.tag == "constant":
            if not self.param > 0:
                raise ValueError("constant density needs c > 0")
        elif self.tag == "power":
            m = self.param
            if not (m >= 1 and float(m).is_integer()):
                raise ValueError("power density needs integer m >= 1")
        elif self.tag != "expflat":
            raise ValueError(f"unknown density tag {self.tag!r}")


def constant_density(c: float = 1.0) -> Density:
    return Density("constant", float(c))


def power_density(m: int) -> Density:
    return Density("power", float(m))


def expflat_density() -> Density:
    return Density("expflat")


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


class _ExpflatClock:
    """The expflat clock s = int_{u0}^{u0+h} e^u/u^2 du and its inverse in h.

    The substitution u = 1/(T - xi) turns s(t) = int_0^t exp(1/(T - xi)) dxi
    into that integral with u0 = 1/T and h = 1/(T - t) - 1/T.  Values are
    returned as a pair (E, M) with s = e^E * M, so that neither the clock nor
    its logarithm overflows before s does:

    - h <= min(1, u0/2): Gauss-Legendre on the span (E = u0), where the
      difference of antiderivatives would cancel;
    - u0 + h <= ASYMPTOTIC_U: G(u0 + h) - G(u0) (E = 0);
    - beyond: G(U) = e^U/U^2 * _g_scaled(U) (E = U).
    """

    def __init__(self, u0: float):
        from scipy.special import expi

        self._expi = expi
        self.u0 = u0
        self.short = min(1.0, 0.5 * u0)
        if u0 <= ASYMPTOTIC_U:
            self.g0 = self._g(u0)
            self.log_g0 = math.log(self.g0) if self.g0 > 0 else None
        else:
            self.m0 = _g_scaled(u0) / (u0 * u0)  # G(u0) = e^u0 * m0
            self.log_g0 = u0 + math.log(self.m0)

    def _g(self, u: float) -> float:
        """G(u) = Ei(u) - e^u/u, an antiderivative of e^u/u^2 (A&S 5.1)."""
        return float(self._expi(u)) - math.exp(u) / u

    def scaled(self, h: float):
        """(E, M) with s(h) = e^E * M and M > 0 for h > 0."""
        u0 = self.u0
        if h <= self.short:
            acc = 0.0
            for x, w in _GL_RULE:
                v = h * x
                acc += w * math.exp(v) / (u0 + v) ** 2
            return u0, h * acc
        U = u0 + h
        if U <= ASYMPTOTIC_U:
            return 0.0, self._g(U) - self.g0
        if u0 <= ASYMPTOTIC_U:
            tail = self.g0 * math.exp(-U)
        else:
            tail = math.exp(u0 - U) * self.m0
        return U, _g_scaled(U) / (U * U) - tail

    def _guess(self, ln_sig: float) -> float:
        """Starting h: the tangent at h = 0 for short spans, else G(U) ~ e^U/U^2 (1 + 2/U)."""
        u0 = self.u0
        lin = ln_sig + 2.0 * math.log(u0) - u0
        if lin <= math.log(self.short):
            return max(math.exp(lin), math.ulp(0.0))
        target = ln_sig  # ln(sigma + G(u0)) when G(u0) > 0
        if self.log_g0 is not None:
            big, small = max(target, self.log_g0), min(target, self.log_g0)
            target = big + math.log1p(math.exp(small - big))
        U = max(target, 2.0)
        for _ in range(4):
            U = max(2.0, target + 2.0 * math.log(U) - math.log1p(2.0 / U))
        return max(U - u0, self.short)

    def solve(self, sig: float) -> float:
        """The h with s(h) = sig for finite sig > 0.

        Safeguarded Newton on phi(h) = ln(s(h)/sig), with phi' = s'/s and
        s' = e^U/U^2 and Halley's curvature term (phi'' = phi'(1 - 2/U -
        phi')): each iterate narrows a bracket [lo, hi], a step
        that leaves it bisects (or doubles while hi is unknown), and a step
        below the resolution of h moves one double towards the root.  Stops
        on the residual |phi| <= CLOCK_RESID_TOL, or when no double lies
        inside the bracket, returning the iterate of least residual.
        """
        u0 = self.u0
        ln_sig = math.log(sig)
        # phi = (E - c) + ln M - ln(sig e^-c) keeps every term small near the root
        c = min(max(ln_sig, -700.0), 700.0)
        lq = math.log(sig / math.exp(c))
        h = self._guess(ln_sig)
        lo, hi = 0.0, math.inf
        best_h, best_r = h, math.inf
        for _ in range(100):  # each pass narrows the bracket; 2-8 passes are typical
            E, M = self.scaled(h)
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

    Closed forms are used for all three densities.  For expflat the clock
    is s(t) = G(1/(T-t)) - G(1/T) with G(u) = Ei(u) - e^u/u (see
    _ExpflatClock); it raises OverflowError where s exceeds the double
    range, and t_of_s inverts it by a safeguarded Newton solve in
    u = 1/(T-t), returning t < T for every finite warped time; lambda =
    exp(1/(T-t)) is inf once it leaves the double range.  All evaluations
    require t <= T*(1 - 1e-9).
    """

    def __init__(self, T: float, density: Density):
        if not T > 0:
            raise ValueError("T must be positive")
        self.T = float(T)
        self.density = density
        self._clock = None
        if density.tag == "expflat":
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
        if self._clock is None:
            return 1.0 / self.A(t)
        t = self._check_t(t)
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
        E, M = self._clock.scaled(t / (T * (T - t)))
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
        h = self._clock.solve(sig)
        U = self._clock.u0 + h
        # T*h/U keeps the relative precision of small t, T - 1/U that of t near T
        t = T * h / U if h <= self._clock.u0 else T - 1.0 / U
        return min(t, math.nextafter(T, 0.0))


def build(T: float, density: Density) -> TimeScale:
    """Construct the TimeScale for a horizon and catalog density."""
    return TimeScale(T, density)


def x_to_y(ts: TimeScale, w: WeightVector, eta: float, t: float, x) -> np.ndarray:
    """Warped state y = D^r_{eta*lambda(t)} x."""
    lam = ts.lam(t)
    return dilate(w, eta * lam, x)

