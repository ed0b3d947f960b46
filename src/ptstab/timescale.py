"""Time warping for prescribed-time control.

A density a(t) >= 0 with positive tail integral A(t) = int_t^T a defines the
blow-up gain lambda(t) = 1/A(t) and the warped clock s(t) = int_0^t lambda.
The state map y = D^r_{lambda(t)} x turns the prescribed-time problem on
[0, T) into an ordinary stabilization problem on s in [0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

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


@dataclass(frozen=True)
class Density:
    """One of the closed catalog of densities.

    tag "constant": a(t) = c                       (param = c > 0)
    tag "power":    a(t) = (T-t)^(m-1)             (param = m >= 1 integer)
    tag "expflat":  a(t) = exp(-1/(T-t))/(T-t)^2   (param unused)
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


class TimeScale:
    """Bundle (a, A, lambda, s) with the inverse clock map t_of_s.

    Closed forms are used for the constant and power densities; the expflat
    clock s is evaluated by adaptive quadrature and inverted by a monotone
    root-find.  All evaluations require t <= T*(1 - 1e-9).
    """

    def __init__(self, T: float, density: Density):
        if not T > 0:
            raise ValueError("T must be positive")
        self.T = float(T)
        self.density = density

    def _check_t(self, t: float) -> float:
        t = float(t)
        if t < 0 or t > self.T * (1.0 - HORIZON_GUARD):
            raise ValueError(f"time {t} outside [0, T*(1-1e-9)] with T={self.T}")
        return t

    def a(self, t: float) -> float:
        t = self._check_t(t)
        T, p = self.T, self.density.param
        if self.density.tag == "constant":
            return p
        if self.density.tag == "power":
            return (T - t) ** (p - 1.0)
        u = T - t
        return math.exp(-1.0 / u) / u**2

    def a_sup(self) -> float:
        """max of a over [0, T] (the perturbation size C_a seen by the LMI)."""
        T, p = self.T, self.density.param
        if self.density.tag == "constant":
            return p
        if self.density.tag == "power":
            return T ** (p - 1.0)
        # expflat: maximized at T-t = 1/2 when reachable, else at t = 0
        if T >= 0.5:
            return 4.0 * math.exp(-2.0)
        return math.exp(-1.0 / T) / T**2

    def A(self, t: float) -> float:
        t = self._check_t(t)
        T, p = self.T, self.density.param
        if self.density.tag == "constant":
            return p * (T - t)
        if self.density.tag == "power":
            return (T - t) ** p / p
        return math.exp(-1.0 / (T - t))

    def lam(self, t: float) -> float:
        return 1.0 / self.A(t)

    def s(self, t: float) -> float:
        t = self._check_t(t)
        T, p = self.T, self.density.param
        if self.density.tag == "constant":
            return math.log(T / (T - t)) / p
        if self.density.tag == "power":
            if p == 1:
                return math.log(T / (T - t))
            return p / (p - 1.0) * ((T - t) ** (1.0 - p) - T ** (1.0 - p))
        val, _ = quad(
            lambda xi: math.exp(1.0 / (T - xi)), 0.0, t, epsabs=1e-13, epsrel=1e-11, limit=200
        )
        return val

    def t_of_s(self, sig: float) -> float:
        if sig < 0:
            raise ValueError("warped time must be nonnegative")
        if sig == 0.0:
            return 0.0
        T, p = self.T, self.density.param
        if self.density.tag == "constant":
            return T * (1.0 - math.exp(-p * sig))
        if self.density.tag == "power":
            if p == 1:
                return T * (1.0 - math.exp(-sig))
            base = T ** (1.0 - p) + sig * (p - 1.0) / p
            return T - base ** (-1.0 / (p - 1.0))
        # monotone bracket that avoids the overflowing tail of exp(1/(T-t))
        hi = T * 0.5
        while self.s(hi) < sig:
            hi = T - (T - hi) * 0.5
            if T - hi < T * 2e-9:
                break
        return brentq(lambda t: self.s(t) - sig, 0.0, hi, xtol=1e-15, rtol=1e-14)


def build(T: float, density: Density) -> TimeScale:
    """Construct the TimeScale for a horizon and catalog density."""
    return TimeScale(T, density)


def x_to_y(ts: TimeScale, w: WeightVector, eta: float, t: float, x) -> np.ndarray:
    """Warped state y = D^r_{eta*lambda(t)} x."""
    lam = ts.lam(t)
    return dilate(w, eta * lam, x)

