"""Trajectory integration for the perturbed chain under the toolkit's feedbacks.

A Dormand-Prince 5(4) stepper with per-step error control drives everything:
it records every accepted step (with controller diagnostics), caps the step
near switching surfaces and near the blow-up horizon, lands exactly on
requested output times, and declares settling only on a persistent ball.
Runs are bit-reproducible for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ChainSpec, dilate, pnf_weights
from .hong import HongGainSet
from .pnf import LinearGain, pnf_law
from .switching import (
    MatchedRobustLaw,
    SwitchParams,
    bind_diagnostics,
    fixed_time_law,
    v0_value,
    z_value,
)
from .timescale import HORIZON_GUARD, TimeScale

__all__ = [
    "Signal",
    "zero_signal",
    "constant_signal",
    "sine_signal",
    "noise_signal",
    "VectorSignal",
    "BProfile",
    "DisturbanceSpec",
    "Controller",
    "pnf_controller",
    "fixed_time_controller",
    "robust_controller",
    "prescribed_time_controller",
    "SimOptions",
    "Trajectory",
    "integrate",
    "integrate_warped",
    "iss_metrics",
    "isotonic_fit",
]

NOISE_TABLE = 131072
# a run settles after this many consecutive accepted steps inside settle_radius
SETTLE_COUNT = 100
# step cap while a controller's switching surface is within 0.05
SWITCH_CAP = 0.01
# smallest step the integrator attempts before declaring a step failure
MIN_STEP = 1e-15
# share of the trajectory's rows that iss_metrics takes the limsup of Z over
TAIL_FRAC = 0.25


class Signal:
    """Scalar signal from the closed catalog; value(t).

    The angular frequency 2*pi*freq is formed once: 2.0*math.pi*freq*t
    evaluates left to right, so w*t has the same bits.
    """

    def __init__(self, kind, amp=0.0, freq=1.0, phase=0.0, seed=0, period=1e-4):
        self.kind = kind
        self.amp = float(amp)
        self.freq = float(freq)
        self.phase = float(phase)
        self.seed = int(seed)
        self.period = float(period)
        self._w = 2.0 * math.pi * self.freq
        if kind == "noise":
            rng = np.random.default_rng(seed)
            self._table = rng.uniform(-self.amp, self.amp, NOISE_TABLE).tolist()

    def __call__(self, t: float) -> float:
        kind = self.kind
        if kind == "sine":
            return self.amp * math.sin(self._w * t + self.phase)
        if kind == "zero":
            return 0.0
        if kind == "constant":
            return self.amp
        return self._table[int(t / self.period) % NOISE_TABLE]


def zero_signal() -> Signal:
    return Signal("zero")


def constant_signal(c: float) -> Signal:
    return Signal("constant", amp=c)


def sine_signal(amp: float, freq: float, phase: float = 0.0) -> Signal:
    return Signal("sine", amp=amp, freq=freq, phase=phase)


def noise_signal(amp: float, seed: int, period: float = 1e-4) -> Signal:
    """Piecewise-constant seeded noise, resampled every `period` seconds."""
    return Signal("noise", amp=amp, seed=seed, period=period)


class VectorSignal:
    """direction * scalar signal; the n-vector disturbance channels."""

    def __init__(self, direction, signal: Signal):
        self.direction = np.asarray(direction, dtype=float)
        self.signal = signal

    def __call__(self, t: float) -> np.ndarray:
        return self.direction * self.signal(t)


class BProfile:
    """Control-gain profile with declared bounds [lo, hi].

    mid, half and 2*pi*freq are formed once, with the bits of the literal
    mid + half*math.sin(2.0*math.pi*freq*t + phase).
    """

    def __init__(self, lo: float, hi: float | None = None, freq: float = 0.0, phase: float = 0.0):
        hi = lo if hi is None else hi
        if not 0 < lo <= hi:
            raise ValueError("need 0 < lo <= hi")
        self.lo, self.hi, self.freq, self.phase = lo, hi, freq, phase
        self._varies = not (lo == hi or freq == 0.0)
        self._mid = 0.5 * (lo + hi)
        self._half = 0.5 * (hi - lo)
        self._w = 2.0 * math.pi * freq

    def __call__(self, t: float) -> float:
        if not self._varies:
            return self.lo
        return self._mid + self._half * math.sin(self._w * t + self.phase)


@dataclass
class DisturbanceSpec:
    d: Signal = field(default_factory=zero_signal)
    d1: VectorSignal | None = None
    d2: VectorSignal | None = None
    b: BProfile = field(default_factory=lambda: BProfile(1.0))


@dataclass
class Controller:
    u: object  # callable (t, x_measured) -> float
    t_stop: float | None = None
    surfaces: object | None = None  # callable x -> tuple of surface values
    diag: object | None = None  # callable x -> dict of named floats


def pnf_controller(gain: LinearGain, ts: TimeScale, eta: float, t_stop_frac: float = 1.0 - 1e-6):
    """The PNF law, stopped at T*t_stop_frac, inside the time scale's horizon guard."""
    if not 0.0 < t_stop_frac <= 1.0 - HORIZON_GUARD:
        raise ValueError(f"t_stop_frac must lie in (0, 1 - {HORIZON_GUARD:g}], got {t_stop_frac}")
    return Controller(u=pnf_law(gain, ts, eta), t_stop=ts.T * t_stop_frac)


def _band_controller(g: HongGainSet, sp: SwitchParams, b_lower: float, mu: float = 1.0):
    """The switching-degree law on y = D_mu x under the chain weights (y = x at mu = 1).

    u = omega_{kappa(y)}(y)/b_lower, the surfaces are V0(y) = 1 -+ m, and the
    diagnostics are taken at x itself.  The law, the dilation factors
    mu^{r_i} and the band edges are bound once.
    """
    law = fixed_time_law(g, sp, b_lower)
    scales = None if mu == 1.0 else dilate(pnf_weights(g.n), mu, np.ones(g.n)).tolist()
    P, lo, hi = sp.P, 1.0 - sp.m, 1.0 + sp.m

    def state(x):
        return x if scales is None else [xi * si for xi, si in zip(x, scales)]

    def u(t, x):
        return law(state(x))

    def surfaces(x):
        v = v0_value(P, state(x))
        return (v - lo, v - hi)

    return Controller(u=u, surfaces=surfaces, diag=bind_diagnostics(g, sp))


def fixed_time_controller(g: HongGainSet, sp: SwitchParams, b_lower: float = 1.0):
    return _band_controller(g, sp, b_lower)


def robust_controller(g: HongGainSet, sp: SwitchParams, spec: ChainSpec, reg_eps: float = 1e-3):
    """Matched-robust feedback; surface and diagnostics share its V_{-kappa0}."""
    law = MatchedRobustLaw(g, sp, spec, reg_eps)
    v_minus = law.v_minus
    diagnostics = bind_diagnostics(g, sp)

    def surfaces(x):
        return (v_minus(x) - 1.0,)

    def diag(x):
        return diagnostics(x, v_minus(x))

    return Controller(u=law.u, surfaces=surfaces, diag=diag)


def prescribed_time_controller(
    g: HongGainSet, sp: SwitchParams, T_target: float, b_lower: float = 1.0
):
    """The fixed-time law on D_mu x, mu = max(1, T_settle/T_target): x settles within T_target."""
    if not T_target > 0:
        raise ValueError(f"T_target must be positive, got {T_target}")
    return _band_controller(g, sp, b_lower, max(1.0, sp.T_settle / T_target))


@dataclass
class SimOptions:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    settle_radius: float = 1e-9
    max_steps: int = 2_000_000
    t_eval: tuple = ()


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    diag: dict
    status: str  # "horizon" | "settled" | "step_failure"
    settle_time: float | None = None
    fail_time: float | None = None

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.x, axis=1)))


# Dormand-Prince 5(4) tableau
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# the same entries by name; c6 = c7 = 1, and the zeros b2 and e2 enter no sum
_C2, _C3, _C4, _C5 = _DP_C[:4]
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_B1, _B2, _B3, _B4, _B5, _B6),
) = _DP_A
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_E


_isfinite = math.isfinite


def _all_finite(v) -> bool:
    for vi in v:
        if not _isfinite(vi):
            return False
    return True


def _dp_attempt(f, t, h, x, k1):
    """One DP54 attempt of size h from (t, x) with slope k1 = f(t, x).

    Returns (x_new, err, k7) with k7 = f(t + h, x_new), the next step's k1
    (first same as last), or None at the first non-finite slope.  Every state
    handed to f, x_new and err are float lists.  Each stage state is
    x_i + (h*a_1)*k1_i + (h*a_2)*k2_i + ..., summed left to right over the
    nonzero entries of its tableau row, and err is summed the same way from
    0.0: the order of elementwise numpy updates, so the bits equal theirs.
    """
    a1 = h * _A21
    k2 = f(t + _C2 * h, [xi + a1 * p for xi, p in zip(x, k1)])
    if not _all_finite(k2):
        return None
    a1, a2 = h * _A31, h * _A32
    k3 = f(t + _C3 * h, [xi + a1 * p + a2 * q for xi, p, q in zip(x, k1, k2)])
    if not _all_finite(k3):
        return None
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    k4 = f(t + _C4 * h, [xi + a1 * p + a2 * q + a3 * r for xi, p, q, r in zip(x, k1, k2, k3)])
    if not _all_finite(k4):
        return None
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = f(
        t + _C5 * h,
        [xi + a1 * p + a2 * q + a3 * r + a4 * s for xi, p, q, r, s in zip(x, k1, k2, k3, k4)],
    )
    if not _all_finite(k5):
        return None
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = f(
        t + h,
        [
            xi + a1 * p + a2 * q + a3 * r + a4 * s + a5 * v
            for xi, p, q, r, s, v in zip(x, k1, k2, k3, k4, k5)
        ],
    )
    if not _all_finite(k6):
        return None
    b1, b3, b4, b5, b6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    x_new = [
        xi + b1 * p + b3 * r + b4 * s + b5 * v + b6 * w
        for xi, p, r, s, v, w in zip(x, k1, k3, k4, k5, k6)
    ]
    k7 = f(t + h, x_new)
    if not _all_finite(k7):
        return None
    e1, e3, e4, e5, e6, e7 = h * _E1, h * _E3, h * _E4, h * _E5, h * _E6, h * _E7
    err = [
        0.0 + e1 * p + e3 * r + e4 * s + e5 * v + e6 * w + e7 * z
        for p, r, s, v, w, z in zip(k1, k3, k4, k5, k6, k7)
    ]
    return x_new, err, k7


def _err_norm(x, x_new, err, abs_tol, rel_tol) -> float:
    """RMS of err / (abs_tol + rel_tol * max(|x|, |x_new|)) over the components.

    Bit-equal to the numpy expression sqrt(((err / tol) ** 2).sum() / n) with
    tol built by np.maximum: a NaN in x_i is also in x_new_i, and the
    comparison below then picks it, as np.maximum does; a zero tol gives the
    inf or NaN of numpy's division; and numpy's add.reduce sums fewer than 8
    terms in index order, so only longer vectors go back to it.
    """
    sq = []
    for xi, yi, e in zip(x, x_new, err):
        ax, ay = abs(xi), abs(yi)
        tol = abs_tol + rel_tol * (ax if ax >= ay else ay)
        q = e / tol if tol else e * math.inf
        sq.append(q * q)
    if len(sq) < 8:
        total = 0.0
        for v in sq:
            total += v
    else:
        total = float(np.add.reduce(sq))
    return math.sqrt(total / len(sq))


def _within(x, radius) -> bool:
    """math.sqrt(x.dot(x)) <= radius for the float list x, with numpy's dot.

    Rounding is monotone, so that norm is at least every |x_i| whose square
    is a normal double; a component above a radius of at least 1e-150 thus
    decides the comparison without forming the norm.
    """
    if radius >= 1e-150 and max(map(abs, x)) > radius:
        return False
    xa = np.array(x)
    return math.sqrt(xa.dot(xa)) <= radius


def _adaptive_run(f, t0, x0, t_end, opts: SimOptions, h_cap=None, on_step=None):
    """Generic DP54 loop.  Returns (ts, xs, status, settle_time, fail_time).

    f(t, x) takes the state as a list of floats and returns the slope as a
    sequence of floats; an attempted step evaluates it 6 times (first same
    as last), plus once at the start.  h_cap(t, x) bounds the next step.
    on_step(t, x) is called for every recorded row, the initial one
    included, right after the RHS evaluation at that row's (t, x), so
    on_step can read that evaluation's by-products as the row's values.
    States are float lists that no callee may mutate: an accepted row's
    list is the one its last RHS evaluation received, on_step and h_cap
    receive it too, and xs holds it.
    """
    t = float(t0)
    x0 = np.asarray(x0, dtype=float)
    x = x0.tolist()
    ts = [t]
    xs = [x]
    evals = sorted(v for v in opts.t_eval if t0 < v <= t_end)
    eval_i = 0

    k1 = f(t, x)
    if on_step is not None:
        on_step(t, x)
    if not _all_finite(k1):
        return ts, xs, "step_failure", None, t
    scale = np.linalg.norm(x0) + 1.0
    rate = np.linalg.norm(k1) + 1e-12
    h = min((t_end - t0) * 1e-3, 0.01 * scale / rate)
    h = max(h, MIN_STEP * 10)

    settle_first = None
    streak = 0
    status = "horizon"
    fail_time = None

    for _ in range(opts.max_steps):
        if t >= t_end - 1e-14 * max(1.0, abs(t_end)):
            break
        hmax = t_end - t
        if h_cap is not None:
            hmax = min(hmax, h_cap(t, x))
        while eval_i < len(evals) and evals[eval_i] <= t + 1e-14 * max(1.0, abs(t)):
            eval_i += 1
        if eval_i < len(evals):
            hmax = min(hmax, evals[eval_i] - t)
        h_try = min(h, hmax)
        if h_try < MIN_STEP:
            status = "step_failure"
            fail_time = t
            break

        step = _dp_attempt(f, t, h_try, x, k1)
        if step is None:
            h = h_try * 0.2
            if h < MIN_STEP:
                status = "step_failure"
                fail_time = t
                break
            continue
        x_new, err, k7 = step
        err_norm = _err_norm(x, x_new, err, opts.abs_tol, opts.rel_tol)

        if err_norm <= 1.0 or h_try <= MIN_STEP * 10:
            t += h_try
            x, k1 = x_new, k7
            ts.append(t)
            xs.append(x)
            if on_step is not None:
                on_step(t, x)
            if _within(x, opts.settle_radius):
                if streak == 0:
                    settle_first = t
                streak += 1
                if streak >= SETTLE_COUNT:
                    status = "settled"
                    break
            else:
                streak = 0
                settle_first = None
            if not _all_finite(x):
                status = "step_failure"
                fail_time = t
                break
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h = h_try * min(5.0, max(0.2, factor))
    else:
        status = "step_failure"
        fail_time = t

    settle_time = settle_first if status == "settled" else None
    return ts, xs, status, settle_time, fail_time


def integrate(
    spec: ChainSpec,
    ctrl: Controller,
    dist: DisturbanceSpec,
    x0,
    opts: SimOptions | None = None,
    horizon: float = 100.0,
) -> Trajectory:
    """Integrate dx = J x + (d + b*u) e_n + d2 with u = ctrl.u(t, x + d1).

    Stops at min(horizon, ctrl.t_stop), on persistent settling, or on step
    failure.  Each accepted row records the u of the RHS evaluation at that
    row's (t, x) and the diagnostics of ctrl.diag at x, both taken in the
    loop rather than recomputed afterwards.  The state reaches ctrl.u,
    ctrl.surfaces and ctrl.diag as a list of floats, never mutated, and the
    measured state x + d1 is a fresh list.
    """
    opts = opts or SimOptions()
    n = spec.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    t_end = min(horizon, ctrl.t_stop) if ctrl.t_stop is not None else horizon

    d, d1, d2, b = dist.d, dist.d1, dist.d2, dist.b
    u_of, t_stop, surfaces, diag = ctrl.u, ctrl.t_stop, ctrl.surfaces, ctrl.diag
    last_u = [0.0]  # u of the latest RHS evaluation

    def f(t, x):
        xm = [p + q for p, q in zip(x, d1(t).tolist())] if d1 is not None else x
        u = last_u[0] = u_of(t, xm)
        dx = x[1:]
        dx.append(float(d(t) + b(t) * u))
        if d2 is not None:
            dx = [p + q for p, q in zip(dx, d2(t).tolist())]
        return dx

    def h_cap(t, x):
        cap = math.inf
        if t_stop is not None:
            cap = min(cap, max(0.05 * (t_stop - t), 1e-12))
        if surfaces is not None:
            xm = [p + q for p, q in zip(x, d1(t).tolist())] if d1 is not None else x
            if min(map(abs, surfaces(xm))) < 0.05:
                cap = min(cap, SWITCH_CAP)
        return cap

    us = []
    cols = {}

    def on_step(t, x):
        us.append(last_u[0])
        if diag is not None:
            for k, v in diag(x).items():
                cols.setdefault(k, []).append(v)

    ts, xs, status, settle_time, fail_time = _adaptive_run(
        f, 0.0, x0, t_end, opts, h_cap=h_cap, on_step=on_step
    )
    return Trajectory(
        t=np.array(ts), x=np.array(xs), u=np.array(us),
        diag={k: np.array(v, dtype=float) for k, v in cols.items()}, status=status,
        settle_time=settle_time, fail_time=fail_time,
    )


def integrate_warped(
    spec: ChainSpec,
    gain: LinearGain,
    ts: TimeScale,
    eta: float,
    dist: DisturbanceSpec,
    x0,
    opts: SimOptions | None = None,
    *,
    s_max: float,
) -> Trajectory:
    """Integrate the warped dynamics y' = (a D_r + J) y + (b u + d) e_n.

    u = -K' D_eta y; time is the warped clock s, y(0) = D_{lambda(0)} x0,
    and opts.t_eval holds warped times.  Each row records the t = t_of_s(s)
    and the u of the RHS evaluation at that row, as integrate does; the
    Trajectory is mapped back to x(t), and the warped samples are kept in
    diag["s"] and diag["y<i>"].  Only matched disturbances are meaningful
    here (d1/d2 are rejected).  s_max must map inside the time scale's
    horizon guard, t_of_s(s_max) <= T*(1 - HORIZON_GUARD).
    """
    if dist.d1 is not None or dist.d2 is not None:
        raise ValueError("warped integration supports matched disturbances only")
    t_guard = ts.T * (1.0 - HORIZON_GUARD)
    if ts.t_of_s(s_max) > t_guard:
        raise ValueError(
            f"s_max={s_max} maps past the horizon guard T*(1-{HORIZON_GUARD:g}) with T={ts.T}; "
            f"the largest admissible s_max is s(T*(1-{HORIZON_GUARD:g})) = {ts.s(t_guard)!r}"
        )
    opts = opts or SimOptions(rel_tol=1e-10, abs_tol=1e-13)
    n = spec.n
    w = pnf_weights(n)
    y0 = dilate(w, ts.lam(0.0), np.asarray(x0, dtype=float))
    r = np.array(w.r)
    eta_pow = eta**r
    K = np.asarray(gain.K, dtype=float)
    d, b = dist.d, dist.b
    last = [0.0, 0.0]  # (t, u) of the latest RHS evaluation

    def f(s, y):
        t = last[0] = ts.t_of_s(s)
        u = last[1] = -float(K.dot(eta_pow * y))
        dy = y[1:]
        dy.append(b(t) * u + d(t))
        a = ts.a(t)
        return [p + a * ri * yi for p, ri, yi in zip(dy, w.r, y)]

    t_rows = []
    u_rows = []

    def on_step(s, y):
        t_rows.append(last[0])
        u_rows.append(last[1])

    ss, ys, status, settle_s, fail_s = _adaptive_run(f, 0.0, y0, s_max, opts, on_step=on_step)

    s_arr = np.array(ss)
    y_arr = np.array(ys)
    t_arr = np.array(t_rows)
    lam_arr = np.array([ts.lam(t) for t in t_arr])
    diag = {"s": s_arr}
    for i in range(n):
        diag[f"y{i + 1}"] = y_arr[:, i]
    settle_time = float(ts.t_of_s(settle_s)) if settle_s is not None else None
    return Trajectory(
        t=t_arr, x=y_arr / lam_arr[:, None] ** r, u=np.array(u_rows), diag=diag, status=status,
        settle_time=settle_time, fail_time=fail_s,
    )


def iss_metrics(
    traj: Trajectory,
    g: HongGainSet,
    sp: SwitchParams,
    alt_exponent: bool = False,
) -> dict:
    """{limsup_Z, sup_norm, settle_time} with Z evaluated on the last TAIL_FRAC of the rows.

    Z is read from traj.diag["Z"] when the controller recorded it (the
    switching controllers do, with their own g and sp); alt_exponent
    recomputes it.
    """
    n_tail = max(1, int(math.ceil(TAIL_FRAC * len(traj.t))))
    if not alt_exponent and "Z" in traj.diag:
        limsup = max(traj.diag["Z"][-n_tail:].tolist())
    else:
        limsup = max(z_value(g, sp, x, alt_exponent=alt_exponent) for x in traj.x[-n_tail:])
    return {
        "limsup_Z": float(limsup),
        "sup_norm": traj.sup_norm,
        "settle_time": traj.settle_time,
    }


def isotonic_fit(xs, ys):
    """Nondecreasing least-squares fit by pool-adjacent-violators."""
    order = np.argsort(np.asarray(xs, dtype=float))
    y = list(np.asarray(ys, dtype=float)[order])
    level = []
    weight = []
    members = []
    for v in y:
        level.append(v)
        weight.append(1.0)
        members.append(1)
        while len(level) > 1 and level[-2] > level[-1]:
            wv = weight[-2] + weight[-1]
            lv = (level[-2] * weight[-2] + level[-1] * weight[-1]) / wv
            level[-2:] = [lv]
            weight[-2:] = [wv]
            members[-2:] = [members[-2] + members[-1]]
    fit_sorted = np.repeat(level, members)
    out = np.empty(len(y))
    out[order] = fit_sorted
    return out
