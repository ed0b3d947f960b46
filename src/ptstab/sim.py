"""Trajectory integration for the perturbed chain under the toolkit's feedbacks.

A Dormand-Prince 5(4) stepper with per-step error control drives everything:
it records every accepted step, caps the step near switching surfaces and
near the blow-up horizon, lands exactly on requested output times, and
declares settling only on a persistent ball.  The controller diagnostics
are taken after the run, in one pass over all rows.
Runs are bit-reproducible for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ChainSpec, dilate, pnf_weights
from .hong import HongGainSet
from .pnf import LinearGain, _feedback, pnf_law
from .switching import (
    MatchedRobustLaw,
    SwitchParams,
    bind_diagnostics,
    fixed_time_law,
    v0_law,
)
from .timescale import HORIZON_GUARD, TimeScale

__all__ = [
    "zero_signal",
    "constant_signal",
    "sine_signal",
    "noise_signal",
    "vector_signal",
    "b_profile",
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


def zero_signal():
    return lambda t: 0.0


def constant_signal(c: float):
    c = float(c)
    return lambda t: c


def sine_signal(amp: float, freq: float, phase: float = 0.0):
    """t -> amp*sin(2*pi*freq*t + phase).

    The angular frequency 2*pi*freq is formed once: 2.0*math.pi*freq*t
    evaluates left to right, so w*t has the same bits.
    """
    amp, phase = float(amp), float(phase)
    w = 2.0 * math.pi * float(freq)
    sin = math.sin
    return lambda t: amp * sin(w * t + phase)


def noise_signal(amp: float, seed: int, period: float = 1e-4):
    """Piecewise-constant seeded noise, resampled every `period` seconds."""
    table = np.random.default_rng(int(seed)).uniform(-float(amp), float(amp), NOISE_TABLE).tolist()
    period = float(period)
    return lambda t: table[int(t / period) % NOISE_TABLE]


def vector_signal(direction, signal):
    """t -> direction * signal(t) as a float list; the n-vector disturbance channels."""
    direction = np.asarray(direction, dtype=float).tolist()

    def value(t):
        v = signal(t)
        return [di * v for di in direction]

    return value


def b_profile(lo: float, hi: float | None = None, freq: float = 0.0, phase: float = 0.0):
    """Control-gain profile with declared bounds [lo, hi].

    A varying profile forms mid, half and 2*pi*freq once, with the bits of
    the literal mid + half*math.sin(2.0*math.pi*freq*t + phase); a constant
    one (lo == hi or freq == 0) is constant_signal(lo).
    """
    lo = float(lo)
    hi = lo if hi is None else float(hi)
    if not 0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    if lo == hi or freq == 0.0:
        return constant_signal(lo)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    w, phase = 2.0 * math.pi * float(freq), float(phase)
    sin = math.sin
    return lambda t: mid + half * sin(w * t + phase)


@dataclass
class DisturbanceSpec:
    d: object = field(default_factory=zero_signal)  # callable t -> float
    d1: object | None = None  # callable t -> list of n floats
    d2: object | None = None  # callable t -> list of n floats
    b: object = field(default_factory=lambda: constant_signal(1.0))  # callable t -> float


@dataclass
class Controller:
    u: object  # callable (t, x_measured) -> float
    t_stop: float | None = None
    surfaces: object | None = None  # callable x -> tuple of surface values
    diag: object | None = None  # callable X -> dict of named columns over the rows of X


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
    v0, lo, hi = v0_law(g), 1.0 - sp.m, 1.0 + sp.m

    def state(x):
        return x if scales is None else [xi * si for xi, si in zip(x, scales)]

    def u(t, x):
        return law(state(x))

    def surfaces(x):
        v = v0(state(x))
        return (v - lo, v - hi)

    return Controller(u=u, surfaces=surfaces, diag=bind_diagnostics(g, sp))


def fixed_time_controller(g: HongGainSet, sp: SwitchParams, b_lower: float = 1.0):
    return _band_controller(g, sp, b_lower)


def robust_controller(g: HongGainSet, sp: SwitchParams, spec: ChainSpec, reg_eps: float = 1e-3):
    """Matched-robust feedback with its surface V_{-kappa0} = 1."""
    law = MatchedRobustLaw(g, sp, spec, reg_eps)
    v_minus = law.v_minus

    def surfaces(x):
        return (v_minus(x) - 1.0,)

    return Controller(u=law.u, surfaces=surfaces, diag=bind_diagnostics(g, sp))


def prescribed_time_controller(
    g: HongGainSet, sp: SwitchParams, T_target: float, b_lower: float = 1.0
):
    """The fixed-time law on D_mu x, mu = max(1, T_settle/T_target): x settles within T_target."""
    if not T_target > 0:
        raise ValueError(f"T_target must be positive, got {T_target}")
    return _band_controller(g, sp, b_lower, max(1.0, sp.T_settle / T_target))


@dataclass
class SimOptions:
    """Integrator settings; t_eval holds the output times the steps land on.

    The tolerances must be nonnegative and not both 0: with both 0 every
    error norm is inf and each step is forced through at 10*MIN_STEP.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    settle_radius: float = 1e-9
    max_steps: int = 2_000_000
    t_eval: tuple = ()

    def __post_init__(self):
        if not (self.rel_tol >= 0 and self.abs_tol >= 0 and (self.rel_tol > 0 or self.abs_tol > 0)):
            raise ValueError(
                f"need rel_tol >= 0 and abs_tol >= 0, not both 0, got ({self.rel_tol}, {self.abs_tol})"
            )


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    diag: dict
    status: str  # "horizon" | "settled" | "step_failure"
    settle_time: float | None = None
    fail_time: float | None = None


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
# the same entries by name; c6 = c7 = 1, and the zeros b2 and e2 enter no sum (bound to _)
_C2, _C3, _C4, _C5 = _DP_C[:4]
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_B1, _, _B3, _B4, _B5, _B6),
) = _DP_A
_E1, _, _E3, _E4, _E5, _E6, _E7 = _DP_E


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
    tol built by np.maximum, except that a zero error over a zero tol counts
    as 0, not numpy's NaN: with abs_tol = 0, a component at exactly 0 has
    nothing to resolve, and NaN would reject every step there.  A NaN in x_i
    is also in x_new_i, and the comparison below then picks it, as
    np.maximum does; any other error over a zero tol gives numpy's inf or
    NaN; and numpy's add.reduce sums fewer than 8 terms in index order, so
    only longer vectors go back to it.
    """
    sq = []
    for xi, yi, e in zip(x, x_new, err):
        ax, ay = abs(xi), abs(yi)
        tol = abs_tol + rel_tol * (ax if ax >= ay else ay)
        q = e / tol if tol else (e * math.inf if e else 0.0)
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


def _adaptive_run(f, t0, x0, t_end, opts: SimOptions, on_row):
    """Generic DP54 loop.  Returns (ts, xs, status, settle_time, fail_time).

    f(t, x) takes the state as a list of floats and returns the slope as a
    sequence of floats; an attempted step evaluates it 6 times (first same
    as last), plus once at the start.  on_row(t, x) runs for every recorded
    row, the initial one included, right after the RHS evaluation at that
    row's (t, x), whose by-products it may read, and returns the largest
    step allowed from the row.  A rejected attempt retries from the same
    (t, x), so all attempts from a row share that bound and the row's
    horizon and t_eval limits.  States are float lists that no callee may
    mutate: an accepted row's list is the one its last RHS evaluation
    received, on_row receives it too, and xs holds it.

    Every t and state component handed to f and on_row is a Python float:
    t0, t_end, the t_eval entries and the first step are made floats here,
    once, so no numpy scalar enters the stage arithmetic.  f must return
    float slopes and on_row a float (or inf) bound to keep it so.
    """
    t0, t_end = float(t0), float(t_end)
    t = t0
    x0 = np.asarray(x0, dtype=float)
    x = x0.tolist()
    ts = [t]
    xs = [x]
    evals = sorted(v for v in map(float, opts.t_eval) if t0 < v <= t_end)
    eval_i = 0

    k1 = f(t, x)
    cap = on_row(t, x)
    if not _all_finite(k1):
        return ts, xs, "step_failure", None, t
    scale = float(np.linalg.norm(x0)) + 1.0
    rate = float(np.linalg.norm(k1)) + 1e-12
    h = min((t_end - t0) * 1e-3, 0.01 * scale / rate)
    h = max(h, MIN_STEP * 10)

    settle_first = None
    streak = 0
    status = "horizon"
    fail_time = None
    hmax = None  # the bound of the current row, formed at its first attempt

    for _ in range(opts.max_steps):
        if hmax is None:
            if t >= t_end - 1e-14 * max(1.0, abs(t_end)):
                break
            hmax = min(t_end - t, cap)
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
            cap = on_row(t, x)
            hmax = None
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
    failure.  Each row records the u of the RHS evaluation at its (t, x),
    and caps the steps from it near ctrl.t_stop and, by SWITCH_CAP, near a
    surface of ctrl.surfaces at the measured state x + d1 that evaluation
    built: ctrl.surfaces runs once per row.  The state reaches ctrl.u and
    ctrl.surfaces as a list of floats, never mutated, and the measured state
    is a fresh list.  ctrl.diag runs once, after the run, on the stacked
    rows x; nothing it returns feeds back.  The
    channels of dist must return Python floats, as the signal factories
    do: d(t) and b(t) a float, d1(t) and d2(t) a float list of length n.
    Their values enter the slope as they are, unconverted.
    """
    opts = opts or SimOptions()
    n = spec.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    t_stop = None if ctrl.t_stop is None else float(ctrl.t_stop)  # so the row caps are floats
    t_end = horizon if t_stop is None else min(horizon, t_stop)

    d, d1, d2, b = dist.d, dist.d1, dist.d2, dist.b
    u_of, surfaces = ctrl.u, ctrl.surfaces
    last = [None, 0.0]  # measured state and u of the latest RHS evaluation

    def f(t, x):
        xm = last[0] = [p + q for p, q in zip(x, d1(t))] if d1 is not None else x
        u = last[1] = u_of(t, xm)
        dx = x[1:]
        dx.append(d(t) + b(t) * u)
        if d2 is not None:
            dx = [p + q for p, q in zip(dx, d2(t))]
        return dx

    us = []

    def on_row(t, x):
        xm, u = last
        us.append(u)
        cap = math.inf if t_stop is None else max(0.05 * (t_stop - t), 1e-12)
        if surfaces is not None and min(map(abs, surfaces(xm))) < 0.05:
            cap = min(cap, SWITCH_CAP)
        return cap

    ts, xs, status, settle_time, fail_time = _adaptive_run(f, 0.0, x0, t_end, opts, on_row)
    X = np.array(xs)
    return Trajectory(
        t=np.array(ts), x=X, u=np.array(us), diag={} if ctrl.diag is None else ctrl.diag(X),
        status=status, settle_time=settle_time, fail_time=fail_time,
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
    y0 = dilate(w, ts.lam(0.0), x0)
    K, eta = np.asarray(gain.K, dtype=float).tolist(), float(eta)
    d, b = dist.d, dist.b
    last = [0.0, 0.0]  # (t, u) of the latest RHS evaluation

    def f(s, y):
        t = last[0] = ts.t_of_s(s)
        u = last[1] = _feedback(K, w, eta, y)
        dy = y[1:]
        dy.append(b(t) * u + d(t))
        a = ts.a(t)
        return [p + a * ri * yi for p, ri, yi in zip(dy, w, y)]

    t_rows = []
    u_rows = []

    def on_row(s, y):
        t_rows.append(last[0])
        u_rows.append(last[1])
        return math.inf

    ss, ys, status, settle_s, fail_s = _adaptive_run(f, 0.0, y0, s_max, opts, on_row)

    s_arr = np.array(ss)
    y_arr = np.array(ys)
    t_arr = np.array(t_rows)
    lam_arr = np.array([ts.lam(t) for t in t_arr])
    diag = {"s": s_arr}
    for i in range(n):
        diag[f"y{i + 1}"] = y_arr[:, i]
    settle_time = float(ts.t_of_s(settle_s)) if settle_s is not None else None
    return Trajectory(
        t=t_arr, x=y_arr / lam_arr[:, None] ** np.array(w), u=np.array(u_rows), diag=diag, status=status,
        settle_time=settle_time, fail_time=fail_s,
    )


def iss_metrics(traj: Trajectory) -> dict:
    """{limsup_Z, sup_norm, settle_time} of a run, from its recorded rows.

    limsup_Z is the largest recorded Z over the last TAIL_FRAC of the rows,
    and nan when the controller records no Z (the PNF law).
    """
    limsup = math.nan
    if "Z" in traj.diag:
        n_tail = max(1, int(math.ceil(TAIL_FRAC * len(traj.t))))
        limsup = max(traj.diag["Z"][-n_tail:].tolist())
    return {
        "limsup_Z": float(limsup),
        "sup_norm": float(np.max(np.linalg.norm(traj.x, axis=1))),
        "settle_time": traj.settle_time,
    }


def isotonic_fit(xs, ys):
    """Nondecreasing least-squares fit by pool-adjacent-violators.

    Only the finite ys are fitted; a nan (or an inf) is left in place.
    """
    out = np.array(ys, dtype=float)
    keep = np.flatnonzero(np.isfinite(out))
    order = keep[np.argsort(np.asarray(xs, dtype=float)[keep])]
    level = []
    weight = []
    members = []
    for v in out[order]:
        level.append(v)
        weight.append(1.0)
        members.append(1)
        while len(level) > 1 and level[-2] > level[-1]:
            wv = weight[-2] + weight[-1]
            lv = (level[-2] * weight[-2] + level[-1] * weight[-1]) / wv
            level[-2:] = [lv]
            weight[-2:] = [wv]
            members[-2:] = [members[-2] + members[-1]]
    out[order] = np.repeat(level, members)
    return out
