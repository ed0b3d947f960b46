import math

import numpy as np
import pytest
from scipy.linalg import expm

from ptstab import sim
from ptstab.core import ChainSpec
from ptstab.hong import synthesize_hong_gains
from ptstab.pnf import certify_perturbation, synthesize_linear_gain
from ptstab.sim import (
    b_profile,
    Controller,
    DisturbanceSpec,
    SimOptions,
    constant_signal,
    fixed_time_controller,
    integrate,
    integrate_warped,
    isotonic_fit,
    iss_metrics,
    noise_signal,
    pnf_controller,
    robust_controller,
    sine_signal,
    vector_signal,
)
from ptstab.switching import design_switch_params
from ptstab.timescale import Density, build
from oracles import pnf_u


def _dist():
    return DisturbanceSpec()


def test_zero_dynamics():
    spec = ChainSpec(n=1, T=1.0)
    ctrl = Controller(u=lambda t, x: 0.0)
    traj = integrate(spec, ctrl, _dist(), [1.0], SimOptions(), horizon=5.0)
    assert traj.status == "horizon"
    assert np.max(np.abs(traj.x - 1.0)) < 1e-12


def test_n1_pnf_closed_form():
    # dx = -x/(1-t) has the solution x0*(1-t)
    spec = ChainSpec(n=1, T=1.0)
    gain = synthesize_linear_gain(1, 1.0)
    ts = build(1.0, Density("constant", 1.0))
    ctrl = pnf_controller(gain, ts, 1.0, t_stop_frac=0.99)
    pts = tuple(np.linspace(0.1, 0.98, 12))
    traj = integrate(spec, ctrl, _dist(), [3.0], SimOptions(t_eval=pts), horizon=2.0)
    assert traj.status == "horizon"
    for tq in pts:
        i = int(np.argmin(np.abs(traj.t - tq)))
        assert abs(traj.t[i] - tq) < 1e-12
        assert traj.x[i, 0] == pytest.approx(3.0 * (1.0 - tq), rel=1e-8, abs=1e-10)


def _linear_cascade_controller(ell):
    # kappa = 0 cascade is linear: u = -ell2*(x2 + ell1*x1)
    def u(t, x):
        return -ell[1] * (x[1] + ell[0] * x[0])

    return Controller(u=u)


def test_n2_matrix_exponential_oracle():
    spec = ChainSpec(n=2, T=1.0)
    ell = [1.0, 2.0]
    ctrl = _linear_cascade_controller(ell)
    A = np.array([[0.0, 1.0], [-ell[1] * ell[0], -ell[1]]])
    x0 = np.array([1.5, -0.5])
    pts = tuple(np.linspace(0.5, 6.0, 10))
    traj = integrate(spec, ctrl, _dist(), x0, SimOptions(t_eval=pts), horizon=6.0)
    for tq in pts:
        i = int(np.argmin(np.abs(traj.t - tq)))
        oracle = expm(A * tq) @ x0
        assert np.max(np.abs(traj.x[i] - oracle)) < 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_integrator_order_vs_oracle():
    # rel_tol 1e-6 -> 1e-9 should cut the oracle error by far more than 16x
    spec = ChainSpec(n=2, T=1.0)
    ell = [1.0, 2.0]
    ctrl = _linear_cascade_controller(ell)
    A = np.array([[0.0, 1.0], [-2.0, -2.0]])
    x0 = np.array([1.0, 1.0])
    errs = []
    for rtol in (1e-6, 1e-9):
        traj = integrate(
            spec, ctrl, _dist(), x0,
            SimOptions(rel_tol=rtol, abs_tol=rtol * 1e-3, t_eval=(4.0,)), horizon=4.0,
        )
        i = int(np.argmin(np.abs(traj.t - 4.0)))
        errs.append(np.max(np.abs(traj.x[i] - expm(A * 4.0) @ x0)))
    assert errs[1] * 16.0 <= errs[0] or errs[1] < 1e-13


def test_determinism_bitwise():
    spec = ChainSpec(n=2, T=1.0)
    g = synthesize_hong_gains(2, seed=0)
    sp = design_switch_params(g)
    ctrl = fixed_time_controller(g, sp)
    dist = DisturbanceSpec(d=noise_signal(0.1, seed=5, period=1e-2))
    a = integrate(spec, ctrl, dist, [2.0, -1.0], SimOptions(rel_tol=1e-7), horizon=5.0)
    b = integrate(spec, ctrl, dist, [2.0, -1.0], SimOptions(rel_tol=1e-7), horizon=5.0)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)


def test_warped_initial_state_and_decay():
    spec = ChainSpec(n=2, T=1.0)
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, Density("constant", 1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    traj = integrate_warped(spec, gain, ts, eta, _dist(), [1.0, 1.0], s_max=8.0)
    lam0 = ts.lam(0.0)
    assert traj.diag["y1"][0] == pytest.approx(lam0**2 * 1.0)
    assert traj.diag["y2"][0] == pytest.approx(lam0 * 1.0)
    ynorm = np.hypot(traj.diag["y1"], traj.diag["y2"])
    assert ynorm[-1] < 1e-2 * ynorm[0]


def test_warped_power_density():
    # exercises the closed-form t_of_s of the power catalog inside the stepper
    spec = ChainSpec(n=2, T=2.0)
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(2.0, Density("power", 2.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    traj = integrate_warped(spec, gain, ts, eta, _dist(), [0.5, -0.5], s_max=6.0)
    assert traj.status in ("horizon", "settled")
    assert np.all(np.diff(traj.t) > 0)
    assert traj.t[-1] == pytest.approx(ts.t_of_s(traj.diag["s"][-1]))
    assert np.linalg.norm(traj.x[-1]) < 1e-3 * np.linalg.norm(traj.x[0])


@pytest.mark.parametrize("density", [Density("constant", 1.0), Density("power", 2.0), Density("expflat")])
def test_warped_rows_record_t_and_u(density):
    # every row's t and u are those of the warped clock and feedback at its (s, y)
    spec = ChainSpec(n=2, T=1.0)
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, density)
    eta = max(1.0, ts.a_sup() / gain.C0)
    dist = DisturbanceSpec(d=sine_signal(0.5, 1.3))
    traj = integrate_warped(spec, gain, ts, eta, dist, [0.5, -0.5], s_max=4.0)
    assert traj.status in ("horizon", "settled")
    ys = np.column_stack([traj.diag["y1"], traj.diag["y2"]])
    assert len(traj.t) == len(traj.u) == len(ys) > 10
    for s, t, u, y in zip(traj.diag["s"], traj.t, traj.u, ys):
        assert t == ts.t_of_s(s)
        # the float formula bit for bit: numpy's eta**r and dot differ on some rows
        assert u.hex() == pnf_u(gain.K, eta, y).hex()


def test_warped_vs_direct_consistency():
    spec = ChainSpec(n=2, T=1.0)
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, Density("constant", 1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    t_pts = np.linspace(0.1, 0.99, 15)
    s_pts = tuple(ts.s(t) for t in t_pts)
    x0 = [1.0, -0.5]
    direct = integrate(
        spec, pnf_controller(gain, ts, eta, t_stop_frac=0.995), _dist(), x0,
        SimOptions(rel_tol=1e-10, abs_tol=1e-13, t_eval=tuple(t_pts)), horizon=1.0,
    )
    warped = integrate_warped(
        spec, gain, ts, eta, _dist(), x0,
        SimOptions(rel_tol=1e-10, abs_tol=1e-13, t_eval=s_pts), s_max=ts.s(0.99) + 1e-9,
    )
    for tq, sq in zip(t_pts, s_pts):
        i = int(np.argmin(np.abs(direct.t - tq)))
        j = int(np.argmin(np.abs(warped.diag["s"] - sq)))
        xd, xw = direct.x[i], warped.x[j]
        denom = max(np.linalg.norm(xd), 1e-12)
        assert np.linalg.norm(xd - xw) / denom < 1e-6


def test_pnf_halts_at_horizon_fraction():
    spec = ChainSpec(n=1, T=1.0)
    gain = synthesize_linear_gain(1, 1.0)
    ts = build(1.0, Density("constant", 1.0))
    ctrl = pnf_controller(gain, ts, 1.0)  # default stop fraction 1-1e-6
    traj = integrate(spec, ctrl, _dist(), [1.0], SimOptions(), horizon=10.0)
    assert traj.status == "horizon"
    assert traj.t[-1] == pytest.approx(1.0 - 1e-6, rel=1e-9)


def test_settles_and_reports_metrics():
    spec = ChainSpec(n=2, T=1.0)
    g = synthesize_hong_gains(2, seed=0)
    sp = design_switch_params(g)
    ctrl = fixed_time_controller(g, sp)
    traj = integrate(spec, ctrl, _dist(), [3.0, 0.0], SimOptions(rel_tol=1e-8), horizon=400.0)
    assert traj.status == "settled"
    assert traj.settle_time is not None and traj.settle_time < 400.0
    m = iss_metrics(traj)
    assert m["limsup_Z"] < 1e-12
    assert m["sup_norm"] >= 3.0
    assert {"V0", "Vkp", "Vkm", "kappa", "Z"} <= set(traj.diag.keys())


def test_pnf_metrics_come_from_the_rows():
    # a PNF run records no Z column: limsup_Z is nan, and the other metrics
    # are the trajectory's own
    spec = ChainSpec(n=2, T=1.0)
    gain = synthesize_linear_gain(2, 1.0)
    ts = build(1.0, Density("expflat"))
    ctrl = pnf_controller(gain, ts, max(1.0, ts.a_sup() / gain.C0))
    for horizon in (1.0, 0.5):  # settles at about 0.9, or stops before
        traj = integrate(spec, ctrl, DisturbanceSpec(d=sine_signal(1.0, 0.9, 0.3)), [2.0, -1.0], horizon=horizon)
        assert traj.diag == {} and (traj.settle_time is None) == (horizon == 0.5)
        m = iss_metrics(traj)
        assert math.isnan(m.pop("limsup_Z"))
        assert m == {"sup_norm": float(np.max(np.linalg.norm(traj.x, axis=1))), "settle_time": traj.settle_time}


def test_zero_tolerance_pair_is_refused():
    # both 0 would make every error norm inf and force each step through at 10*MIN_STEP
    for rel_tol, abs_tol in ((0.0, 0.0), (-1e-9, 1e-12), (1e-9, -1e-12), (math.nan, 1e-12)):
        with pytest.raises(ValueError, match="not both 0"):
            SimOptions(rel_tol=rel_tol, abs_tol=abs_tol)
    spec = ChainSpec(n=1, T=1.0)
    ctrl = Controller(u=lambda t, x: -x[0])
    for rel_tol, abs_tol in ((0.0, 1e-12), (1e-9, 0.0)):
        traj = integrate(spec, ctrl, _dist(), [1.0], SimOptions(rel_tol=rel_tol, abs_tol=abs_tol), horizon=1.0)
        assert traj.status == "horizon" and len(traj.t) < 1000


def test_zero_abs_tol_at_the_origin_does_not_stall():
    # with abs_tol = 0 the tolerance at the origin is 0; the error there is 0 too, which
    # used to read as NaN and reject every attempt until max_steps ran out
    ctrl = Controller(u=lambda t, x: -x[0] - x[1])
    traj = integrate(ChainSpec(2, 1.0), ctrl, _dist(), [0.0, 0.0], SimOptions(abs_tol=0.0, max_steps=2000), horizon=1.0)
    assert traj.status in ("settled", "horizon") and len(traj.t) < 300
    assert np.all(traj.x == 0.0)


def test_step_failure_on_nonfinite_controller():
    spec = ChainSpec(n=1, T=1.0)
    ctrl = Controller(u=lambda t, x: math.nan)
    traj = integrate(spec, ctrl, _dist(), [1.0], SimOptions(), horizon=1.0)
    assert traj.status == "step_failure"


def test_signals_and_bounds():
    s = sine_signal(2.0, 0.5, 0.1)
    assert abs(s(0.3)) <= 2.0
    nz = noise_signal(0.5, seed=3)
    vals = [nz(t) for t in np.linspace(0, 1, 1000)]
    assert max(abs(v) for v in vals) <= 0.5
    assert noise_signal(0.5, seed=3)(0.123) == nz(0.123)
    b = b_profile(1.0, 3.0, freq=0.25)
    assert all(1.0 <= b(t) <= 3.0 for t in np.linspace(0, 10, 100))
    v = vector_signal([0.0, 1.0], constant_signal(0.7))
    assert np.allclose(v(1.0), [0.0, 0.7])


def test_signal_values_equal_literal_formulas():
    # the precomputed 2*pi*freq, mid and half give the bits of the formulas written out
    ts = [0.0, 1e-9, 0.3, 1.0 / 3.0, 2.5, 17.125, 1e3 + 0.1] + np.linspace(0.0, 40.0, 997).tolist()
    amp, freq, phase = 1.3, 0.7, 0.2
    sine = sine_signal(amp, freq, phase)
    assert [sine(t) for t in ts] == [amp * math.sin(2.0 * math.pi * freq * t + phase) for t in ts]
    assert [constant_signal(-0.4)(t) for t in ts] == [-0.4] * len(ts)
    assert [sim.zero_signal()(t) for t in ts] == [0.0] * len(ts)
    table = np.random.default_rng(5).uniform(-0.5, 0.5, sim.NOISE_TABLE)
    noise = noise_signal(0.5, seed=5, period=1e-3)
    assert [noise(t) for t in ts] == [float(table[int(t / 1e-3) % sim.NOISE_TABLE]) for t in ts]
    assert [b_profile(1.5)(t) for t in ts] == [1.5] * len(ts)
    assert [b_profile(2.0, 2.0, freq=0.4)(t) for t in ts] == [2.0] * len(ts)
    lo, hi, bfreq, bphase = 1.0, 3.0, 0.4, 0.9
    b = b_profile(lo, hi, freq=bfreq, phase=bphase)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    assert [b(t) for t in ts] == [mid + half * math.sin(2.0 * math.pi * bfreq * t + bphase) for t in ts]


def test_signal_factories_return_python_floats():
    # integrate hands the channel values to the slope unconverted, so each must be a float already
    scalars = [
        sim.zero_signal(), constant_signal(1), sine_signal(1, 2, 1), noise_signal(1, seed=3, period=1e-2),
        b_profile(2), b_profile(1, 3, freq=1, phase=0), constant_signal(np.float64(0.5)),
    ]
    vectors = [vector_signal([0, 1], constant_signal(2)), vector_signal(np.array([1.0, 0.5]), sine_signal(1, 1))]
    for t in (0.0, 0.3, 2.5):
        assert all(type(sig(t)) is float for sig in scalars)
        assert all(type(v) is float for vec in vectors for v in vec(t))
        assert all(type(vec(t)) is list for vec in vectors)


def test_isotonic_fit_leaves_nan_in_place():
    # a sweep value whose runs have no statistic is nan, and only the others are fitted
    assert np.isnan(isotonic_fit([0.0, 1.0], [math.nan, math.nan])).all()
    fit = isotonic_fit([3.0, 0.0, 1.0, 2.0], [0.3, 0.0, 0.5, math.nan])
    assert fit[:3].tolist() == pytest.approx([0.4, 0.0, 0.4]) and math.isnan(fit[3])


def test_isotonic_fit_pava():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 0.5, 0.3, 0.9]
    fit = isotonic_fit(xs, ys)
    assert np.all(np.diff(fit) >= -1e-12)
    assert fit[0] == pytest.approx(0.0)
    assert fit[1] == pytest.approx(0.4) and fit[2] == pytest.approx(0.4)


# --- the numpy DP54 loop as the reference of the float-list loop -----------


def _numpy_adaptive_run(f, t0, x0, t_end, opts, h_cap=None, on_step=None):
    """The DP54 loop as it was written with numpy vector updates.

    It evaluates the RHS 7 times per attempted step (its last stage and k7 are
    the same point).  Stage sums, the error vector, np.maximum in the
    tolerance and the error-norm sum are the arithmetic sim._adaptive_run
    must reproduce bit for bit.  A zero error over a zero tolerance counts
    as 0, numpy's NaN aside, as in sim._err_norm.
    """
    t = float(t0)
    x = np.asarray(x0, dtype=float).copy()
    ts = [t]
    xs = [x.copy()]
    evals = sorted(v for v in opts.t_eval if t0 < v <= t_end)
    eval_i = 0

    k1 = f(t, x)
    if on_step is not None:
        on_step(t, x)
    if not np.isfinite(k1).all():
        return ts, xs, "step_failure", None
    scale = np.linalg.norm(x) + 1.0
    rate = np.linalg.norm(k1) + 1e-12
    h = min((t_end - t0) * 1e-3, 0.01 * scale / rate)
    h = max(h, sim.MIN_STEP * 10)

    settle_first = None
    streak = 0
    status = "horizon"
    ks = [None] * 7

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
        if h_try < sim.MIN_STEP:
            status = "step_failure"
            break

        ks[0] = k1
        bad = False
        for stage in range(1, 7):
            xa = x.copy()
            a_row = sim._DP_A[stage - 1]
            for idx, a in enumerate(a_row):
                if a != 0.0:
                    xa += h_try * a * ks[idx]
            ts_stage = t + (sim._DP_C[stage - 1] * h_try if stage < 6 else h_try)
            ks[stage] = f(ts_stage, xa)
            if not np.isfinite(ks[stage]).all():
                bad = True
                break
        if bad:
            h = h_try * 0.2
            if h < sim.MIN_STEP:
                status = "step_failure"
                break
            continue

        x_new = x.copy()
        for idx, b in enumerate(sim._DP_A[5]):
            if b != 0.0:
                x_new += h_try * b * ks[idx]
        k7 = f(t + h_try, x_new)
        err = np.zeros_like(x)
        for idx, e in enumerate(sim._DP_E):
            if e != 0.0:
                err += h_try * e * (ks[idx] if idx < 6 else k7)
        tol = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where((err == 0) & (tol == 0), 0.0, err / tol)
        err_norm = math.sqrt(float((ratio**2).sum()) / len(x))

        if err_norm <= 1.0 or h_try <= sim.MIN_STEP * 10:
            t += h_try
            x = x_new
            k1 = k7 if np.isfinite(k7).all() else f(t, x)
            ts.append(t)
            xs.append(x.copy())
            if on_step is not None:
                on_step(t, x)
            nx = math.sqrt(x.dot(x))
            if nx <= opts.settle_radius:
                if streak == 0:
                    settle_first = t
                streak += 1
                if streak >= sim.SETTLE_COUNT:
                    status = "settled"
                    break
            else:
                streak = 0
                settle_first = None
            if not np.isfinite(x).all():
                status = "step_failure"
                break
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h = h_try * min(5.0, max(0.2, factor))
    else:
        status = "step_failure"

    settle_time = settle_first if status == "settled" else None
    return ts, xs, status, settle_time


def _oracle_run(f, t0, x0, t_end, opts, on_row):
    # sim._adaptive_run hands f and on_row the state as a float list; the
    # bound on_row returns at a row caps every attempt from that row
    bound = [None]

    def on_step(t, x):
        bound[0] = on_row(t, x.tolist())

    return _numpy_adaptive_run(
        lambda t, x: np.asarray(f(t, x.tolist()), dtype=float), t0, x0, t_end, opts,
        h_cap=lambda t, x: bound[0], on_step=on_step,
    )


@pytest.fixture(scope="module")
def hong_design():
    g = synthesize_hong_gains(2, seed=0)
    return g, design_switch_params(g, m=0.5, b_upper=3.0)


def _robust_run(hong_design, d1):
    g, sp = hong_design
    spec = ChainSpec(n=2, T=1.0, b_lower=1.0, b_upper=3.0, d_bound=1.0)
    dist = DisturbanceSpec(d=sine_signal(1.0, 0.7, 0.2), d1=d1, b=b_profile(1.0, 3.0, freq=0.4))
    return integrate(
        spec, robust_controller(g, sp, spec, 5e-3), dist, np.array([4.0, -2.0]),
        SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=2.0,
    )


def _pnf3_run(t_eval=(0.25, 0.5)):
    gain = synthesize_linear_gain(3, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, Density("constant", 1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    return integrate(
        ChainSpec(n=3, T=1.0), pnf_controller(gain, ts, eta), DisturbanceSpec(d=sine_signal(0.5, 1.3)),
        [1.0, -0.5, 0.25], SimOptions(rel_tol=1e-8, t_eval=t_eval), horizon=1.0,
    )


def _warped_run(density):
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, density)
    eta = max(1.0, ts.a_sup() / gain.C0)
    return integrate_warped(
        ChainSpec(n=2, T=1.0), gain, ts, eta, DisturbanceSpec(d=sine_signal(0.5, 1.3)), [0.5, -0.5],
        SimOptions(rel_tol=1e-10, abs_tol=1e-13, t_eval=(0.5, 1.0, 2.5)), s_max=4.0,
    )


def _blowup_run():
    # the feedback turns infinite past t = 0.3: stages there are rejected until the step fails
    ctrl = Controller(u=lambda t, x: math.inf if t > 0.3 else -x[0] - x[1])
    return integrate(ChainSpec(n=2, T=1.0), ctrl, _dist(), [1.0, 0.0], SimOptions(), horizon=1.0)


def _chain9_run(max_steps):
    # (s+1)^9 feedback; 9 components take numpy's pairwise error-norm sum
    coef = [math.comb(9, i) for i in range(9)]
    ctrl = Controller(u=lambda t, x: -sum(c * v for c, v in zip(coef, x)))
    x0 = [1.0, 0.0, -0.5, 0.0, 0.25, 0.0, 0.0, 0.1, 0.0]
    opts = SimOptions(rel_tol=1e-7, abs_tol=1e-10, max_steps=max_steps)
    return integrate(ChainSpec(n=9, T=1.0), ctrl, _dist(), x0, opts, horizon=3.0)


ORACLE_CASES = {
    "matched_robust": lambda hd: _robust_run(hd, None),
    "matched_robust_d1": lambda hd: _robust_run(
        hd, vector_signal([1.0, 0.0], noise_signal(0.01, seed=3, period=1e-3))
    ),
    "fixed_time": lambda hd: integrate(
        ChainSpec(n=2, T=1.0), fixed_time_controller(*hd), DisturbanceSpec(d=sine_signal(0.3, 1.0)),
        [3.0, 1.0], SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=4.0,
    ),
    "pnf_n3": lambda hd: _pnf3_run(),
    "warped_constant": lambda hd: _warped_run(Density("constant", 1.0)),
    "warped_power": lambda hd: _warped_run(Density("power", 2.0)),
    "warped_expflat": lambda hd: _warped_run(Density("expflat")),
    "nonfinite_feedback": lambda hd: _blowup_run(),
    "chain9": lambda hd: _chain9_run(2_000_000),
    "chain9_max_steps": lambda hd: _chain9_run(40),
    # output times as an ndarray: the loop lands on float copies of its entries
    "pnf_n3_ndarray_t_eval": lambda hd: _pnf3_run(np.linspace(0.05, 0.95, 7)),
    # settle_time is the loop's own t at the first row of the settling streak
    "fixed_time_settles": lambda hd: integrate(
        ChainSpec(n=2, T=1.0), fixed_time_controller(*hd), _dist(), [3.0, 1.0],
        SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=400.0,
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_float_loop_matches_numpy_oracle(case, hong_design, monkeypatch):
    new = ORACLE_CASES[case](hong_design)
    monkeypatch.setattr(sim, "_adaptive_run", _oracle_run)
    old = ORACLE_CASES[case](hong_design)
    assert (new.status, new.settle_time, new.t[-1]) == (old.status, old.settle_time, old.t[-1])
    for name in ("t", "x", "u"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert new.diag.keys() == old.diag.keys()
    for key in new.diag:
        assert new.diag[key].tobytes() == old.diag[key].tobytes(), key
    assert len(new.t) > 10
    if case == "fixed_time_settles":
        assert new.status == "settled"


def test_err_norm_matches_numpy_expression():
    # random vectors with zeros, infinities and NaNs; a NaN in x is also in x_new, as in the loop;
    # a zero error over a zero tolerance counts as 0 where numpy gives NaN
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e300])
    for n in range(1, 13):
        for _ in range(100):
            x, y, e = (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n) for _ in range(3))
            for v in (x, y, e):
                hit = rng.random(n) < 0.15
                v[hit] = rng.choice(special, hit.sum())
            y[np.isnan(x)] = math.nan
            for abs_tol, rel_tol in ((1e-12, 1e-9), (0.0, 1e-7), (0.0, 0.0)):
                with np.errstate(all="ignore"):
                    tol = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(y))
                    ratio = np.where((e == 0) & (tol == 0), 0.0, e / tol)
                    want = math.sqrt(float((ratio**2).sum()) / n)
                got = sim._err_norm(x.tolist(), y.tolist(), e.tolist(), abs_tol, rel_tol)
                assert got == want or (math.isnan(got) and math.isnan(want)), (x, y, e)


def test_six_rhs_evaluations_per_attempted_step(monkeypatch):
    calls = {"u": 0, "attempts": 0}
    attempt = sim._dp_attempt

    def counting_attempt(*args):
        calls["attempts"] += 1
        return attempt(*args)

    def u(t, x):
        calls["u"] += 1
        return -x[0] - x[1] + 0.5 * math.copysign(1.0, math.sin(20.0 * t))

    monkeypatch.setattr(sim, "_dp_attempt", counting_attempt)
    traj = integrate(
        ChainSpec(n=2, T=1.0), Controller(u=u), _dist(), [1.0, 0.0], SimOptions(rel_tol=1e-8), horizon=3.0
    )
    assert traj.status == "horizon"
    assert calls["attempts"] > len(traj.t) - 1  # the switching term forces rejections
    assert calls["u"] == 1 + 6 * calls["attempts"]


def test_warped_rejects_unreachable_s_max():
    # constant density, T = 1: s(T*(1-1e-9)) = ln(1e9) = 20.72..., below s_max = 30
    calls = []
    dist = DisturbanceSpec(d=lambda t: calls.append(t) or 0.0)
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, Density("constant", 1.0))
    with pytest.raises(ValueError, match=r"largest admissible s_max is .* = 20\.72"):
        integrate_warped(ChainSpec(n=2, T=1.0), gain, ts, 12.0, dist, [1.0, 0.5], s_max=30.0)
    assert calls == []
    traj = integrate_warped(ChainSpec(n=2, T=1.0), gain, ts, 12.0, dist, [1.0, 0.5], s_max=20.7)
    assert traj.status in ("horizon", "settled") and calls


# --- the loop's scalar contract: Python floats, never numpy scalars ---------


def _float_checked_loop(seen, numpy_bounds):
    """sim._adaptive_run recording the type of every t and state component that f and on_row get.

    With numpy_bounds the loop is handed t0 and t_end as numpy scalars.
    """
    run = sim._adaptive_run

    def record(t, x):
        seen.add(type(t))
        seen.update(map(type, x))

    def checked(f, t0, x0, t_end, opts, on_row):
        def f_checked(t, x):
            record(t, x)
            return f(t, x)

        def on_row_checked(t, x):
            record(t, x)
            return on_row(t, x)

        if numpy_bounds:
            t0, t_end = np.float64(t0), np.float64(t_end)
        return run(f_checked, t0, x0, t_end, opts, on_row_checked)

    return checked


def _short_band_run(ctrl, dist=None):
    return integrate(
        ChainSpec(n=2, T=1.0), ctrl, dist or _dist(), [3.0, 1.0],
        SimOptions(rel_tol=1e-7, abs_tol=1e-10, t_eval=np.array([0.1, 0.2])), horizon=np.float64(0.3),
    )


def _short_robust_run(hong_design, d1=None, d2=None):
    g, sp = hong_design
    spec = ChainSpec(n=2, T=1.0, b_lower=1.0, b_upper=3.0, d_bound=1.0)
    dist = DisturbanceSpec(d=sine_signal(1.0, 0.7, 0.2), d1=d1, d2=d2, b=b_profile(1.0, 3.0, freq=0.4))
    return integrate(
        spec, robust_controller(g, sp, spec, 5e-3), dist, np.array([4.0, -2.0]),
        SimOptions(rel_tol=1e-7, abs_tol=1e-10, max_steps=300), horizon=15.0,
    )


def _short_warped_run(density):
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, density)
    eta = max(1.0, ts.a_sup() / gain.C0)
    return integrate_warped(
        ChainSpec(n=2, T=1.0), gain, ts, eta, DisturbanceSpec(d=sine_signal(0.5, 1.3)), [0.5, -0.5],
        SimOptions(rel_tol=1e-10, abs_tol=1e-13, t_eval=np.array([0.5, 1.0])), s_max=np.float64(2.0),
    )


FLOAT_CASES = {
    "pnf_n3": lambda hd: _pnf3_run(),
    "pnf_n3_ndarray_t_eval": lambda hd: _pnf3_run(np.linspace(0.05, 0.95, 7)),
    "fixed_time": lambda hd: _short_band_run(fixed_time_controller(*hd)),
    "prescribed_time": lambda hd: _short_band_run(
        sim.prescribed_time_controller(*hd, T_target=1.0), DisturbanceSpec(d=sine_signal(0.3, 1.0))
    ),
    "matched_robust": lambda hd: _short_robust_run(hd),
    "matched_robust_d1": lambda hd: _short_robust_run(
        hd, d1=vector_signal([1.0, 0.0], noise_signal(0.01, seed=3, period=1e-3))
    ),
    "matched_robust_d2": lambda hd: _short_robust_run(hd, d2=vector_signal([0.5, 1.0], sine_signal(0.2, 2.0))),
    # the t_stop cap of every row is formed from a float copy of t_stop
    "numpy_t_stop": lambda hd: integrate(
        ChainSpec(n=2, T=1.0), Controller(u=lambda t, x: -x[0] - 2.0 * x[1], t_stop=np.float64(0.9)),
        _dist(), [1.0, 0.0], SimOptions(), horizon=1.0,
    ),
    "warped_constant": lambda hd: _short_warped_run(Density("constant", 1.0)),
    "warped_power": lambda hd: _short_warped_run(Density("power", 2.0)),
    "warped_expflat": lambda hd: _short_warped_run(Density("expflat")),
}


@pytest.mark.parametrize("numpy_bounds", [False, True], ids=["float_bounds", "numpy_bounds"])
@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_loop_hands_f_and_on_row_python_floats(case, numpy_bounds, hong_design, monkeypatch):
    seen = set()
    monkeypatch.setattr(sim, "_adaptive_run", _float_checked_loop(seen, numpy_bounds))
    traj = FLOAT_CASES[case](hong_design)
    assert len(traj.t) > 10
    assert seen == {float}
