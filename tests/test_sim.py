import math

import numpy as np
import pytest
from scipy.linalg import expm

from ptstab.core import ChainSpec, pnf_weights
from ptstab.hong import HongSynthesisConfig, synthesize_hong_gains
from ptstab.pnf import certify_perturbation, synthesize_linear_gain
from ptstab.sim import (
    BProfile,
    DisturbanceSpec,
    SimOptions,
    constant_signal,
    custom_controller,
    fixed_time_controller,
    integrate,
    integrate_warped,
    isotonic_fit,
    iss_metrics,
    noise_signal,
    pnf_controller,
    sine_signal,
    VectorSignal,
)
from ptstab.switching import design_switch_params
from ptstab.timescale import build, constant_density, expflat_density, power_density


def _dist():
    return DisturbanceSpec()


def test_zero_dynamics():
    spec = ChainSpec(n=1, T=1.0)
    ctrl = custom_controller(lambda t, x: 0.0)
    traj = integrate(spec, ctrl, _dist(), [1.0], SimOptions(), horizon=5.0)
    assert traj.status == "horizon"
    assert np.max(np.abs(traj.x - 1.0)) < 1e-12


def test_n1_pnf_closed_form():
    # dx = -x/(1-t) has the solution x0*(1-t)
    spec = ChainSpec(n=1, T=1.0)
    gain = synthesize_linear_gain(1, 1.0)
    ts = build(1.0, constant_density(1.0))
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

    return custom_controller(u, name="linear")


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
    g = synthesize_hong_gains(2, HongSynthesisConfig(seed=0))
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
    ts = build(1.0, constant_density(1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    traj = integrate_warped(spec, gain, ts, eta, _dist(), [1.0, 1.0], s_max=8.0)
    lam0 = ts.lam(0.0)
    assert traj.diag["y1"][0] == pytest.approx(lam0**2 * 1.0)
    assert traj.diag["y2"][0] == pytest.approx(lam0 * 1.0)
    ynorm = np.hypot(traj.diag["y1"], traj.diag["y2"])
    assert ynorm[-1] < 1e-2 * ynorm[0]


def test_warped_power_density():
    # exercises the closed-form t_of_s of the power catalog inside the stepper
    from ptstab.timescale import power_density

    spec = ChainSpec(n=2, T=2.0)
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(2.0, power_density(2))
    eta = max(1.0, ts.a_sup() / gain.C0)
    traj = integrate_warped(spec, gain, ts, eta, _dist(), [0.5, -0.5], s_max=6.0)
    assert traj.status in ("horizon", "settled")
    assert np.all(np.diff(traj.t) > 0)
    assert traj.t[-1] == pytest.approx(ts.t_of_s(traj.diag["s"][-1]))
    assert np.linalg.norm(traj.x[-1]) < 1e-3 * np.linalg.norm(traj.x[0])


@pytest.mark.parametrize("density", [constant_density(1.0), power_density(2), expflat_density()])
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
    eta_r = eta ** np.array(pnf_weights(2).r)
    ys = np.column_stack([traj.diag["y1"], traj.diag["y2"]])
    assert len(traj.t) == len(traj.u) == len(ys) > 10
    for s, t, u, y in zip(traj.diag["s"], traj.t, traj.u, ys):
        assert t == ts.t_of_s(s)
        assert u == -float(np.dot(gain.K, eta_r * y))


def test_warped_vs_direct_consistency():
    spec = ChainSpec(n=2, T=1.0)
    gain = synthesize_linear_gain(2, 1.0)
    certify_perturbation(gain)
    ts = build(1.0, constant_density(1.0))
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
    ts = build(1.0, constant_density(1.0))
    ctrl = pnf_controller(gain, ts, 1.0)  # default stop fraction 1-1e-6
    traj = integrate(spec, ctrl, _dist(), [1.0], SimOptions(), horizon=10.0)
    assert traj.status == "horizon"
    assert traj.t[-1] == pytest.approx(1.0 - 1e-6, rel=1e-9)


def test_settles_and_reports_metrics():
    spec = ChainSpec(n=2, T=1.0)
    g = synthesize_hong_gains(2, HongSynthesisConfig(seed=0))
    sp = design_switch_params(g)
    ctrl = fixed_time_controller(g, sp)
    traj = integrate(spec, ctrl, _dist(), [3.0, 0.0], SimOptions(rel_tol=1e-8), horizon=400.0)
    assert traj.status == "settled"
    assert traj.settle_time is not None and traj.settle_time < 400.0
    m = iss_metrics(traj, g, sp)
    assert m["limsup_Z"] < 1e-12
    assert m["sup_norm"] >= 3.0
    assert {"V0", "Vkp", "Vkm", "kappa", "Z"} <= set(traj.diag.keys())


def test_step_failure_on_nonfinite_controller():
    spec = ChainSpec(n=1, T=1.0)
    ctrl = custom_controller(lambda t, x: math.nan)
    traj = integrate(spec, ctrl, _dist(), [1.0], SimOptions(), horizon=1.0)
    assert traj.status == "step_failure"


def test_signals_and_bounds():
    s = sine_signal(2.0, 0.5, 0.1)
    assert abs(s(0.3)) <= 2.0 and s.bound == 2.0
    nz = noise_signal(0.5, seed=3)
    vals = [nz(t) for t in np.linspace(0, 1, 1000)]
    assert max(abs(v) for v in vals) <= 0.5
    assert noise_signal(0.5, seed=3)(0.123) == nz(0.123)
    b = BProfile(1.0, 3.0, freq=0.25)
    assert all(1.0 <= b(t) <= 3.0 for t in np.linspace(0, 10, 100))
    v = VectorSignal([0.0, 1.0], constant_signal(0.7))
    assert np.allclose(v(1.0), [0.0, 0.7])
    assert v.bound == pytest.approx(0.7)


def test_isotonic_fit_pava():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 0.5, 0.3, 0.9]
    fit = isotonic_fit(xs, ys)
    assert np.all(np.diff(fit) >= -1e-12)
    assert fit[0] == pytest.approx(0.0)
    assert fit[1] == pytest.approx(0.4) and fit[2] == pytest.approx(0.4)
