"""Acceptance battery: one test per criterion, one PASS line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the line-per-criterion
output.  Every tolerance is fixed here; nothing is calibrated at run time.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from ptstab.cli import main as cli_main
from ptstab.core import ChainSpec, dilate, hong_weights, jordan_block, pnf_weights
from ptstab.hong import (
    decay_residual,
    hong_control,
    hong_lyapunov,
    hong_value,
    synthesize_hong_gains,
    verify_decay,
)
from ptstab.pnf import (
    certify_perturbation,
    convergence_envelope,
    noise_envelope,
    synthesize_linear_gain,
)
from ptstab.sim import (
    b_profile,
    Controller,
    DisturbanceSpec,
    SimOptions,
    vector_signal,
    constant_signal,
    fixed_time_controller,
    integrate,
    integrate_warped,
    isotonic_fit,
    iss_metrics,
    pnf_controller,
    prescribed_time_controller,
    robust_controller,
    sine_signal,
)
from ptstab.switching import design_switch_params
from ptstab.timescale import Density, build
from oracles import dilation_matrix, verify_lmi

SEED = 0


@pytest.fixture(scope="module")
def hong2():
    return synthesize_hong_gains(2, seed=SEED)


@pytest.fixture(scope="module")
def hong3():
    return synthesize_hong_gains(3, seed=SEED)


@pytest.fixture(scope="module")
def switch2(hong2):
    return design_switch_params(hong2, m=0.5)


@pytest.fixture(scope="module")
def pnf_certified():
    out = {}
    for n in (2, 3):
        g = synthesize_linear_gain(n, 1.0)
        certify_perturbation(g)
        out[n] = g
    return out


def _ok(num, msg):
    print(f"\n[acceptance] criterion {num:02d} PASS - {msg}")


# 1 ---------------------------------------------------------------------------


def test_criterion_01_lmi_certificate_suite():
    for n in range(1, 13):
        for b_lower in (0.25, 1.0, 4.0):
            g = synthesize_linear_gain(n, b_lower)
            ok, endpoint, slope = verify_lmi(g)
            assert ok, (n, b_lower, endpoint, slope)
            assert endpoint <= 1e-9
            assert slope >= -1e-9
            if b_lower == 0.25:
                ref = g
            # the search does not depend on b_lower (exact: b_lower is a power of 2)
            assert (
                np.array_equal(g.S, ref.S) and g.rho == ref.rho and g.C0 == ref.C0
                and np.array_equal(b_lower * g.K, ref.b_lower * ref.K)
            )
            if n == 1:
                assert g.K[0] == pytest.approx(1.0 / b_lower, rel=1e-15)
                assert g.S[0, 0] == 0.5
                assert g.rho == pytest.approx(1.0, rel=1e-12)
    _ok(1, "36 gain syntheses verified, independent of b_lower; n=1 reproduces K=1/b, S=1/2, rho=1")


# 2 ---------------------------------------------------------------------------


def test_criterion_02_homogeneity_identities(hong2, hong3):
    rng = np.random.default_rng(2)
    gains = {2: hong2, 3: hong3}
    for trial in range(1000):
        n = 2 + trial % 3  # dims 2, 3, 4 for the conjugation identity
        lam = 10.0 ** rng.uniform(-1.0, 1.0)
        w = pnf_weights(n)
        D = dilation_matrix(w, lam)
        J = jordan_block(n)
        lhs = D @ J @ np.linalg.inv(D)
        assert np.max(np.abs(lhs - lam * J)) <= 1e-10 * max(1.0, lam)
        if n in gains:
            g = gains[n]
            kap = rng.uniform(-1.0 / (2 * n), 1.0 / (2 * n))
            x = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
            wh = hong_weights(n, kap)
            v_scaled = hong_value(g, kap, dilate(wh, lam, x))
            v_base = hong_value(g, kap, x)
            assert v_scaled == pytest.approx(
                lam ** (2.0 + kap) * v_base, rel=1e-10, abs=1e-13
            )
    _ok(2, "dilation conjugation and V_kappa degree-(2+kappa) homogeneity at 1e-10")


# 3 ---------------------------------------------------------------------------


def test_criterion_03_decay_certificate(hong2, hong3):
    # base density 11 kappa points x 3e4 per point (>= 1e4 total by far);
    # the base sits past the min-statistic's knee so the 10x scan moves C
    # by well under 10%
    for g in (hong2, hong3):
        assert g.C > 0
        resid = decay_residual(g, kappa_points=11, samples_per_kappa=30000, seed=303)
        assert resid <= 0.0, resid
        c_base, _ = verify_decay(g, kappa_points=11, samples_per_kappa=30000, seed=777)
        c_fine, _ = verify_decay(g, kappa_points=11, samples_per_kappa=300000, seed=778)
        assert c_base > 0 and c_fine > 0
        assert abs(c_fine - c_base) / c_base < 0.10
    _ok(3, "decay constants positive, residuals <= 0, stable under 10x refinement")


def test_criterion_03_residual_fails_above_the_certified_constant(hong2, hong3):
    # negative control: C raised 1.2x claims more decay than the cascade
    # gives, so criterion 3's residual scan must find dV + C V^(1+a) > 0
    for g in (hong2, hong3):
        inflated = dataclasses.replace(g, C=1.2 * g.C)
        resid = decay_residual(inflated, kappa_points=11, samples_per_kappa=30000, seed=303)
        assert resid > 0.0, (g.ell, resid)


# 4 ---------------------------------------------------------------------------


def test_criterion_04_gradient_checks(hong2, hong3, switch2):
    kappa0 = {2: switch2.kappa0, 3: 0.9 / 6.0}
    for g in (hong2, hong3):
        n = g.n
        for kap in (-kappa0[n], 0.0, kappa0[n]):
            rng = np.random.default_rng(40 + n)
            checked = 0
            while checked < 100:
                x = rng.standard_normal(n) * rng.uniform(0.3, 2.0)
                _, vs = hong_control(g, kap, x)
                vprev = [0.0] + vs[:-1]
                if min(abs(x[j] - vprev[j]) for j in range(n)) < 1e-4:
                    continue
                _, grad = hong_lyapunov(g, kap, x)
                h = 1e-6
                for j in range(n):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fd = (hong_value(g, kap, xp) - hong_value(g, kap, xm)) / (2 * h)
                    assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
                checked += 1
    _ok(4, "analytic gradients match central differences at 1e-5 on 600 points")


# 5 ---------------------------------------------------------------------------


def test_criterion_05_oracle_equivalence():
    # n=1 PNF closed form x(t) = x0 (1-t)
    spec = ChainSpec(n=1, T=1.0)
    gain = synthesize_linear_gain(1, 1.0)
    ts = build(1.0, Density("constant", 1.0))
    pts = tuple(np.linspace(0.05, 0.97, 15))
    traj = integrate(
        spec, pnf_controller(gain, ts, 1.0, 0.98), DisturbanceSpec(), [2.0],
        SimOptions(t_eval=pts), horizon=1.0,
    )
    for tq in pts:
        i = int(np.argmin(np.abs(traj.t - tq)))
        assert traj.x[i, 0] == pytest.approx(2.0 * (1.0 - tq), rel=1e-8, abs=1e-10)
    # n=2 kappa=0 closed loop against a matrix-exponential oracle
    ell = [1.0, 2.0]
    ctrl = Controller(u=lambda t, x: -ell[1] * (x[1] + ell[0] * x[0]))
    A = np.array([[0.0, 1.0], [-ell[1] * ell[0], -ell[1]]])
    x0 = np.array([1.0, -2.0])
    pts = tuple(np.linspace(0.5, 5.0, 10))
    traj = integrate(
        ChainSpec(n=2, T=1.0), ctrl, DisturbanceSpec(), x0,
        SimOptions(t_eval=pts), horizon=5.0,
    )
    for tq in pts:
        i = int(np.argmin(np.abs(traj.t - tq)))
        oracle = expm(A * tq) @ x0
        assert np.max(np.abs(traj.x[i] - oracle)) <= 1e-8 * max(1.0, float(np.linalg.norm(oracle)))
    _ok(5, "n=1 PNF closed form and n=2 matrix-exponential oracle matched at 1e-8")


# 6 ---------------------------------------------------------------------------


def _pnf_envelope_runs(gain, loop_gain=None):
    """Criterion 6's 50 runs at gain.n, one at a time: (traj, envelope per row, |x0|, d amplitude).

    The loop runs loop_gain (gain itself by default) at gain's certified eta;
    eta and the envelopes always come from gain's certificate.
    """
    ts = build(1.0, Density("constant", 1.0))
    s_end = ts.s(0.999)
    n = gain.n
    eta = max(1.0, ts.a_sup() / gain.C0)
    spec = ChainSpec(n=n, T=1.0)
    rng = np.random.default_rng(60 + n)
    for k in range(50):
        r = 10.0 ** rng.uniform(-1.0, 1.0)
        direction = rng.standard_normal(n)
        x0 = r * direction / np.linalg.norm(direction)
        amp = 1.0 if k % 2 == 0 else 0.0
        dist = DisturbanceSpec(
            d=sine_signal(amp, rng.uniform(0.2, 2.0), rng.uniform(0, 6.28))
        )
        traj = integrate_warped(
            spec, loop_gain or gain, ts, eta, dist, x0,
            SimOptions(rel_tol=1e-9, abs_tol=1e-12), s_max=s_end,
        )
        x0n = float(np.linalg.norm(x0))
        yield traj, [convergence_envelope(gain, ts, eta, x0n, amp, t) for t in traj.t], x0n, amp


def test_criterion_06_pnf_envelope_domination(pnf_certified):
    for n in (2, 3):
        for traj, envelope, x0n, amp in _pnf_envelope_runs(pnf_certified[n]):
            assert traj.status in ("horizon", "settled")
            for x, env in zip(traj.x, envelope):
                assert np.all(np.abs(x) <= env + 1e-15)
            if amp == 0.0:
                assert np.linalg.norm(traj.x[-1]) <= 1e-3 * x0n
    _ok(6, "100 runs dominated by the certificate envelope; clean runs decay 1e3-fold")


def test_criterion_06_fails_with_a_third_of_the_gain(pnf_certified):
    # negative control: the loop runs K/3 under the certified gain's eta and
    # envelope, so at each n some run must leave the envelope or, undisturbed,
    # miss the 1e3-fold decay; the search stops at the first that does
    for n in (2, 3):
        weak = dataclasses.replace(pnf_certified[n], K=pnf_certified[n].K / 3.0)
        missed = next(
            (traj for traj, envelope, x0n, amp in _pnf_envelope_runs(pnf_certified[n], weak)
             if any(np.any(np.abs(x) > env + 1e-15) for x, env in zip(traj.x, envelope))
             or (amp == 0.0 and np.linalg.norm(traj.x[-1]) > 1e-3 * x0n)),
            None,
        )
        assert missed is not None, n


# 7 ---------------------------------------------------------------------------


def test_criterion_07_noise_blowup_fixture(pnf_certified):
    gain = pnf_certified[2]
    ts = build(1.0, Density("constant", 1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    spec = ChainSpec(n=2, T=1.0)
    x0 = np.array([0.01, 0.0])
    opts = SimOptions(rel_tol=1e-9, abs_tol=1e-12, t_eval=(0.99,))
    ctrl = pnf_controller(gain, ts, eta, 0.99)
    clean = integrate(spec, ctrl, DisturbanceSpec(), x0, opts, horizon=1.0)
    peak2 = float(np.max(np.abs(clean.x[:, 1])))
    best_ratio, best_d1, best_traj = 0.0, None, None
    for d1 in ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (0.5, 0.5), (0.0, 0.5)):
        dist = DisturbanceSpec(d1=vector_signal(np.array(d1), constant_signal(1.0)))
        traj = integrate(spec, ctrl, dist, x0, opts, horizon=1.0)
        i = int(np.argmin(np.abs(traj.t - 0.99)))
        ratio = abs(traj.x[i, 1]) / peak2
        if ratio > best_ratio:
            best_ratio, best_d1, best_traj = ratio, d1, traj
    assert best_ratio >= 10.0, (best_ratio, best_d1)
    # the noise envelope still dominates the crafted run everywhere
    d1n = float(np.linalg.norm(best_d1))
    x0n = float(np.linalg.norm(x0))
    for i_t in range(len(best_traj.t)):
        env = noise_envelope(gain, ts, eta, x0n, d1n, best_traj.t[i_t], b_sup=1.0)
        assert np.all(np.abs(best_traj.x[i_t]) <= env + 1e-15)
    # structure of the bound itself: coordinate 2 grows, coordinate 1 does not
    e_mid = noise_envelope(gain, ts, eta, x0n, d1n, 0.5, b_sup=1.0)
    e_late = noise_envelope(gain, ts, eta, x0n, d1n, 0.99, b_sup=1.0)
    assert e_late[1] > 10.0 * e_mid[1]
    assert e_late[0] < 10.0 * max(e_mid[0], 1.0)
    _ok(7, f"constant d1={best_d1} gives |x2(0.99)|/peak = {best_ratio:.1f} >= 10 under the envelope")


def test_warped_time_sinusoid_realizes_lambda_growth(pnf_certified):
    # companion fixture: noise oscillating in the warped clock drives |x2|
    # to the magnitude of lambda(t), which a constant d1 cannot do
    gain = pnf_certified[2]
    ts = build(1.0, Density("constant", 1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    spec = ChainSpec(n=2, T=1.0)

    class WarpedSine:
        amp = 1.0

        def __call__(self, t):
            return math.sin(3.0 * math.log(1.0 / (1.0 - t)))

        bound = 1.0

    dist = DisturbanceSpec(d1=vector_signal(np.array([1.0, 0.0]), WarpedSine()))
    traj = integrate(
        spec, pnf_controller(gain, ts, eta, 0.99), dist, np.array([0.01, 0.0]),
        SimOptions(rel_tol=1e-9, abs_tol=1e-12, t_eval=(0.9, 0.99)), horizon=1.0,
    )
    i9 = int(np.argmin(np.abs(traj.t - 0.9)))
    i99 = int(np.argmin(np.abs(traj.t - 0.99)))
    assert abs(traj.x[i99, 1]) > 5.0 * abs(traj.x[i9, 1])
    assert abs(traj.x[i99, 1]) > 50.0


# 8 ---------------------------------------------------------------------------


def _fixed_time_runs(hong2, switch2, bound):
    """Criterion 8's 200 runs, each with horizon 1.05*bound, as (r, traj), one at a time."""
    spec = ChainSpec(n=2, T=1.0)
    ctrl = fixed_time_controller(hong2, switch2)
    rng = np.random.default_rng(8)
    for _ in range(200):
        r = 10.0 ** rng.uniform(-2.0, 3.0)
        direction = rng.standard_normal(2)
        x0 = r * direction / np.linalg.norm(direction)
        yield r, integrate(
            spec, ctrl, DisturbanceSpec(), x0,
            SimOptions(rel_tol=1e-8), horizon=1.05 * bound,
        )


def test_criterion_08_fixed_time_settling(hong2, switch2):
    bound = switch2.T_settle
    worst = 0.0
    for r, traj in _fixed_time_runs(hong2, switch2, bound):
        assert traj.status == "settled", r
        assert traj.settle_time <= bound
        worst = max(worst, traj.settle_time)
    # the bound must also be tight enough to prescribe time with
    assert bound <= 10.0 * worst
    _ok(8, f"200 ICs in [1e-2, 1e3] settle; worst {worst:.1f} <= bound {bound:.1f} ({bound / worst:.1f}x)")


def test_criterion_08_fails_at_a_tenth_of_the_bound(hong2, switch2):
    # negative control: T_settle/10 lies below the worst observed settling
    # time, so some run must miss it; the search stops at the first that does
    bound = switch2.T_settle / 10.0
    missed = next(
        (r for r, traj in _fixed_time_runs(hong2, switch2, bound)
         if traj.status != "settled" or traj.settle_time > bound),
        None,
    )
    assert missed is not None


# 9 ---------------------------------------------------------------------------


def _prescribed_time_runs(hong2, sp, T_target):
    """Criterion 9's 50 runs at T_target, each with horizon 1.2*T_target, one at a time."""
    spec = ChainSpec(n=2, T=1.0)
    ctrl = prescribed_time_controller(hong2, sp, T_target)
    for k in range(50):
        rng = np.random.default_rng(900 + k)
        r = 10.0 ** rng.uniform(-2.0, 1.0)
        d = rng.standard_normal(2)
        yield integrate(
            spec, ctrl, DisturbanceSpec(), r * d / np.linalg.norm(d),
            SimOptions(rel_tol=1e-8), horizon=1.2 * T_target,
        )


def test_criterion_09_prescribed_time_rescaling(hong2, switch2):
    settle = {}
    peak_u = {}
    for T_target in (2.0, 1.0, 0.5):
        times = []
        peak_u[T_target] = 0.0
        for traj in _prescribed_time_runs(hong2, switch2, T_target):
            assert traj.status == "settled"
            assert traj.settle_time <= T_target
            times.append(traj.settle_time)
            peak_u[T_target] = max(peak_u[T_target], float(np.max(np.abs(traj.u))))
        settle[T_target] = times
    for k in range(50):
        assert settle[1.0][k] <= settle[2.0][k] + 1e-12
        assert settle[0.5][k] <= settle[1.0][k] + 1e-12
    peaks = ", ".join(f"{u:.3g} at T_target {T:g}" for T, u in peak_u.items())
    _ok(9, f"150 runs settle within T_target; halving the target never slows settling; peak |u| {peaks}")


def test_criterion_09_fails_with_a_tenth_of_the_settling_bound(hong2, switch2):
    # negative control: a design whose T_settle is divided by 10 dilates the
    # state 10x less, so at each target some run must miss T_target; the
    # search stops at the first that does
    short = dataclasses.replace(switch2, T_settle=switch2.T_settle / 10.0)
    for T_target in (2.0, 1.0, 0.5):
        missed = next(
            (traj for traj in _prescribed_time_runs(hong2, short, T_target)
             if traj.status != "settled" or traj.settle_time > T_target),
            None,
        )
        assert missed is not None, T_target


# 10 --------------------------------------------------------------------------


ROBUST_REG_EPS = 5e-3


def _robust_peaks(hong2, amp, d_bound, runs):
    """Criterion 10's first `runs` runs under |d| = amp, with the law built for d_bound.

    Per run, the largest V_- from the first row in {V_- <= 1} on; inf for a
    run that never reaches that set.
    """
    spec = ChainSpec(n=2, T=1.0, b_lower=1.0, b_upper=3.0, d_bound=d_bound)
    sp = design_switch_params(hong2, m=0.5, b_upper=3.0)
    ctrl = robust_controller(hong2, sp, spec, reg_eps=ROBUST_REG_EPS)
    rng = np.random.default_rng(10)
    peaks = []
    for k in range(runs):
        r = 10.0 ** rng.uniform(-0.5, 1.5)
        d = rng.standard_normal(2)
        x0 = r * d / np.linalg.norm(d)
        dist = DisturbanceSpec(
            d=sine_signal(amp, rng.uniform(0.3, 1.5), rng.uniform(0, 6.28)),
            b=b_profile(1.0, 3.0, freq=rng.uniform(0.2, 0.8)),
        )
        traj = integrate(
            spec, ctrl, dist, x0, SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=15.0
        )
        vkm = traj.diag["Vkm"]
        hit = np.nonzero(vkm <= 1.0)[0]
        peaks.append(float(np.max(vkm[hit[0] :])) if len(hit) else math.inf)
    return peaks


def test_criterion_10_matched_robust_invariance(hong2):
    peaks = _robust_peaks(hong2, 1.0, 1.0, 50)
    assert max(peaks) < math.inf, "never reached S2"
    assert max(peaks) <= 1.0 + 10.0 * ROBUST_REG_EPS
    _ok(10, "50 runs reach {V- <= 1} and stay within 1 + 10*reg_eps")


def test_criterion_10_control_fails_without_the_sliding_term(hong2):
    # negative control: at |d| = 20 the law built for d_bound = 0 has no sliding
    # term, and the nominal margin cannot absorb the disturbance
    peaks = _robust_peaks(hong2, 20.0, 0.0, 3)
    assert max(peaks) > 1.0 + 10.0 * ROBUST_REG_EPS, peaks


# 11 --------------------------------------------------------------------------


def test_criterion_11_iss_battery(hong2, switch2):
    spec = ChainSpec(n=2, T=1.0)
    amps = (0.0, 0.01, 0.1, 0.5, 1.0)
    ctrl = fixed_time_controller(hong2, switch2)
    worst_per_amp = []
    for amp in amps:
        worst = 0.0
        for j in range(3):
            rng = np.random.default_rng(1100 + j)
            d = rng.standard_normal(2)
            x0 = 3.0 * d / np.linalg.norm(d)
            dist = DisturbanceSpec(
                d1=vector_signal(np.ones(2), sine_signal(amp, 0.8 + 0.2 * j, 0.3 * j)),
                d2=vector_signal(np.array([0.0, 1.0]), sine_signal(amp, 1.1 + 0.3 * j, 0.1 * j)),
            )
            horizon = 150.0 if amp == 0.0 else 30.0
            traj = integrate(
                spec, ctrl, dist, x0, SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=horizon
            )
            m = iss_metrics(traj)
            assert math.isfinite(m["limsup_Z"])
            worst = max(worst, m["limsup_Z"])
        worst_per_amp.append(worst)
    assert worst_per_amp[0] <= 1e-12
    # the raw values grow strictly and nearly quadratically with the amplitude
    # (1.6e-20, 6.3e-5, 5.2e-3, 0.115, 0.476); the isotonic lines below hold
    # even when a nonzero amplitude is lost on the way to the plant
    assert np.all(np.diff(worst_per_amp) > 0)
    assert worst_per_amp[1] <= 1e-3 * worst_per_amp[-1]
    fit = isotonic_fit(amps, worst_per_amp)
    assert np.all(np.diff(fit) >= -1e-15)
    assert fit[0] <= 1e-12

    # matched-only arm: d1 = 0, d2 parallel to e_n, robust feedback;
    # settle radius sits above the sign-regularization floor
    spec_m = ChainSpec(n=2, T=1.0, b_lower=1.0, b_upper=1.0, d_bound=1.0)
    ctrl_m = robust_controller(hong2, switch2, spec_m, reg_eps=5e-3)
    rng = np.random.default_rng(1190)
    for _ in range(5):
        r = 10.0 ** rng.uniform(-1.0, 1.0)
        d = rng.standard_normal(2)
        x0 = r * d / np.linalg.norm(d)
        dist = DisturbanceSpec(
            d2=vector_signal(np.array([0.0, 1.0]), sine_signal(1.0, 0.9, 0.1))
        )
        traj = integrate(
            spec_m, ctrl_m, dist, x0,
            SimOptions(rel_tol=1e-7, abs_tol=1e-10, settle_radius=5e-3), horizon=30.0,
        )
        assert traj.status == "settled"
        assert traj.settle_time <= 25.0
    _ok(11, "limsup_Z finite, zero at amp 0, isotonic envelope nondecreasing; matched-only settles")


# 12 --------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    for kind in ("pnf", "hong"):
        p1, p2 = str(tmp_path / f"{kind}_a.gains"), str(tmp_path / f"{kind}_b.gains")
        for p in (p1, p2):
            assert cli_main(
                ["synthesize", "--kind", kind, "--n", "2", "--b-lower", "1", "--seed", "5", "--out", p]
            ) == 0
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
    gains = str(tmp_path / "hong_a.gains")
    outs = []
    for tag in ("r1", "r2"):
        out = str(tmp_path / tag)
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "plant.n = 2",
                    "plant.t = 1.0",
                    "controller.kind = fixed_time",
                    f"controller.gains = {gains}",
                    "disturbance.d = sine:0.2,0.7,0.1",
                    "runs.count = 2",
                    "runs.seed = 11",
                    "sim.rel_tol = 1e-6",
                    "sim.horizon = 20.0",
                    f"output.dir = {out}",
                ]
            )
            + "\n"
        )
        assert cli_main(["simulate", "--config", str(cfg)]) == 0
        outs.append(out)
    for name in ("summary.csv", "run_0.csv", "run_1.csv"):
        b1 = Path(outs[0], name).read_bytes()
        b2 = Path(outs[1], name).read_bytes()
        assert b1 == b2
    _ok(12, "gain files and CSVs byte-identical across repeated seeded invocations")
