"""Acceptance battery: one test per criterion, one PASS line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the line-per-criterion
output.  Every tolerance is fixed here; nothing is calibrated at run time.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from ptstab.cli import main as cli_main
from ptstab.core import ChainSpec, dilate, dilation_matrix, hong_weights, jordan_block, pnf_weights
from ptstab.hong import (
    HongSynthesisConfig,
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
    verify_lmi,
)
from ptstab.sim import (
    BProfile,
    Controller,
    DisturbanceSpec,
    SimOptions,
    VectorSignal,
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
from ptstab.timescale import build, constant_density

SEED = 0


@pytest.fixture(scope="module")
def hong2():
    return synthesize_hong_gains(2, HongSynthesisConfig(seed=SEED))


@pytest.fixture(scope="module")
def hong3():
    return synthesize_hong_gains(3, HongSynthesisConfig(seed=SEED))


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
    ts = build(1.0, constant_density(1.0))
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


def test_criterion_06_pnf_envelope_domination(pnf_certified):
    ts = build(1.0, constant_density(1.0))
    s_end = ts.s(0.999)
    for n in (2, 3):
        gain = pnf_certified[n]
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
                spec, gain, ts, eta, dist, x0,
                SimOptions(rel_tol=1e-9, abs_tol=1e-12), s_max=s_end,
            )
            assert traj.status in ("horizon", "settled")
            x0n = float(np.linalg.norm(x0))
            for i_t in range(len(traj.t)):
                env = convergence_envelope(gain, ts, eta, x0n, amp, traj.t[i_t])
                assert np.all(np.abs(traj.x[i_t]) <= env + 1e-15)
            if amp == 0.0:
                assert np.linalg.norm(traj.x[-1]) <= 1e-3 * x0n
    _ok(6, "100 runs dominated by the certificate envelope; clean runs decay 1e3-fold")


# 7 ---------------------------------------------------------------------------


def test_criterion_07_noise_blowup_fixture(pnf_certified):
    gain = pnf_certified[2]
    ts = build(1.0, constant_density(1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    spec = ChainSpec(n=2, T=1.0)
    x0 = np.array([0.01, 0.0])
    opts = SimOptions(rel_tol=1e-9, abs_tol=1e-12, t_eval=(0.99,))
    ctrl = pnf_controller(gain, ts, eta, 0.99)
    clean = integrate(spec, ctrl, DisturbanceSpec(), x0, opts, horizon=1.0)
    peak2 = float(np.max(np.abs(clean.x[:, 1])))
    best_ratio, best_d1, best_traj = 0.0, None, None
    for d1 in ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (0.5, 0.5), (0.0, 0.5)):
        dist = DisturbanceSpec(d1=VectorSignal(np.array(d1), constant_signal(1.0)))
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
    ts = build(1.0, constant_density(1.0))
    eta = max(1.0, ts.a_sup() / gain.C0)
    spec = ChainSpec(n=2, T=1.0)

    class WarpedSine:
        amp = 1.0

        def __call__(self, t):
            return math.sin(3.0 * math.log(1.0 / (1.0 - t)))

        bound = 1.0

    dist = DisturbanceSpec(d1=VectorSignal(np.array([1.0, 0.0]), WarpedSine()))
    traj = integrate(
        spec, pnf_controller(gain, ts, eta, 0.99), dist, np.array([0.01, 0.0]),
        SimOptions(rel_tol=1e-9, abs_tol=1e-12, t_eval=(0.9, 0.99)), horizon=1.0,
    )
    i9 = int(np.argmin(np.abs(traj.t - 0.9)))
    i99 = int(np.argmin(np.abs(traj.t - 0.99)))
    assert abs(traj.x[i99, 1]) > 5.0 * abs(traj.x[i9, 1])
    assert abs(traj.x[i99, 1]) > 50.0


# 8 ---------------------------------------------------------------------------


def test_criterion_08_fixed_time_settling(hong2, switch2):
    spec = ChainSpec(n=2, T=1.0)
    ctrl = fixed_time_controller(hong2, switch2)
    bound = switch2.T_settle
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        r = 10.0 ** rng.uniform(-2.0, 3.0)
        direction = rng.standard_normal(2)
        x0 = r * direction / np.linalg.norm(direction)
        traj = integrate(
            spec, ctrl, DisturbanceSpec(), x0,
            SimOptions(rel_tol=1e-8), horizon=1.05 * bound,
        )
        assert traj.status == "settled", r
        assert traj.settle_time <= bound
        worst = max(worst, traj.settle_time)
    # the bound must also be tight enough to prescribe time with
    assert bound <= 10.0 * worst
    _ok(8, f"200 ICs in [1e-2, 1e3] settle; worst {worst:.1f} <= bound {bound:.1f} ({bound / worst:.1f}x)")


# 9 ---------------------------------------------------------------------------


def test_criterion_09_prescribed_time_rescaling(hong2, switch2):
    spec = ChainSpec(n=2, T=1.0)
    rng_ics = [np.random.default_rng(900 + k) for k in range(50)]
    ics = []
    for rng in rng_ics:
        r = 10.0 ** rng.uniform(-2.0, 1.0)
        d = rng.standard_normal(2)
        ics.append(r * d / np.linalg.norm(d))
    settle = {}
    peak_u = {}
    for T_target in (2.0, 1.0, 0.5):
        ctrl = prescribed_time_controller(hong2, switch2, T_target)
        times = []
        peak_u[T_target] = 0.0
        for x0 in ics:
            traj = integrate(
                spec, ctrl, DisturbanceSpec(), x0,
                SimOptions(rel_tol=1e-8), horizon=1.2 * T_target,
            )
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


# 10 --------------------------------------------------------------------------


def test_criterion_10_matched_robust_invariance(hong2):
    reg_eps = 5e-3
    spec = ChainSpec(n=2, T=1.0, b_lower=1.0, b_upper=3.0, d_bound=1.0)
    sp = design_switch_params(hong2, m=0.5, b_upper=3.0)
    ctrl = robust_controller(hong2, sp, spec, reg_eps=reg_eps)
    rng = np.random.default_rng(10)
    for k in range(50):
        r = 10.0 ** rng.uniform(-0.5, 1.5)
        d = rng.standard_normal(2)
        x0 = r * d / np.linalg.norm(d)
        dist = DisturbanceSpec(
            d=sine_signal(1.0, rng.uniform(0.3, 1.5), rng.uniform(0, 6.28)),
            b=BProfile(1.0, 3.0, freq=rng.uniform(0.2, 0.8)),
        )
        traj = integrate(
            spec, ctrl, dist, x0, SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=15.0
        )
        vkm = traj.diag["Vkm"]
        hit = np.nonzero(vkm <= 1.0)[0]
        assert len(hit) > 0, "never reached S2"
        assert float(np.max(vkm[hit[0] :])) <= 1.0 + 10.0 * reg_eps
    _ok(10, "50 runs reach {V- <= 1} and stay within 1 + 10*reg_eps")


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
                d1=VectorSignal(np.ones(2), sine_signal(amp, 0.8 + 0.2 * j, 0.3 * j)),
                d2=VectorSignal(np.array([0.0, 1.0]), sine_signal(amp, 1.1 + 0.3 * j, 0.1 * j)),
            )
            horizon = 150.0 if amp == 0.0 else 30.0
            traj = integrate(
                spec, ctrl, dist, x0, SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=horizon
            )
            m = iss_metrics(traj, hong2, switch2)
            assert math.isfinite(m["limsup_Z"])
            # the alternative-exponent variant stays finite too (monitored)
            m_alt = iss_metrics(traj, hong2, switch2, alt_exponent=True)
            assert math.isfinite(m_alt["limsup_Z"])
            worst = max(worst, m["limsup_Z"])
        worst_per_amp.append(worst)
    assert worst_per_amp[0] <= 1e-12
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
            d2=VectorSignal(np.array([0.0, 1.0]), sine_signal(1.0, 0.9, 0.1))
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
