import math

import numpy as np
import pytest

from ptstab import hong, sim
from ptstab.core import ChainSpec, dilate, pnf_weights
from ptstab.hong import (
    HongSynthesisConfig,
    hong_control,
    hong_lyapunov,
    hong_value,
    synthesize_hong_gains,
)
from ptstab.sim import (
    Controller,
    DisturbanceSpec,
    SimOptions,
    fixed_time_controller,
    integrate,
    prescribed_time_controller,
)
from ptstab.switching import (
    SwitchParams,
    band_decay_margin,
    design_switch_params,
    fixed_time_feedback,
    MatchedRobustLaw,
    kappa_of_x,
    quadratic_form,
    sample_v0_level,
    sample_vkappa_level,
    settling_bound,
    v0_value,
    z_value,
)

_CACHE = {}


def vdot_with_control(g, kappa, x, u):
    """(dV_kappa/dt, V_kappa) along dx = Jx + u e_n for an arbitrary u."""
    V, grad = hong_lyapunov(g, kappa, x)
    return float(np.dot(grad[:-1], x[1:]) + grad[-1] * u), V


def matched_robust_feedback(g, sp, spec, reg_eps, y):
    """One evaluation of the matched-robust law."""
    return MatchedRobustLaw(g, sp, spec, reg_eps)(np.asarray(y, dtype=float))


def _setup(n=2, seed=0, m=0.5):
    key = (n, seed, m)
    if key not in _CACHE:
        g = synthesize_hong_gains(n, HongSynthesisConfig(seed=seed))
        sp = design_switch_params(g, m=m)
        _CACHE[key] = (g, sp)
    return _CACHE[key]


@pytest.mark.parametrize("n", [2, 3])
def test_v0_value_equals_matmul_bits(n):
    # v0_value's np.dot chain runs the BLAS calls of x @ P @ x, for lists and arrays alike
    g, sp = _setup(n)
    rng = np.random.default_rng(n)
    X = rng.standard_normal((3000, n)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(3000, 1))
    X[::7, 0] = 0.0
    for x in X:
        want = float(x @ sp.P @ x)
        assert v0_value(sp.P, x) == want and v0_value(sp.P, x.tolist()) == want


def test_kappa_of_x_edges():
    g, sp = _setup()
    m, k0 = sp.m, sp.kappa0
    # scale states to hit exact V0 levels
    x = np.array([1.0, 0.3])
    for level, expect in (
        (1.0 + m, k0),
        (1.0 - m, -k0),
        (1.0, 0.0),
    ):
        xs = x * math.sqrt(level / v0_value(sp.P, x))
        assert kappa_of_x(sp, xs) == pytest.approx(expect, abs=1e-12)
    assert kappa_of_x(sp, x * 100) == k0
    assert kappa_of_x(sp, x * 1e-3) == -k0


def test_kappa_continuity_and_range():
    g, sp = _setup()
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.standard_normal(2) * rng.uniform(0.1, 3)
        k = kappa_of_x(sp, x)
        assert -sp.kappa0 - 1e-15 <= k <= sp.kappa0 + 1e-15
    # continuity across both switching surfaces
    for level in (1.0 - sp.m, 1.0 + sp.m):
        x = np.array([0.7, -0.4])
        xs = x * math.sqrt(level / v0_value(sp.P, x))
        below = kappa_of_x(sp, xs * (1 - 1e-8))
        above = kappa_of_x(sp, xs * (1 + 1e-8))
        assert abs(above - below) < 1e-6


def test_fixed_time_feedback_saturation():
    g, sp = _setup()
    x = np.array([5.0, 2.0])  # far outside the band
    assert v0_value(sp.P, x) > 1 + sp.m
    u_switch = fixed_time_feedback(g, sp, x)
    u_plus, _ = hong_control(g, sp.kappa0, x)
    assert u_switch == pytest.approx(u_plus)
    assert fixed_time_feedback(g, sp, np.zeros(2)) == 0.0


def test_fixed_time_feedback_continuity_probe():
    g, sp = _setup()
    rng = np.random.default_rng(3)
    for level in (1.0 - sp.m, 1.0 + sp.m):
        for _ in range(20):
            z = rng.standard_normal(2)
            xs = z * math.sqrt(level / v0_value(sp.P, z))
            d = rng.standard_normal(2)
            d = 1e-6 * d / np.linalg.norm(d)
            du = abs(fixed_time_feedback(g, sp, xs + d) - fixed_time_feedback(g, sp, xs - d))
            assert du < 1e-3


def test_b_lower_adaptation():
    g, sp = _setup()
    x = np.array([5.0, 2.0])
    u1 = fixed_time_feedback(g, sp, x, b_lower=1.0)
    u2 = fixed_time_feedback(g, sp, x, b_lower=2.0)
    assert u2 == pytest.approx(u1 / 2.0)


def test_b_lower_adaptation_matches_the_scaled_last_gain():
    # v_n is linear in ell_n: dividing u by b_lower is the cascade with
    # ell_n/b_lower within one ulp, and b_lower = 1 leaves u's bits alone
    from dataclasses import replace

    g, sp = _setup()
    rng = np.random.default_rng(12)
    for b in (0.25, 1.7, 3.0):
        scaled = replace(g, ell=np.append(g.ell[:-1], g.ell[-1] / b))
        for _ in range(200):
            x = rng.standard_normal(2) * 10.0 ** rng.uniform(-3.0, 3.0)
            kap = kappa_of_x(sp, x)
            old, _ = hong_control(scaled, kap, x)
            assert abs(fixed_time_feedback(g, sp, x, b_lower=b) - old) <= math.ulp(old)
            assert fixed_time_feedback(g, sp, x).hex() == hong_control(g, kap, x)[0].hex()


def test_matched_robust_examples():
    g, sp = _setup()
    spec = ChainSpec(n=2, T=1.0, b_lower=1.0, b_upper=3.0, d_bound=1.0)
    y = np.array([5.0, 1.0])
    assert hong_value(g, -sp.kappa0, y) > 1
    w0, _ = hong_control(g, sp.kappa0, y)
    u = matched_robust_feedback(g, sp, spec, 1e-3, y)
    assert u == pytest.approx(w0 + math.copysign(1.0, w0))
    # zero control point gives zero (regularized sign of 0)
    assert matched_robust_feedback(g, sp, spec, 1e-3, np.zeros(2)) == 0.0
    # D = 0 reduces to omega0 / b_lower
    spec0 = ChainSpec(n=2, T=1.0, b_lower=2.0, d_bound=0.0)
    assert matched_robust_feedback(g, sp, spec0, 1e-3, y) == pytest.approx(w0 / 2.0)


def test_settling_bound_structure():
    g, sp = _setup()
    # blows up as m -> 0 through the -2 ln(2m) term
    b_small_m = settling_bound(sp.C, 1e-6, sp.kappa0, sp.r_plus, sp.r_minus)
    b_mid_m = settling_bound(sp.C, 0.25, sp.kappa0, sp.r_plus, sp.r_minus)
    assert b_small_m > b_mid_m
    # decreasing in C
    assert settling_bound(2 * sp.C, 0.5, sp.kappa0, sp.r_plus, sp.r_minus) == pytest.approx(
        sp.T_settle / 2
    )


def test_containment_certificates():
    g, sp = _setup()
    # B^{k0}_{<r+} inside B^0_{<1+m}: on fresh samples of {V_{k0} = r+},
    # V0 must be <= 1+m; dual check for r-
    pts = sample_vkappa_level(g, sp.kappa0, sp.r_plus, 3000, seed=91)
    v0s = np.array([v0_value(sp.P, x) for x in pts])
    assert np.max(v0s) <= 1.0 + sp.m + 1e-9
    pts = sample_vkappa_level(g, -sp.kappa0, sp.r_minus, 3000, seed=92)
    v0s = np.array([v0_value(sp.P, x) for x in pts])
    assert np.min(v0s) >= 1.0 - sp.m - 1e-9
    # E certificate: V+ >= E on fresh samples of {V- = 1}
    pts = sample_vkappa_level(g, -sp.kappa0, 1.0, 3000, seed=93)
    vps = np.array([hong_value(g, sp.kappa0, x) for x in pts])
    assert np.min(vps) >= sp.E - 1e-9


def test_band_decay_and_lyapunov_rate():
    g, sp = _setup()
    worst, allowed = band_decay_margin(g, sp, n_samples=10000, seed=101)
    assert worst <= allowed
    # consequence: dV0 <= -C V0 / 2 across the band (sampled)
    rng = np.random.default_rng(5)
    P = sp.P
    for _ in range(300):
        z = rng.standard_normal(2)
        level = rng.uniform(1 - sp.m, 1 + sp.m)
        x = z * math.sqrt(level / v0_value(P, z))
        u = fixed_time_feedback(g, sp, x)
        dV0, V0 = vdot_with_control(g, 0.0, x, u)
        assert dV0 <= -sp.C * V0 / 2 + 1e-9


def test_outer_inner_decay():
    g, sp = _setup()
    rng = np.random.default_rng(6)
    ap = sp.kappa0 / (2 + sp.kappa0)
    am = -sp.kappa0 / (2 - sp.kappa0)
    outer = inner = 0
    while outer < 200 or inner < 200:
        z = rng.standard_normal(2) * rng.uniform(0.05, 4.0)
        V0 = v0_value(sp.P, z)
        u = fixed_time_feedback(g, sp, z)
        if V0 > 1 + sp.m and outer < 200:
            dV, V = vdot_with_control(g, sp.kappa0, z, u)
            if V <= 10 * sp.r_plus:
                assert dV <= -(sp.C / 2) * V ** (1 + ap) + 1e-9
                outer += 1
        elif 1e-6 < V0 < 1 - sp.m and inner < 200:
            dV, V = vdot_with_control(g, -sp.kappa0, z, u)
            assert dV <= -(sp.C / 2) * V ** (1 + am) + 1e-9
            inner += 1


def test_settling_bound_dominates_simulations():
    g, sp = _setup()
    spec = ChainSpec(n=2, T=1.0)
    ctrl = fixed_time_controller(g, sp)
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = 10 ** rng.uniform(-2, 3)
        d = rng.standard_normal(2)
        x0 = r * d / np.linalg.norm(d)
        traj = integrate(spec, ctrl, DisturbanceSpec(), x0, SimOptions(rel_tol=1e-8),
                         horizon=1.05 * sp.T_settle)
        assert traj.status == "settled"
        assert traj.settle_time <= sp.T_settle


def test_prescribed_time_reduces_to_fixed_at_bound():
    # T_target = T_settle gives mu = 1; the refusal of T_target <= 0 is tested below
    g, sp = _setup()
    x = [0.8, -1.2]
    u_fix = fixed_time_controller(g, sp).u(0.0, x)
    u_pt = prescribed_time_controller(g, sp, sp.T_settle).u(0.0, x)
    assert u_pt == pytest.approx(u_fix)
    assert prescribed_time_controller(g, sp, 0.5).u(0.0, [0.0, 0.0]) == 0.0


def test_prescribed_time_controller_refuses_nonpositive_target():
    g, sp = _setup()
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="T_target"):
            prescribed_time_controller(g, sp, bad)


def test_prescribed_time_controller_at_mu_one_is_fixed_time(monkeypatch):
    # T_target >= T_settle gives mu = 1: the fixed-time run, bit for bit, with no dilation
    g, sp = _setup()
    dilations = []
    monkeypatch.setattr(sim, "dilate", lambda *a: dilations.append(a) or dilate(*a))
    spec = ChainSpec(n=2, T=1.0)
    x0 = np.array([1.5, -2.0])
    opts = SimOptions(rel_tol=1e-8)
    runs = [
        integrate(spec, ctrl, DisturbanceSpec(), x0, opts, horizon=sp.T_settle)
        for ctrl in (
            fixed_time_controller(g, sp),
            prescribed_time_controller(g, sp, sp.T_settle),
            prescribed_time_controller(g, sp, 10.0 * sp.T_settle),
        )
    ]
    assert dilations == []
    ref = runs[0]
    assert len(ref.t) > 10 and ref.status == "settled"
    for traj in runs[1:]:
        assert traj.t.tobytes() == ref.t.tobytes() and traj.x.tobytes() == ref.x.tobytes()
        assert traj.u.tobytes() == ref.u.tobytes()
        assert {k: v.tobytes() for k, v in traj.diag.items()} == {k: v.tobytes() for k, v in ref.diag.items()}


def test_rescaling_oracle_fixed_kappa():
    # for kappa frozen at +kappa0 the mu-fed trajectory is the state/time
    # rescale of the mu=1 trajectory under the chain dilation weights
    g, sp = _setup()
    mu = 3.0
    w = pnf_weights(2)
    kap = sp.kappa0

    def u_mu(t, x):
        u, _ = hong_control(g, kap, dilate(w, mu, x))
        return u

    def u_1(t, x):
        u, _ = hong_control(g, kap, x)
        return u

    spec = ChainSpec(n=2, T=1.0)
    x0 = np.array([0.4, -0.2])
    pts = tuple(np.linspace(0.2, 2.0, 8))
    traj_mu = integrate(spec, Controller(u=u_mu), DisturbanceSpec(), x0,
                        SimOptions(rel_tol=1e-10, abs_tol=1e-13, t_eval=pts), horizon=2.0)
    y0 = dilate(w, mu, x0)
    pts_s = tuple(mu * p for p in pts)
    traj_1 = integrate(spec, Controller(u=u_1), DisturbanceSpec(), y0,
                       SimOptions(rel_tol=1e-10, abs_tol=1e-13, t_eval=pts_s), horizon=2.0 * mu)
    for tq in pts:
        i = int(np.argmin(np.abs(traj_mu.t - tq)))
        j = int(np.argmin(np.abs(traj_1.t - mu * tq)))
        expected = dilate(w, 1.0 / mu, traj_1.x[j])
        assert np.linalg.norm(traj_mu.x[i] - expected) < 1e-7 * max(1.0, np.linalg.norm(expected))


def test_sample_v0_level_band_and_level_set():
    _, sp = _setup()
    lo, hi = 1.0 - sp.m, 1.0 + sp.m
    q = [v0_value(sp.P, x) for x in sample_v0_level(sp.P, lo, hi, 2000, seed=5)]
    assert lo * (1.0 - 1e-12) <= min(q) and max(q) <= hi * (1.0 + 1e-12)
    assert min(q) < lo + 0.05 * sp.m and max(q) > hi - 0.05 * sp.m
    level = [v0_value(sp.P, x) for x in sample_v0_level(sp.P, hi, hi, 500, seed=6)]
    assert np.allclose(level, hi, rtol=1e-12, atol=0.0)


def _band_margin_oracle(g, sp, n_samples, seed):
    """band_decay_margin as it was: one scalar cascade pair per band sample."""
    X = sample_v0_level(sp.P, 1.0 - sp.m, 1.0 + sp.m, n_samples, seed)
    en_col = sp.P[:, g.n - 1]
    worst = 0.0
    for x in X:
        u_k, _ = hong_control(g, kappa_of_x(sp, x), x)
        u_0, _ = hong_control(g, 0.0, x)
        worst = max(worst, 2.0 * abs(float(x @ en_col)) * sp.b_upper * abs(u_k - u_0))
    return worst, sp.C * (1.0 - sp.m) / 2.0


def _small_gains(n):
    return synthesize_hong_gains(n, HongSynthesisConfig(samples_per_level=100, verify_samples_per_kappa=100))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_margin_matches_scalar_oracle(n):
    g = _small_gains(n)
    cap = min(0.999 * g.kappa_pos, 0.999 / (2 * n))
    for kappa0, b_upper in ((cap, 1.0), (cap / 16.0, 3.0)):
        sp = SwitchParams(m=0.5, kappa0=kappa0, P=quadratic_form(g), r_plus=0.0, r_minus=0.0,
                          T_settle=0.0, C=g.C, b_upper=b_upper)
        worst, allowed = band_decay_margin(g, sp, n_samples=2000, seed=31 + n)
        worst_ref, allowed_ref = _band_margin_oracle(g, sp, 2000, 31 + n)
        assert worst > 0
        assert worst == pytest.approx(worst_ref, rel=1e-12, abs=0.0)
        assert allowed == allowed_ref


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cascade_rows_per_row_kappa_matches_scalar_cascade(n):
    # each row of the batched cascade runs at its own degree: +-kappa0, 0
    # and interior values, as in a band scan
    ell = np.array([1.0, 2.0, 8.0, 32.0][:n])
    rng = np.random.default_rng(50 + n)
    kappa0 = 0.9 / (2 * n)
    kap = rng.uniform(-kappa0, kappa0, size=400)
    kap[:40] = kappa0
    kap[40:80] = -kappa0
    kap[80:120] = 0.0
    X = rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-3.0, 2.0, size=(400, 1))
    X[120:130, 0] = 0.0
    u = hong._cascade_rows(ell, kap, X, grad=False)[1][-1]
    for x, kappa, u_row in zip(X, kap, u):
        u_ref, _ = hong._cascade(ell.tolist(), hong._exponents(n, kappa), x.tolist(), want_value=False)
        assert u_row == pytest.approx(u_ref, rel=1e-13, abs=0.0)
    # a constant array gives the float path's values
    for kappa in (kappa0, 0.0, -kappa0):
        rows = hong._cascade_rows(ell, np.full(len(X), kappa), X, grad=False)
        ref = hong._cascade_rows(ell, kappa, X, grad=False)
        np.testing.assert_allclose(rows[0], ref[0], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(rows[1][-1], ref[1][-1], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_design_gives_finite_kappa0_and_settling_bound(n):
    g = _small_gains(n)
    sp = design_switch_params(g, m=0.5)
    assert 0 < sp.kappa0 <= min(0.999 * g.kappa_pos, 0.999 / (2 * n))
    assert math.isfinite(sp.T_settle) and sp.T_settle > 0
    worst, allowed = band_decay_margin(g, sp, n_samples=30000, seed=19)
    assert worst <= allowed
    for m in (0.0, 1.0):
        with pytest.raises(ValueError):
            design_switch_params(g, m=m)


@pytest.mark.parametrize(
    "n, b_upper, pinned",
    [
        (2, 1.0, "(0.03121875, 179.44835984046605)"),
        (2, 3.0, "(0.0078046875, 721.2532024807596)"),
        (3, 1.0, "(0.00015609375, 19280.80975180992)"),
        (3, 3.0, "(7.8046875e-05, 38562.293648443076)"),
    ],
)
def test_design_is_pinned_bit_for_bit(n, b_upper, pinned):
    # Hong seed 0, m = 0.5, design seed 17: kappa0 and T_settle to the last bit
    g, _ = _setup(n)
    sp = design_switch_params(g, m=0.5, b_upper=b_upper, seed=17)
    assert repr((sp.kappa0, sp.T_settle)) == pinned


def test_dense_band_scan_refuses_what_the_sparse_one_accepts():
    # n=3, Hong seed 0, b_upper 1, design seed 17: the halving from the cap
    # reaches 3.122e-4, which a 3,000-sample scan accepts (margin 0.301 of an
    # allowed 0.332) but the 30,000-sample scan refuses (0.359)
    g = synthesize_hong_gains(3, HongSynthesisConfig(seed=0))
    sp = design_switch_params(g, m=0.5, b_upper=1.0, seed=17)
    assert sp.kappa0 <= 1.561e-4
    coarse = SwitchParams(m=0.5, kappa0=2.0 * sp.kappa0, P=sp.P, r_plus=0.0, r_minus=0.0,
                          T_settle=0.0, C=g.C, b_upper=1.0)
    worst, allowed = band_decay_margin(g, coarse, n_samples=3000, seed=19)
    assert worst <= allowed
    worst, allowed = band_decay_margin(g, coarse, n_samples=30000, seed=19)
    assert worst > allowed


def test_kappa0_formula_reproduces_band_decay():
    # the designed kappa0 comes from requiring dV0 <= -C V0/2 on the band;
    # verified at the designed value on fresh samples
    g, sp = _setup()
    rng = np.random.default_rng(8)
    for _ in range(500):
        z = rng.standard_normal(2)
        level = rng.uniform(1 - sp.m, 1 + sp.m)
        x = z * math.sqrt(level / v0_value(sp.P, z))
        u = fixed_time_feedback(g, sp, x)
        dV0, V0 = vdot_with_control(g, 0.0, x, u)
        assert dV0 <= -sp.C * V0 / 2 + 1e-9


def test_c1_ratio_bounded_as_kappa_vanishes():
    g, _ = _setup()
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2)
    x /= math.sqrt(v0_value(quadratic_form(g), x))
    u0, _ = hong_control(g, 0.0, x)
    ratios = []
    for kap in (1e-2, 1e-3, 1e-4):
        uk, _ = hong_control(g, kap, x)
        ratios.append(abs(uk - u0) / kap)
    assert max(ratios) < 100.0  # no blow-up as kappa -> 0


def test_z_value_properties():
    g, sp = _setup()
    assert z_value(g, sp, np.zeros(2)) == 0.0
    x = np.array([0.3, -0.1])
    z = z_value(g, sp, x)
    assert z > 0
    assert z_value(g, sp, x, alt_exponent=True) > 0


def test_geometric_condition_spot_check():
    # dV/dx_n * u <= 0 for the pure +/-kappa0 cascades on sphere samples
    from ptstab.hong import hong_lyapunov

    g, sp = _setup()
    rng = np.random.default_rng(10)
    for kap in (sp.kappa0, -sp.kappa0):
        for _ in range(200):
            x = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
            u, _ = hong_control(g, kap, x)
            _, grad = hong_lyapunov(g, kap, x)
            assert grad[-1] * u <= 1e-12