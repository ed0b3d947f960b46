import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ptstab.core import jordan_block, pnf_weights
from ptstab.pnf import (
    C0_REL_TOL,
    EIG_TOL,
    Q_RATIO_EXPONENTS,
    RHO_FLOOR,
    LinearGain,
    _perturbed_margin,
    _perturbed_pencil,
    _riccati_gain,
    certificate_checks,
    certify_perturbation,
    convergence_envelope,
    envelope_constants,
    noise_envelope,
    pnf_feedback,
    synthesize_linear_gain,
)
from ptstab.sim import pnf_controller
from ptstab.timescale import Density, build
from oracles import dilation_matrix, pnf_u, verify_lmi


def _lmi_max_eig(g, b, a=0.0):
    n = g.n
    C = jordan_block(n)
    C[n - 1, :] -= b * g.K
    if a != 0.0:
        C += a * np.diag([float(n - i) for i in range(n)])
    M = C.T @ g.S + g.S @ C
    return float(np.max(np.linalg.eigvalsh(0.5 * (M + M.T))))


def test_n1_exact_certificate():
    g = synthesize_linear_gain(1, 1.0)
    assert g.K[0] == pytest.approx(1.0)
    assert g.S[0, 0] == pytest.approx(0.5)
    assert g.rho == pytest.approx(1.0)
    ok, endpoint, slope = verify_lmi(g)
    assert ok


def test_n1_scaled_b_lower():
    g = synthesize_linear_gain(1, 4.0)
    assert g.K[0] == pytest.approx(0.25)
    assert verify_lmi(g)[0]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("b_lower", [0.25, 1.0, 4.0])
def test_synthesis_battery(n, b_lower):
    g = synthesize_linear_gain(n, b_lower)
    ok, endpoint, slope = verify_lmi(g)
    assert ok, (n, b_lower, endpoint, slope)
    assert np.min(np.linalg.eigvalsh(g.S)) > 0


def test_verify_fails_on_sign_flip():
    g = LinearGain(n=1, K=np.array([-1.0]), S=np.array([[0.5]]), rho=1.0, b_lower=1.0)
    ok, endpoint, slope = verify_lmi(g)
    assert not ok
    assert slope < 0  # N = -1 breaks monotonicity in b


def test_verify_rejects_indefinite_s():
    # endpoint and slope both pass here; only the sign of S gives it away
    g = LinearGain(n=1, K=np.array([-1.0]), S=np.array([[-0.5]]), rho=1.0, b_lower=1.0)
    ok, endpoint, slope = verify_lmi(g)
    assert endpoint <= EIG_TOL and slope >= -EIG_TOL
    assert not ok


def test_monotone_robustness_in_b():
    for n in (2, 3, 4):
        g = synthesize_linear_gain(n, 0.5)
        for factor in (2.0, 100.0):
            assert _lmi_max_eig(g, factor * g.b_lower) <= -g.rho + 1e-9


def test_certify_perturbation_n1():
    g = synthesize_linear_gain(1, 1.0)
    C0, rho0 = certify_perturbation(g)
    assert rho0 == pytest.approx(0.5)
    assert C0 == pytest.approx(0.5, rel=5e-3)


def test_certify_perturbation_n2():
    g = synthesize_linear_gain(2, 1.0)
    C0, rho0 = certify_perturbation(g)
    assert C0 > 0
    assert rho0 == pytest.approx(g.rho / 2)
    # at a = 0 the margin rho0 is a weakening of verify_lmi
    assert _lmi_max_eig(g, g.b_lower, 0.0) <= -rho0 + 1e-9
    # endpoints hold with the certified margin
    for a in (C0, -C0):
        assert _lmi_max_eig(g, g.b_lower, a) <= -rho0 + 1e-8


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("b_lower", [0.5, 1.0, 1.7, 3.0])
def test_certified_c0_holds_without_slack(n, b_lower):
    # the perturbed inequality at |a| <= C0 must hold outright, not only
    # within the EIG_TOL slack that verify allows
    g = synthesize_linear_gain(n, b_lower)
    C0, rho0 = certify_perturbation(g)
    assert C0 > 0 and rho0 > 0
    rows = {name: (value, ok) for name, value, ok in certificate_checks(g)}
    assert rows["perturbed endpoints + rho0"][0] <= 0.0
    assert all(ok for _, ok in rows.values())


def _bisected_c0(g, rho0):
    """C0 as a doubling, shrinking and bisection search on the perturbed margin finds it."""
    pencil = _perturbed_pencil(g, rho0)

    def ok_at(c):
        return _perturbed_margin(pencil, c) <= 0.0

    lo, hi = 0.0, 1e-3
    while ok_at(hi) and hi <= 1e12:
        lo, hi = hi, 2.0 * hi
    if lo == 0.0:
        while hi > 1e-15 and not ok_at(hi):
            hi /= 2.0
        lo, hi = (hi, 2.0 * hi) if hi > 1e-15 else (0.0, 1e-15)
    while hi - lo > C0_REL_TOL * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok_at(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("n", range(1, 14))
@pytest.mark.parametrize("b_lower", [0.25, 0.5, 1.0, 1.7, 3.0, 4.0])
def test_closed_form_c0_matches_the_bisected_search(n, b_lower):
    # the pencil bound sits within the bisection's bracket, and scoring the
    # Riccati candidates by the bisected C0 picks the same gain bit for bit
    g = synthesize_linear_gain(n, b_lower)
    pencil = _perturbed_pencil(g, g.rho0)
    assert _perturbed_margin(pencil, g.C0) <= 0.0
    assert _perturbed_margin(pencil, g.C0 / (1.0 - 2.0 * C0_REL_TOL)) > 0.0
    assert all(ok for _, _, ok in certificate_checks(g))
    lo = _bisected_c0(g, g.rho0)
    assert (1.0 - C0_REL_TOL) * lo <= g.C0 * (1.0 + 1e-6) and g.C0 <= lo * (1.0 + 1e-6)
    if n == 1:
        expected = LinearGain(n=1, K=np.array([1.0 / b_lower]), S=np.array([[0.5]]), rho=1.0, b_lower=b_lower)
    else:
        r = np.array(pnf_weights(n))
        best_score = 0.0
        for k in Q_RATIO_EXPONENTS:
            cand = _riccati_gain(n, b_lower, k)
            if not cand.rho >= RHO_FLOOR:
                continue
            score = _bisected_c0(cand, cand.rho / 2.0) / float(np.max((b_lower * cand.K) ** (1.0 / r)))
            if score > best_score:
                expected, best_score = cand, score
    assert g.K.tobytes() == expected.K.tobytes() and g.S.tobytes() == expected.S.tobytes()
    assert g.rho.hex() == float(expected.rho).hex() and g.rho0.hex() == (expected.rho / 2.0).hex()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eta", [1.0, 2.0, 10.0])
def test_scaled_lmi_via_dilation(n, eta):
    # conjugating the certificate by D_eta keeps the inequality with margin
    # rho0 * eta * (D_eta)^2 for |a| <= eta*C0, b >= b_lower
    g = synthesize_linear_gain(n, 1.0)
    certify_perturbation(g)
    w = pnf_weights(n)
    D = dilation_matrix(w, eta)
    S_eta = D @ g.S @ D
    K_eta = D @ g.K
    Dr = np.diag([float(n - i) for i in range(n)])
    for a in (-g.C0, 0.0, g.C0):
        for b in (g.b_lower, 3.0 * g.b_lower):
            C = a * Dr + jordan_block(n)
            C[n - 1, :] -= b * K_eta
            M = C.T @ S_eta + S_eta @ C + g.rho0 * eta * D @ D
            assert float(np.max(np.linalg.eigvalsh(0.5 * (M + M.T)))) <= 1e-7


def test_pnf_feedback_values():
    ts = build(1.0, Density("constant", 1.0))
    g1 = synthesize_linear_gain(1, 1.0)
    assert pnf_feedback(g1, ts, 1.0, 0.5, [2.0]) == pytest.approx(-4.0)
    assert pnf_feedback(g1, ts, 1.0, 0.3, [0.0]) == 0.0
    g2 = synthesize_linear_gain(2, 1.0)
    u0 = pnf_feedback(g2, ts, 1.0, 0.0, [1.0, 1.0])
    assert u0 == pytest.approx(-(g2.K[0] + g2.K[1]))
    with pytest.raises(ValueError):
        pnf_feedback(g2, ts, 1.0, 1.0, [1.0, 1.0])


@pytest.mark.parametrize("n", range(1, 7))
def test_bound_pnf_law_matches_feedback_bit_for_bit(n):
    # the controller binds K and r once; its u must keep the bits of
    # pnf_feedback and of the float formula it evaluates (numpy's powers and
    # BLAS dot give other bits on about one state in seven)
    g = synthesize_linear_gain(n, 1.0)
    rng = np.random.default_rng([n, 8])
    # expflat's lambda = e^(1/(1-t)) keeps lambda^6 finite on [0, 0.95]
    for dens, t_hi in ((Density("constant", 1.0), 0.999), (Density("power", 2.0), 0.999), (Density("expflat"), 0.95)):
        ts = build(1.0, dens)
        eta = max(1.0, ts.a_sup() / g.C0)
        u = pnf_controller(g, ts, eta).u
        for _ in range(500):
            t = float(rng.uniform(0.0, t_hi))
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            expected = pnf_u(g.K, eta * ts.lam(t), x)
            assert u(t, x.tolist()).hex() == pnf_feedback(g, ts, eta, t, x).hex() == expected.hex()


@pytest.mark.parametrize("n", range(1, 9))
def test_pnf_law_within_the_dot_product_error_bound(n):
    # against the exact rational value at the same float K, s = eta*lambda(t)
    # and x, the law's error stays under (n+2) u sum_i |K_i s^r_i x_i| with
    # u = 2^-52: the bound of an n-term dot product (Higham 2002, 3.1) with
    # a power and two products per term
    g = synthesize_linear_gain(n, 1.0)
    r = pnf_weights(n)
    rng = np.random.default_rng([n, 9])
    for dens, t_hi in ((Density("constant", 1.0), 0.999), (Density("power", 2.0), 0.999), (Density("expflat"), 0.95)):
        ts = build(1.0, dens)
        eta = max(1.0, ts.a_sup() / g.C0)
        u = pnf_controller(g, ts, eta).u
        for _ in range(300):
            t = float(rng.uniform(0.0, t_hi))
            x = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)).tolist()
            s = Fraction(eta * ts.lam(t))
            terms = [Fraction(k) * s ** int(ri) * Fraction(xi) for k, ri, xi in zip(g.K.tolist(), r, x)]
            bound = (n + 2) * Fraction(1, 2**52) * sum(map(abs, terms))
            assert abs(Fraction(u(t, x)) + sum(terms)) <= bound


def test_pnf_law_overflow_gives_numpys_value_without_warning():
    # at expflat t = 1 - 1/500, lambda = e^500 is finite but (eta*lambda)^2 is
    # not: the powers count as inf, as numpy's do, so u is -inf, and nan
    # where an infinite power meets a zero coordinate
    g = synthesize_linear_gain(3, 1.0)
    ts = build(1.0, Density("expflat"))
    t = 1.0 - 1.0 / 500.0
    u = pnf_controller(g, ts, 11.0).u
    for x in ([1.0, 0.5, 0.2], [0.0, 0.5, 0.2]):
        with np.errstate(over="ignore", invalid="ignore"):
            numpy_u = -float(np.dot(g.K, (11.0 * ts.lam(t)) ** np.array(pnf_weights(3)) * np.array(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = u(t, x)
            assert pnf_feedback(g, ts, 11.0, t, x).hex() == got.hex()
        assert got.hex() == numpy_u.hex()
    assert math.isfinite(ts.lam(t)) and u(t, [1.0, 0.5, 0.2]) == -math.inf and math.isnan(got)


def _certified(n):
    g = synthesize_linear_gain(n, 1.0)
    certify_perturbation(g)
    return g


def _eta_min(g, ts):
    return max(1.0, ts.a_sup() / g.C0)


def test_envelope_zero_cases():
    g = _certified(2)
    ts = build(1.0, Density("constant", 1.0))
    env = convergence_envelope(g, ts, _eta_min(g, ts), 0.0, 0.0, 0.5)
    assert np.allclose(env, 0.0)


def test_envelope_vanishes_at_horizon():
    g = _certified(2)
    ts = build(1.0, Density("constant", 1.0))
    eta = _eta_min(g, ts)
    vals = [
        np.max(convergence_envelope(g, ts, eta, 1.0, 0.0, t))
        for t in (0.9, 0.99, 0.999, 0.9999)
    ]
    assert vals[-1] < 1e-3 * vals[0]
    assert all(np.diff(vals) < 0)


def test_noise_envelope_reduces_and_blows_up():
    g = _certified(2)
    ts = build(1.0, Density("constant", 1.0))
    eta = _eta_min(g, ts)
    a = noise_envelope(g, ts, eta, 1.0, 0.0, 0.5)
    b = convergence_envelope(g, ts, eta, 1.0, 0.0, 0.5)
    assert np.allclose(a, b)
    # with noise, coordinate 1 stays bounded while coordinate 2 grows
    early = noise_envelope(g, ts, eta, 1.0, 0.1, 0.5)
    late = noise_envelope(g, ts, eta, 1.0, 0.1, 1.0 - 1e-6)
    assert late[0] < 10.0 * max(1.0, early[0])
    assert late[1] > 1e3 * early[1]


def test_noise_envelope_limit_at_the_expflat_horizon():
    # (eta*lam)^2 overflows at T-t = 1/400 and lam is inf at 1/715; the
    # envelope must stay a number there, finite in coordinate 1
    g = _certified(2)
    ts = build(1.0, Density("expflat"))
    eta = 1.01 * ts.a_sup() / g.C0
    noise = envelope_constants(g)["c_dist"] * g.b_lower * float(np.sum(np.abs(g.K))) * 0.1
    # coordinate 1 tends to the noise limit while the envelope is still finite
    assert noise_envelope(g, ts, eta, 1.0, 0.1, 1.0 - 1.0 / 300.0)[0] == pytest.approx(noise, rel=1e-12)
    for t, last in ((1.0 - 1.0 / 400.0, 1e170), (1.0 - 1.0 / 715.0, math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = noise_envelope(g, ts, eta, 1.0, 0.1, t)
            quiet = noise_envelope(g, ts, eta, 1.0, 0.0, t)
        assert env[0] == pytest.approx(noise, rel=1e-12) and env[1] >= last
        with np.errstate(over="ignore"):
            conv = convergence_envelope(g, ts, eta, 1.0, 0.0, t)
        # convergence_envelope divides its terms by (eta*lam)^(n-i+1), so
        # its 0 (or 1e-174 at 1/400) is the limit, and without noise the
        # noise envelope is that same envelope
        assert np.all(conv < 1e-170) and quiet.tobytes() == conv.tobytes()


def test_convergence_envelope_is_quiet_at_the_expflat_horizon():
    # (eta*lam)^2 overflows at T-t = 1/400: coordinate 1's bound is 0 and
    # coordinate 2's is c_dist*d_sup/(eta*lam), with no RuntimeWarning
    g = _certified(2)
    ts = build(1.0, Density("expflat"))
    eta = 1.01 * ts.a_sup() / g.C0
    t = 1.0 - 1.0 / 400.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = convergence_envelope(g, ts, eta, 1.0, 0.1, t)
    assert env[0] == 0.0 and env[1] == pytest.approx(4.7397e-174, rel=1e-4)
    with np.errstate(over="ignore"):
        ref = (envelope_constants(g)["c_dist"] * 0.1) / (eta * ts.lam(t)) ** np.array([2.0, 1.0])
    assert env.tobytes() == ref.tobytes()


def test_envelopes_keep_their_bits():
    # both envelopes share one transient term; each must keep the bits of
    # the expression it was written as
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        g = _certified(n)
        c = envelope_constants(g)
        r = np.array(pnf_weights(n))
        for dens in (Density("constant", 1.0), Density("power", 2.0), Density("expflat")):
            ts = build(1.0, dens)
            eta = _eta_min(g, ts) * float(rng.uniform(1.0, 3.0))
            for t in rng.uniform(0.0, 0.9, 20):
                x0n, d_sup, d1_sup, b_sup = rng.uniform(0.0, 5.0, 4)
                e0 = eta * ts.lam(0.0)
                el = eta * ts.lam(t)
                amp = c["c_init"] * max(e0, e0**n) * math.exp(-c["mu_rate"] * eta * ts.s(t)) * x0n
                conv = (amp + c["c_dist"] * d_sup) / (eta * ts.lam(t)) ** r
                assert convergence_envelope(g, ts, eta, x0n, d_sup, t).tobytes() == conv.tobytes()
                for b in (None, b_sup):
                    bb = g.b_lower if b is None else b
                    noise = (amp + c["c_dist"] * bb * float(np.sum(np.abs(g.K))) * max(el, el**n) * d1_sup) / el**r
                    assert noise_envelope(g, ts, eta, x0n, d1_sup, t, b_sup=b).tobytes() == noise.tobytes()


def test_pnf_law_past_the_expflat_double_range():
    # lambda is inf there, so the feedback is non-finite (a rejected step
    # for the integrator), not an exception
    g = _certified(2)
    ts = build(1.0, Density("expflat"))
    u = pnf_controller(g, ts, _eta_min(g, ts)).u
    for t in (1.0 - 1.0 / 720.0, 1.0 - 1.0 / 750.0):
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(u(t, np.array([1.0, 0.0])))


def test_envelope_requires_eta():
    g = _certified(2)
    ts = build(1.0, Density("constant", 1.0))
    with pytest.raises(ValueError):
        convergence_envelope(g, ts, 0.5, 1.0, 0.0, 0.1)
    assert g.C0 < 1.0  # constant(1) density then requires eta > 1
    with pytest.raises(ValueError):
        convergence_envelope(g, ts, 1.0, 1.0, 0.0, 0.1)


def test_envelope_constants_positive():
    g = _certified(3)
    c = envelope_constants(g)
    assert c["mu_rate"] > 0 and c["c_dist"] > 0 and c["c_init"] >= 1.0


def test_semiglobal_noise_bound():
    # on [0, 0.9T] the noisy feedback keeps sup|x_i| under the (finite)
    # noise envelope once eta matches the lambda scale at the cut time
    from ptstab.core import ChainSpec
    from ptstab.sim import (
        DisturbanceSpec,
        SimOptions,
        vector_signal,
        constant_signal,
        integrate,
        pnf_controller,
    )

    g = _certified(2)
    ts = build(1.0, Density("constant", 1.0))
    eta = max(_eta_min(g, ts), ts.lam(0.9))
    spec = ChainSpec(n=2, T=1.0)
    rng = np.random.default_rng(77)
    for _ in range(5):
        x0 = rng.standard_normal(2)
        d1 = rng.uniform(-0.3, 0.3, size=2)
        dist = DisturbanceSpec(d1=vector_signal(d1, constant_signal(1.0)))
        traj = integrate(
            spec, pnf_controller(g, ts, eta, 0.9), dist, x0,
            SimOptions(rel_tol=1e-8, abs_tol=1e-11), horizon=1.0,
        )
        d1n = float(np.linalg.norm(d1))
        x0n = float(np.linalg.norm(x0))
        for i_t in range(len(traj.t)):
            env = noise_envelope(g, ts, eta, x0n, d1n, traj.t[i_t], b_sup=1.0)
            assert np.all(np.abs(traj.x[i_t]) <= env + 1e-14)
