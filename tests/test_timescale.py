import builtins
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from ptstab.core import dilate, pnf_weights
from ptstab.timescale import (
    Density,
    _exp_times,
    build,
    constant_density,
    expflat_density,
    power_density,
    x_to_y,
)

ALL_DENSITIES = [
    (1.0, constant_density(1.0)),
    (2.0, constant_density(0.5)),
    (2.0, power_density(2)),
    (1.5, power_density(3)),
    (1.0, expflat_density()),
    (1.0, power_density(1)),
]


def test_constant_closed_forms():
    ts = build(1.0, constant_density(1.0))
    for t in np.linspace(0.0, 0.9, 10):
        assert ts.A(t) == pytest.approx(1.0 - t)
        assert ts.lam(t) == pytest.approx(1.0 / (1.0 - t))
        assert ts.s(t) == pytest.approx(math.log(1.0 / (1.0 - t)))


def test_power_law_example():
    ts = build(2.0, power_density(2))
    for t in np.linspace(0.0, 1.9, 12):
        assert ts.A(t) == pytest.approx((2.0 - t) ** 2 / 2.0)
        assert ts.lam(t) == pytest.approx(2.0 / (2.0 - t) ** 2)
        assert ts.s(t) == pytest.approx(t / (2.0 - t), rel=1e-12, abs=1e-12)


def _raw_density(T, dens):
    # independent integrand, written from the catalog definition
    if dens.tag == "constant":
        return lambda xi: dens.param
    if dens.tag == "power":
        return lambda xi: (T - xi) ** (dens.param - 1.0)
    return lambda xi: math.exp(-1.0 / (T - xi)) / (T - xi) ** 2


def _per_density_forms(tag, p, T):
    """The constant and power closed forms written out density by density."""
    if tag == "constant":
        return {
            "a": lambda t: p,
            "A": lambda t: p * (T - t),
            "lam": lambda t: 1.0 / (p * (T - t)),
            "s": lambda t: math.log(T / (T - t)) / p,
            "t_of_s": lambda sig: T * (1.0 - math.exp(-p * sig)),
            "a_sup": p,
        }
    return {
        "a": lambda t: (T - t) ** (p - 1.0),
        "A": lambda t: (T - t) ** p / p,
        "lam": lambda t: 1.0 / ((T - t) ** p / p),
        "s": lambda t: (
            math.log(T / (T - t)) if p == 1 else p / (p - 1.0) * ((T - t) ** (1.0 - p) - T ** (1.0 - p))
        ),
        "t_of_s": lambda sig: (
            T * (1.0 - math.exp(-sig))
            if p == 1
            else T - (T ** (1.0 - p) + sig * (p - 1.0) / p) ** (-1.0 / (p - 1.0))
        ),
        "a_sup": T ** (p - 1.0),
    }


@pytest.mark.parametrize(
    "tag, params",
    [("constant", (0.3, 0.5, 1.0, 1.7, 3.3, 7.0)), ("power", (1.0, 2.0, 3.0, 4.0, 5.0, 8.0))],
)
def test_power_family_matches_per_density_forms_bit_for_bit(tag, params):
    # the constant density c is evaluated as the m = 1 member of a = c (T-t)^(m-1)
    fracs = np.concatenate([np.linspace(0.0, 1.0, 61), 1.0 - np.logspace(-9, -1, 40)]).tolist()
    sigmas = np.concatenate([np.logspace(-12, 6, 80), [math.inf]]).tolist()
    for p in params:
        for T in (0.25, 1.0, 3.7, 10.0):
            ts = build(T, Density(tag, p))
            forms = _per_density_forms(tag, p, T)
            assert ts.a_sup() == forms["a_sup"]
            for t in (T * f for f in fracs if T * f <= T * (1.0 - 1e-9)):
                for name in ("a", "A", "lam", "s"):
                    assert getattr(ts, name)(t) == forms[name](t), (name, p, T, t)
            for sig in sigmas:
                assert ts.t_of_s(sig) == forms["t_of_s"](sig), (p, T, sig)


@pytest.mark.parametrize("T,dens", ALL_DENSITIES)
def test_defining_integrals_by_quadrature(T, dens):
    ts = build(T, dens)
    a_raw = _raw_density(T, dens)
    t_hi = 0.9 * T if dens.tag == "expflat" else 0.97 * T
    for t in np.linspace(0.0, t_hi, 20):
        A_quad, _ = quad(a_raw, t, T, epsabs=1e-12, epsrel=1e-11, limit=200)
        assert ts.A(t) == pytest.approx(A_quad, rel=1e-8, abs=1e-10)
        s_quad, _ = quad(ts.lam, 0.0, t, epsabs=1e-13, epsrel=1e-11, limit=200)
        assert ts.s(t) == pytest.approx(s_quad, rel=1e-9, abs=1e-10)


def test_constant_quadrature_match_20_samples():
    ts = build(3.0, constant_density(0.7))
    for t in np.linspace(0.0, 2.9, 20):
        s_quad, _ = quad(ts.lam, 0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert abs(ts.s(t) - s_quad) < 1e-10 * max(1.0, abs(s_quad))


@pytest.mark.parametrize("T,dens", ALL_DENSITIES)
def test_lambda_ode_identity(T, dens):
    # lambda'/lambda^2 = a, lambda' by central difference
    ts = build(T, dens)
    t_hi = 0.9 * T if dens.tag == "expflat" else 0.97 * T
    for t in np.linspace(0.01 * T, t_hi, 100):
        h = 1e-6 * T
        dlam = (ts.lam(t + h) - ts.lam(t - h)) / (2 * h)
        assert dlam / ts.lam(t) ** 2 == pytest.approx(ts.a(t), rel=1e-8 * 100)


@pytest.mark.parametrize("T,dens", ALL_DENSITIES)
def test_t_of_s_roundtrip(T, dens):
    # double precision caps the roundtrip at lambda(t)*eps*T: representing t
    # near T already perturbs s by that much, so only assert below the cap
    ts = build(T, dens)
    for sig in np.linspace(0.0, 20.0, 25):
        t = ts.t_of_s(sig)
        if ts.lam(t) * np.finfo(float).eps * T > 0.5e-10:
            continue
        assert ts.s(t) == pytest.approx(sig, abs=1e-10, rel=1e-10)


@pytest.mark.parametrize("T,dens", ALL_DENSITIES)
def test_monotonicity(T, dens):
    ts = build(T, dens)
    grid = np.linspace(0.0, 0.95 * T, 60)
    lams = [ts.lam(t) for t in grid]
    ss = [ts.s(t) for t in grid]
    assert np.all(np.diff(lams) > 0)
    assert np.all(np.diff(ss) > 0)


def test_expflat_areas():
    ts = build(1.0, expflat_density())
    # A(t) = exp(-1/(T-t)) and A' = -a
    for t in np.linspace(1e-4, 0.9, 15):
        assert ts.A(t) == pytest.approx(math.exp(-1.0 / (1.0 - t)))
        h = 1e-7
        dA = (ts.A(t + h) - ts.A(t - h)) / (2 * h)
        assert dA == pytest.approx(-ts.a(t), rel=1e-6)
    assert ts.a_sup() == pytest.approx(4.0 * math.exp(-2.0))


def test_horizon_guard():
    ts = build(1.0, constant_density(1.0))
    with pytest.raises(ValueError):
        ts.lam(1.0)
    with pytest.raises(ValueError):
        ts.s(1.0 - 1e-12)
    with pytest.raises(ValueError):
        ts.a(-0.1)


def test_x_to_y_identity_at_zero():
    ts = build(1.0, constant_density(1.0))
    w = pnf_weights(3)
    x = np.array([1.0, -2.0, 3.0])
    assert np.allclose(x_to_y(ts, w, 1.0, 0.0, x), x)


def test_x_to_y_example():
    ts = build(1.0, constant_density(1.0))
    w = pnf_weights(2)
    y = x_to_y(ts, w, 1.0, 0.5, [1.0, 1.0])
    assert np.allclose(y, [4.0, 2.0])


def y_to_x(ts, w, eta, t, y):
    """Inverse of x_to_y: x = D^r_{1/(eta*lambda(t))} y."""
    return dilate(w, 1.0 / (eta * ts.lam(t)), y)


def test_xy_roundtrip():
    rng = np.random.default_rng(5)
    ts = build(2.0, power_density(2))
    w = pnf_weights(4)
    for _ in range(50):
        t = rng.uniform(0.0, 0.99 * 2.0)
        x = rng.standard_normal(4)
        eta = rng.uniform(1.0, 5.0)
        back = y_to_x(ts, w, eta, t, x_to_y(ts, w, eta, t, x))
        assert np.allclose(back, x, rtol=1e-12, atol=1e-14)


# --- the closed-form expflat clock ------------------------------------------

DBL_MAX = float(np.finfo(float).max)


def _mp_expflat_clock(mp, T, t):
    """s(t) = G(1/(T-t)) - G(1/T), G(u) = Ei(u) - e^u/u, at the double t."""
    T, t = mp.mpf(T), mp.mpf(t)

    def G(u):
        return mp.ei(u) - mp.exp(u) / u

    return G(1 / (T - t)) - G(1 / T)


# T = 0.02 starts the clock at u0 = 50 > ASYMPTOTIC_U, where G(u0) comes from the series
@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 0.02])
def test_expflat_clock_matches_mpmath(T):
    mp = pytest.importorskip("mpmath")
    ts = build(T, expflat_density())
    u0 = 1.0 / T
    with mp.workdps(50):
        # u where the clock reaches the largest double
        u_lim = mp.findroot(lambda u: mp.log(_mp_expflat_clock(mp, T, T - 1 / u) / DBL_MAX), 720)
        us = [u0 + h for h in np.geomspace(1e-15, 1.0, 80)]
        us += list(np.linspace(u0 + 1.0, float(u_lim) - 0.01, 300))
        us += [float(u_lim) - d for d in (1e-3, 1e-5, 1e-7)] + [float(u_lim) + d for d in (1e-3, 1.0, 50.0)]
        largest = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in us:
                t = T - 1.0 / u
                exact = _mp_expflat_clock(mp, T, t)
                if exact > DBL_MAX:
                    with pytest.raises(OverflowError):
                        ts.s(t)
                    continue
                got = ts.s(t)
                if exact == 0:  # u0 + h rounds to u0 when h is below half an ulp of u0
                    assert got == 0.0, (u, got)
                    continue
                assert abs(got / exact - 1) <= 1e-12, (u, got, exact)
                largest = max(largest, got)
    assert largest > 0.5 * DBL_MAX


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 0.02])
def test_expflat_inverse_clock_roundtrip(T):
    ts = build(T, expflat_density())
    clock = ts._clock
    for sig in np.logspace(-12, 300, 400):
        # in the solver's variable h = 1/(T-t) - 1/T
        assert abs(_exp_times(*clock.scaled(clock.solve(sig))) - sig) <= 1e-13 * sig
        # through t, where the spacing of doubles near t also caps it (one
        # step of t moves s by about (T/(T-t))^2 * 1.1e-16 relative, 5e-11
        # at sig = 1e300): sig lies between the clock at t's two neighbours
        t = ts.t_of_s(sig)
        assert 0.0 < t < T
        s_lo = ts.s(math.nextafter(t, 0.0))
        s_hi = ts.s(math.nextafter(t, T))
        assert s_lo * (1 - 1e-13) <= sig <= s_hi * (1 + 1e-13)
        assert abs(ts.s(t) - sig) <= max(1e-13 * sig, s_hi - s_lo)


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 0.02])
def test_expflat_clock_strictly_monotone(T):
    ts = build(T, expflat_density())
    sigs = np.unique(np.concatenate([np.linspace(0.0, 60.0, 12001), np.logspace(-12, 308, 3201)]))
    t = np.array([ts.t_of_s(sig) for sig in sigs])
    assert np.all(np.diff(t) > 0) and t[-1] < T
    # s up to the u where it leaves the double range (about 722.95)
    u = np.linspace(1.0 / T, 721.0, 20001)
    s = np.array([ts.s(T - 1.0 / ui) for ui in u])
    assert np.all(np.diff(s) > 0) and np.all(np.isfinite(s))


def test_expflat_clock_near_the_horizon():
    # quadrature returned 0.0 here with only an IntegrationWarning, and the
    # root-find ended in an OverflowError traceback
    ts = build(1.0, expflat_density())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # e^600/600^2 * (1 + 2/600 + 6/600^2 + ...) - G(1)
        assert ts.s(1.0 - 1.0 / 600.0) == pytest.approx(1.0515723171219e255, rel=1e-12)
        with pytest.raises(OverflowError, match="exceeds the double range"):
            ts.s(1.0 - 1.0 / 730.0)
        for sig in (1e300, DBL_MAX):
            assert 0.0 < ts.t_of_s(sig) < 1.0
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ts.t_of_s(bad)


def test_expflat_lambda_past_the_double_range():
    # lambda = e^(1/(T-t)) leaves the double range at T-t of about 1/709.8,
    # inside the horizon guard: it is inf there, never a ZeroDivisionError
    ts = build(1.0, expflat_density())
    t = 1.0 - 1.0 / 700.0
    assert ts.lam(t) == pytest.approx(1.0 / ts.A(t), rel=1e-15)
    for u in (720.0, 750.0, 1e8):
        assert ts.lam(1.0 - 1.0 / u) == math.inf


def test_expflat_clock_runs_no_import_per_evaluation(monkeypatch):
    # scipy.special.expi is bound when the clock is built; s and t_of_s run
    # once per RHS evaluation and must not execute an import statement
    ts = build(1.0, expflat_density())
    imports = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    # t in (1/3, 39/40) puts u = 1/(1-t) on the Ei branch of the clock
    for t in np.linspace(0.4, 0.97, 20):
        ts.t_of_s(ts.s(float(t)))
        ts.lam(float(t))
    monkeypatch.undo()
    assert imports == []
