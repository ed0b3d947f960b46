import builtins
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ptstab.core import dilate, pnf_weights
from ptstab.timescale import (
    EXPFLAT_T_RANGE,
    Density,
    _exp_times,
    build,
)

ALL_DENSITIES = [
    (1.0, Density("constant", 1.0)),
    (2.0, Density("constant", 0.5)),
    (2.0, Density("power", 2.0)),
    (1.5, Density("power", 3.0)),
    (1.0, Density("expflat")),
    (1.0, Density("power", 1.0)),
]


def test_constant_closed_forms():
    ts = build(1.0, Density("constant", 1.0))
    for t in np.linspace(0.0, 0.9, 10):
        assert ts.A(t) == pytest.approx(1.0 - t)
        assert ts.lam(t) == pytest.approx(1.0 / (1.0 - t))
        assert ts.s(t) == pytest.approx(math.log(1.0 / (1.0 - t)))


def test_density_catalog_refuses_meaningless_parameters():
    # c = inf would give A = inf and lambda = 0: no clock at all
    for c in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="constant density needs a finite c > 0"):
            Density("constant", c)
    for m in (0.0, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="power density needs integer m >= 1"):
            Density("power", m)
    with pytest.raises(ValueError, match="unknown density tag"):
        Density("linear", 1.0)
    assert build(1.0, Density("constant", 1e300)).lam(0.5) > 0


def test_power_law_example():
    ts = build(2.0, Density("power", 2.0))
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
    ts = build(3.0, Density("constant", 0.7))
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
        if dens.tag != "expflat":  # the closed-form lambda is 1/A bit for bit
            assert ts.lam(t) == 1.0 / ts.A(t)


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
    ts = build(1.0, Density("expflat"))
    # A(t) = exp(-1/(T-t)) and A' = -a
    for t in np.linspace(1e-4, 0.9, 15):
        assert ts.A(t) == pytest.approx(math.exp(-1.0 / (1.0 - t)))
        h = 1e-7
        dA = (ts.A(t + h) - ts.A(t - h)) / (2 * h)
        assert dA == pytest.approx(-ts.a(t), rel=1e-6)
    assert ts.a_sup() == pytest.approx(4.0 * math.exp(-2.0))


@pytest.mark.parametrize("T", [0.1, 0.3, 0.49])
def test_expflat_a_sup_below_half_is_the_value_at_zero(T):
    # a(t) = exp(-1/(T-t))/(T-t)^2 peaks at T-t = 1/2, out of reach for T < 1/2,
    # so a_sup (the default eta's C_a) is a(0); a dense sample finds no larger value
    ts = build(T, Density("expflat"))
    t = np.linspace(0.0, T * (1.0 - 1e-9), 200_001)
    u = T - t
    sampled = float(np.max(np.exp(-1.0 / u) / u**2))
    assert ts.a_sup() == pytest.approx(sampled, rel=1e-14)
    assert ts.a_sup() == ts.a(0.0)


def test_horizon_guard():
    ts = build(1.0, Density("constant", 1.0))
    with pytest.raises(ValueError):
        ts.lam(1.0)
    with pytest.raises(ValueError):
        ts.s(1.0 - 1e-12)
    with pytest.raises(ValueError):
        ts.a(-0.1)


# the warped state y = D^r_{eta*lambda(t)} x


def test_x_to_y_identity_at_zero():
    ts = build(1.0, Density("constant", 1.0))
    w = pnf_weights(3)
    x = np.array([1.0, -2.0, 3.0])
    assert np.allclose(dilate(w, ts.lam(0.0), x), x)


def test_x_to_y_example():
    ts = build(1.0, Density("constant", 1.0))
    w = pnf_weights(2)
    y = dilate(w, ts.lam(0.5), [1.0, 1.0])
    assert np.allclose(y, [4.0, 2.0])


def test_xy_roundtrip():
    rng = np.random.default_rng(5)
    ts = build(2.0, Density("power", 2.0))
    w = pnf_weights(4)
    for _ in range(50):
        t = rng.uniform(0.0, 0.99 * 2.0)
        x = rng.standard_normal(4)
        eta = rng.uniform(1.0, 5.0)
        lam = eta * ts.lam(t)
        back = dilate(w, 1.0 / lam, dilate(w, lam, x))
        assert np.allclose(back, x, rtol=1e-12, atol=1e-14)


# --- the closed-form expflat clock ------------------------------------------

DBL_MAX = float(np.finfo(float).max)


def _mp_expflat_clock(T, t):
    """s(t) = G(1/(T-t)) - G(1/T), G(u) = Ei(u) - e^u/u, at the double t."""
    T, t = mp.mpf(T), mp.mpf(t)

    def G(u):
        return mp.ei(u) - mp.exp(u) / u

    return G(1 / (T - t)) - G(1 / T)


# T = 0.02 starts the clock at u0 = 50 > ASYMPTOTIC_U, on a table of one panel;
# T = 10, 100 and 1e4 start it at u0 <= 0.1, on the short panels at the start of the table
@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 0.02, 10.0, 100.0, 1e4])
def test_expflat_clock_matches_mpmath(T):
    ts = build(T, Density("expflat"))
    u0 = 1.0 / T
    with mp.workdps(50):
        # u where the clock reaches the largest double
        u_lim = mp.findroot(lambda u: mp.log(_mp_expflat_clock(T, T - 1 / u) / DBL_MAX), 720)
        us = [u0 + h for h in np.geomspace(1e-15, 1.0, 80)]
        us += list(np.linspace(u0 + 1.0, float(u_lim) - 0.01, 300))
        us += [float(u_lim) - d for d in (1e-3, 1e-5, 1e-7)] + [float(u_lim) + d for d in (1e-3, 1.0, 50.0)]
        largest = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in us:
                t = T - 1.0 / u
                exact = _mp_expflat_clock(T, t)
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
    ts = build(T, Density("expflat"))
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
    ts = build(T, Density("expflat"))
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
    ts = build(1.0, Density("expflat"))
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
    ts = build(1.0, Density("expflat"))
    t = 1.0 - 1.0 / 700.0
    assert ts.lam(t) == pytest.approx(1.0 / ts.A(t), rel=1e-15)
    for u in (720.0, 750.0, 1e8):
        assert ts.lam(1.0 - 1.0 / u) == math.inf


def test_expflat_horizon_range():
    # below the range lambda(0) = e^(1/T) overflows, and above it the panel
    # sums do; t_of_s(1e-12) used to return 1.6e-36 at T = 1e-3 and 4.9e-4 at T = 1e160
    lo, hi = EXPFLAT_T_RANGE
    assert math.isfinite(math.exp(1.0 / lo)) and math.isfinite(2.0 * hi * hi)
    for T in (math.nextafter(lo, 0.0), 1e-3, math.nextafter(hi, math.inf), 1e155, 1e160):
        with pytest.raises(ValueError, match=r"expflat density needs T in \[0\.0014088.*, 9\.4807.*e\+153\]"):
            build(T, Density("expflat"))
    # at the edges and just inside them the clock is finite and inverts itself
    for T in (lo, math.nextafter(lo, 1.0), hi, math.nextafter(hi, 0.0)):
        ts = build(T, Density("expflat"))
        assert math.isfinite(ts.lam(0.0))
        for sig in (1.0, 1e150, 1e300) if T < 1.0 else (1.0, 1e100, 0.5 * T):
            assert ts.s(ts.t_of_s(sig)) == pytest.approx(sig, rel=1e-13)


def test_expflat_clock_refuses_arguments_below_its_resolution():
    # there h = t/(T(T-t)) (or, for T < 1, t itself) is a subnormal with too few bits: at sig = 1e-12
    # both range edges returned a t whose clock was 8.9e-5 relative off, and at T = 1e100
    # t_of_s(1e-300) returned 4.9e-124, whose clock was off by a factor of 4.9e176
    lo, hi = EXPFLAT_T_RANGE
    for T, sig in ((lo, 1e-12), (lo, 1e-20), (hi, 1e-12), (1e100, 1e-300)):
        with pytest.raises(ValueError, match=r"t_of_s\(.*\) with T=.*: below s_min = "):
            build(T, Density("expflat")).t_of_s(sig)
    for T, t in ((lo, 5.563e-321), (hi, 1e-12), (1e100, 4.9e-124)):
        with pytest.raises(ValueError, match=r"h = t/\(T\(T-t\)\) = .* is below h_min"):
            build(T, Density("expflat")).s(t)
    # from s_min on the clock inverts itself
    for T in (lo, 0.01, 1.0, 1e100, hi):
        ts = build(T, Density("expflat"))
        s_min = ts._clock.s_min
        for sig in (s_min, 1.5 * s_min, 1e3 * s_min):
            assert ts.s(ts.t_of_s(sig)) == pytest.approx(sig, rel=1e-13)
        with pytest.raises(ValueError):
            ts.t_of_s(0.5 * s_min)
    # at T = 1 every normal t keeps its clock, and time 0 stays exact
    ts = build(1.0, Density("expflat"))
    assert ts.s(0.0) == 0.0 and ts.t_of_s(0.0) == 0.0
    t = float(np.finfo(float).tiny)
    assert ts.s(t) == pytest.approx(t * math.e, rel=1e-13)


def test_expflat_clock_runs_no_import_per_evaluation(monkeypatch):
    # s and t_of_s run once per RHS evaluation of a warped run and must not
    # execute an import statement
    ts = build(1.0, Density("expflat"))
    imports = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    # u = 1/(1-t) runs from 1.7 to 50: over the panel table, then past u = 40 the series
    for t in np.linspace(0.4, 0.98, 21):
        ts.t_of_s(ts.s(float(t)))
        ts.lam(float(t))
    monkeypatch.undo()
    assert imports == []
