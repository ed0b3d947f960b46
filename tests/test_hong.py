import itertools
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from ptstab import hong
from ptstab.core import dilate, hong_weights, kappa_grid, onto_sphere, sample_sphere
from ptstab.hong import (
    CHUNK,
    KINK_TOL,
    HongGainSet,
    decay_residual,
    hong_control,
    hong_lyapunov,
    hong_value,
    kappa_pos_certified,
    synthesize_hong_gains,
    verify_decay,
)
from oracles import quadratic_form, sphere_residual

getcontext().prec = 60


def _gains(n, ell):
    return HongGainSet(
        n=n, ell=np.asarray(ell, dtype=float), C=0.1, kappa_pos=kappa_pos_certified(n)
    )


# -- beta exponents ---------------------------------------------------------


def beta_exponents(n, kappa):
    """Exponents b_0..b_{n-1}: b_0 = 1+kappa and (b_j+1)(1+j*kappa) = 2+kappa."""
    hong_weights(n, kappa)  # raises outside |kappa| <= 1/(2n)
    return np.array([b for b, _, _ in hong._exponents(n, kappa)])


def test_beta_kappa0_all_ones():
    assert np.allclose(beta_exponents(4, 0.0), 1.0)


def test_beta_n2_boundary():
    b = beta_exponents(2, 0.25)
    assert b[0] == pytest.approx(1.25)
    assert b[1] == pytest.approx(2.25 / 1.25 - 1.0)  # = 0.8


def test_beta_recurrence_oracle():
    # (b_j + 1) r_{j+1} = b_0 + 1 checked independently of the closed form
    for n, kap in [(3, -1.0 / 6.0), (4, 0.1), (5, -0.05)]:
        b = beta_exponents(n, kap)
        assert b[0] == pytest.approx(1.0 + kap)
        for j in range(1, n):
            r_next = 1.0 + j * kap
            assert (b[j] + 1.0) * r_next == pytest.approx(b[0] + 1.0, rel=1e-14)
        assert np.all(b > 0)


def test_beta_domain_error():
    with pytest.raises(ValueError):
        beta_exponents(2, 0.3)


# -- control cascade --------------------------------------------------------


def test_control_zero_at_origin():
    g = _gains(3, [1.0, 1.0, 1.0])
    u, vs = hong_control(g, 0.1, [0.0, 0.0, 0.0])
    assert u == 0.0
    assert all(v == 0.0 for v in vs)


def test_control_kappa0_linear_cascade():
    g = _gains(2, [1.0, 1.0])
    u, vs = hong_control(g, 0.0, [1.0, 0.0])
    assert vs[0] == pytest.approx(-1.0)
    assert u == pytest.approx(-1.0)  # -(x2 - v1) = -(0 - (-1))


def _dec_spow(x: Decimal, a: Decimal) -> Decimal:
    if x == 0:
        return Decimal(0)
    mag = abs(x)
    val = (a * mag.ln()).exp()
    return val if x > 0 else -val


def test_control_high_precision_oracle():
    # independent 60-digit Decimal evaluation of the cascade
    n, kap = 2, 0.25
    ell = [1.0, 1.0]
    g = _gains(n, ell)
    x = [1.0, 1.0]
    u, _ = hong_control(g, kap, x)

    kd = Decimal("0.25")
    r1, r2, r3 = Decimal(1), 1 + kd, 1 + 2 * kd
    b0 = r2
    b1 = (2 + kd) / r2 - 1
    v1 = -_dec_spow(_dec_spow(Decimal(1), b0), r2 / (r1 * b0))
    w2 = _dec_spow(Decimal(1), b1) - _dec_spow(v1, b1)
    v2 = -_dec_spow(w2, r3 / (r2 * b1))
    assert u == pytest.approx(float(v2), rel=1e-13)


def test_control_homogeneity_degree():
    # omega(D_lam x) = lam^{1 + n*kappa} * omega(x)
    rng = np.random.default_rng(8)
    for n in (2, 3):
        g = _gains(n, [1.0] * n)
        for _ in range(30):
            kap = rng.uniform(-1.0 / (2 * n), 1.0 / (2 * n))
            lam = rng.uniform(0.3, 4.0)
            x = rng.standard_normal(n)
            w = hong_weights(n, kap)
            u1, _ = hong_control(g, kap, dilate(w, lam, x))
            u0, _ = hong_control(g, kap, x)
            assert u1 == pytest.approx(lam ** (1.0 + n * kap) * u0, rel=1e-10, abs=1e-12)


# -- Lyapunov function ------------------------------------------------------


def test_value_n1_quadratic():
    g = _gains(1, [1.0])
    for x in (-2.0, 0.5, 3.0):
        assert hong_value(g, 0.0, [x]) == pytest.approx(x**2 / 2.0)


def test_value_homogeneity():
    rng = np.random.default_rng(9)
    g = _gains(3, [1.0, 2.0, 2.0])
    kap = 1.0 / 8.0
    w = hong_weights(3, kap)
    for _ in range(50):
        x = rng.standard_normal(3)
        v1 = hong_value(g, kap, dilate(w, 3.0, x))
        v0 = hong_value(g, kap, x)
        assert v1 == pytest.approx(3.0 ** (2.0 + kap) * v0, rel=1e-10)


def test_value_positive_definite():
    g = _gains(3, [1.0, 2.0, 2.0])
    for kap in kappa_grid(3, 5):
        pts = sample_sphere(3, [kap], 200, seed=12)[0]
        vals = [hong_value(g, kap, p) for p in pts]
        assert min(vals) > 0


def test_batch_matches_scalar_paths():
    rng = np.random.default_rng(10)
    g = _gains(3, [1.0, 2.0, 4.0])
    for _ in range(40):
        kap = rng.uniform(-1.0 / 6.0, 1.0 / 6.0)
        x = rng.standard_normal(3)
        V, _ = hong_lyapunov(g, kap, x)
        assert V == pytest.approx(hong_value(g, kap, x), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_finite_differences(n):
    g = _gains(n, [1.0, 2.0, 4.0][:n])
    rng = np.random.default_rng(13)
    kappas = [-1.0 / (2 * n) * 0.9, 0.0, 1.0 / (2 * n) * 0.9]
    for kap in kappas:
        checked = 0
        while checked < 100:
            x = rng.standard_normal(n) * rng.uniform(0.3, 2.0)
            _, vs = hong_control(g, kap, x)
            vprev = [0.0] + vs[:-1]
            if min(abs(x[j] - vprev[j]) for j in range(n)) < 1e-4:
                continue  # too close to a signed-power kink for h=1e-6
            V, grad = hong_lyapunov(g, kap, x)
            h = 1e-6
            for j in range(n):
                xp = x.copy()
                xp[j] += h
                xm = x.copy()
                xm[j] -= h
                fd = (hong_value(g, kap, xp) - hong_value(g, kap, xm)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            checked += 1


@pytest.mark.parametrize("ell", [(1.0, 2.0), (1.0, 2.0, 8.0)])
def test_v0_gradient_at_exact_zeros_matches_the_quadratic_form(ell):
    # at kappa = 0 every chain-rule exponent b - 1 and gamma - 1 is 0, so
    # states with zero coordinates (and zero v's) need 0^0 = 1 to keep 2Px
    n = len(ell)
    g = _gains(n, ell)
    P = quadratic_form(g)
    X = np.array([x for x in itertools.product((0.0, 1.0, -2.5), repeat=n) if any(x)])
    for x in X:
        _, grad = hong_lyapunov(g, 0.0, x)
        np.testing.assert_allclose(grad, 2.0 * P @ x, rtol=1e-14, atol=1e-14)
    # the float kappa and a per-row kappa array take the same 0^0 = 1
    for kappa in (0.0, np.zeros(len(X))):
        gradV = hong._cascade_rows(g.ell, kappa, X)[2]
        np.testing.assert_allclose(np.column_stack(gradV), 2.0 * X @ P, rtol=1e-14, atol=1e-14)


# -- synthesis and decay certificates --------------------------------------


def _sizes(monkeypatch, per_level, per_kappa):
    """Smaller synthesis scans: the sample counts per level and per kappa."""
    monkeypatch.setattr(hong, "SAMPLES_PER_LEVEL", per_level)
    monkeypatch.setattr(hong, "VERIFY_SAMPLES_PER_KAPPA", per_kappa)


def test_synthesize_n1(monkeypatch):
    _sizes(monkeypatch, 50, 50)
    g = synthesize_hong_gains(1)
    assert g.ell[0] == 1.0
    assert g.C > 0


def test_synthesize_n2_certificate():
    g = synthesize_hong_gains(2, seed=0)
    C, _ = verify_decay(g, samples_per_kappa=1000, seed=123)
    assert C > 0
    assert g.certificate["c_raw"] > 0
    assert g.certificate["worst_residual"] <= 0.0


def test_synthesize_n3_two_seeds(monkeypatch):
    _sizes(monkeypatch, 2000, 600)
    for seed in (1, 2):
        g = synthesize_hong_gains(3, seed=seed)
        assert g.C > 0
        assert decay_residual(g, samples_per_kappa=500, seed=seed + 50) <= 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_verify_decay_worst_point(n, monkeypatch):
    _sizes(monkeypatch, 2000, 600)
    g = synthesize_hong_gains(n, seed=1)
    C, (kap, x, ratio) = verify_decay(g, samples_per_kappa=500, seed=9)
    assert ratio == C
    assert sphere_residual(x, kap) < 1e-12
    assert hong._decay_scores(g.ell, kap, x[None, :])[0] == pytest.approx(C, rel=1e-12)


def test_kappa0_subcase_matches_eigensolver():
    # at kappa=0 the loop is linear; min(-dV/V) equals the (Q, P) pencil edge
    g = synthesize_hong_gains(2, seed=3)
    ell = g.ell
    # V0 = sum (x_j - v_{j-1})^2 / 2 as a quadratic form
    rows = []
    prev = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        row = e - prev
        rows.append(row)
        prev = -ell[j] * row
    P = 0.5 * sum(np.outer(r, r) for r in rows)
    # closed loop u = -ell2*(x2 - v1) = -ell2*ell1*x1 - ell2*x2
    A = np.array([[0.0, 1.0], [-ell[1] * ell[0], -ell[1]]])
    Q = -(A.T @ P + P @ A)
    from scipy.linalg import eigh

    pencil = eigh(Q, P, eigvals_only=True)
    c_lin = float(np.min(pencil))
    pts = sample_sphere(2, [0.0], 4000, seed=5)[0]
    # at kappa = 0 the score is -dV/V^(1+0)
    ratios = hong._decay_scores(ell, 0.0, pts)
    assert np.all(np.isfinite(ratios))
    assert np.min(ratios) == pytest.approx(c_lin, rel=0.02)


def test_elementary_power_gap_inequality():
    # A|x-y|^max(1,a) <= |<x>^a - <y>^a| <= B|x-y|^min(1,a) with fitted A, B
    rng = np.random.default_rng(14)
    for M in (1.0, 10.0):
        for a in (0.5, 1.0, 2.0):
            lo, hi = math.inf, 0.0
            for _ in range(4000):
                x, y = rng.uniform(-M, M, size=2)
                if abs(x - y) < 1e-9:
                    continue
                gap = abs(
                    math.copysign(abs(x) ** a, x) - math.copysign(abs(y) ** a, y)
                )
                lo = min(lo, gap / abs(x - y) ** max(1.0, a))
                hi = max(hi, gap / abs(x - y) ** min(1.0, a))
            assert 0.0 < lo <= hi < math.inf


def test_verify_refinement_stability():
    g = synthesize_hong_gains(2, seed=0)
    c1, _ = verify_decay(g, samples_per_kappa=2000, seed=200)
    c10, _ = verify_decay(g, samples_per_kappa=20000, seed=201)
    assert abs(c10 - c1) / c1 < 0.10


# -- the scan kernel against the per-matrix cascade it replaced -------------


def _oracle_abs_pow(B, e):
    """|B|^e with 0^0 = 1 and 0^e := 0 for e < 0."""
    out = np.zeros_like(B)
    nz = (B != 0) | (e == 0)
    out[nz] = np.abs(B[nz]) ** e
    return out


def _oracle_cascade_batch(ell, kappa, X, grad=True):
    """The cascade as it was written over (N, j) matrices, with masked gathers."""
    X = np.asarray(X, dtype=float)
    N, j = X.shape
    v = np.zeros(N)
    dv = np.zeros((N, j)) if grad else None
    V = np.zeros(N)
    gradV = np.zeros((N, j)) if grad else None
    v_all = np.empty((N, j))
    for lvl, (b, b1, gam) in enumerate(hong._exponents(j, kappa)):
        xl = X[:, lvl]
        sx = np.sign(xl) * _oracle_abs_pow(xl, b)
        sv = np.sign(v) * _oracle_abs_pow(v, b)
        w = sx - sv
        V += (np.abs(xl) ** b1 - np.abs(v) ** b1) / b1 - sv * (xl - v)
        if grad:
            if lvl > 0:
                fac = -b * _oracle_abs_pow(v, b - 1.0) * (xl - v)
                gradV[:, :lvl] += fac[:, None] * dv[:, :lvl]
            gradV[:, lvl] += w
            dw = np.zeros((N, j))
            if lvl > 0:
                dw[:, :lvl] = (-b * _oracle_abs_pow(v, b - 1.0))[:, None] * dv[:, :lvl]
            dw[:, lvl] = b * _oracle_abs_pow(xl, b - 1.0)
            dv = (-ell[lvl] * gam * _oracle_abs_pow(w, gam - 1.0))[:, None] * dw
        v = -ell[lvl] * np.sign(w) * _oracle_abs_pow(w, gam)
        v_all[:, lvl] = v
    return {"v_all": v_all, "V": V, "gradV": gradV, "dv_last": dv}


def _oracle_kink_mask(X, v_all):
    v_prev = np.concatenate([np.zeros((X.shape[0], 1)), v_all[:, :-1]], axis=1)
    return np.min(np.abs(X - v_prev), axis=1) > KINK_TOL


def _oracle_decay_rows(ell, kappa, X):
    """(X, dV/dt, V^{1+alpha}) with the kink rows compacted out."""
    j = X.shape[1]
    res = _oracle_cascade_batch(ell[:j], kappa, X, grad=True)
    keep = _oracle_kink_mask(X, res["v_all"])
    X, V, gradV, u = X[keep], res["V"][keep], res["gradV"][keep], res["v_all"][keep, -1]
    dV = np.zeros(len(X))
    for i in range(j - 1):
        dV += gradV[:, i] * X[:, i + 1]
    return X, dV + gradV[:, -1] * u, V ** (1.0 + hong.alpha_of(kappa))


def _oracle_stress_samples(X, kappa, rng):
    """The stress rows as they were drawn: per interior coordinate, N uniforms from rng."""
    N, j = X.shape
    if j < 3:
        return X[:0]
    w = hong_weights(j, kappa)
    out = []
    for i in range(1, j - 1):
        Y = X.copy()
        Y[:, i] *= 10.0 ** -rng.uniform(1.0, 12.0, size=N)
        out.append(onto_sphere(w, Y))
    return np.concatenate(out, axis=0)


def _oracle_sample_sphere(n, grid, N, seed):
    """sample_sphere as it was: one normal draw per kappa, placed at once."""
    rng = np.random.default_rng(seed)
    out = np.empty((len(grid), N, n))
    for g, kap in enumerate(grid):
        z = rng.standard_normal((N, n))
        z[np.all(z == 0.0, axis=1)] = 1.0
        out[g] = onto_sphere(hong_weights(n, kap), z)
    return out


def _oracle_scan_rows(n, kappa_points, kappa_pos, samples_per_kappa, seed):
    """(kappa, X) per grid kappa, every row drawn and placed eagerly in grid order."""
    grid = kappa_grid(n, kappa_points, kappa_pos)
    pts = _oracle_sample_sphere(n, grid, samples_per_kappa, seed)
    rng = np.random.default_rng(seed + 31)
    for kap, P in zip(grid, pts):
        yield kap, np.concatenate([P, _oracle_stress_samples(P, kap, rng)], axis=0)


def _oracle_scan(g, kappa_points, samples_per_kappa, seed):
    for kap, X in _oracle_scan_rows(g.n, kappa_points, g.kappa_pos, samples_per_kappa, seed):
        yield (kap, *_oracle_decay_rows(g.ell, kap, X))


def _oracle_verify_decay(g, kappa_points, samples_per_kappa, seed):
    best, worst = math.inf, None
    for kap, X, dV, Vp in _oracle_scan(g, kappa_points, samples_per_kappa, seed):
        ratios = -dV / Vp
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best = float(ratios[i])
            worst = (float(kap), X[i].copy(), best)
    return best, worst


def _oracle_decay_residual(g, kappa_points, samples_per_kappa, seed):
    worst = -math.inf
    for _, _, dV, Vp in _oracle_scan(g, kappa_points, samples_per_kappa, seed):
        worst = max(worst, float(np.max(dV + g.C * Vp)))
    return worst


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


_ORACLE_ELL = [1.0, 2.0, 8.0, 32.0, 256.0]


def _edge_rows(n, kappa, N, seed):
    """N states: magnitudes 1e-9..1e2, exact zeros, -0.0 and a negative subnormal
    (whose power underflows to -0.0), and rows on, next to or exactly KINK_TOL from the kinks."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, n)) * 10.0 ** rng.uniform(-9.0, 2.0, size=(N, n))
    special = rng.choice(N, size=min(N, 80), replace=False)
    for k, r in enumerate(special):
        col = k % n
        kind = k % 8
        if kind == 0:
            X[r, col] = 0.0
        elif kind == 1:
            X[r, col] = -0.0
        elif kind == 2:
            X[r] = 0.0
        elif kind == 6:
            X[r, 0] = math.copysign(KINK_TOL, X[r, 0])
        elif kind == 7:
            X[r, col] = -1e-320
        elif col > 0:
            # x_col on v_{col-1}, or within KINK_TOL of it
            v_prev = _oracle_cascade_batch(_ORACLE_ELL[:n], kappa, X[r : r + 1])["v_all"][0, col - 1]
            X[r, col] = v_prev + (0.0, 0.5 * KINK_TOL, -2.0 * KINK_TOL)[kind - 3]
    return X


def _oracle_kappas(n):
    return (-1.0 / (2 * n), 0.0, kappa_pos_certified(n), 1.0 / (2 * n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cascade_rows_matches_oracle_bits(n):
    ell = np.array(_ORACLE_ELL[:n])
    for kap in _oracle_kappas(n):
        X = _edge_rows(n, kap, 997, seed=40 + n)
        ref = _oracle_cascade_batch(ell, kap, X)
        V, vs, gradV, dv, gap = hong._cascade_rows(ell, kap, X)
        _same_bits(V, ref["V"])
        _same_bits(np.column_stack(vs), ref["v_all"])
        _same_bits(np.column_stack(gradV), ref["gradV"])
        _same_bits(np.column_stack(dv), ref["dv_last"])
        assert np.array_equal(gap > KINK_TOL, _oracle_kink_mask(X, ref["v_all"]))
        assert not np.all(gap > KINK_TOL)  # the kink rows are there
        V_only, vs_only, no_grad, no_dv, _ = hong._cascade_rows(ell, kap, X, grad=False)
        _same_bits(V_only, ref["V"])
        _same_bits(np.column_stack(vs_only), ref["v_all"])
        assert no_grad is None and no_dv is None


@pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_decay_scores_match_oracle_bits(n, rows):
    ell = _ORACLE_ELL[:n]
    C = 0.37
    for kap in _oracle_kappas(n):
        X = _edge_rows(n, kap, rows, seed=rows + n)
        ref = _oracle_cascade_batch(ell, kap, X)
        keep = _oracle_kink_mask(X, ref["v_all"])
        _, dV, Vp = _oracle_decay_rows(ell, kap, X)
        ratio = np.full(rows, math.inf)
        ratio[keep] = -dV / Vp
        resid = np.full(rows, -math.inf)
        resid[keep] = dV + C * Vp
        _same_bits(hong._decay_scores(ell, kap, X), ratio)
        _same_bits(hong._decay_scores(ell, kap, X, C), resid)


@pytest.mark.parametrize("n, samples", [(1, 300), (2, CHUNK + 1), (3, 700), (4, 3000), (5, 500)])
def test_verify_and_residual_match_oracle(n, samples):
    g = _gains(n, _ORACLE_ELL[:n])
    C, (kap, x, ratio) = verify_decay(g, 11, samples, seed=5)
    C_ref, (kap_ref, x_ref, ratio_ref) = _oracle_verify_decay(g, 11, samples, 5)
    _same_bits(C, C_ref)
    _same_bits(kap, kap_ref)
    _same_bits(x, x_ref)
    _same_bits(ratio, ratio_ref)
    _same_bits(decay_residual(g, 11, samples, seed=6), _oracle_decay_residual(g, 11, samples, 6))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scan_rows_on_demand_match_eager_bits(n):
    # rows placed per kappa, in any order, are the eagerly drawn and placed ones
    g = _gains(n, _ORACLE_ELL[:n])
    grid = kappa_grid(n, 11, g.kappa_pos)
    _same_bits(sample_sphere(n, grid, 257, 3), _oracle_sample_sphere(n, grid, 257, 3))
    ref = list(_oracle_scan_rows(n, 11, g.kappa_pos, 257, 3))
    shuffled = np.random.default_rng(n).permutation(11)
    for order in (None, shuffled):
        scan = hong._certificate_scan(g, 11, 257, 3, order=order)
        for k, (kap, X, _) in zip(range(11) if order is None else order, scan):
            _same_bits(kap, ref[k][0])
            _same_bits(X, ref[k][1])


# -- the certificate loop against the one that scanned everything ----------


def _oracle_kappa_minima(g, kappa_points, samples_per_kappa, seed):
    """(kappa, x, ratio) at each grid kappa's least decay ratio, in grid order."""
    out = []
    for kap, X, dV, Vp in _oracle_scan(g, kappa_points, samples_per_kappa, seed):
        ratios = -dV / Vp
        i = int(np.argmin(ratios))
        out.append((float(kap), X[i].copy(), float(ratios[i])))
    return out


def _oracle_synthesize_hong_gains(n, seed):
    """synthesize_hong_gains as it was: every dense scan runs over the whole
    grid, and each repair re-checks the levels in order, doubling the first
    failing one (fallback: the deepest).  A failing round's worst sample is
    the one that fails it: the raw scan's least ratio, or the first running
    minimum of the dense scan, read worst raw kappa first, that fails the
    round."""
    kappa_pos = kappa_pos_certified(n)
    grid = kappa_grid(n, hong.KAPPA_POINTS, kappa_pos)
    ell = [1.0]
    level_pts = {}
    for j in range(2, n + 1):
        level_pts[j] = sample_sphere(j, grid, hong.SAMPLES_PER_LEVEL, seed + 101 * j)

    def level_ok(j, gains):
        worst = math.inf
        for kap, X in zip(grid, level_pts[j]):
            worst = min(worst, float(np.min(hong._decay_scores(gains, kap, X))))
        return worst >= hong.LEVEL_TARGET

    for j in range(2, n + 1):
        lj = 1.0
        while not level_ok(j, ell + [lj]):
            lj *= 2.0
        ell.append(lj)

    g = HongGainSet(n=n, ell=np.array(ell), C=0.0, kappa_pos=kappa_pos)
    rounds = 0
    while True:
        raw = _oracle_kappa_minima(g, hong.KAPPA_POINTS, hong.VERIFY_SAMPLES_PER_KAPPA, seed + 7 + rounds)
        worst = min(raw, key=lambda w: w[2])
        C_raw = worst[2]
        if C_raw > 0:

            def stable(C):
                return C > 0 and abs(C - C_raw) / C_raw <= 0.05

            dense = _oracle_kappa_minima(
                g, hong.KAPPA_POINTS, 10 * hong.VERIFY_SAMPLES_PER_KAPPA, seed + 57 + rounds
            )
            C_dense = min(w[2] for w in dense)
            if stable(C_dense):
                break
            running = math.inf
            for k in np.argsort([w[2] for w in raw], kind="stable"):
                if dense[k][2] < running:
                    running, worst = dense[k][2], dense[k]
                    if running < C_raw and not stable(running):
                        break
        rounds += 1
        if rounds > hong.MAX_ROUNDS:
            raise hong.GainSynthesisError("decay verification failed after repairs", worst, C_raw)
        for j in range(2, n + 1):
            if not level_ok(j, list(g.ell[:j])):
                g.ell[j - 1] *= 2.0
                break
        else:
            g.ell[-1] *= 2.0
    g.C = 0.85 * min(C_raw, C_dense)
    g.certificate = {
        "kappa_points": hong.KAPPA_POINTS,
        "samples_per_level": hong.SAMPLES_PER_LEVEL,
        "verify_samples_per_kappa": hong.VERIFY_SAMPLES_PER_KAPPA,
        "seed": seed,
        "c_raw": C_raw,
        "repair_rounds": rounds,
    }
    g.certificate["worst_residual"] = decay_residual(
        g, hong.KAPPA_POINTS, hong.VERIFY_SAMPLES_PER_KAPPA, seed + 997
    )
    return g


def _assert_same_gains(g, ref):
    assert g.ell.tobytes() == ref.ell.tobytes()
    _same_bits(g.C, ref.C)
    assert repr(g.certificate) == repr(ref.certificate)


@pytest.mark.parametrize(
    "n, cfg",
    [
        (1, (0, None)),
        (2, (0, None)),
        (3, (11, None)),  # 8 repair rounds
        (4, (2, None)),
        (5, (0, (300, 60))),
    ],
)
def test_synthesis_matches_oracle_loop(n, cfg, monkeypatch):
    # cfg is (seed, the (per level, per kappa) sample counts or None for the defaults)
    seed, sizes = cfg
    if sizes:
        _sizes(monkeypatch, *sizes)
    _assert_same_gains(synthesize_hong_gains(n, seed=seed), _oracle_synthesize_hong_gains(n, seed=seed))


def test_synthesis_failure_matches_oracle_loop(monkeypatch):
    # the last round's worst point lies at an interior kappa, not at the grid
    # end, and comes from its dense scan
    _sizes(monkeypatch, 1000, 200)
    with pytest.raises(hong.GainSynthesisError) as ref:
        _oracle_synthesize_hong_gains(4, seed=0)
    with pytest.raises(hong.GainSynthesisError) as got:
        synthesize_hong_gains(4)
    assert str(got.value) == str(ref.value)
    (kap, x, ratio), (kap_ref, x_ref, ratio_ref) = got.value.worst, ref.value.worst
    _same_bits(kap, kap_ref)
    _same_bits(x, x_ref)
    _same_bits(ratio, ratio_ref)
    _same_bits(got.value.c_raw, ref.value.c_raw)


def test_failed_round_reports_the_dense_scan_worst(monkeypatch):
    # n=3 at these sizes fails its first round on the dense scan; with no
    # repairs allowed, the error carries the dense sample that fails it, not
    # the raw scan's least ratio
    _sizes(monkeypatch, 200, 100)
    g = synthesize_hong_gains(3)
    rounds = g.certificate["repair_rounds"]
    assert rounds > 0
    g0 = HongGainSet(n=3, ell=g.ell.copy(), C=0.0, kappa_pos=g.kappa_pos)
    g0.ell[-1] /= 2.0**rounds
    C_raw, _ = verify_decay(g0, hong.KAPPA_POINTS, hong.VERIFY_SAMPLES_PER_KAPPA, 7)
    assert C_raw > 0
    monkeypatch.setattr(hong, "MAX_ROUNDS", 0)
    with pytest.raises(hong.GainSynthesisError) as err:
        synthesize_hong_gains(3)
    kap, x, ratio = err.value.worst
    assert ratio < C_raw and not (ratio > 0 and abs(ratio - C_raw) / C_raw <= 0.05)
    assert hong._decay_scores(g0.ell, kap, x[None, :])[0] == pytest.approx(ratio, rel=1e-12)


def test_synthesis_scan_work_bound(monkeypatch):
    # n=3 at seed 0 takes 3 repair rounds; scanning every dense row of every
    # round and re-checking the levels scores 2,057,000 rows
    rows = [0]
    score = hong._decay_scores

    def counted(ell, kappa, X, C=None):
        rows[0] += len(X)
        return score(ell, kappa, X, C)

    monkeypatch.setattr(hong, "_decay_scores", counted)
    g = synthesize_hong_gains(3)
    assert g.certificate["repair_rounds"] == 3
    assert rows[0] <= 1_100_000
    monkeypatch.undo()
    _assert_same_gains(g, _oracle_synthesize_hong_gains(3, seed=0))
