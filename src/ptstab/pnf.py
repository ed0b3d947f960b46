"""Robust linear gain synthesis and the time-varying (PNF) feedback.

The gain K and Lyapunov matrix S certify

    (J_n - b e_n K^T)^T S + S (J_n - b e_n K^T)  <=  -rho I   for all b >= b_lower,

which is verified exactly at the endpoint b = b_lower together with positive
semidefiniteness of the b-slope matrix (the family is affine in b).  A second
certificate (C0, rho0) extends the inequality to an additive perturbation
a*D_r with D_r = diag(n-i+1), |a| <= C0, which is what the warped dynamics
y' = (a D_r + J_n) y + (b u + d) e_n requires.  The perturbed LMI is affine
in a, so its exact bound is 1/max|mu| over the generalized eigenvalues of one
definite matrix pencil; C0 keeps a relative headroom of C0_REL_TOL under it.

The b-slope matrix sym(K (S e_n)^T) is PSD only when S e_n is a positive
multiple of K, so every certificate has the LQR form K = P e_n / b_lower,
S proportional to P, with P the solution of the Riccati equation
J^T P + P J - P e_n e_n^T P + Q = 0.  Synthesis searches Q over a short
geometric family and keeps the gain with the largest dilation-invariant
perturbation margin.

scipy.linalg is imported inside _riccati_gain and certify_perturbation, the
two steps of synthesis that need it; checking, reading or running a gain
does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import jordan_block, pnf_weights
from .timescale import TimeScale

__all__ = [
    "LinearGain",
    "SynthesisError",
    "synthesize_linear_gain",
    "certificate_checks",
    "certify_perturbation",
    "pnf_law",
    "pnf_feedback",
    "envelope_constants",
    "convergence_envelope",
    "noise_envelope",
]

# eigenvalue slack on all semidefiniteness checks
EIG_TOL = 1e-9
# relative headroom of C0 under the exact pencil bound 1/max|mu|, so that
# rounding cannot lift the perturbed max-eig at a = +/-C0 above 0
C0_REL_TOL = 1e-3
# least endpoint margin rho a certificate may carry, relative to max_eig(S):
# synthesis discards weaker candidates and verify fails them
RHO_FLOOR = 1e-6
# the Riccati state weights Q = diag(2^(k*(i-1))) searched.  Steepest first:
# at orders the solver cannot handle, the steep weights fail at once, so
# synthesis refuses within milliseconds
Q_RATIO_EXPONENTS = range(4, -9, -1)


class SynthesisError(RuntimeError):
    pass


@dataclass
class LinearGain:
    """Certified robust gain: feedback vector K, Lyapunov matrix S, margins."""

    n: int
    K: np.ndarray
    S: np.ndarray
    rho: float
    b_lower: float
    C0: float = 0.0
    rho0: float = 0.0


def _closed_loop(n: int, K: np.ndarray, b: float) -> np.ndarray:
    C = jordan_block(n)
    C[n - 1, :] -= b * K
    return C


def _lmi_matrix(g: LinearGain, b: float) -> np.ndarray:
    C = _closed_loop(g.n, g.K, b)
    return C.T @ g.S + g.S @ C


def _slope_matrix(g: LinearGain) -> np.ndarray:
    # d/db of -(C^T S + S C) = K e_n^T S + S e_n K^T
    n = g.n
    en = np.zeros(n)
    en[n - 1] = 1.0
    E = np.outer(g.K, en) @ g.S + g.S @ np.outer(en, g.K)
    return 0.5 * (E + E.T)


def _max_eig(M: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvalsh(0.5 * (M + M.T))))


def _lmi_checks(g: LinearGain) -> list:
    """(name, value, passed) of the exact one-sided-in-b checks: S > 0, endpoint and slope.

    The endpoint value is max-eig of the LMI matrix at b_lower plus rho
    (pass requires <= EIG_TOL), the slope value the least eigenvalue of the
    b-slope matrix (pass requires >= -EIG_TOL).  Affinity in b makes the
    endpoint and slope checks equivalent to validity on all of
    [b_lower, inf).
    """
    s_min = float(np.min(np.linalg.eigvalsh(g.S)))
    endpoint = _max_eig(_lmi_matrix(g, g.b_lower) + g.rho * np.eye(g.n))
    slope = float(np.min(np.linalg.eigvalsh(_slope_matrix(g))))
    return [
        ("S min-eig", s_min, s_min > 0),
        ("lmi endpoint max-eig + rho", endpoint, endpoint <= EIG_TOL),
        ("lmi slope min-eig", slope, slope >= -EIG_TOL),
    ]


def _perturbed_pencil(g: LinearGain, rho0: float):
    """(M + rho0 I, D_r S + S D_r), M the LMI matrix at b_lower."""
    Dr = np.diag(pnf_weights(g.n))
    return _lmi_matrix(g, g.b_lower) + rho0 * np.eye(g.n), Dr @ g.S + g.S @ Dr


def _perturbed_margin(pencil, c: float) -> float:
    """Largest max-eig of M + a*(D_r S + S D_r) + rho0 I over a = +/-c."""
    M0, H = pencil
    return max(_max_eig(M0 + a * H) for a in (-c, c))


def certificate_checks(g: LinearGain) -> list:
    """(name, value, passed) of every check of a certificate.

    The checks of _lmi_checks and rho >= RHO_FLOOR * max_eig(S) (a margin
    that small certifies no decay the eigenvalue checks can resolve), then,
    once C0 > 0, rho0 >= RHO_FLOOR/2 * max_eig(S) (synthesis sets
    rho0 = rho/2) and the perturbed endpoints a = +/-C0 at margin rho0 (pass
    requires <= EIG_TOL; certify_perturbation checks the same margin with
    no slack).
    """
    s_max = _max_eig(g.S)
    rho_ok = g.rho > 0 and g.rho >= RHO_FLOOR * s_max
    checks = _lmi_checks(g) + [("rho", g.rho, rho_ok)]
    if g.C0 > 0:
        worst = _perturbed_margin(_perturbed_pencil(g, g.rho0), g.C0)
        checks.append(("rho0", g.rho0, g.rho0 > 0 and g.rho0 >= RHO_FLOOR / 2 * s_max))
        checks.append(("perturbed endpoints + rho0", worst, worst <= EIG_TOL))
    return checks


def certify_perturbation(g: LinearGain):
    """Largest C0 with the LMI holding for |a| <= C0 at margin rho0 = rho/2.

    M0 + a*H (M0 the endpoint LMI matrix plus rho0 I, H = D_r S + S D_r) is
    affine in a and M0 < 0, so it stays negative semidefinite exactly for
    |a| <= 1/max|mu| over the eigenvalues mu of the definite pencil (H, -M0)
    (Boyd et al., LMIs in System and Control Theory, 1994, 2.2.3).  C0 sits
    C0_REL_TOL below that bound, and the perturbed max-eig at a = +/-C0 is
    checked once more without the EIG_TOL slack that verify allows; C0 = 0
    when -M0 is not numerically definite or that check fails.  Updates g in
    place and returns (C0, rho0).
    """
    from scipy.linalg import eigh

    if not all(ok for _, _, ok in _lmi_checks(g)):
        raise ValueError("gain fails its LMI checks; cannot certify perturbation")
    rho0 = g.rho / 2.0
    pencil = _perturbed_pencil(g, rho0)
    M0, H = pencil
    try:
        mu = eigh(H, -M0, eigvals_only=True)
        C0 = (1.0 - C0_REL_TOL) / float(np.max(np.abs(mu)))
    except np.linalg.LinAlgError:
        C0 = 0.0
    if C0 > 0 and _perturbed_margin(pencil, C0) > 0.0:
        C0 = 0.0
    g.C0 = C0
    g.rho0 = rho0
    return C0, rho0


def _riccati_gain(n: int, b_lower: float, k: int) -> LinearGain:
    """LQR certificate for Q = diag(2^(k*(i-1))), R = 1, with S scaled to unit norm."""
    from scipy.linalg import solve_continuous_are

    en = np.zeros((n, 1))
    en[n - 1] = 1.0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        # the weights overflow for n >= 257, before any n x n matrix exists
        q = 2.0 ** (k * np.arange(n))
        P = solve_continuous_are(jordan_block(n), en, np.diag(q), np.eye(1))
    P = 0.5 * (P + P.T)
    g = LinearGain(n=n, K=P[:, n - 1] / b_lower, S=P / _max_eig(P), rho=0.0, b_lower=b_lower)
    g.rho = -_max_eig(_lmi_matrix(g, b_lower))
    return g


def synthesize_linear_gain(n: int, b_lower: float) -> LinearGain:
    """Certified (K, S, rho) valid for every b >= b_lower, with (C0, rho0) set.

    Base case n=1: S = 1/2, K = 1/b_lower, rho = 1.  For n >= 2 each Riccati
    weight in Q_RATIO_EXPONENTS gives a candidate; those with rho >= RHO_FLOOR
    are certified by certify_perturbation and scored by
    C0 / max_i (b_lower K_i)^(1/r_i).  The pair (D_mu K, mu C0) certifies the
    same closed loop for every mu > 0, so the raw C0 is not comparable across
    candidates and the score is.  P does not depend on b_lower, so neither
    does the choice.  A solver failure, or no candidate clearing the floor,
    raises SynthesisError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not b_lower > 0:
        raise ValueError("b_lower must be positive")
    if n == 1:
        g = LinearGain(n=1, K=np.array([1.0 / b_lower]), S=np.array([[0.5]]), rho=1.0, b_lower=b_lower)
        certify_perturbation(g)
        return g
    best, best_score = None, 0.0
    for k in Q_RATIO_EXPONENTS:
        try:
            g = _riccati_gain(n, b_lower, k)
        except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
            raise SynthesisError(f"Riccati solver failed at n={n}: {exc}") from exc
        if not g.rho >= RHO_FLOOR:
            continue
        certify_perturbation(g)
        r = np.array(pnf_weights(n))
        score = g.C0 / float(np.max((b_lower * g.K) ** (1.0 / r)))
        if score > best_score:
            best, best_score = g, score
    if best is None:
        raise SynthesisError(f"no Riccati gain reaches rho >= {RHO_FLOOR:g} at n={n}")
    return best


def _feedback(K, r, s: float, x) -> float:
    """-sum_i K_i s^r_i x_i in floats, added left to right from 0.0; a power beyond double range is inf, as numpy's."""
    acc = 0.0
    for k, ri, xi in zip(K, r, x):
        try:
            p = s**ri
        except OverflowError:
            p = math.inf
        acc += k * (p * xi)
    return -acc


def pnf_law(g: LinearGain, ts: TimeScale, eta: float):
    """The feedback (t, x) -> -K^T D^r_{eta*lambda(t)} x of a float list x, with no numpy call per evaluation."""
    K, r, eta, lam = np.asarray(g.K, dtype=float).tolist(), pnf_weights(g.n), float(eta), ts.lam

    def u(t, x):
        return _feedback(K, r, eta * lam(t), x)

    return u


def pnf_feedback(g: LinearGain, ts: TimeScale, eta: float, t: float, x) -> float:
    """Time-varying linear control u = -K^T D^r_{eta*lambda(t)} x."""
    return pnf_law(g, ts, eta)(t, np.asarray(x, dtype=float).tolist())


def envelope_constants(g: LinearGain) -> dict:
    """Constants of the Lyapunov integration behind the decay envelopes.

    mu_rate = rho0/(2*max_eig(S)) is the exponential rate in the scaled
    warped time xi = eta*s; c_dist = 2*max_eig(S)*||S e_n||/(min_eig(S)*rho0)
    is the disturbance-to-state gain; c_init = sqrt(cond(S)) the transient
    factor.
    """
    if g.rho0 <= 0:
        raise ValueError("run certify_perturbation first (rho0 not set)")
    eig = np.linalg.eigvalsh(g.S)
    sig_min, sig_max = float(eig[0]), float(eig[-1])
    Sen = g.S[:, g.n - 1]
    mu_rate = g.rho0 / (2.0 * sig_max)
    c_dist = float(np.linalg.norm(Sen)) / (sig_min * mu_rate)
    return {
        "sig_min": sig_min,
        "sig_max": sig_max,
        "c_init": math.sqrt(sig_max / sig_min),
        "mu_rate": mu_rate,
        "c_dist": c_dist,
    }


def _require_eta(g: LinearGain, ts: TimeScale, eta: float):
    if eta < 1.0:
        raise ValueError("envelope requires eta >= 1")
    if g.C0 > 0 and eta < ts.a_sup() / g.C0 - 1e-12:
        raise ValueError(
            f"eta={eta} below C_a/C0={ts.a_sup() / g.C0:.4g}; certificate does not apply"
        )


def _transient(g: LinearGain, ts: TimeScale, eta: float, x0_norm: float, t: float):
    """(envelope_constants, eta*lambda(t), the x0 term of the amplitude) of both envelopes."""
    _require_eta(g, ts, eta)
    c = envelope_constants(g)
    e0 = eta * ts.lam(0.0)
    el = eta * ts.lam(t)
    amp = c["c_init"] * max(e0, e0**g.n) * math.exp(-c["mu_rate"] * eta * ts.s(t)) * x0_norm
    return c, el, amp


def convergence_envelope(
    g: LinearGain, ts: TimeScale, eta: float, x0_norm: float, d_sup: float, t: float
) -> np.ndarray:
    """Per-coordinate bound on |x_i(t)| under matched disturbance |d| <= d_sup.

    Derived from the certificate by integrating the Lyapunov inequality for
    z = D^r_{eta*lambda} x in the time xi = eta*s(t):

        |x_i(t)| <= [c_init * max(eta*lam0, (eta*lam0)^n) * exp(-mu_rate*eta*s(t)) * ||x0||
                     + c_dist * d_sup] / (eta*lambda(t))^{n-i+1}
    """
    c, el, amp = _transient(g, ts, eta, x0_norm, t)
    amp += c["c_dist"] * d_sup
    # near T a power of eta*lambda leaves the double range; its coordinate's bound is then 0
    with np.errstate(over="ignore"):
        return amp / el ** np.array(pnf_weights(g.n))


def noise_envelope(
    g: LinearGain,
    ts: TimeScale,
    eta: float,
    x0_norm: float,
    d1_sup: float,
    t: float,
    b_sup: float | None = None,
) -> np.ndarray:
    """Per-coordinate bound under measurement noise |d1(t)| <= d1_sup.

    The noisy feedback -K^T D^r_{eta*lambda}(x + d1) injects the matched
    disturbance -b K^T D^r_{eta*lambda} d1, whose envelope grows like
    max(eta*lam, (eta*lam)^n); coordinates i >= 2 therefore blow up as
    t -> T whenever d1_sup > 0 while i = 1 stays bounded.  b_sup defaults to
    g.b_lower (constant-gain plant).
    """
    c, el, amp = _transient(g, ts, eta, x0_norm, t)
    if b_sup is None:
        b_sup = g.b_lower
    gain = c["c_dist"] * b_sup * float(np.sum(np.abs(g.K)))
    r = np.array(pnf_weights(g.n))
    try:
        total = amp + gain * max(el, el**g.n) * d1_sup
    except OverflowError:
        total = math.inf
    if math.isfinite(total) and math.isfinite(el):
        return total / el**r
    # near T, (eta*lam)^n leaves the double range: each term is divided by
    # (eta*lam)^(n-i+1) on its own, so coordinate 1 keeps its finite noise
    # limit gain*d1_sup and the others grow to inf
    noise = gain * d1_sup
    with np.errstate(over="ignore"):
        env = amp / el**r
        if noise:
            env += noise * np.maximum(el ** (1.0 - r), el ** (g.n - r))
    return env
