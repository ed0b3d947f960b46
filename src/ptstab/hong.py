"""Homogeneous finite-time cascade controller (Hong-style backstepping).

For kappa in [-1/(2n), 1/(2n)] and weights r_j = 1 + (j-1)*kappa the cascade

    v_0 = 0,   v_j = -ell_j * < <x_j>^{b_{j-1}} - <v_{j-1}>^{b_{j-1}} >^{r_{j+1}/(r_j b_{j-1})}

(with <z>^a = sign(z)|z|^a and b_{j-1} = (2+kappa)/r_j - 1) stabilizes the
pure integrator chain with u = v_n.  The C^1 Lyapunov function

    V_kappa = sum_j W_j,   W_j = int_{v_{j-1}}^{x_j} (<s>^{b_{j-1}} - <v_{j-1}>^{b_{j-1}}) ds

is r(kappa)-homogeneous of degree 2+kappa and satisfies the decay

    dV_kappa/dt <= -C * V_kappa^{1+alpha(kappa)},   alpha(kappa) = kappa/(2+kappa),

with one constant C over a certified kappa interval.  The decay is checked
numerically on the weighted unit spheres (homogeneity extends a sphere
certificate to all of R^n \\ {0}), including targeted probes of the layers
{x_i ~ 0} where positive-kappa decay degrades first; for n >= 3 those layers
force a cap on the certified positive extent (see kappa_pos_certified).
Gains are picked level by level as the smallest powers of two passing the
normalized level decay, then the whole set is re-verified, repaired by
doubling the first failing level, and accepted only once the sampled
constant is stable under a tenfold denser scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import _hong_r, check_kappa, hong_weights, kappa_grid, onto_sphere, sample_sphere

__all__ = [
    "alpha_of",
    "beta_exponents",
    "kappa_pos_certified",
    "HongGainSet",
    "HongSynthesisConfig",
    "hong_control",
    "hong_value",
    "hong_lyapunov",
    "closed_loop_derivative",
    "verify_decay",
    "decay_residual",
    "synthesize_hong_gains",
    "GainSynthesisError",
]

# verification samples this close to a signed-power kink are discarded;
# the gradient formulas hold only a.e.
KINK_TOL = 1e-8

# synthesis constants: points of the certified degree grid, the factor that
# inflates/deflates the recorded recursion bounds, the normalized level decay
# each gain must clear, and the repair rounds before synthesis gives up
KAPPA_POINTS = 11
SAFETY = 4.0
LEVEL_TARGET = 0.02
MAX_ROUNDS = 20


class GainSynthesisError(RuntimeError):
    def __init__(self, msg, worst=None):
        super().__init__(msg)
        self.worst = worst


def alpha_of(kappa: float) -> float:
    """Decay exponent alpha(kappa) = kappa/(2+kappa)."""
    return kappa / (2.0 + kappa)


def kappa_pos_certified(n: int) -> float:
    """Positive extent of the certified degree interval.

    For n >= 3 and kappa > 0 the inner exponents drop below one, the cascade
    acquires vertical tangents on {x_j = 0}, and the flow derivative of V
    turns positive in a layer around {x_j = 0, x_{j+1} = v_j} that no gain
    choice repairs (the offending chain term is gain-independent).  The
    layer width shrinks exponentially in 1/kappa, so certificates claim
    the positive side only up to a cap where the layer sits below what
    float64 sphere samples can reach; verification additionally probes the
    layer directly (see the stress samples in verify_decay).  Evaluation of
    the controller stays legal on the full closed interval.
    """
    return 1.0 / (2 * n) if n <= 2 else min(1.0 / (4 * n), 0.02)


def beta_exponents(n: int, kappa: float) -> np.ndarray:
    """Exponents b_0..b_{n-1}: b_0 = 1+kappa and (b_j+1)(1+j*kappa) = 2+kappa."""
    check_kappa(n, kappa)
    return np.array([b for b, _, _ in _exponents(n, kappa)])


def _abs_pow(B: np.ndarray, e: float) -> np.ndarray:
    """|B|^e with the a.e. convention 0^e := 0 (also for e <= 0)."""
    out = np.zeros_like(B)
    nz = B != 0
    out[nz] = np.abs(B[nz]) ** e
    return out


@lru_cache(maxsize=32)  # bounded: band scans pass continuous kappa values
def _exponents(n: int, kappa: float) -> tuple:
    """Per-level (b_{j-1}, b_{j-1} + 1, r_{j+1}/(r_j b_{j-1})) of the cascade, unchecked."""
    kappa = float(kappa)
    r = _hong_r(n + 1, kappa)
    out = []
    for lvl in range(n):
        b = (2.0 + kappa) / r[lvl] - 1.0
        out.append((b, b + 1.0, r[lvl + 1] / (r[lvl] * b)))
    return tuple(out)


def _cascade(ell, exps, x, want_value: bool = True, vs: list | None = None):
    """Float-only cascade over one state; returns (u, V or None).

    ``exps`` comes from _exponents; the intermediate v's are appended to
    ``vs`` when it is given.  The signed powers <z>^a are written out
    inline, with <0>^a := 0.
    """
    v = 0.0
    V = 0.0
    for el, (b, b1, gam), xl in zip(ell, exps, x):
        xl = float(xl)
        sv = math.copysign(abs(v) ** b, v) if v else 0.0
        w = (math.copysign(abs(xl) ** b, xl) if xl else 0.0) - sv
        if want_value:
            V += (abs(xl) ** b1 - abs(v) ** b1) / b1 - sv * (xl - v)
        v = -el * (math.copysign(abs(w) ** gam, w) if w else 0.0)
        if vs is not None:
            vs.append(v)
    return v, (V if want_value else None)


def _cascade_batch(ell, kappa: float, X: np.ndarray, grad: bool = True):
    """Vectorized cascade over rows of X (shape (N, j)).

    Returns dict with v_all (N, j), V (N,), gradV (N, j) and dv_last (N, j),
    the gradient of the final v.  Gradients use the a.e. formulas; callers
    must avoid kink points.
    """
    X = np.asarray(X, dtype=float)
    N, j = X.shape
    v = np.zeros(N)
    dv = np.zeros((N, j)) if grad else None
    V = np.zeros(N)
    gradV = np.zeros((N, j)) if grad else None
    v_all = np.empty((N, j))
    for lvl, (b, b1, gam) in enumerate(_exponents(j, kappa)):
        xl = X[:, lvl]
        sx = np.sign(xl) * _abs_pow(xl, b)
        sv = np.sign(v) * _abs_pow(v, b)
        w = sx - sv
        V += (np.abs(xl) ** b1 - np.abs(v) ** b1) / b1 - sv * (xl - v)
        if grad:
            if lvl > 0:
                fac = -b * _abs_pow(v, b - 1.0) * (xl - v)
                gradV[:, :lvl] += fac[:, None] * dv[:, :lvl]
            gradV[:, lvl] += w
            dw = np.zeros((N, j))
            if lvl > 0:
                dw[:, :lvl] = (-b * _abs_pow(v, b - 1.0))[:, None] * dv[:, :lvl]
            dw[:, lvl] = b * _abs_pow(xl, b - 1.0)
            dv = (-ell[lvl] * gam * _abs_pow(w, gam - 1.0))[:, None] * dw
        v = -ell[lvl] * np.sign(w) * _abs_pow(w, gam)
        v_all[:, lvl] = v
    return {"v_all": v_all, "V": V, "gradV": gradV, "dv_last": dv}


@dataclass
class HongGainSet:
    """Cascade gains with the sampled decay certificate.

    ``C`` is the certified (deflated) decay constant, valid on the degree
    interval [-kappa_bound, kappa_pos]; ``certificate`` records grids, seeds,
    the raw sampled constant and the conservative recursion bounds per level.
    """

    n: int
    ell: np.ndarray
    C: float
    kappa_bound: float
    kappa_pos: float = 0.0
    certificate: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kappa_pos == 0.0:
            self.kappa_pos = kappa_pos_certified(self.n)

    def check_kappa(self, kappa: float):
        if abs(kappa) > self.kappa_bound + 1e-12:
            raise ValueError(f"kappa={kappa} outside +/-{self.kappa_bound}")


def hong_control(g: HongGainSet, kappa: float, x, ell=None):
    """Control u = v_n of the cascade, with the intermediate v's.

    ``ell`` overrides the stored gains (used for the b_lower adaptation).
    """
    g.check_kappa(kappa)
    gains = np.asarray(g.ell if ell is None else ell, dtype=float).tolist()
    vs = []
    u, _ = _cascade(gains, _exponents(len(x), kappa), x, want_value=False, vs=vs)
    return u, vs


def hong_value(g: HongGainSet, kappa: float, x) -> float:
    """Lyapunov value V_kappa(x) (scalar fast path, no gradient)."""
    g.check_kappa(kappa)
    _, V = _cascade(g.ell.tolist(), _exponents(len(x), kappa), x)
    return V


def hong_lyapunov(g: HongGainSet, kappa: float, x):
    """Lyapunov value and analytic gradient at a single point."""
    g.check_kappa(kappa)
    res = _cascade_batch(g.ell, kappa, np.asarray(x, dtype=float)[None, :], grad=True)
    return float(res["V"][0]), res["gradV"][0]


def _kink_mask(X: np.ndarray, v_all: np.ndarray) -> np.ndarray:
    """True for rows safely away from the signed-power kinks x_j = v_{j-1}."""
    v_prev = np.concatenate([np.zeros((X.shape[0], 1)), v_all[:, :-1]], axis=1)
    return np.min(np.abs(X - v_prev), axis=1) > KINK_TOL


def _stress_samples(X: np.ndarray, kappa: float, rng) -> np.ndarray:
    """Extra sphere points probing the singular layers {x_i ~ 0}, i interior.

    Each interior coordinate of a copy of X is shrunk by up to twelve decades
    and the point is re-dilated exactly onto the sphere.  This is where the
    positive-kappa decay fails first, so certificates must look there.
    """
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


def _flow_derivative(gradV: np.ndarray, X: np.ndarray, u) -> np.ndarray:
    """Per row, dV/dt = sum_{i<n} dV/dx_i x_{i+1} + dV/dx_n u along dx = J x + u e_n."""
    dV = np.zeros(len(X))
    for i in range(X.shape[1] - 1):
        dV += gradV[:, i] * X[:, i + 1]
    return dV + gradV[:, -1] * u


def _decay_rows(ell, kappa: float, X: np.ndarray):
    """(X, dV/dt, V^{1+alpha(kappa)}) for the level run by X's width, X less its kink rows.

    The per-kappa scan that verify_decay, decay_residual and the synthesis
    level check reduce.
    """
    j = X.shape[1]
    res = _cascade_batch(ell[:j], kappa, X, grad=True)
    keep = _kink_mask(X, res["v_all"])
    X, V = X[keep], res["V"][keep]
    dV = _flow_derivative(res["gradV"][keep], X, res["v_all"][keep, -1])
    return X, dV, V ** (1.0 + alpha_of(kappa))


def _certificate_scan(g: HongGainSet, kappa_points: int, samples_per_kappa: int, seed: int):
    """(kappa, *_decay_rows) per kappa of g's certified grid, on sphere plus stress samples."""
    grid = kappa_grid(g.n, kappa_points, g.kappa_pos)
    pts = sample_sphere(g.n, grid, samples_per_kappa, seed)
    rng = np.random.default_rng(seed + 31)
    for kap, P in zip(grid, pts):
        X = np.concatenate([P, _stress_samples(P, kap, rng)], axis=0)
        yield (kap, *_decay_rows(g.ell, kap, X))


def closed_loop_derivative(g: HongGainSet, kappa: float, x):
    """(dV_kappa/dt, V_kappa) along dx = J x + u e_n with u from the cascade."""
    g.check_kappa(kappa)
    X = np.asarray(x, dtype=float)[None, :]
    res = _cascade_batch(g.ell, kappa, X, grad=True)
    dV = _flow_derivative(res["gradV"], X, res["v_all"][:, -1])
    return float(dV[0]), float(res["V"][0])


def verify_decay(
    g: HongGainSet,
    kappa_points: int = KAPPA_POINTS,
    samples_per_kappa: int = 1500,
    seed: int = 7,
):
    """Certified decay constant C = min over samples of -dV/V^{1+alpha}.

    Sampling runs over the certified kappa grid times the matching unit
    spheres; by homogeneity (both sides scale with degree 2+2*kappa) a
    sphere certificate is global.  Returns (C, worst) with worst =
    (kappa, x, ratio), x being the sample that attains C.
    """
    best = math.inf
    worst = None
    for kap, X, dV, Vp in _certificate_scan(g, kappa_points, samples_per_kappa, seed):
        ratios = -dV / Vp
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best = float(ratios[i])
            worst = (float(kap), X[i].copy(), best)
    return best, worst


def decay_residual(
    g: HongGainSet,
    kappa_points: int = KAPPA_POINTS,
    samples_per_kappa: int = 1500,
    seed: int = 77,
) -> float:
    """max over fresh samples of dV/dt + C * V^{1+alpha} (pass: <= 0)."""
    worst = -math.inf
    for _, _, dV, Vp in _certificate_scan(g, kappa_points, samples_per_kappa, seed):
        worst = max(worst, float(np.max(dV + g.C * Vp)))
    return worst


@dataclass
class HongSynthesisConfig:
    samples_per_level: int = 4000
    verify_samples_per_kappa: int = 1500
    seed: int = 0


def _recursion_record(ell, grid, cfg: HongSynthesisConfig, n: int) -> list:
    """Sampled extrema K_j, L_j, M_j and the conservative gain bound per level.

    These are the constants of the inductive gain choice; they are recorded
    for diagnostics, inflated/deflated by SAFETY.  Correctness of
    the shipped gains rests on the decay verification, not on these bounds.
    """
    records = []
    for j in range(2, n + 1):
        pts = sample_sphere(j, grid, cfg.samples_per_level, cfg.seed + 811 * j)
        Kj = Lj = 0.0
        Mj = math.inf
        bound = 0.0
        for gi, kap in enumerate(grid):
            X = pts[gi]
            rj = hong_weights(j, kap).r[-1]
            b = _exponents(j, kap)[-1][0]
            bt = min(1.0, b)
            sub = _cascade_batch(ell[: j - 1], kap, X[:, : j - 1], grad=True)
            vprev = sub["v_all"][:, -1]
            dvprev = sub["dv_last"]
            keep = np.abs(X[:, j - 1] - vprev) > KINK_TOL
            if not np.any(keep):
                continue
            X_, vprev_, dvprev_ = X[keep], vprev[keep], dvprev[keep]
            gap = X_[:, j - 1] - vprev_
            # eq. for K: last gradient entry of the (j-1)-level value
            Kj = max(Kj, float(np.max(np.abs(sub["gradV"][keep, -1]))))
            # chain term sum_i dv_{j-1}/dx_i * x_{i+1}, i = 1..j-1
            chain = np.zeros(len(X_))
            for i in range(j - 1):
                chain += dvprev_[:, i] * X_[:, i + 1]
            num = np.abs(-b * _abs_pow(vprev_, b - 1.0) * gap * chain)
            Lj = max(Lj, float(np.max(num / np.abs(gap) ** bt)))
            w = np.sign(X_[:, j - 1]) * _abs_pow(X_[:, j - 1], b) - np.sign(
                vprev_
            ) * _abs_pow(vprev_, b)
            Z = _abs_pow(w, 2.0 * (1.0 + kap) / (rj * b))
            Mj = min(Mj, float(np.min(Z / np.abs(gap) ** (2.0 * (1.0 + kap) / (rj * bt)))))
            Ki, Li, Mi = SAFETY * Kj, SAFETY * Lj, Mj / SAFETY
            xi = (ell[0] / ((Ki + Li) * 2.0 ** (j - 1))) ** (1.0 / bt)
            expo = 2.0 * (1.0 + kap) / (rj * bt) - 1.0 / bt
            bound = max(bound, (Ki + Li) / (Mi * xi**expo))
        records.append(
            {"level": j, "K": Kj, "L": Lj, "M": Mj, "ell_recursion_bound": bound}
        )
    return records


def synthesize_hong_gains(n: int, config: HongSynthesisConfig | None = None) -> HongGainSet:
    """Level-by-level gain selection plus sampled certification.

    ell_1 = 1 normalizes the scale.  Each subsequent ell_j is the smallest
    power of two for which the normalized level decay min(-dV_j/V_j^{1+a})
    clears the target on the sampled sphere-times-kappa compacta; the final
    set is certified by verify_decay and repaired by doubling the first
    failing level (at most MAX_ROUNDS times).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = config or HongSynthesisConfig()
    kappa_pos = kappa_pos_certified(n)
    grid = kappa_grid(n, KAPPA_POINTS, kappa_pos)
    ell = [1.0]
    level_pts = {}
    for j in range(2, n + 1):
        level_pts[j] = sample_sphere(j, grid, cfg.samples_per_level, cfg.seed + 101 * j)

    def level_ok(j, gains):
        worst = math.inf
        for kap, X in zip(grid, level_pts[j]):
            _, dV, Vp = _decay_rows(gains, kap, X)
            worst = min(worst, float(np.min(-dV / Vp)))
        return worst >= LEVEL_TARGET

    for j in range(2, n + 1):
        lj = 1.0
        while not level_ok(j, ell + [lj]):
            lj *= 2.0
            if lj > 2.0**40:
                raise GainSynthesisError(f"gain doubling cap reached at level {j}")
        ell.append(lj)

    ell = np.array(ell)
    g = HongGainSet(n=n, ell=ell, C=0.0, kappa_bound=1.0 / (2 * n), kappa_pos=kappa_pos)

    # certificate loop: the sampled constant must be positive AND stable
    # under a 10x denser scan (the singular layers reveal slowly), else the
    # first failing level (fallback: the deepest) is doubled
    rounds = 0
    while True:
        C_raw, worst = verify_decay(
            g, KAPPA_POINTS, cfg.verify_samples_per_kappa, cfg.seed + 7 + rounds
        )
        if C_raw > 0:
            C_dense, _ = verify_decay(
                g, KAPPA_POINTS, 10 * cfg.verify_samples_per_kappa, cfg.seed + 57 + rounds
            )
            if C_dense > 0 and abs(C_dense - C_raw) / C_raw <= 0.05:
                break
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise GainSynthesisError("decay verification failed after repairs", worst)
        for j in range(2, n + 1):
            if not level_ok(j, list(g.ell[:j])):
                g.ell[j - 1] *= 2.0
                break
        else:
            g.ell[-1] *= 2.0
    g.C = 0.85 * min(C_raw, C_dense)
    g.certificate = {
        "kappa_points": KAPPA_POINTS,
        "samples_per_level": cfg.samples_per_level,
        "verify_samples_per_kappa": cfg.verify_samples_per_kappa,
        "seed": cfg.seed,
        "safety": SAFETY,
        "c_raw": C_raw,
        "repair_rounds": rounds,
        "levels": _recursion_record(list(g.ell), grid, cfg, n),
    }
    g.certificate["worst_residual"] = decay_residual(
        g, KAPPA_POINTS, cfg.verify_samples_per_kappa, cfg.seed + 997
    )
    return g
