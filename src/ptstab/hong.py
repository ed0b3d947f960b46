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
normalized level decay, then the whole set is re-verified and accepted only
once the sampled constant is stable under a tenfold denser scan; each failed
round doubles ell_n.  The dense scan takes the kappas worst-first and stops
as soon as its running minimum fails the round.

Every batched evaluation (verify_decay, decay_residual, the synthesis level
check, hong_lyapunov, and switching's level-set sampler, design and run
diagnostics) runs one kernel, _cascade_rows: one contiguous vector per level,
each |.|^e taken once, dV/dt accumulated from the gradient columns and the
kink distance min_l |x_l - v_{l-1}| tracked in the level loop.  At kappa = 0
its V is switching's quadratic V0, and its last gradient column dV0/dx_n.
_decay_scores runs it over CHUNK-row blocks and scores the kink rows +-inf
instead of dropping them, so the reductions keep np.argmin's first-worst-row
choice.  The scalar _cascade serves the per-step feedback laws and their
V0 surfaces (and the single-point hong_control and hong_value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _hong_r, _sphere_directions, hong_weights, kappa_grid, onto_sphere, sample_sphere

__all__ = [
    "alpha_of",
    "kappa_pos_certified",
    "HongGainSet",
    "hong_control",
    "hong_value",
    "hong_lyapunov",
    "verify_decay",
    "decay_residual",
    "synthesize_hong_gains",
    "GainSynthesisError",
]

# verification samples this close to a signed-power kink are discarded;
# the gradient formulas hold only a.e.
KINK_TOL = 1e-8

# rows per block of the decay scan (see _decay_scores)
CHUNK = 8192

# synthesis constants: points of the certified degree grid, the normalized
# level decay each gain must clear, the repair rounds before synthesis gives
# up, the sphere samples per level and kappa of the gain selection, and those
# per kappa of the certificate scan (its dense scan takes ten times as many)
KAPPA_POINTS = 11
LEVEL_TARGET = 0.02
MAX_ROUNDS = 20
SAMPLES_PER_LEVEL = 4000
VERIFY_SAMPLES_PER_KAPPA = 1500


class GainSynthesisError(RuntimeError):
    """Synthesis gave up; worst is the last round's worst (kappa, x, ratio)
    and c_raw the raw constant that round was judged against.  Given them,
    the message ends with that evidence."""

    def __init__(self, msg, worst=None, c_raw=None):
        if worst is not None:
            kap, _, ratio = worst
            msg += (
                f" ({MAX_ROUNDS} repair rounds; last round's worst sample: kappa={kap:.4g},"
                f" ratio={ratio:.4g} against C_raw={c_raw:.4g})"
            )
        super().__init__(msg)
        self.worst = worst
        self.c_raw = c_raw


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


def _exponents(n: int, kappa) -> tuple:
    """Per-level (b_{j-1}, b_{j-1} + 1, r_{j+1}/(r_j b_{j-1})) of the cascade, unchecked.

    kappa is a float, or an array of degrees whose exponents come elementwise.
    """
    r = _hong_r(n + 1, kappa)
    out = []
    for lvl in range(n):
        b = (2.0 + kappa) / r[lvl] - 1.0
        out.append((b, b + 1.0, r[lvl + 1] / (r[lvl] * b)))
    return tuple(out)


_copysign = math.copysign


def _cascade(ell, exps, x, want_value: bool = True, vs: list | None = None):
    """Float-only cascade over one state; returns (u, V or None).

    ``exps`` comes from _exponents; the intermediate v's are appended to
    ``vs`` when it is given.  The signed powers <z>^a are written out
    inline, with <0>^a := 0, and each |.| is taken once.
    """
    v = 0.0
    V = 0.0
    for el, (b, b1, gam), xl in zip(ell, exps, x):
        xl = float(xl)
        ax = abs(xl)
        if v:
            av = abs(v)
            sv = _copysign(av**b, v)
        else:
            av = sv = 0.0
        w = (_copysign(ax**b, xl) if xl else 0.0) - sv
        if want_value:
            V += (ax**b1 - av**b1) / b1 - sv * (xl - v)
        v = -el * (_copysign(abs(w) ** gam, w) if w else 0.0)
        if vs is not None:
            vs.append(v)
    return v, (V if want_value else None)


def _pow0(a: np.ndarray, e) -> np.ndarray:
    """a^e of magnitudes a >= 0, e a float or one exponent per entry: 0^0 = 1, and the a.e. 0^e := 0 for e < 0."""
    if isinstance(e, float) and e >= 0:
        return np.power(a, e)  # 0^e is 0 already, and 0^0 is 1
    return np.power(a, e, out=np.zeros(len(a)), where=(a != 0) | (e >= 0))


def _cascade_rows(ell, kappa, X: np.ndarray, grad: bool = True):
    """The batched cascade over the rows of X (shape (N, j)), one level at a time.

    kappa is one float for all rows, or an (N,) array giving each row its
    own degree.  Returns (V, vs, gradV, dv, gap): V per row; vs, the v_l per
    level (vs[-1] is u); gradV and dv, the columns of grad V and of the
    gradient of the last v (None unless grad); and gap = min_l |x_l - v_{l-1}|,
    the distance to the signed-power kinks where the a.e. gradient formulas
    fail.  Every array is one contiguous (N,) vector, and each |.|^e is
    taken once.
    """
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    vs, gradV, dv = [], [], []
    for lvl, (b, b1, gam) in enumerate(_exponents(len(XT), kappa)):
        xl = XT[lvl]
        ax = np.abs(xl)
        sx = np.sign(xl) * _pow0(ax, b)
        if lvl == 0:
            # v_0 = 0 drops out: w = <x>^b, x - v = x and the V term is |x|^b1/b1
            # (the same bits as the general branch for finite x)
            w, d, V, gap = sx, xl, ax**b1 / b1, ax
        else:
            av = np.abs(v)
            sv = np.sign(v) * _pow0(av, b)
            w = sx - sv
            d = xl - v
            V += (ax**b1 - av**b1) / b1 - sv * d
            gap = np.minimum(gap, np.abs(d))
        aw = np.abs(w)
        if grad:
            if lvl:
                # chain rule through <x_l>^b - <v>^b: the earlier columns reach it through v
                dsv = -b * _pow0(av, b - 1.0)
                fac = dsv * d
                for i in range(lvl):
                    gradV[i] += fac * dv[i]
                dv = [dsv * col for col in dv]
            gradV.append(w + 0.0)  # a fresh column; 0.0 + w reads -0.0 as +0.0
            c = -ell[lvl] * gam * _pow0(aw, gam - 1.0)
            dv = [c * col for col in dv + [b * _pow0(ax, b - 1.0)]]
        v = -ell[lvl] * np.sign(w) * _pow0(aw, gam)
        vs.append(v)
    return V, vs, (gradV if grad else None), (dv if grad else None), gap


@dataclass
class HongGainSet:
    """Cascade gains with the sampled decay certificate.

    ``C`` is the certified (deflated) decay constant, valid on the degree
    interval [-1/(2n), kappa_pos]; ``certificate`` records grids, seeds,
    the raw sampled constant, the repair rounds and the worst residual.
    """

    n: int
    ell: np.ndarray
    C: float
    kappa_pos: float
    certificate: dict = field(default_factory=dict)

    def check_kappa(self, kappa: float):
        hong_weights(self.n, kappa)  # raises outside |kappa| <= 1/(2n)


def hong_control(g: HongGainSet, kappa: float, x):
    """Control u = v_n of the cascade, with the intermediate v's."""
    g.check_kappa(kappa)
    vs = []
    u, _ = _cascade(g.ell.tolist(), _exponents(len(x), kappa), x, want_value=False, vs=vs)
    return u, vs


def hong_value(g: HongGainSet, kappa: float, x) -> float:
    """Lyapunov value V_kappa(x) (scalar fast path, no gradient)."""
    g.check_kappa(kappa)
    _, V = _cascade(g.ell.tolist(), _exponents(len(x), kappa), x)
    return V


def hong_lyapunov(g: HongGainSet, kappa: float, x):
    """Lyapunov value and analytic gradient at a single point."""
    g.check_kappa(kappa)
    V, _, gradV, _, _ = _cascade_rows(g.ell, kappa, np.asarray(x, dtype=float)[None, :])
    return float(V[0]), np.array([col[0] for col in gradV])


def _stress_samples(X: np.ndarray, kappa: float, decades: np.ndarray) -> np.ndarray:
    """Extra sphere points probing the singular layers {x_i ~ 0}, i interior.

    In the i-th copy of X, coordinate i of row k is shrunk by decades[i-1, k]
    decades (drawn uniform on [1, 12]) and the point is re-dilated exactly
    onto the sphere.  This is where the positive-kappa decay fails first,
    so certificates must look there.
    """
    j = X.shape[1]
    if j < 3:
        return X[:0]
    w = hong_weights(j, kappa)
    out = []
    for i, d in enumerate(decades, start=1):
        Y = X.copy()
        Y[:, i] *= 10.0**-d
        out.append(onto_sphere(w, Y))
    return np.concatenate(out, axis=0)


def _decay_scores(ell, kappa: float, X: np.ndarray, C: float | None = None) -> np.ndarray:
    """Per row of X: the decay ratio -dV/V^{1+alpha(kappa)}, or dV + C V^{1+alpha} given C.

    X's width is the level run, and dV/dt is taken along dx = J x + u e_n.
    Rows within KINK_TOL of a kink score +inf (-inf given C), so the
    reductions of verify_decay, decay_residual and the synthesis level check
    skip them.  The cascade runs CHUNK rows at a time, which bounds its
    working set for any sample count.
    """
    j = X.shape[1]
    p = 1.0 + alpha_of(kappa)
    out = np.empty(len(X))
    for s in range(0, len(X), CHUNK):
        Xc = X[s : s + CHUNK]
        V, vs, gradV, _, gap = _cascade_rows(ell[:j], kappa, Xc)
        dV = np.zeros(len(Xc))
        for i in range(j - 1):
            dV += gradV[i] * Xc[:, i + 1]
        dV = dV + gradV[-1] * vs[-1]
        keep = gap > KINK_TOL
        Vp = np.power(V, p, out=np.zeros(len(V)), where=keep)
        o = out[s : s + CHUNK]
        if C is None:
            o.fill(math.inf)
            np.divide(-dV, Vp, out=o, where=keep)
        else:
            o.fill(-math.inf)
            np.multiply(C, Vp, out=o, where=keep)
            np.add(dV, o, out=o, where=keep)
    return out


def _certificate_scan(g: HongGainSet, kappa_points: int, samples_per_kappa: int, seed: int, C=None, order=None):
    """(kappa, X, _decay_scores) per kappa of g's certified grid, X the sphere plus stress samples.

    The kappas come in grid order, or in ``order`` (a permutation of grid
    indices).  A kappa's rows are those of a grid-order scan whatever the
    order, and they are built only when that kappa is reached, so a
    consumer that stops early skips the rest.  The sphere directions are
    drawn up front from ``seed``, and a kappa's block is dilated onto its
    sphere in place when reached; its stress decades are read at their
    place in the grid-order stream of ``seed + 31``.
    """
    grid = kappa_grid(g.n, kappa_points, g.kappa_pos)
    Z = _sphere_directions(g.n, len(grid), samples_per_kappa, seed)
    shape = (max(g.n - 2, 0), samples_per_kappa)
    for k in range(len(grid)) if order is None else order:
        kap = grid[k]
        Z[k] = onto_sphere(hong_weights(g.n, kap), Z[k])
        # a uniform double is one PCG64 step (the generator of default_rng),
        # so kappa k's decades start k*size steps into the stream
        stream = np.random.Generator(np.random.PCG64(seed + 31).advance(int(k) * shape[0] * shape[1]))
        X = np.concatenate(
            [Z[k], _stress_samples(Z[k], kap, stream.uniform(1.0, 12.0, size=shape))], axis=0
        )
        yield kap, X, _decay_scores(g.ell, kap, X, C)


def _least_ratio(scan, stop=None):
    """Reduce a _certificate_scan of ratios to (C, worst, per-kappa minima in scan order).

    Each kappa contributes its np.argmin row, and the first kappa attaining
    the least ratio gives worst = (kappa, x, ratio).  Given ``stop``, the
    scan ends after the first kappa at which stop(C so far) holds.
    """
    best = math.inf
    worst = None
    minima = []
    for kap, X, ratios in scan:
        i = int(np.argmin(ratios))
        minima.append(ratios[i])
        if ratios[i] < best:
            best = float(ratios[i])
            worst = (float(kap), X[i].copy(), best)
            if stop is not None and stop(best):
                break
    return best, worst, minima


def verify_decay(
    g: HongGainSet,
    kappa_points: int = KAPPA_POINTS,
    samples_per_kappa: int = VERIFY_SAMPLES_PER_KAPPA,
    seed: int = 7,
):
    """Certified decay constant C = min over samples of -dV/V^{1+alpha}.

    Sampling runs over the certified kappa grid times the matching unit
    spheres; by homogeneity (both sides scale with degree 2+2*kappa) a
    sphere certificate is global.  Returns (C, worst) with worst =
    (kappa, x, ratio), x being the sample that attains C.
    """
    C, worst, _ = _least_ratio(_certificate_scan(g, kappa_points, samples_per_kappa, seed))
    return C, worst


def decay_residual(
    g: HongGainSet,
    kappa_points: int = KAPPA_POINTS,
    samples_per_kappa: int = VERIFY_SAMPLES_PER_KAPPA,
    seed: int = 77,
) -> float:
    """max over fresh samples of dV/dt + C * V^{1+alpha} (pass: <= 0)."""
    worst = -math.inf
    for _, _, resid in _certificate_scan(g, kappa_points, samples_per_kappa, seed, g.C):
        worst = max(worst, float(np.max(resid)))
    return worst


def synthesize_hong_gains(n: int, seed: int = 0) -> HongGainSet:
    """Level-by-level gain selection plus sampled certification.

    ell_1 = 1 normalizes the scale.  Each subsequent ell_j is the smallest
    power of two for which the normalized level decay min(-dV_j/V_j^{1+a})
    clears the target on the sampled sphere-times-kappa compacta.  The final
    set is certified by verify_decay's scan plus a tenfold denser one; a
    round fails unless the dense constant is positive and within 5% of the
    raw one, and each failed round doubles ell_n (at most MAX_ROUNDS times).
    The dense scan visits the kappas in ascending order of the raw scan's
    per-kappa minima and stops once the round must fail, so only a passing
    round scans it whole.  ``seed`` seeds every sample draw; the sample
    counts are SAMPLES_PER_LEVEL and VERIFY_SAMPLES_PER_KAPPA.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kappa_pos = kappa_pos_certified(n)
    grid = kappa_grid(n, KAPPA_POINTS, kappa_pos)
    ell = [1.0]
    level_pts = {}
    for j in range(2, n + 1):
        level_pts[j] = sample_sphere(j, grid, SAMPLES_PER_LEVEL, seed + 101 * j)

    def level_ok(j, gains):
        return all(np.min(_decay_scores(gains, kap, X)) >= LEVEL_TARGET for kap, X in zip(grid, level_pts[j]))

    for j in range(2, n + 1):
        lj = 1.0
        while not level_ok(j, ell + [lj]):
            lj *= 2.0
            if lj > 2.0**40:
                raise GainSynthesisError(f"gain doubling cap reached at level {j}")
        ell.append(lj)

    ell = np.array(ell)
    g = HongGainSet(n=n, ell=ell, C=0.0, kappa_pos=kappa_pos)

    # certificate loop: the sampled constant must be positive AND stable
    # under a 10x denser scan (the singular layers reveal slowly), else
    # ell_n is doubled.  worst is the failing scan's worst sample: the dense
    # one's when it ran, else the raw one's.  No lower level is re-checked:
    # its gains never change and passed level_ok on the same level_pts.  A
    # dense scan stops once its running minimum is below C_raw and fails the
    # test, since the full minimum is lower still and fails it too (- and /
    # round monotonically).
    rounds = 0
    while True:
        C_raw, worst, minima = _least_ratio(
            _certificate_scan(g, KAPPA_POINTS, VERIFY_SAMPLES_PER_KAPPA, seed + 7 + rounds)
        )
        if C_raw > 0:

            def stable(C):
                return C > 0 and abs(C - C_raw) / C_raw <= 0.05

            C_dense, worst, _ = _least_ratio(
                _certificate_scan(
                    g,
                    KAPPA_POINTS,
                    10 * VERIFY_SAMPLES_PER_KAPPA,
                    seed + 57 + rounds,
                    order=np.argsort(minima, kind="stable"),
                ),
                lambda C: C < C_raw and not stable(C),
            )
            if stable(C_dense):
                break
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise GainSynthesisError("decay verification failed after repairs", worst, C_raw)
        g.ell[-1] *= 2.0
    g.C = 0.85 * min(C_raw, C_dense)
    g.certificate = {
        "kappa_points": KAPPA_POINTS,
        "samples_per_level": SAMPLES_PER_LEVEL,
        "verify_samples_per_kappa": VERIFY_SAMPLES_PER_KAPPA,
        "seed": seed,
        "c_raw": C_raw,
        "repair_rounds": rounds,
    }
    g.certificate["worst_residual"] = decay_residual(
        g, KAPPA_POINTS, VERIFY_SAMPLES_PER_KAPPA, seed + 997
    )
    return g
