"""The once-per-state evaluation of the switching controllers is exact.

The fused cascade kernel must reproduce a literal transcription of the
cascade bit for bit, and a run's recorded u and diagnostics, taken from the
in-loop evaluations, must equal a fresh recomputation at every row.
"""

import dataclasses
import math

import numpy as np
import pytest

from ptstab import switching
from ptstab.core import ChainSpec
from ptstab.hong import (
    HongSynthesisConfig,
    _cascade,
    _exponents,
    hong_control,
    hong_value,
    synthesize_hong_gains,
)
from ptstab.sim import (
    BProfile,
    DisturbanceSpec,
    SimOptions,
    fixed_time_controller,
    integrate,
    iss_metrics,
    robust_controller,
    sine_signal,
)
from ptstab.switching import (
    MatchedRobustLaw,
    design_switch_params,
    kappa_of_x,
    v0_value,
    z_value,
)

SPEC = ChainSpec(n=2, T=1.0, b_lower=1.0, b_upper=3.0, d_bound=1.0)
REG_EPS = 5e-3


@pytest.fixture(scope="module")
def design():
    g = synthesize_hong_gains(2, HongSynthesisConfig(seed=0))
    return g, design_switch_params(g, m=0.5, b_upper=3.0)


def _spow(z, a):
    return 0.0 if z == 0.0 else math.copysign(abs(z) ** a, z)


def _reference(ell, kappa, x):
    """(v_n, V_kappa) transcribed literally from the recursion in ptstab.hong."""
    v = 0.0
    V = 0.0
    for lvl in range(len(x)):
        rj = 1.0 + lvl * kappa
        rj1 = 1.0 + (lvl + 1) * kappa
        b = (2.0 + kappa) / rj - 1.0
        xl = float(x[lvl])
        sv = _spow(v, b)
        w = _spow(xl, b) - sv
        V += (abs(xl) ** (b + 1.0) - abs(v) ** (b + 1.0)) / (b + 1.0) - sv * (xl - v)
        v = -ell[lvl] * _spow(w, rj1 / (rj * b))
    return v, V


def _states(n, count, seed):
    """Seeded states over six decades of radius, some with zero coordinates."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((count, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1))
    X[::17, 0] = 0.0
    X[::23, -1] = 0.0
    X[0] = 0.0
    return X


@pytest.mark.parametrize("n", [2, 3])
def test_fused_kernel_matches_reference(n):
    ell = np.array([1.0, 2.0, 8.0])[:n]
    kappa0 = 0.9 / (2 * n)
    for kappa in (kappa0, -kappa0, 0.0):
        exps = _exponents(n, kappa)
        for x in _states(n, 1200, seed=n):
            u_ref, V_ref = _reference(ell, kappa, x)
            u, V = _cascade(ell, exps, x)
            assert u == u_ref and V == V_ref
            u_only, none = _cascade(ell, exps, x, want_value=False)
            assert u_only == u_ref and none is None


def test_public_kernels_and_law_match_reference(design):
    g, sp = design
    law = MatchedRobustLaw(g, sp, SPEC, REG_EPS)
    states = _states(2, 1200, seed=5)
    # put half of the states near {V_- = 1}, where the law switches
    for x in states[::2]:
        vm = hong_value(g, -sp.kappa0, x)
        if vm > 0:
            lam = vm ** (-1.0 / (2.0 - sp.kappa0))
            x *= np.array([lam, lam ** (1.0 - sp.kappa0)])
    sides = set()
    for x in states:
        for kappa in (sp.kappa0, -sp.kappa0, 0.0):
            u_ref, V_ref = _reference(g.ell, kappa, x)
            u, vs = hong_control(g, kappa, x)
            assert u == u_ref and vs[-1] == u_ref
            assert hong_value(g, kappa, x) == V_ref
        _, vm = _reference(g.ell, -sp.kappa0, x)
        w0, _ = _reference(g.ell, sp.kappa0 if vm > 1.0 else -sp.kappa0, x)
        sides.add(vm > 1.0)
        u_ref = (w0 + SPEC.d_bound * (w0 / max(abs(w0), REG_EPS))) / SPEC.b_lower
        assert law(x) == u_ref
        assert law.v_minus(x) == vm
    assert sides == {True, False}


def _rows_match_recompute(traj, fresh_ctrl, g, sp):
    assert len(traj.u) == len(traj.t) == len(traj.diag["Z"])
    for i, (t, x) in enumerate(zip(traj.t, traj.x)):
        assert traj.u[i] == fresh_ctrl.u(t, x)
        assert traj.diag["V0"][i] == v0_value(sp.P, x)
        assert traj.diag["Vkp"][i] == hong_value(g, sp.kappa0, x)
        assert traj.diag["Vkm"][i] == hong_value(g, -sp.kappa0, x)
        assert traj.diag["kappa"][i] == kappa_of_x(sp, x)
        assert traj.diag["Z"][i] == z_value(g, sp, x)


def _iss_matches_recompute(traj, g, sp):
    for alt in (False, True):
        n_tail = math.ceil(0.25 * len(traj.t))
        expect = max(z_value(g, sp, x, alt_exponent=alt) for x in traj.x[-n_tail:])
        assert iss_metrics(traj, g, sp, alt_exponent=alt)["limsup_Z"] == expect


def test_matched_robust_run_records_in_loop_values(design):
    g, sp = design
    dist = DisturbanceSpec(d=sine_signal(1.0, 0.7, 0.2), b=BProfile(1.0, 3.0, freq=0.4))
    traj = integrate(
        SPEC, robust_controller(g, sp, SPEC, REG_EPS), dist, np.array([4.0, -2.0]),
        SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=2.0,
    )
    assert np.any(traj.diag["Vkm"] > 1.0) and np.any(traj.diag["Vkm"] <= 1.0)
    _rows_match_recompute(traj, robust_controller(g, sp, SPEC, REG_EPS), g, sp)
    _iss_matches_recompute(traj, g, sp)


def test_fixed_time_run_records_in_loop_values(design):
    g, sp = design
    spec = ChainSpec(n=2, T=1.0)
    dist = DisturbanceSpec(d=sine_signal(0.3, 1.0))
    traj = integrate(
        spec, fixed_time_controller(g, sp), dist, np.array([3.0, 1.0]),
        SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=4.0,
    )
    _rows_match_recompute(traj, fixed_time_controller(g, sp), g, sp)
    _iss_matches_recompute(traj, g, sp)


def test_one_minus_pass_per_rhs_evaluation(design, monkeypatch):
    # the step cap and the Vkm diagnostic read V_{-kappa0} from the law's memo, also
    # after rejected attempts; the only extra pass is the +kappa0 control off {V_- <= 1}
    g, sp = design
    passes = []

    def counting_cascade(ell, exps, x, want_value=True, vs=None):
        out = _cascade(ell, exps, x, want_value, vs)
        passes.append((exps, want_value, out[1]))
        return out

    monkeypatch.setattr(switching, "_cascade", counting_cascade)
    ctrl = robust_controller(g, sp, SPEC, REG_EPS)
    calls = {"u": 0, "surfaces": 0}

    def u(t, x):
        calls["u"] += 1
        return ctrl.u(t, x)

    def surfaces(x):
        calls["surfaces"] += 1
        return ctrl.surfaces(x)

    dist = DisturbanceSpec(d=sine_signal(1.0, 0.7, 0.2), b=BProfile(1.0, 3.0, freq=0.4))
    traj = integrate(
        SPEC, dataclasses.replace(ctrl, u=u, surfaces=surfaces), dist, np.array([4.0, -2.0]),
        SimOptions(rel_tol=1e-7, abs_tol=1e-10), horizon=2.0,
    )
    plus, minus = _exponents(2, sp.kappa0), _exponents(2, -sp.kappa0)
    minus_v = [V for exps, _, V in passes if exps == minus]
    assert len(minus_v) == calls["u"]
    assert calls["surfaces"] > len(traj.t) - 1  # rejected attempts happened
    assert sum(1 for exps, value, _ in passes if exps == plus and not value) == sum(v > 1.0 for v in minus_v)
    assert sum(1 for exps, value, _ in passes if exps == plus and value) == len(traj.t)  # the Vkp column
    assert 0 < sum(v > 1.0 for v in minus_v) < len(minus_v)
