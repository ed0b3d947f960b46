"""ptstab command line: synthesize gains, verify certificates, run experiments.

Exit codes: 0 success / all checks pass, 1 usage or config error or an
unwritable output path, 2 synthesis or verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from .core import ChainSpec
from .gainfile import (
    ConfigError,
    format_float,
    read_config,
    read_gains,
    validate_config,
    write_gains,
)
from .hong import (
    KAPPA_POINTS,
    GainSynthesisError,
    decay_residual,
    synthesize_hong_gains,
    verify_decay,
)
from .pnf import SynthesisError, certificate_checks, synthesize_linear_gain
from .sim import (
    DisturbanceSpec,
    SimOptions,
    b_profile,
    constant_signal,
    fixed_time_controller,
    integrate,
    isotonic_fit,
    iss_metrics,
    noise_signal,
    pnf_controller,
    prescribed_time_controller,
    robust_controller,
    sine_signal,
    vector_signal,
    zero_signal,
)
from .switching import SwitchDesignError, design_switch_params
from .timescale import Density, build


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write: {exc}", file=sys.stderr)
    return 1


def _fmt(v) -> str:
    return "nan" if v is None else format_float(v)


# --- synthesize -------------------------------------------------------------


def cmd_synthesize(args) -> int:
    if args.n < 1 or not 0 < args.b_lower < math.inf or args.seed < 0:
        print("error: need --n >= 1, a finite --b-lower > 0 and --seed >= 0", file=sys.stderr)
        return 1
    try:
        if args.kind == "pnf":
            g = synthesize_linear_gain(args.n, args.b_lower)
            failing = [name for name, _, ok in certificate_checks(g) if not ok]
            if failing:
                print(f"synthesis failed: certificate fails {', '.join(failing)}", file=sys.stderr)
                return 2
            write_gains(args.out, g)
            print(f"pnf gains written to {args.out} (rho={g.rho:.6g}, C0={g.C0:.6g})")
        else:
            g = synthesize_hong_gains(args.n, args.seed)
            write_gains(args.out, g, b_lower=args.b_lower)
            ells = [float(v) for v in g.ell]
            print(f"hong gains written to {args.out} (ell={ells}, C={g.C:.6g})")
    except (SynthesisError, GainSynthesisError) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _cannot_write(exc)
    return 0


# --- verify -----------------------------------------------------------------


def _report(rows) -> int:
    width = max(len(r[0]) for r in rows)
    all_ok = True
    for name, value, ok in rows:
        mark = "pass" if ok else "FAIL"
        all_ok &= ok
        print(f"{name.ljust(width)}  {value:>14}  {mark}")
    return 0 if all_ok else 2


def cmd_verify(args) -> int:
    if args.grid_scale < 1:
        print(f"error: --grid-scale must be >= 1, got {args.grid_scale}", file=sys.stderr)
        return 1
    try:
        g, _ = read_gains(args.gains)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if hasattr(g, "K"):
        rows = [(name, f"{value:.3e}", ok) for name, value, ok in certificate_checks(g)]
    else:
        # a certified C <= 0 claims no decay, and the residual check passes it
        rows = [("decay constant C (file)", f"{g.C:.5g}", g.C > 0)]
        cert = g.certificate
        samples = cert["verify_samples_per_kappa"] * args.grid_scale
        C_new, _ = verify_decay(g, KAPPA_POINTS, samples, seed=cert["seed"] + 5000)
        rows.append(("decay constant C (rescan)", f"{C_new:.5g}", C_new > 0))
        resid = decay_residual(g, KAPPA_POINTS, samples, seed=cert["seed"] + 6000)
        rows.append(("max dV + C V^(1+a)", f"{resid:.3e}", resid <= 0.0))
        change = abs(C_new - cert["c_raw"]) / cert["c_raw"]
        rows.append(("C change vs certificate", f"{change:.3%}", True))
    return _report(rows)


# --- simulate / sweep -------------------------------------------------------


# The disturbance catalog.  Each kind maps to the defaults of its values, in
# spec order (a default of None marks a required value, and required values
# come first), and its builder (values, seed, period) -> signal; only noise
# reads the run's seed and the resampling period.
_SIGNALS = {
    "zero": ({}, lambda v, seed, period: zero_signal()),
    "constant": ({"c": None}, lambda v, seed, period: constant_signal(**v)),
    "sine": ({"amp": None, "freq": 1.0, "phase": 0.0}, lambda v, seed, period: sine_signal(**v)),
    "noise": ({"amp": None}, lambda v, seed, period: noise_signal(v["amp"], seed, period)),
}
# the disturbance.b kinds, each with its builder values -> profile
_B_PROFILES = {
    "constant": ({"v": None}, lambda v: b_profile(v["v"])),
    "sine": ({"lo": None, "hi": None, "freq": 1.0, "phase": 0.0}, lambda v: b_profile(**v)),
}


def _numbers(key: str, text: str) -> list:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{key}: non-numeric value in {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{key}: non-finite value in {text!r}")
    return vals


def _spec_form(kind: str, defaults: dict) -> str:
    """The documented form of a catalog kind, such as sine:amp[,freq[,phase]]."""
    if not defaults:
        return kind
    required = [name for name, v in defaults.items() if v is None]
    optional = list(defaults)[len(required):]
    return f"{kind}:" + ",".join(required) + "".join(f"[,{name}" for name in optional) + "]" * len(optional)


def _parse_spec(key: str, text: str, catalog: dict) -> tuple:
    """(kind, values) of a `kind[:v1,v2,...]` spec, the values named and their defaults filled in."""
    kind, colon, rest = text.strip().partition(":")
    if kind not in catalog:
        forms = " | ".join(_spec_form(k, d) for k, (d, _) in catalog.items())
        raise ConfigError(f"{key}: unknown kind in {text!r}; expected {forms}")
    defaults = catalog[kind][0]
    given = _numbers(key, rest) if colon else []
    n_required = sum(v is None for v in defaults.values())
    if not n_required <= len(given) <= len(defaults):
        raise ConfigError(f"{key}: expected {_spec_form(kind, defaults)}, got {text!r}")
    return kind, dict(zip(defaults, given + list(defaults.values())[len(given):]))


def _vector(key: str, text: str, n: int) -> np.ndarray:
    vec = _numbers(key, text)
    if len(vec) != n:
        raise ConfigError(f"{key} needs {n} components")
    return np.array(vec)


@contextlib.contextmanager
def _config_values(section: str):
    """A ValueError of a constructor that checks config values, as a ConfigError naming section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


# The controller catalog: each kind's gain-file kind, the controller.* keys it reads
# and its builder (gains, design, problem) -> Controller, the design being a pnf time
# scale or a hong switch design.  A builder looks its law up in this module when it runs, so patches apply.
_SWITCHING_KEYS = ("kind", "gains", "synth_seed", "m", "design_seed")
_CONTROLLERS = {
    "pnf": ("pnf", ("kind", "gains", "eta", "density", "density_param", "t_stop_frac"),
        lambda g, ts, p: pnf_controller(g, ts, p.cfg["controller.eta"], p.cfg["controller.t_stop_frac"])),
    "fixed_time": ("hong", _SWITCHING_KEYS, lambda g, sp, p: fixed_time_controller(g, sp, p.spec.b_lower)),
    "matched_robust": ("hong", _SWITCHING_KEYS + ("reg_eps",),
        lambda g, sp, p: robust_controller(g, sp, p.spec, p.cfg["controller.reg_eps"])),
    "prescribed_time": ("hong", _SWITCHING_KEYS + ("t_target",),
        lambda g, sp, p: prescribed_time_controller(g, sp, p.cfg["controller.t_target"], p.spec.b_lower)),
}


class _Problem:
    """Everything a batch of runs needs, built once from a config's key-value dict."""

    def __init__(self, kv: dict):
        cfg = self.cfg = validate_config(kv)
        kind = cfg["controller.kind"]
        if kind not in _CONTROLLERS:
            raise ConfigError(f"controller.kind must be one of {tuple(_CONTROLLERS)}")
        gain_kind, reads, build_controller = _CONTROLLERS[kind]
        unread = [key for key in kv if key.startswith("controller.") and key.removeprefix("controller.") not in reads]
        if unread:
            raise ConfigError(f"controller.kind = {kind} does not read {', '.join(unread)}")
        n = cfg["plant.n"]
        with _config_values("plant"):
            spec = self.spec = ChainSpec(
                n=n,
                T=cfg["plant.t"],
                b_lower=cfg["plant.b_lower"],
                b_upper=cfg["plant.b_upper"],
                d_bound=cfg["plant.d_bound"],
            )
        # disturbance specs are parsed here, once; runs differ only in their noise seeds
        self.period = cfg["disturbance.noise_period"] or spec.T / 1e4
        self.signals = {
            k: _parse_spec(f"disturbance.{k}", cfg[f"disturbance.{k}"], _SIGNALS) for k in ("d", "d1", "d2")
        }
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        self.directions = {}
        for key, default in (("d1", np.ones(n)), ("d2", e_n)):
            # a direction list is checked even when its channel is zero
            text = cfg[f"disturbance.{key}_direction"]
            direction = _vector(f"disturbance.{key}_direction", text, n) if text else default
            if self.signals[key][0] != "zero":
                self.directions[key] = direction
        specs = {f"disturbance.{k}": parsed for k, parsed in self.signals.items()}
        # an empty disturbance.b is the constant plant.b_lower
        b_text = cfg["disturbance.b"] or f"constant:{spec.b_lower!r}"
        specs["disturbance.b"] = _parse_spec("disturbance.b", b_text, _B_PROFILES)
        # a step per cycle is the least a run must take to follow a sine
        for key, (_, values) in specs.items():
            freq = values.get("freq", 0.0)
            cycles = abs(freq) * cfg["sim.horizon"]
            if cycles > cfg["sim.max_steps"]:
                raise ConfigError(
                    f"{key}: sine frequency {freq!r} makes {cycles:.3g} cycles over sim.horizon,"
                    f" more than sim.max_steps = {cfg['sim.max_steps']}"
                )
        profile, values = specs["disturbance.b"]
        with _config_values("disturbance.b"):
            self.b = _B_PROFILES[profile][1](values)
        # every certificate assumes b within the plant's declared bounds
        b_lo, b_hi = (values["v"], values["v"]) if profile == "constant" else (values["lo"], values["hi"])
        if b_lo < spec.b_lower or b_hi > spec.b_upper:
            raise ConfigError(
                f"disturbance.b: range [{b_lo!r}, {b_hi!r}] leaves"
                f" [plant.b_lower, plant.b_upper] = [{spec.b_lower!r}, {spec.b_upper!r}]"
            )
        self.x0 = _vector("runs.x0", cfg["runs.x0"], n) if cfg["runs.x0"] else None
        if cfg["runs.x0_min"] > cfg["runs.x0_max"]:
            raise ConfigError("runs.x0_min must be <= runs.x0_max")
        with _config_values("sim"):
            self.opts = SimOptions(
                rel_tol=cfg["sim.rel_tol"],
                abs_tol=cfg["sim.abs_tol"],
                settle_radius=cfg["sim.settle_radius"],
                max_steps=cfg["sim.max_steps"],
            )
        if gain_kind == "pnf":
            with _config_values("controller.density"):
                design = build(spec.T, Density(cfg["controller.density"], cfg["controller.density_param"]))
        if cfg["controller.gains"]:
            g, _ = read_gains(cfg["controller.gains"])
            if hasattr(g, "K") != (gain_kind == "pnf"):
                raise ConfigError(f"{kind} controller needs a {gain_kind} gain file")
            # the LMI certificate of a pnf gain holds only for b >= g.b_lower
            if gain_kind == "pnf" and g.b_lower > spec.b_lower:
                raise ConfigError(
                    f"{cfg['controller.gains']}: pnf gains certified for b >= {g.b_lower!r},"
                    f" above plant.b_lower = {spec.b_lower!r}"
                )
        elif gain_kind == "pnf":
            g = synthesize_linear_gain(n, spec.b_lower)
        else:
            g = synthesize_hong_gains(n, cfg["controller.synth_seed"])
        if gain_kind == "hong":
            # an unbounded plant is designed for the largest b its runs see
            b_up = spec.b_upper if math.isfinite(spec.b_upper) else b_hi
            design = design_switch_params(g, m=cfg["controller.m"], b_upper=b_up, seed=cfg["controller.design_seed"])
        elif "controller.eta" not in kv and g.C0 > 0:
            # an unset pnf eta is the least one the perturbation certificate covers, 1 when C0 = 0
            cfg["controller.eta"] = max(1.0, design.a_sup() / g.C0)
        with _config_values("controller"):
            self.controller = build_controller(g, design, self)

    def _signal(self, key: str, seed: int):
        """The disturbance.<key> signal of a run; noise draws its table from seed."""
        kind, values = self.signals[key]
        return _SIGNALS[kind][1](values, seed, self.period)

    def disturbances(self, run_seed: int) -> DisturbanceSpec:
        vec = {}
        for offset, key in ((2, "d1"), (3, "d2")):
            if key in self.directions:
                vec[key] = vector_signal(self.directions[key], self._signal(key, 4 * run_seed + offset))
        return DisturbanceSpec(d=self._signal("d", 4 * run_seed + 1), d1=vec.get("d1"), d2=vec.get("d2"), b=self.b)

    def initial_state(self, run_seed: int) -> np.ndarray:
        cfg = self.cfg
        if self.x0 is not None:
            return self.x0.copy()
        rng = np.random.default_rng(run_seed)
        direction = rng.standard_normal(self.spec.n)
        direction /= np.linalg.norm(direction)
        radius = 10 ** rng.uniform(math.log10(cfg["runs.x0_min"]), math.log10(cfg["runs.x0_max"]))
        return radius * direction

    def run_one(self, k: int):
        cfg = self.cfg
        seed = cfg["runs.seed"] + k
        traj = integrate(
            self.spec,
            self.controller,
            self.disturbances(seed),
            self.initial_state(seed),
            self.opts,
            horizon=cfg["sim.horizon"],
        )
        return traj, seed, iss_metrics(traj)


# inline gain synthesis or switch design that cannot produce a certificate (exit 2)
_SETUP_FAILURES = (SynthesisError, GainSynthesisError, SwitchDesignError)

_STATUS_LABEL = {"horizon": "ReachedHorizon", "settled": "SettledAt", "step_failure": "StepFailure"}

_DIAG_COLS = ("V0", "Vkp", "Vkm", "kappa", "Z")


def _result_cells(traj, metrics) -> list:
    """The status,settle_time,sup_norm,limsup_Z cells of one run."""
    return [
        _STATUS_LABEL[traj.status],
        _fmt(metrics["settle_time"]),
        _fmt(metrics["sup_norm"]),
        _fmt(metrics["limsup_Z"]),
    ]


def _write_run_csv(path: str, traj, n: int):
    """One row per sample: t, x, u and the diagnostics (nan where not
    recorded), each cell as format_float writes it."""
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",u,V0,Vkp,Vkm,kappa,Z"
    nan = np.full(len(traj.t), math.nan)
    cols = [traj.t, traj.x, traj.u] + [traj.diag.get(c, nan) for c in _DIAG_COLS]
    row = ",".join(["%.17g"] * (n + 7)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row % tuple(r) for r in np.column_stack(cols).tolist())


def _load(path: str, variants) -> list | int:
    """One _Problem per key-value dict that variants(kv) derives from the config file at path.

    A failure prints its one stderr line and returns its exit code instead:
    1 for an unreadable or invalid config, 2 for inline gain synthesis or
    switch design that yields no certificate.
    """
    try:
        kv = read_config(path)
        return [_Problem(v) for v in variants(kv)]
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _SETUP_FAILURES as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 2


def cmd_simulate(args) -> int:
    # --runs and --seed replace their config keys before the config is validated
    given = (("runs.count", args.runs), ("runs.seed", args.seed))
    overrides = {key: str(v) for key, v in given if v is not None}
    problems = _load(args.config, lambda kv: [{**kv, **overrides}])
    if isinstance(problems, int):
        return problems
    (problem,) = problems
    cfg = problem.cfg
    out_dir = cfg["output.dir"]
    summary = ["run,seed,status,settle_time,sup_norm,limsup_Z"]
    try:  # the run CSVs are written as the runs go
        os.makedirs(out_dir, exist_ok=True)
        for k in range(cfg["runs.count"]):
            traj, seed, metrics = problem.run_one(k)
            _write_run_csv(os.path.join(out_dir, f"run_{k}.csv"), traj, problem.spec.n)
            summary.append(",".join([str(k), str(seed)] + _result_cells(traj, metrics)))
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="\n") as fh:
            fh.write("\n".join(summary) + "\n")
    except OSError as exc:
        return _cannot_write(exc)
    print(f"wrote {cfg['runs.count']} runs to {out_dir}")
    return 0


# each sweep parameter and the config key it sets
_SWEEP_PARAMS = {
    "d1_amp": "disturbance.d1",
    "d2_amp": "disturbance.d2",
    "eta": "controller.eta",
    "T_target": "controller.t_target",
}


def _apply_sweep(kv: dict, param: str, value: float) -> dict:
    """The config kv with param set to value; an amplitude replaces the first value of its spec."""
    key = _SWEEP_PARAMS[param]
    if key.startswith("controller."):
        kind = kv.get("controller.kind")
        if kind in _CONTROLLERS and key.removeprefix("controller.") not in _CONTROLLERS[kind][1]:
            raise ConfigError(f"--param {param} sets {key}, which controller.kind = {kind} does not read")
        return {**kv, key: repr(value)}
    signal, values = _parse_spec(key, kv.get(key, "zero"), _SIGNALS)
    rest = list(values.values())[1:]
    signal = "constant" if signal == "zero" else signal
    return {**kv, key: "zero" if value == 0 else f"{signal}:" + ",".join(map(repr, [value] + rest))}


def cmd_sweep(args) -> int:
    if args.param not in _SWEEP_PARAMS:
        print(f"error: --param must be one of {tuple(_SWEEP_PARAMS)}", file=sys.stderr)
        return 1
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        print("error: --values must be a comma list of numbers", file=sys.stderr)
        return 1
    if not values:
        print("error: empty --values list", file=sys.stderr)
        return 1
    problems = _load(args.config, lambda kv: [_apply_sweep(kv, args.param, v) for v in values])
    if isinstance(problems, int):
        return problems
    out_dir = problems[0].cfg["output.dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return _cannot_write(exc)
    rows = ["param,value,run,seed,status,settle_time,sup_norm,limsup_Z"]
    value_stat = []
    for value, problem in zip(values, problems):
        cfg = problem.cfg
        stats = []
        for k in range(cfg["runs.count"]):
            traj, seed, metrics = problem.run_one(k)
            cells = [args.param, format_float(value), str(k), str(seed)] + _result_cells(traj, metrics)
            rows.append(",".join(cells))
            stat = metrics["limsup_Z"]
            if math.isnan(stat):
                stat = math.nan if metrics["settle_time"] is None else metrics["settle_time"]
            stats.append(stat)
        # a value with a run that has no statistic has none either
        value_stat.append(math.nan if not stats or any(map(math.isnan, stats)) else max(stats))
    fit = isotonic_fit(values, value_stat)
    footer = "# isotonic_envelope: " + " ".join(
        f"{format_float(v)}:{format_float(f)}" for v, f in zip(values, fit)
    )
    path = os.path.join(out_dir, "sweep.csv")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n" + footer + "\n")
    except OSError as exc:
        return _cannot_write(exc)
    print(f"wrote sweep to {path}")
    return 0


# --- entry ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptstab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synthesize", help="synthesize and certify a gain set")
    s.add_argument("--kind", choices=("pnf", "hong"), required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--b-lower", type=float, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_synthesize)

    v = sub.add_parser("verify", help="re-check a gain file's certificate")
    v.add_argument("--gains", required=True)
    v.add_argument("--grid-scale", type=int, default=1)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("simulate", help="run a batch of closed-loop trajectories")
    r.add_argument("--config", required=True)
    r.add_argument("--runs", type=int, default=None)
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(fn=cmd_simulate)

    w = sub.add_parser("sweep", help="parameter sweep with ISS metrics")
    w.add_argument("--config", required=True)
    w.add_argument("--param", required=True)
    w.add_argument("--values", required=True)
    w.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
