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
    MAX_ROUNDS,
    GainSynthesisError,
    HongSynthesisConfig,
    decay_residual,
    synthesize_hong_gains,
    verify_decay,
)
from .pnf import SynthesisError, certificate_checks, synthesize_linear_gain
from .sim import (
    BProfile,
    DisturbanceSpec,
    SimOptions,
    Signal,
    VectorSignal,
    fixed_time_controller,
    integrate,
    isotonic_fit,
    iss_metrics,
    pnf_controller,
    prescribed_time_controller,
    robust_controller,
)
from .switching import SwitchDesignError, design_switch_params
from .timescale import Density, build


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write: {exc}", file=sys.stderr)
    return 1


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "nan"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


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
            cfg = HongSynthesisConfig(seed=args.seed)
            g = synthesize_hong_gains(args.n, cfg)
            write_gains(args.out, g, b_lower=args.b_lower)
            ells = [float(v) for v in g.ell]
            print(f"hong gains written to {args.out} (ell={ells}, C={g.C:.6g})")
    except (SynthesisError, GainSynthesisError) as exc:
        msg = f"synthesis failed: {exc}"
        if getattr(exc, "worst", None) is not None:
            kap, _, ratio = exc.worst
            msg += (
                f" ({MAX_ROUNDS} repair rounds; last round's worst sample: kappa={kap:.4g},"
                f" ratio={ratio:.4g} against C_raw={exc.c_raw:.4g})"
            )
        print(msg, file=sys.stderr)
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
        g, b_lower = read_gains(args.gains)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if hasattr(g, "K"):
        rows = [(name, f"{value:.3e}", ok) for name, value, ok in certificate_checks(g)]
    else:
        # a certified C <= 0 claims no decay, and the residual check passes it
        rows = [("decay constant C (file)", f"{g.C:.5g}", g.C > 0)]
        cert = g.certificate or {}
        base = int(cert.get("verify_samples_per_kappa", 1500))
        C_new, _ = verify_decay(g, KAPPA_POINTS, base * args.grid_scale, seed=int(cert.get("seed", 0)) + 5000)
        rows.append(("decay constant C (rescan)", f"{C_new:.5g}", C_new > 0))
        resid = decay_residual(g, KAPPA_POINTS, base * args.grid_scale, seed=int(cert.get("seed", 0)) + 6000)
        rows.append(("max dV + C V^(1+a)", f"{resid:.3e}", resid <= 0.0))
        c_raw = cert.get("c_raw")
        if c_raw:
            change = abs(C_new - c_raw) / c_raw
            rows.append(("C change vs certificate", f"{change:.3%}", True))
    return _report(rows)


# --- simulate / sweep -------------------------------------------------------


_SIGNAL_KINDS = ("zero", "constant", "sine", "noise")


def _numbers(key: str, text: str) -> list:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{key}: non-numeric value in {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{key}: non-finite value in {text!r}")
    return vals


def _spec_values(key: str, spec_str: str) -> tuple:
    """(kind, values) of a `kind[:v1,v2,...]` spec."""
    parts = spec_str.strip().split(":")
    return parts[0], (_numbers(key, parts[1]) if len(parts) > 1 else [])


def _parse_signal(key: str, spec_str: str) -> tuple:
    kind, vals = _spec_values(key, spec_str)
    if kind not in _SIGNAL_KINDS:
        raise ConfigError(f"{key}: unknown signal spec {spec_str!r}")
    if kind != "zero" and not vals:
        raise ConfigError(f"{key}: {kind} needs an amplitude, got {spec_str!r}")
    return kind, vals


def _make_signal(parsed: tuple, seed: int, period: float) -> Signal:
    kind, vals = parsed
    if kind == "zero":
        return Signal("zero")
    if kind == "constant":
        return Signal("constant", amp=vals[0])
    if kind == "sine":
        freq = vals[1] if len(vals) > 1 else 1.0
        phase = vals[2] if len(vals) > 2 else 0.0
        return Signal("sine", amp=vals[0], freq=freq, phase=phase)
    return Signal("noise", amp=vals[0], seed=seed, period=period)


def _bprofile_args(spec_str: str, b_lower: float) -> tuple:
    """BProfile arguments (lo[, hi, freq, phase]) of a disturbance.b spec."""
    if not spec_str:
        return (b_lower,)
    kind, vals = _spec_values("disturbance.b", spec_str)
    if kind == "constant" and vals:
        return (vals[0],)
    if kind == "sine" and len(vals) >= 2:
        return (vals[0], vals[1], vals[2] if len(vals) > 2 else 1.0, vals[3] if len(vals) > 3 else 0.0)
    raise ConfigError(f"disturbance.b: expected constant:v or sine:lo,hi[,freq[,phase]], got {spec_str!r}")


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


class _Problem:
    """Everything a batch of runs needs, built once from a validated config."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
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
        self.signals = {k: _parse_signal(f"disturbance.{k}", cfg[f"disturbance.{k}"]) for k in ("d", "d1", "d2")}
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        self.directions = {}
        for key, default in (("d1", np.ones(n)), ("d2", e_n)):
            if self.signals[key][0] != "zero":
                text = cfg[f"disturbance.{key}_direction"]
                self.directions[key] = _vector(f"disturbance.{key}_direction", text, n) if text else default
        b_args = _bprofile_args(cfg["disturbance.b"], spec.b_lower)
        with _config_values("disturbance.b"):
            self.b = BProfile(*b_args)
        self.x0 = _vector("runs.x0", cfg["runs.x0"], n) if cfg["runs.x0"] else None
        if cfg["runs.x0_min"] > cfg["runs.x0_max"]:
            raise ConfigError("runs.x0_min must be <= runs.x0_max")
        self.opts = SimOptions(
            rel_tol=cfg["sim.rel_tol"],
            abs_tol=cfg["sim.abs_tol"],
            settle_radius=cfg["sim.settle_radius"],
            max_steps=cfg["sim.max_steps"],
        )
        kind = cfg["controller.kind"]
        if kind == "pnf":
            with _config_values("controller.density"):
                ts = build(spec.T, Density(cfg["controller.density"], cfg["controller.density_param"]))
        if cfg["controller.gains"]:
            g, _ = read_gains(cfg["controller.gains"])
            if hasattr(g, "K") != (kind == "pnf"):
                raise ConfigError(f"{kind} controller needs a {'pnf' if kind == 'pnf' else 'hong'} gain file")
        elif kind == "pnf":
            g = synthesize_linear_gain(n, spec.b_lower)
        else:
            g = synthesize_hong_gains(n, HongSynthesisConfig(seed=cfg["controller.synth_seed"]))
        self.gains = g
        self.switch = sp = None
        if kind != "pnf":
            b_up = spec.b_upper if math.isfinite(spec.b_upper) else spec.b_lower
            sp = self.switch = design_switch_params(
                g, m=cfg["controller.m"], b_upper=b_up, seed=cfg["controller.design_seed"]
            )
        with _config_values("controller"):
            if kind == "pnf":
                self.controller = pnf_controller(g, ts, cfg["controller.eta"], cfg["controller.t_stop_frac"])
            elif kind == "fixed_time":
                self.controller = fixed_time_controller(g, sp, b_lower=spec.b_lower)
            elif kind == "matched_robust":
                self.controller = robust_controller(g, sp, spec, cfg["controller.reg_eps"])
            else:
                self.controller = prescribed_time_controller(
                    g, sp, cfg["controller.t_target"], b_lower=spec.b_lower
                )

    def disturbances(self, run_seed: int) -> DisturbanceSpec:
        d = _make_signal(self.signals["d"], 4 * run_seed + 1, self.period)
        vec = {}
        for offset, key in ((2, "d1"), (3, "d2")):
            if key in self.directions:
                sig = _make_signal(self.signals[key], 4 * run_seed + offset, self.period)
                vec[key] = VectorSignal(self.directions[key], sig)
        return DisturbanceSpec(d=d, d1=vec.get("d1"), d2=vec.get("d2"), b=self.b)

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
        if self.switch is not None:
            metrics = iss_metrics(traj, self.gains, self.switch)
        else:
            metrics = {"limsup_Z": math.nan, "sup_norm": traj.sup_norm, "settle_time": traj.settle_time}
        return traj, seed, metrics


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
        return [_Problem(validate_config(v)) for v in variants(kv)]
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


_SWEEP_PARAMS = ("d1_amp", "d2_amp", "eta", "T_target")


def _apply_sweep(kv: dict, param: str, value: float) -> dict:
    kv = dict(kv)
    if param == "eta":
        kv["controller.eta"] = repr(value)
    elif param == "T_target":
        kv["controller.t_target"] = repr(value)
    else:
        key = "disturbance.d1" if param == "d1_amp" else "disturbance.d2"
        template = kv.get(key, "zero").split(":")
        kind = template[0] if template[0] != "zero" else "constant"
        rest = template[1].split(",")[1:] if len(template) > 1 else []
        kv[key] = "zero" if value == 0 else ":".join([kind, ",".join([repr(value)] + rest)])
    return kv


def cmd_sweep(args) -> int:
    if args.param not in _SWEEP_PARAMS:
        print(f"error: --param must be one of {_SWEEP_PARAMS}", file=sys.stderr)
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
        worst = -math.inf
        for k in range(cfg["runs.count"]):
            traj, seed, metrics = problem.run_one(k)
            cells = [args.param, format_float(value), str(k), str(seed)] + _result_cells(traj, metrics)
            rows.append(",".join(cells))
            stat = metrics["limsup_Z"]
            if stat is None or math.isnan(stat):
                stat = metrics["settle_time"] if metrics["settle_time"] is not None else math.nan
            worst = max(worst, stat)
        value_stat.append(worst)
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
