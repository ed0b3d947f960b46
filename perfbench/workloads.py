"""The three workloads: inputs from the seed, one pass of operations, gates.

Each workload drives ptstab only through its public entry points:
``ptstab.cli.main`` for ``simulate``, ``synthesize`` and ``verify``, plus
``integrate_warped``, ``design_switch_params`` and the public ``pnf``,
``timescale`` and ``gainfile`` functions.  ``prepare`` writes every input the
program receives, from the seed alone; ``run_pass`` runs the operation list
once into a fresh output directory; the gate of each pass turns wrong output
into errors instead of a time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import ptstab.cli as cli
import ptstab.gainfile as gainfile
import ptstab.sim as sim
import ptstab.switching as switching
from ptstab.core import ChainSpec
from ptstab.pnf import convergence_envelope
from ptstab.timescale import Density, build

REG_EPS = 5e-3
HONG_SYNTH_SEED = 0  # the CLI default; see BENCHMARK.json, workload "certify"


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    code: object = 0
    message: str = ""


@dataclass
class PassResult:
    wall_s: float = 0.0
    ops: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    hashes: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    out_dir: Path | None = None
    values: dict = field(default_factory=dict)  # exact certificate values read back

    def failures(self):
        return [op for op in self.ops if not op.ok]


class Ctx:
    """What a pass needs from the harness: the recorder, and whether spans are on."""

    def __init__(self, rec, traced: bool):
        self.rec = rec
        self.traced = traced

    def span(self, name, fn):
        return self.rec.wrap(name, fn) if self.traced else fn

    def timescale(self, ts):
        return self.rec.timescale(ts) if self.traced else ts


def run_cli(ctx: Ctx, name: str, argv: list) -> Op:
    """One `ptstab` command in-process; its stdout/stderr are captured, not printed."""
    main = ctx.span(f"cli.{argv[0]}", cli.main)
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        message = err.getvalue().strip().splitlines()[-1:] or [""]
        return Op(name, perf_counter() - t0, code == 0, code, message[0])
    except Exception as exc:  # a traceback the CLI let escape is a failed operation
        return Op(name, perf_counter() - t0, False, "exception", f"{type(exc).__name__}: {exc}")


def hash_files(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _write_config(path: Path, items: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))


def _summary_rows(out_dir: Path) -> list:
    with open(out_dir / "summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _simulate(ctx: Ctx, res: PassResult, inputs: dict, out_dir: Path, runs: int):
    """One `ptstab simulate` op; each closed-loop run counts as one attempted operation.

    The config names the pass's output directory, so it is written beside that
    directory rather than inside it, where it would enter the output hashes.
    """
    cfg = dict(inputs["config"], **{"runs.count": runs, "output.dir": str(out_dir)})
    cfg_path = out_dir.parent / f"{out_dir.name}.cfg"
    _write_config(cfg_path, cfg)
    first = len(ctx.rec.integrations)
    op = run_cli(ctx, "simulate", ["simulate", "--config", str(cfg_path)])
    res.ops.append(op)
    res.run_s += [r["seconds"] + r["iss_s"] for r in ctx.rec.integrations[first:]]
    res.attempted += runs
    if not op.ok:
        res.failed += runs
        res.errors.append(f"simulate exited {op.code}: {op.message}")
        return
    bad = [r for r in _summary_rows(out_dir) if r["status"] == "StepFailure"]
    res.failed += len(bad)
    res.errors += [f"run {r['run']} ended in StepFailure" for r in bad]


# --- robust_sliding ----------------------------------------------------------


class RobustSliding:
    """`ptstab simulate` with the matched-robust controller (README example config)."""

    name = "robust_sliding"
    runs = 8

    @staticmethod
    def prepare(inputs_dir: Path, seed: int) -> dict:
        inputs_dir.mkdir(parents=True, exist_ok=True)
        gains = inputs_dir / "hong_n2.gains"
        argv = ["synthesize", "--kind", "hong", "--n", "2", "--b-lower", "1", "--seed", str(seed), "--out", str(gains)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("could not write the Hong n=2 input gain file")
        config = {
            "plant.n": 2,
            "plant.t": 1.0,
            "plant.b_lower": 1.0,
            "plant.b_upper": 3.0,
            "plant.d_bound": 1.0,
            "controller.kind": "matched_robust",
            "controller.gains": str(gains),
            "controller.reg_eps": REG_EPS,
            "controller.design_seed": 17 + seed % 1000,
            "disturbance.d": "sine:1.0,0.7,0.2",
            "disturbance.b": "sine:1,3,0.4",
            "runs.seed": seed,
            "runs.x0_min": 0.3,
            "runs.x0_max": 30.0,
            "sim.rel_tol": 1e-7,
            "sim.abs_tol": 1e-10,
            "sim.horizon": 15.0,
        }
        path = inputs_dir / "robust.cfg"
        _write_config(path, dict(config, **{"output.dir": str(inputs_dir / "unused")}))
        return {"config": config, "config_path": str(path), "gains": str(gains)}

    @staticmethod
    def setup(inputs: dict):
        """The one-time work before the first run: parse config and gains, design the switch."""
        cfg = gainfile.validate_config(gainfile.read_config(inputs["config_path"]))
        g, _ = gainfile.read_gains(cfg["controller.gains"])
        return switching.design_switch_params(
            g, m=cfg["controller.m"], b_upper=cfg["plant.b_upper"], seed=cfg["controller.design_seed"]
        )

    @classmethod
    def run_pass(cls, ctx: Ctx, inputs: dict, out_dir: Path, runs: int | None = None) -> PassResult:
        runs = runs or cls.runs
        res = PassResult(out_dir=_fresh(out_dir))
        t0 = perf_counter()
        _simulate(ctx, res, inputs, out_dir, runs)
        res.wall_s = perf_counter() - t0
        res.hashes = hash_files(out_dir)
        if not res.errors:
            res.errors += cls.gate(out_dir, runs)
        return res

    @staticmethod
    def gate(out_dir: Path, runs: int) -> list:
        """Every run reaches V_- <= 1 and then stays within 1 + 10*reg_eps; limsup Z finite."""
        errors = []
        for row in _summary_rows(out_dir):
            if not math.isfinite(float(row["limsup_Z"])):
                errors.append(f"run {row['run']}: limsup_Z is {row['limsup_Z']}")
        for k in range(runs):
            path = out_dir / f"run_{k}.csv"
            col = path.open().readline().strip().split(",").index("Vkm")
            vkm = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[col])
            hit = np.nonzero(vkm <= 1.0)[0]
            if len(hit) == 0:
                errors.append(f"run {k} never reached V_- <= 1")
            elif float(np.max(vkm[hit[0]:])) > 1.0 + 10.0 * REG_EPS:
                errors.append(f"run {k} left V_- <= 1 + 10*reg_eps (max {np.max(vkm[hit[0]:])})")
        return errors


# --- pnf_linear --------------------------------------------------------------


class PnfLinear:
    """PNF `simulate` in real time, then `integrate_warped` for the three densities."""

    name = "pnf_linear"
    runs = 8
    s_max = 10.0  # keeps t inside the horizon guard for all three densities at T=1
    densities = (("constant", 1.0), ("power", 2.0), ("expflat", 1.0))

    @classmethod
    def prepare(cls, inputs_dir: Path, seed: int) -> dict:
        inputs_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 2])
        gains = inputs_dir / "pnf_n3.gains"
        with contextlib.redirect_stdout(io.StringIO()):
            for n, path in ((3, gains), (2, inputs_dir / "pnf_n2.gains")):
                argv = ["synthesize", "--kind", "pnf", "--n", str(n), "--b-lower", "1", "--out", str(path)]
                if cli.main(argv) != 0:
                    raise RuntimeError(f"could not write the pnf n={n} input gain file")
        g3, _ = gainfile.read_gains(str(gains))
        config = {
            "plant.n": 3,
            "plant.t": 1.0,
            "plant.b_lower": 1.0,
            "controller.kind": "pnf",
            "controller.gains": str(gains),
            "controller.eta": repr(build(1.0, Density("constant", 1.0)).a_sup() / g3.C0),
            "controller.density": "constant",
            "disturbance.d": f"sine:1.0,{rng.uniform(0.2, 2.0)!r},{rng.uniform(0.0, 6.28)!r}",
            "runs.seed": seed,
            "runs.x0_min": 0.3,
            "runs.x0_max": 30.0,
            "sim.horizon": 1.0,
        }
        path = inputs_dir / "pnf.cfg"
        _write_config(path, dict(config, **{"output.dir": str(inputs_dir / "unused")}))
        warped = []
        for tag, param in cls.densities:
            for amp in (1.0, 0.0):
                direction = rng.standard_normal(2)
                x0 = 10.0 ** rng.uniform(-1.0, 1.0) * direction / np.linalg.norm(direction)
                warped.append(
                    {
                        "density": tag,
                        "param": param,
                        "amp": amp,
                        "freq": float(rng.uniform(0.2, 2.0)),
                        "phase": float(rng.uniform(0.0, 6.28)),
                        "x0": [float(v) for v in x0],
                    }
                )
        return {
            "config": config,
            "config_path": str(path),
            "gains": str(gains),
            "gains_n2": str(inputs_dir / "pnf_n2.gains"),
            "warped": warped,
        }

    @classmethod
    def setup(cls, inputs: dict):
        """Parse config and gains, build the time scales."""
        cfg = gainfile.validate_config(gainfile.read_config(inputs["config_path"]))
        gainfile.read_gains(cfg["controller.gains"])
        gainfile.read_gains(inputs["gains_n2"])
        return [build(1.0, Density(tag, p)) for tag, p in cls.densities]

    @classmethod
    def run_pass(cls, ctx: Ctx, inputs: dict, out_dir: Path, simulate=True, densities=None) -> PassResult:
        res = PassResult(out_dir=_fresh(out_dir))
        t0 = perf_counter()
        if simulate:
            _simulate(ctx, res, inputs, out_dir, cls.runs)
        runs = cls._warped(ctx, res, inputs, densities)
        res.wall_s = perf_counter() - t0
        res.hashes = hash_files(out_dir)
        for key, traj, *_ in runs:
            res.hashes[f"warped/{key}"] = hashlib.sha256(traj.t.tobytes() + traj.x.tobytes()).hexdigest()
        if not res.errors:
            res.errors += cls.gate(runs)
        return res

    @classmethod
    def _warped(cls, ctx: Ctx, res: PassResult, inputs: dict, densities) -> list:
        g, _ = gainfile.read_gains(inputs["gains_n2"])
        spec = ChainSpec(n=2, T=1.0)
        opts = sim.SimOptions(rel_tol=1e-9, abs_tol=1e-12)
        runs = []
        for k, w in enumerate(inputs["warped"]):
            if densities is not None and w["density"] not in densities:
                continue
            key = f"{w['density']}-{k}"
            ts = ctx.timescale(build(1.0, Density(w["density"], w["param"])))
            eta = max(1.0, ts.a_sup() / g.C0)
            dist = sim.DisturbanceSpec(d=sim.sine_signal(w["amp"], w["freq"], w["phase"]))
            if ctx.traced:
                dist = ctx.rec.disturbance(dist)
            res.attempted += 1
            t0 = perf_counter()
            try:
                traj = sim.integrate_warped(spec, g, ts, eta, dist, np.array(w["x0"]), opts, s_max=cls.s_max)
            except (ValueError, OverflowError) as exc:
                res.ops.append(Op(f"warped {key}", perf_counter() - t0, False, "exception", f"{type(exc).__name__}: {exc}"))
                res.failed += 1
                res.errors.append(f"warped {key}: {type(exc).__name__}: {exc}")
                continue
            seconds = perf_counter() - t0
            ctx.rec.integrations[-1]["label"] = f"warped.{w['density']}"
            ok = traj.status in ("horizon", "settled")
            res.ops.append(Op(f"warped {key}", seconds, ok, 0 if ok else traj.status))
            res.failed += not ok
            res.run_s.append(seconds)
            runs.append((key, traj, w, eta, g))
        return runs

    @staticmethod
    def gate(runs: list) -> list:
        """Every warped sample is dominated by the certificate's convergence envelope."""
        errors = []
        for key, traj, w, eta, g in runs:
            if traj.status not in ("horizon", "settled"):
                errors.append(f"warped {key}: status {traj.status}")
                continue
            ts = build(1.0, Density(w["density"], w["param"]))
            x0n = float(np.linalg.norm(w["x0"]))
            for i in range(len(traj.t)):
                env = convergence_envelope(g, ts, eta, x0n, w["amp"], traj.t[i])
                if not np.all(np.abs(traj.x[i]) <= env + 1e-15):
                    errors.append(f"warped {key}: sample {i} at t={traj.t[i]} above the envelope")
                    break
        return errors


# --- certify -----------------------------------------------------------------


class Certify:
    """`synthesize` pnf n=1..8 and hong n=1..4, `verify --grid-scale 10`, switch design."""

    name = "certify"
    pnf_orders = range(1, 9)
    hong_orders = range(1, 5)
    design = ((2, 1.0), (2, 3.0), (3, 1.0), (3, 3.0))
    # orders whose certificate values are reported: every pnf order that
    # synthesizes today, and the Hong orders that need repair rounds
    reported = {"pnf": range(1, 8), "hong": (2, 3)}

    @staticmethod
    def prepare(inputs_dir: Path, seed: int) -> dict:
        inputs_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 3])
        return {"b_lower": round(float(rng.uniform(0.5, 3.0)), 6), "design_seed": int(rng.integers(0, 1000))}

    @staticmethod
    def setup(inputs: dict):
        return None  # nothing to parse or build before the first synthesize

    @classmethod
    def run_pass(cls, ctx: Ctx, inputs: dict, out_dir: Path) -> PassResult:
        res = PassResult(out_dir=_fresh(out_dir))
        b = repr(inputs["b_lower"])
        written = []
        t0 = perf_counter()
        for kind, orders in (("pnf", cls.pnf_orders), ("hong", cls.hong_orders)):
            for n in orders:
                path = out_dir / f"{kind}_n{n}.gains"
                argv = ["synthesize", "--kind", kind, "--n", str(n), "--b-lower", b, "--out", str(path)]
                if kind == "hong":
                    argv += ["--seed", str(HONG_SYNTH_SEED)]
                op = run_cli(ctx, f"synthesize {kind} n={n}", argv)
                res.ops.append(op)
                if op.ok:
                    written.append(path)
        verified = {}
        for path in written:
            op = run_cli(ctx, f"verify {path.stem}", ["verify", "--gains", str(path), "--grid-scale", "10"])
            res.ops.append(op)
            verified[path.stem] = op.ok
        for n, b_upper in cls.design:
            name = f"design hong n={n} b_upper={b_upper:g}"
            path = out_dir / f"hong_n{n}.gains"
            start = perf_counter()
            try:
                g, _ = gainfile.read_gains(str(path))
                sp = switching.design_switch_params(g, b_upper=b_upper, seed=inputs["design_seed"])
            except (OSError, RuntimeError, ValueError) as exc:
                res.ops.append(Op(name, perf_counter() - start, False, "exception", f"{type(exc).__name__}: {exc}"))
                continue
            ok = sp.kappa0 > 0 and math.isfinite(sp.T_settle) and sp.T_settle > 0
            res.ops.append(Op(name, perf_counter() - start, ok, 0 if ok else "bad design", f"T_settle={sp.T_settle}"))
        res.wall_s = perf_counter() - t0
        res.run_s = [res.wall_s]  # nothing is integrated here, so a run is one pass of the list
        res.attempted = len(res.ops)
        res.failed = len(res.failures())
        res.hashes = hash_files(out_dir)
        for path in written:
            g, _ = gainfile.read_gains(str(path))
            if g.n not in cls.reported["pnf" if hasattr(g, "K") else "hong"]:
                continue
            if hasattr(g, "K"):
                res.values[f"pnf.rho.n{g.n}"] = g.rho
                res.values[f"pnf.C0.n{g.n}"] = g.C0
            else:
                res.values[f"hong.repair_rounds.n{g.n}"] = g.certificate.get("repair_rounds", 0)
        res.errors += [f"{stem} was synthesized but verify failed" for stem, ok in verified.items() if not ok]
        res.errors += [f"{op.name}: {op.message}" for op in res.ops if op.code == "bad design"]
        return res


WORKLOADS = {w.name: w for w in (RobustSliding, PnfLinear, Certify)}
