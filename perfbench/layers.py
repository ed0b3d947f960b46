"""Per-layer metrics of the traced run, for the eight ptstab modules.

Span-based metrics come from the workload's own traced pass.  A workload
that never calls a layer (``pnf_linear`` has no switching controller,
``certify`` integrates nothing) gets that layer's metrics from a small
traced probe instead, so every traced run reports every metric; the result
names the probes it ran.  Per-call costs of the scalar kernels are
microbenchmarks on seeded inputs, identical in every workload.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import ptstab.gainfile as gainfile
import ptstab.hong as hong
from ptstab.core import kappa_grid, sample_sphere
from ptstab.pnf import certify_perturbation, pnf_feedback, synthesize_linear_gain
from ptstab.timescale import Density, build

import tracing
from workloads import Certify, Ctx, PnfLinear, RobustSliding

# per-layer metrics that are not read from spans: microbenchmarks, setup children, overhead
NOT_FROM_SPANS = {
    "hong.value_us",
    "hong.control_us",
    "hong.lyapunov_us",
    "pnf.feedback_us",
    "timescale.t_of_s_us.constant",
    "timescale.t_of_s_us.power",
    "timescale.t_of_s_us.expflat",
    "core.sample_sphere_ns_per_point",
    "cli.import_s",
    "trace.overhead_frac",
}
MICRO_STATES = 10_000
MICRO_REPEATS = 3
# which probe supplies a metric that the workload's own pass cannot
PROBE_OF = {
    "sim.": "robust1",
    "switching.": "robust1",
    "cli.write_s": "robust1",
    "timescale.share.expflat": "expflat",
    "hong.": "certify",
    "pnf.": "certify",
}


def from_spans(rec: tracing.Recorder, res) -> dict:
    """Every per-layer metric the spans and records of one traced pass can give."""
    m = {}
    ints = rec.integrations
    steps = sum(r["steps"] for r in ints)
    if steps:
        # _adaptive_run evaluates the RHS once at the start and 7 times per attempted step
        attempts = sum((r["rhs"] - 1) // 7 for r in ints)
        m["sim.steps"] = steps
        m["sim.rhs_evals"] = sum(r["rhs"] for r in ints)
        m["sim.rejected_steps"] = attempts - steps
        m["sim.self_us_per_step"] = 1e6 * sum(r["stepping_self_s"] for r in ints) / steps
        m["sim.posthoc_s"] = sum(r["posthoc_s"] for r in ints)
    if rec.calls["sim.iss_metrics"]:
        m["sim.iss_metrics_s"] = rec.total["sim.iss_metrics"]
    for span in ("feedback", "surface", "diag"):
        name = f"switching.{span}"
        if rec.calls[name]:
            m[f"{name}_us"] = 1e6 * rec.total[name] / rec.calls[name]
    if rec.calls["switching.design_switch_params"]:
        m["switching.design_s"] = rec.total["switching.design_switch_params"]
    reads = ("gainfile.read_config", "gainfile.validate_config", "gainfile.read_gains")
    if any(rec.calls[s] for s in reads):
        m["gainfile.read_s"] = sum(rec.total[s] for s in reads)
    if rec.calls["cli.simulate"]:
        # simulate minus its child spans: config/gain parsing, design, runs, iss_metrics
        m["cli.write_s"] = rec.self_time["cli.simulate"]
    if rec.verify_rows:
        scan = rec.total["hong.verify_decay"] + rec.total["hong.decay_residual"]
        m["hong.verify_ns_per_sample"] = 1e9 * scan / rec.verify_rows
    pnf_synth = [op.seconds for op in res.ops if op.name.startswith("synthesize pnf")]
    if pnf_synth:
        m["pnf.synth_s"] = sum(pnf_synth)
    for op in res.ops:
        if op.name.startswith("synthesize hong n="):
            m[f"hong.synth_s.n{op.name.rsplit('=', 1)[1]}"] = op.seconds
    m.update(res.values)
    expflat = [r for r in ints if r["label"] == "warped.expflat"]
    if expflat:
        m["timescale.share.expflat"] = sum(r["timescale_s"] for r in expflat) / sum(r["seconds"] for r in expflat)
    return m


def probes_for(missing) -> list:
    names = []
    for metric in sorted(missing):
        probe = next(p for prefix, p in PROBE_OF.items() if metric.startswith(prefix))
        if probe not in names:
            names.append(probe)
    return names


def run_probe(name: str, work, seed: int):
    """One traced probe pass; returns (recorder, pass result, robust inputs or None)."""
    rec = tracing.Recorder()
    ctx = Ctx(rec, traced=True)
    if name == "robust1":
        inputs = RobustSliding.prepare(work / "probe_robust_inputs", seed)
        with tracing.install(rec, full=True):
            res = RobustSliding.run_pass(ctx, inputs, work / "probe_robust", runs=1)
        return rec, res, inputs
    if name == "expflat":
        inputs = PnfLinear.prepare(work / "probe_pnf_inputs", seed)
        with tracing.install(rec, full=True):
            res = PnfLinear.run_pass(ctx, inputs, work / "probe_pnf", simulate=False, densities=("expflat",))
        return rec, res, None
    inputs = Certify.prepare(work / "probe_certify_inputs", seed)
    with tracing.install(rec, full=True):
        res = Certify.run_pass(ctx, inputs, work / "probe_certify")
    return rec, res, None


def _per_call(fn, items, scale=1e6) -> float:
    """Median over repeats of the mean cost of fn(*item), in microseconds by default."""
    reps = []
    for _ in range(MICRO_REPEATS):
        t0 = perf_counter()
        for item in items:
            fn(*item)
        reps.append((perf_counter() - t0) / len(items))
    return scale * statistics.median(reps)


def micro(robust_inputs: dict, robust_out, seed: int) -> dict:
    """Scalar-kernel costs: hong on 10^4 robust_sliding states, pnf, timescale, core."""
    g, _ = gainfile.read_gains(robust_inputs["gains"])
    kappa0 = RobustSliding.setup(robust_inputs).kappa0
    rows = []
    for path in sorted(robust_out.glob("run_*.csv")):
        rows.append(np.loadtxt(path, delimiter=",", skiprows=1, usecols=[1, 2]))
    states = np.concatenate(rows)
    states = states[np.linspace(0, len(states) - 1, MICRO_STATES).astype(int)]
    # the matched-robust law picks +kappa0 outside {V_- <= 1} and -kappa0 inside
    kaps = [kappa0 if hong.hong_value(g, -kappa0, x) > 1.0 else -kappa0 for x in states]
    m = {
        "hong.value_us": _per_call(hong.hong_value, [(g, -kappa0, x) for x in states]),
        "hong.control_us": _per_call(hong.hong_control, [(g, k, x) for k, x in zip(kaps, states)]),
        "hong.lyapunov_us": _per_call(hong.hong_lyapunov, [(g, k, x) for k, x in zip(kaps, states)]),
    }
    g3 = synthesize_linear_gain(3, 1.0)
    certify_perturbation(g3)
    ts = build(1.0, Density("constant", 1.0))
    eta = ts.a_sup() / g3.C0
    rng = np.random.default_rng([seed, 5])
    xs = rng.standard_normal((MICRO_STATES, 3))
    ts_grid = np.linspace(0.0, 0.99, MICRO_STATES)
    m["pnf.feedback_us"] = _per_call(pnf_feedback, [(g3, ts, eta, t, x) for t, x in zip(ts_grid, xs)])
    for tag, param, count in (("constant", 1.0, 2000), ("power", 2.0, 2000), ("expflat", 1.0, 200)):
        scale = build(1.0, Density(tag, param))
        m[f"timescale.t_of_s_us.{tag}"] = _per_call(scale.t_of_s, [(s,) for s in np.linspace(0.01, 10.0, count)])
    grid = kappa_grid(3, 11)
    points = len(grid) * 2000
    m["core.sample_sphere_ns_per_point"] = _per_call(sample_sphere, [(3, grid, 2000, seed)], scale=1e9 / points)
    return m
