"""ptstab benchmark: three workloads, end-to-end metrics, and a traced run.

Run from the root of a source checkout (ptstab is imported from ``src/``):

    python3 perfbench/run.py --workload robust_sliding --seed 1 --seconds 20 --trace 0

Workloads, metrics, units and bounds are declared in ``BENCHMARK.json``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics.  The line before it records the
environment, the failed operations and the sample counts.  Exit code 0 means
every correctness gate passed; 1 means a gate failed (no times reported);
2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2  # before the passes and again after them, so setup_s samples both ends of the run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def pin_environment() -> dict:
    """Serial ptstab, BLAS threads capped at nproc; set before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("PTSTAB_THREADS", None)
    for var in BLAS_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return {"nproc": nproc, **{var: os.environ[var] for var in BLAS_VARS}, "PTSTAB_THREADS": None}


def import_ptstab():
    src = ROOT / "src"
    if not (src / "ptstab" / "__init__.py").is_file():
        raise ImportError(f"no ptstab sources under {src}")
    sys.path.insert(0, str(src))
    import ptstab

    if Path(ptstab.__file__).resolve().parent != (src / "ptstab").resolve():
        raise ImportError(f"ptstab was imported from {ptstab.__file__}, not from {src}")


def setup_times(workload: str, inputs_path: Path, repeats: int) -> list:
    """Fresh interpreters, each timing import plus the workload's one-time setup."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(inputs_path)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def check_pass(first, res, label: str) -> list:
    """Gate errors of a pass plus any output that differs from the first pass's."""
    errors = [f"{label}: {e}" for e in res.errors]
    if first is not None and res.hashes != first.hashes:
        diff = sorted(k for k in set(res.hashes) | set(first.hashes) if res.hashes.get(k) != first.hashes.get(k))
        errors.append(f"{label}: outputs differ from the first untraced pass: {diff[:5]}")
    return errors


def timed_run(wl, inputs, work: Path, seconds: float):
    """Repeat the workload's operation list until the --seconds budget is spent (at least once)."""
    import tracing
    from time import perf_counter
    from workloads import Ctx

    rec = tracing.Recorder()
    ctx = Ctx(rec, traced=False)
    passes, errors = [], []
    t_start = perf_counter()
    with tracing.install(rec, full=False):
        while True:
            res = wl.run_pass(ctx, inputs, work / "pass")
            errors += check_pass(passes[0] if passes else None, res, f"pass {len(passes)}")
            passes.append(res)
            elapsed = perf_counter() - t_start
            if errors or elapsed + statistics.median(p.wall_s for p in passes) > seconds:
                break
    return passes, errors


def traced_run(wl, inputs, work: Path, seed: int, names: list):
    """One untraced and one traced pass (outputs must match), probes, microbenchmarks."""
    import layers
    import tracing
    from workloads import Ctx, RobustSliding

    rec_u = tracing.Recorder()
    with tracing.install(rec_u, full=False):
        untraced = wl.run_pass(Ctx(rec_u, traced=False), inputs, work / "untraced")
    rec_t = tracing.Recorder()
    with tracing.install(rec_t, full=True):
        traced = wl.run_pass(Ctx(rec_t, traced=True), inputs, work / "traced")
    errors = check_pass(None, untraced, "untraced") + check_pass(untraced, traced, "traced")
    if errors:
        return untraced, {}, errors, []
    metrics = layers.from_spans(rec_t, traced)
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    robust = (inputs, untraced.out_dir) if wl is RobustSliding else None
    probes = layers.probes_for(n for n in names if n not in metrics and n not in layers.NOT_FROM_SPANS)
    for name in probes:
        rec_p, res_p, robust_inputs = layers.run_probe(name, work, seed)
        errors += check_pass(None, res_p, f"probe {name}")
        for key, value in layers.from_spans(rec_p, res_p).items():
            metrics.setdefault(key, value)
        if robust_inputs is not None:
            robust = (robust_inputs, res_p.out_dir)
    if errors:
        return untraced, {}, errors, probes
    metrics.update(layers.micro(*robust, seed))
    return untraced, metrics, errors, probes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    env = pin_environment()
    try:
        import_ptstab()
    except ImportError as exc:
        return fail(str(exc))
    import numpy
    import scipy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    env.update(
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        inputs = wl.prepare(work / "inputs", seed)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        setups = setup_times(args.workload, inputs_path, SETUP_REPEATS)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            first, metrics, errors, probes = traced_run(wl, inputs, work, seed, names)
            passes = [first]
            env["probes"] = probes
            setups += setup_times(args.workload, inputs_path, SETUP_REPEATS)
            metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        else:
            passes, errors = timed_run(wl, inputs, work, args.seconds)
            setups += setup_times(args.workload, inputs_path, SETUP_REPEATS)
            run_s = [t for res in passes for t in res.run_s]
            attempted = sum(res.attempted for res in passes)
            # means over the whole budget: the speed of a shared machine switches
            # between states for seconds at a time, and a median picks one state
            metrics = {
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "wall_s": statistics.fmean(res.wall_s for res in passes),
                "run_mean_s": statistics.fmean(run_s),
                "ok_frac": 1.0 - sum(res.failed for res in passes) / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            env["samples"] = {
                "passes": len(passes),
                "setups": len(setups),
                "runs": len(run_s),
                "run_p50_s": statistics.median(run_s),
                "run_max_s": max(run_s),
            }
    except Exception:
        import traceback

        traceback.print_exc()
        return fail("benchmark error")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    first = passes[0]
    env["failures"] = [{"op": op.name, "code": op.code, "message": op.message} for op in first.failures()]
    env["outputs_hashed"] = len(first.hashes)
    attempted = sum(res.attempted for res in passes)
    failed = sum(res.failed for res in passes)
    result = make_result(spec, args.trace, metrics, attempted, failed, errors)
    errors += schema_problems(spec, args.trace, result)
    if errors:
        result = make_result(spec, args.trace, metrics, attempted, failed, errors)
    env["errors"] = errors
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def make_result(spec: dict, trace: int, metrics: dict, attempted: int, failed: int, errors: list) -> dict:
    """The result line; a failed gate or an incomplete metric set reports no metrics."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if not errors and set(metrics) != set(names):
        errors.append(f"metrics missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": {}}
    if not errors:
        result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    return result


def schema_problems(spec: dict, trace: int, result: dict) -> list:
    """Everything wrong with a result line against BENCHMARK.json (empty when it conforms)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    if not result["correct"]:
        return problems
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append(f"metric names differ: missing {sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(entry)}")
            continue
        if entry["unit"] != declared.get(name, entry["unit"]):
            problems.append(f"{name}: unit {entry['unit']!r}, declared {declared[name]!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value or abs(value) == float("inf"):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


if __name__ == "__main__":
    sys.exit(main())
