"""Schema tests of the benchmark: BENCHMARK.json and the result line.

Run from the repository root:

    python3 -m pytest -q perfbench/test_schema.py

The last test runs the pnf_linear workload once (about 15 s on 2 cores).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"setup_s": "s", "wall_s": "s", "run_mean_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim.self_us_per_step": "us",
    "sim.steps": "count",
    "sim.rejected_steps": "count",
    "sim.rhs_evals": "count",
    "sim.posthoc_s": "s",
    "sim.iss_metrics_s": "s",
    "switching.feedback_us": "us",
    "switching.surface_us": "us",
    "switching.diag_us": "us",
    "switching.design_s": "s",
    "hong.value_us": "us",
    "hong.control_us": "us",
    "hong.lyapunov_us": "us",
    "hong.verify_ns_per_sample": "ns",
    **{f"hong.synth_s.n{n}": "s" for n in range(1, 5)},
    "hong.repair_rounds.n2": "count",
    "hong.repair_rounds.n3": "count",
    "pnf.feedback_us": "us",
    "pnf.synth_s": "s",
    **{f"pnf.rho.n{n}": "1" for n in range(1, 8)},
    **{f"pnf.C0.n{n}": "1" for n in range(1, 8)},
    "timescale.t_of_s_us.constant": "us",
    "timescale.t_of_s_us.power": "us",
    "timescale.t_of_s_us.expflat": "us",
    "timescale.share.expflat": "ratio",
    "core.sample_sphere_ns_per_point": "ns",
    "gainfile.read_s": "s",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "trace.overhead_frac": "ratio",
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 1 <= len(SPEC["command"]) <= 32 and all(len(a) <= 200 for a in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    for arg in SPEC["command"][1:]:
        assert not arg.startswith("/") and ".." not in arg
        if "/" in arg:
            assert any(arg.startswith(p.rstrip("/") + "/") for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_declared_metrics_and_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_workloads_match_code():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_schema(trace):
    declared = PER_LAYER if trace else END_TO_END
    metrics = {name: 1.5 for name in declared}
    result = run.make_result(SPEC, trace, metrics, 26, 2, [])
    assert result["correct"] and run.schema_problems(SPEC, trace, result) == []
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    missing = dict(metrics)
    missing.pop(next(iter(declared)))
    assert not run.make_result(SPEC, trace, missing, 26, 2, [])["correct"]
    bad_unit = json.loads(json.dumps(result))
    next(iter(bad_unit["metrics"].values()))["unit"] = "parsec"
    assert run.schema_problems(SPEC, trace, bad_unit)
    nan = json.loads(json.dumps(result))
    next(iter(nan["metrics"].values()))["value"] = float("nan")
    assert run.schema_problems(SPEC, trace, nan)
    gated = run.make_result(SPEC, trace, metrics, 26, 2, ["gate failed"])
    assert not gated["correct"] and gated["metrics"] == {}


def test_refuses_without_sources(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_result_line():
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "pnf_linear", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    env = json.loads(env_line)["env"]
    for key in ("nproc", "python", "numpy", "scipy", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "seed"):
        assert key in env
    assert env["PTSTAB_THREADS"] is None and env["seed"] == 3
    result = json.loads(result_line)
    assert result["correct"] and run.schema_problems(SPEC, 0, result) == []
