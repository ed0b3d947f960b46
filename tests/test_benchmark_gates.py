"""One gated pass of the benchmark workloads that no other test runs.

``robust_sliding`` and ``certify`` are loaded from ``perfbench/`` by file
path, as ``test_cli`` loads ``tracing.py``, and run once with the run timers
of an untimed benchmark pass installed.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the string annotations of workloads.py through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _one_pass(workload, tmp_path, seed, **kwargs):
    tracing, workloads = _load("tracing"), _load("workloads")
    wl = workloads.WORKLOADS[workload]
    inputs = wl.prepare(tmp_path / "inputs", seed)
    rec = tracing.Recorder()
    with warnings.catch_warnings(record=True) as caught, tracing.install(rec, full=False):
        warnings.simplefilter("always")
        res = wl.run_pass(workloads.Ctx(rec, traced=False), inputs, tmp_path / "pass", **kwargs)
    # the robust_sliding gate reads each run CSV's header through a file it
    # leaves open; any other warning fails the pass
    leaks = [w for w in caught if w.category is ResourceWarning and "unclosed file" in str(w.message)]
    assert leaks == caught, [str(w.message) for w in caught]
    return res


def test_robust_sliding_pass_meets_its_gate(tmp_path):
    # every run reaches {V_- <= 1} and stays within 1 + 10*reg_eps; limsup Z is finite
    res = _one_pass("robust_sliding", tmp_path, seed=101, runs=2)
    assert res.errors == []
    assert (res.attempted, res.failed) == (2, 0)


def test_certify_pass_fails_only_the_hong_n4_synthesis(tmp_path):
    # Hong n=4 gives up after its repair rounds; every other synthesis verifies
    # and the four switch designs give a finite settling bound
    res = _one_pass("certify", tmp_path, seed=301)
    assert [op.name for op in res.failures()] == ["synthesize hong n=4"]
    assert res.errors == []
    assert res.attempted == 27
