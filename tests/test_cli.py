import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ptstab import cli
from ptstab.cli import main
from ptstab.gainfile import CONFIG_SCHEMA, ConfigError, read_config, read_gains, validate_config, write_gains
from ptstab.hong import HongSynthesisConfig, synthesize_hong_gains
from ptstab.pnf import LinearGain, certify_perturbation, synthesize_linear_gain


def _write_cfg(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_synthesize_pnf_n1_file(tmp_path):
    out = str(tmp_path / "p.gains")
    assert main(["synthesize", "--kind", "pnf", "--n", "1", "--b-lower", "1", "--out", out]) == 0
    g, b = read_gains(out)
    assert g.K[0] == 1.0 and g.S[0, 0] == 0.5 and g.rho == 1.0


def test_synthesize_rejects_bad_n(tmp_path):
    out = str(tmp_path / "x.gains")
    assert main(["synthesize", "--kind", "pnf", "--n", "0", "--b-lower", "1", "--out", out]) == 1
    assert main(["synthesize", "--kind", "pnf", "--n", "2", "--out", out]) == 1  # missing flag


@pytest.mark.parametrize(
    "kind, b_lower, seed", [("hong", "1", "-1000"), ("hong", "nan", "0"), ("pnf", "nan", "0"), ("pnf", "inf", "0")]
)
def test_synthesize_rejects_negative_seed_and_non_finite_b_lower(tmp_path, capsys, kind, b_lower, seed):
    out = tmp_path / "g.gains"
    argv = ["synthesize", "--kind", kind, "--n", "2", "--b-lower", b_lower, "--seed", seed, "--out", str(out)]
    assert main(argv) == 1
    _one_line_error(capsys, "error: need --n >= 1, a finite --b-lower > 0 and --seed >= 0")
    assert not out.exists()


def test_gain_roundtrip_full_precision(tmp_path):
    g = synthesize_linear_gain(3, 0.7)
    certify_perturbation(g)
    path = str(tmp_path / "g.gains")
    write_gains(path, g)
    g2, _ = read_gains(path)
    assert np.array_equal(g.K, g2.K)
    assert np.array_equal(g.S, g2.S)
    assert g.rho == g2.rho and g.C0 == g2.C0 and g.rho0 == g2.rho0

    h = synthesize_hong_gains(2, HongSynthesisConfig(seed=1))
    hpath = str(tmp_path / "h.gains")
    write_gains(hpath, h, b_lower=2.0)
    h2, bl = read_gains(hpath)
    assert np.array_equal(h.ell, h2.ell)
    assert h.C == h2.C and bl == 2.0
    assert h2.certificate["c_raw"] == h.certificate["c_raw"]


def test_verify_fresh_and_corrupted(tmp_path):
    out = str(tmp_path / "p2.gains")
    assert main(["synthesize", "--kind", "pnf", "--n", "2", "--b-lower", "1", "--out", out]) == 0
    assert main(["verify", "--gains", out]) == 0
    # flip one sign in S -> LMI must fail with exit 2
    text = Path(out).read_text()
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("S ="):
            parts = ln.split("=", 1)[1].strip()
            first = parts.split(";")[0]
            lines[i] = "S = " + parts.replace(first, str(-float(first)), 1)
    Path(out).write_text("\n".join(lines) + "\n")
    assert main(["verify", "--gains", out]) == 2
    # unreadable file is a usage error
    assert main(["verify", "--gains", str(tmp_path / "missing.gains")]) == 1
    bad = tmp_path / "junk.gains"
    bad.write_text("not a gain file\n")
    assert main(["verify", "--gains", str(bad)]) == 1


def _failing_rows(report):
    return [ln.split("  ")[0] for ln in report.splitlines() if ln.endswith("FAIL")]


def test_verify_rejects_indefinite_s_and_inflated_c0(tmp_path, capsys):
    bad_s = str(tmp_path / "s.gains")
    write_gains(bad_s, LinearGain(n=1, K=np.array([-1.0]), S=np.array([[-0.5]]), rho=1.0, b_lower=1.0))
    assert main(["verify", "--gains", bad_s]) == 2
    assert _failing_rows(capsys.readouterr().out) == ["S min-eig"]

    out = str(tmp_path / "p2.gains")
    assert main(["synthesize", "--kind", "pnf", "--n", "2", "--b-lower", "1", "--out", out]) == 0
    assert main(["verify", "--gains", out]) == 0
    lines = Path(out).read_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("C0 ="):
            lines[i] = f"C0 = {2.0 * float(ln.split('=', 1)[1])!r}"
    Path(out).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--gains", out]) == 2
    assert _failing_rows(capsys.readouterr().out) == ["perturbed endpoints + rho0"]


def test_verify_hong_grid_scale(tmp_path, capsys):
    out = str(tmp_path / "h2.gains")
    assert main(["synthesize", "--kind", "hong", "--n", "2", "--b-lower", "1", "--seed", "3", "--out", out]) == 0
    assert main(["verify", "--gains", out, "--grid-scale", "10"]) == 0
    report = capsys.readouterr().out
    change_line = [ln for ln in report.splitlines() if "C change" in ln][0]
    assert float(change_line.split()[-2].rstrip("%")) < 10.0
    # a non-positive scale is a usage error, not a silent scan at scale 1
    for bad in ("0", "-5"):
        assert main(["verify", "--gains", out, "--grid-scale", bad]) == 1
        _one_line_error(capsys, "error: --grid-scale")


def test_synthesize_hong_failure_names_evidence(tmp_path, capsys):
    # n=4 at seed 0 is not certified after MAX_ROUNDS repairs; the worst
    # sample of the last round sits at the positive end of the grid
    out = tmp_path / "h4.gains"
    argv = ["synthesize", "--kind", "hong", "--n", "4", "--b-lower", "1", "--seed", "0", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("synthesis failed: decay verification failed after repairs (20 repair rounds; ")
    assert "kappa=0.02," in err[0]
    # the sample fails by lying more than 5% below the raw constant it is judged against
    assert "ratio=699.6 against C_raw=1.697e+04)" in err[0]
    assert not out.exists()


def test_read_gains_accepts_recursion_record_lines(tmp_path):
    # files written before the recursion record was dropped carry safety and level* lines
    h = synthesize_hong_gains(1, HongSynthesisConfig(samples_per_level=50, verify_samples_per_kappa=50))
    path = tmp_path / "old.gains"
    write_gains(str(path), h)
    fresh = path.read_text()
    assert "certificate.safety" not in fresh and "certificate.level" not in fresh
    old = [
        "certificate.safety = 4",
        "certificate.level2.K = 1.5",
        "certificate.level2.L = 0.25",
        "certificate.level2.M = 0.125",
        "certificate.level2.ell_recursion_bound = 3",
    ]
    path.write_text(fresh + "\n".join(old) + "\n")
    h2, _ = read_gains(str(path))
    assert np.array_equal(h2.ell, h.ell) and h2.C == h.C
    assert h2.certificate["c_raw"] == h.certificate["c_raw"]
    assert main(["verify", "--gains", str(path)]) == 0


def _format_float_run_csv(path, traj, n):
    """The run-CSV writer as it was: one format_float call per cell."""
    from ptstab.gainfile import format_float

    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",u,V0,Vkp,Vkm,kappa,Z"
    lines = [header]
    for i in range(len(traj.t)):
        cells = [format_float(traj.t[i])]
        cells += [format_float(v) for v in traj.x[i]]
        cells.append(format_float(traj.u[i]))
        for c in cli._DIAG_COLS:
            cells.append(format_float(traj.diag[c][i]) if c in traj.diag else "nan")
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("with_diag", [True, False])
def test_run_csv_writer_bytes(tmp_path, with_diag):
    rng = np.random.default_rng(3)
    N, n = 40, 3
    t = np.cumsum(rng.uniform(0.0, 0.1, N))
    x = rng.standard_normal((N, n)) * 10.0 ** rng.uniform(-300, 300, (N, n))
    u = rng.standard_normal(N)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1 / 3]
    x[: len(special), 0] = special
    u[: len(special)] = special[::-1]
    diag = {}
    if with_diag:
        diag = {c: rng.standard_normal(N) for c in cli._DIAG_COLS}
        diag["Z"][: len(special)] = special
        diag["kappa"][3] = -0.0
    traj = SimpleNamespace(t=t, x=x, u=u, diag=diag)
    cli._write_run_csv(str(tmp_path / "new.csv"), traj, n)
    _format_float_run_csv(str(tmp_path / "old.csv"), traj, n)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_config_validation_rejects_unknown_keys(tmp_path):
    cfg = _write_cfg(
        tmp_path / "bad.cfg",
        ["plant.n = 2", "controller.kind = fixed_time", "output.dir = out", "bogus.key = 1"],
    )
    with pytest.raises(ConfigError, match="bogus.key"):
        validate_config(read_config(cfg))
    assert main(["simulate", "--config", cfg]) == 1


def test_config_requires_keys(tmp_path):
    cfg = _write_cfg(tmp_path / "missing.cfg", ["plant.n = 2"])
    with pytest.raises(ConfigError):
        validate_config(read_config(cfg))


def test_simulate_deterministic_outputs(tmp_path):
    gains = str(tmp_path / "h.gains")
    assert main(["synthesize", "--kind", "hong", "--n", "2", "--b-lower", "1", "--out", gains]) == 0
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    base = [
        "plant.n = 2",
        "plant.t = 1.0",
        "controller.kind = fixed_time",
        f"controller.gains = {gains}",
        "runs.count = 2",
        "runs.seed = 4",
        "sim.rel_tol = 1e-7",
        "sim.horizon = 250.0",
    ]
    cfg1 = _write_cfg(tmp_path / "a.cfg", base + [f"output.dir = {out1}"])
    cfg2 = _write_cfg(tmp_path / "b.cfg", base + [f"output.dir = {out2}"])
    assert main(["simulate", "--config", cfg1]) == 0
    assert main(["simulate", "--config", cfg2]) == 0
    for name in ("summary.csv", "run_0.csv", "run_1.csv"):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2
    with open(os.path.join(out1, "run_0.csv")) as fh:
        header = fh.readline().strip()
    assert header == "t,x1,x2,u,V0,Vkp,Vkm,kappa,Z"
    summary = Path(out1, "summary.csv").read_text().splitlines()
    assert summary[0] == "run,seed,status,settle_time,sup_norm,limsup_Z"
    assert len(summary) == 3
    assert "SettledAt" in summary[1]


def test_simulate_pnf_halts_at_horizon(tmp_path):
    out = str(tmp_path / "pnf_out")
    cfg = _write_cfg(
        tmp_path / "pnf.cfg",
        [
            "plant.n = 1",
            "plant.t = 1.0",
            "controller.kind = pnf",
            "controller.eta = 1.0",
            "runs.count = 1",
            "runs.x0 = 1.0",
            "sim.rel_tol = 1e-8",
            f"output.dir = {out}",
        ],
    )
    assert main(["simulate", "--config", cfg]) == 0
    summary = Path(out, "summary.csv").read_text()
    assert "ReachedHorizon" in summary


def test_csv_format_rules(tmp_path):
    # comma separated, decimal points, LF endings, '#' only in footers
    gains = str(tmp_path / "h.gains")
    main(["synthesize", "--kind", "hong", "--n", "2", "--b-lower", "1", "--out", gains])
    out = str(tmp_path / "sweep_out")
    cfg = _write_cfg(
        tmp_path / "s.cfg",
        [
            "plant.n = 2",
            "plant.t = 1.0",
            "controller.kind = fixed_time",
            f"controller.gains = {gains}",
            "disturbance.d2 = sine:0",
            "runs.count = 1",
            "sim.rel_tol = 1e-6",
            "sim.horizon = 30.0",
            f"output.dir = {out}",
        ],
    )
    assert main(["sweep", "--config", cfg, "--param", "d2_amp", "--values", "0,0.5"]) == 0
    raw = Path(out, "sweep.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].startswith("param,value,run")
    body = [ln for ln in lines if not ln.startswith("#")]
    footer = [ln for ln in lines if ln.startswith("#")]
    assert len(footer) == 1 and "isotonic_envelope" in footer[0]
    assert all(len(ln.split(",")) == len(lines[0].split(",")) for ln in body)
    # limsup_Z column finite everywhere, ~zero at amplitude zero
    z_col = [float(ln.split(",")[-1]) for ln in body[1:]]
    assert all(np.isfinite(z) for z in z_col)
    assert z_col[0] < 1e-6


def test_eta_sweep_settle_proxy_monotone(tmp_path):
    # n=1 PNF: x = x0 (1-t)^eta, so the first time below 1e-6 decreases in eta
    out = str(tmp_path / "eta_out")
    cfg = _write_cfg(
        tmp_path / "eta.cfg",
        [
            "plant.n = 1",
            "plant.t = 1.0",
            "controller.kind = pnf",
            "runs.count = 1",
            "runs.x0 = 1.0",
            "sim.rel_tol = 1e-9",
            "sim.settle_radius = 1e-6",
            f"output.dir = {out}",
        ],
    )
    assert main(["sweep", "--config", cfg, "--param", "eta", "--values", "4,6,8"]) == 0
    lines = [
        ln for ln in Path(out, "sweep.csv").read_text().splitlines()[1:]
        if not ln.startswith("#")
    ]
    settle = [float(ln.split(",")[5]) for ln in lines]
    assert all(np.diff(settle) < 0)


def test_sweep_usage_errors(tmp_path):
    cfg = _write_cfg(
        tmp_path / "c.cfg",
        ["plant.n = 2", "controller.kind = fixed_time", "output.dir = o"],
    )
    assert main(["sweep", "--config", cfg, "--param", "bogus", "--values", "1"]) == 1
    assert main(["sweep", "--config", cfg, "--param", "eta", "--values", ""]) == 1


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err


@pytest.mark.parametrize(
    "line",
    [
        "disturbance.d = constant",
        "disturbance.d = sine:abc",
        "disturbance.d = square:1",
        "disturbance.d1 = noise",
        "disturbance.b = sine:1",
        "disturbance.b = constant:-1",
        "disturbance.d2 = constant:1\ndisturbance.d2_direction = 1,x",
        "runs.x0 = 1,2,3",
        "plant.b_lower = -1",
        "controller.m = 1.5",
        "controller.m = 0",
        "controller.density = power\ncontroller.density_param = 0.5",
        "runs.count = -3",
        "runs.x0_min = 0",
        "runs.x0_max = -1",
        "runs.x0_min = 5\nruns.x0_max = 1",
        "sim.rel_tol = -1e-9",
        "sim.horizon = -1",
        "sim.horizon = 0",
        "sim.horizon = inf",
        "sim.horizon = nan",
        "sim.abs_tol = nan",
        "sim.abs_tol = -1",
        "sim.abs_tol = inf",
        "sim.rel_tol = inf",
        "sim.settle_radius = -1",
        "sim.settle_radius = nan",
        "disturbance.d = noise:0.1\ndisturbance.noise_period = nan",
        "disturbance.d = noise:0.1\ndisturbance.noise_period = -1",
        "sim.max_steps = 0",
        "controller.eta = nan",
        "controller.eta = 0",
        "controller.eta = inf",
        "runs.seed = -3",
        "controller.design_seed = -5",
        "controller.synth_seed = -5",
        "runs.x0_max = inf",
        "runs.x0 = nan,1",
        "runs.x0 = inf,1",
        "plant.t = inf",
        "plant.d_bound = nan",
        "plant.d_bound = inf",
        "plant.b_lower = inf",
        "controller.density_param = inf",
        "controller.reg_eps = inf",
        "disturbance.d = sine:nan",
        "disturbance.d1 = constant:inf",
    ],
)
def test_bad_run_specs_are_config_errors(tmp_path, capsys, line):
    # rejected before any synthesis, with one stderr line and exit code 1
    base = ["plant.n = 2", "controller.kind = pnf", f"output.dir = {tmp_path / 'o'}"]
    cfg = _write_cfg(tmp_path / "d.cfg", base + [line])
    assert main(["simulate", "--config", cfg]) == 1
    _one_line_error(capsys, "config error: ")
    # a sweep over eta would replace a bad controller.eta
    param = "T_target" if line.startswith("controller.eta") else "eta"
    assert main(["sweep", "--config", cfg, "--param", param, "--values", "1"]) == 1
    _one_line_error(capsys, "config error: ")


@pytest.mark.parametrize(
    "kind, line",
    [
        ("pnf", "controller.t_stop_frac = 0.9999999999"),
        ("pnf", "controller.t_stop_frac = -0.5"),
        ("matched_robust", "controller.reg_eps = 0"),
        ("prescribed_time", "controller.t_target = 0"),
        ("prescribed_time", "controller.t_target = -1"),
    ],
)
def test_bad_controller_values_are_config_errors(tmp_path, capsys, gain_paths, kind, line):
    # checked where the controller is built, after its gains and switch design
    gains = gain_paths["pnf" if kind == "pnf" else "hong", 2]
    base = ["plant.n = 2", f"controller.kind = {kind}", f"controller.gains = {gains}", f"output.dir = {tmp_path / 'o'}"]
    cfg = _write_cfg(tmp_path / "c.cfg", base + [line])
    assert main(["simulate", "--config", cfg]) == 1
    _one_line_error(capsys, "config error: controller: ")
    assert main(["sweep", "--config", cfg, "--param", "eta", "--values", "1"]) == 1
    _one_line_error(capsys, "config error: controller: ")


@pytest.mark.parametrize("param", ["d1_amp", "d2_amp"])
def test_non_finite_swept_amplitudes_are_config_errors(tmp_path, capsys, param):
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path / "a.cfg", ["plant.n = 2", "controller.kind = pnf", f"output.dir = {out}"])
    for values in ("nan", "1,inf"):
        assert main(["sweep", "--config", cfg, "--param", param, "--values", values]) == 1
        _one_line_error(capsys, f"config error: disturbance.{param[:2]}: non-finite value")
    assert not out.exists()


def test_every_schema_default_passes_its_own_rule():
    given = {key: str(default) for key, (_, default, _) in CONFIG_SCHEMA.items() if default is not None}
    required = {"plant.n": "1", "controller.kind": "pnf", "output.dir": "o"}
    cfg = validate_config({**given, **required})
    assert all(cfg[key] == CONFIG_SCHEMA[key][1] for key in given)
    assert cfg["plant.b_upper"] == math.inf
    ranges = {rng for *_, rng in CONFIG_SCHEMA.values()}
    assert ranges == {None, ">= 0", "> 0", ">= 1", "in (0, 1)"}


def test_readme_config_table_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+\.\w+)` \| [^|]* \| (.*) \|$", readme, re.M))
    assert rows.keys() == CONFIG_SCHEMA.keys()
    for key, (_, _, rng) in CONFIG_SCHEMA.items():
        assert rng is None or f"`{rng}`" in rows[key], key


def test_negative_run_count_and_zero_target_sweep_are_config_errors(tmp_path, capsys, gain_paths):
    out = tmp_path / "o"
    cfg = _write_cfg(
        tmp_path / "pt.cfg",
        ["plant.n = 2", "controller.kind = prescribed_time", f"controller.gains = {gain_paths['hong', 2]}",
         f"output.dir = {out}"],
    )
    # --runs overrides runs.count before the config is validated
    assert main(["simulate", "--config", cfg, "--runs", "-3"]) == 1
    _one_line_error(capsys, "config error: runs.count must be >= 0")
    # every swept value is checked before the first run
    assert main(["sweep", "--config", cfg, "--param", "T_target", "--values", "1,0"]) == 1
    _one_line_error(capsys, "config error: controller: T_target must be positive")
    assert not out.exists()


def test_unwritable_outputs_are_one_line_errors(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(tmp_path / "missing" / "p.gains")
    assert main(["synthesize", "--kind", "pnf", "--n", "1", "--b-lower", "1", "--out", out]) == 1
    _one_line_error(capsys, "error: cannot write: ")
    cfg = _write_cfg(
        tmp_path / "w.cfg",
        ["plant.n = 1", "controller.kind = pnf", "sim.horizon = 0.1", f"output.dir = {blocker / 'o'}"],
    )
    assert main(["simulate", "--config", cfg]) == 1
    _one_line_error(capsys, "error: cannot write: ")
    assert main(["sweep", "--config", cfg, "--param", "eta", "--values", "1"]) == 1
    _one_line_error(capsys, "error: cannot write: ")


def test_inline_synthesis_failures_exit_2(tmp_path, capsys, monkeypatch):
    import ptstab.cli as cli
    from ptstab.hong import GainSynthesisError
    from ptstab.switching import SwitchDesignError

    out = f"output.dir = {tmp_path / 'o'}"
    # pnf synthesis refuses n = 14 (no gain clears the rho floor) and n = 40
    # (the Riccati solver fails), each with a SynthesisError
    for n in (14, 40):
        cfg = _write_cfg(tmp_path / f"p{n}.cfg", [f"plant.n = {n}", "controller.kind = pnf", out])
        assert main(["simulate", "--config", cfg]) == 2
        _one_line_error(capsys, "synthesis failed: ")
        assert main(["sweep", "--config", cfg, "--param", "eta", "--values", "1"]) == 2
        _one_line_error(capsys, "synthesis failed: ")

    # a certificate that fails its own checks is not written
    flipped = LinearGain(n=1, K=np.array([-1.0]), S=np.array([[0.5]]), rho=1.0, b_lower=1.0)
    monkeypatch.setattr(cli, "synthesize_linear_gain", lambda n, b_lower: flipped)
    gains = tmp_path / "flipped.gains"
    assert main(["synthesize", "--kind", "pnf", "--n", "1", "--b-lower", "1", "--out", str(gains)]) == 2
    _one_line_error(capsys, "synthesis failed: ")
    assert not gains.exists()
    monkeypatch.undo()

    cfg = _write_cfg(tmp_path / "h.cfg", ["plant.n = 2", "controller.kind = fixed_time", out])

    def fail_synthesis(*args, **kwargs):
        raise GainSynthesisError("decay verification failed after repairs")

    monkeypatch.setattr(cli, "synthesize_hong_gains", fail_synthesis)
    assert main(["simulate", "--config", cfg]) == 2
    _one_line_error(capsys, "synthesis failed: ")
    monkeypatch.undo()

    def fail_design(*args, **kwargs):
        raise SwitchDesignError("band decay could not be certified")

    monkeypatch.setattr(cli, "design_switch_params", fail_design)
    assert main(["simulate", "--config", cfg]) == 2
    _one_line_error(capsys, "synthesis failed: ")
    assert main(["sweep", "--config", cfg, "--param", "d2_amp", "--values", "0"]) == 2
    _one_line_error(capsys, "synthesis failed: ")


@pytest.fixture(scope="module")
def gain_paths(tmp_path_factory):
    """Fresh gain files (b_lower = 1, seed 0) by (kind, n)."""
    d = tmp_path_factory.mktemp("gains")
    paths = {}
    for kind, n in (("pnf", 2), ("hong", 1), ("hong", 2)):
        paths[kind, n] = str(d / f"{kind}{n}.gains")
        assert main(["synthesize", "--kind", kind, "--n", str(n), "--b-lower", "1", "--out", paths[kind, n]]) == 0
    return paths


@pytest.fixture(scope="module")
def fresh_gain_files(gain_paths):
    return {kind: Path(gain_paths[kind, 2]).read_text() for kind in ("pnf", "hong")}


@pytest.mark.parametrize(
    "kind, key, value, code, failing",
    [
        # corrupt values: one error line, exit 1
        ("pnf", "C0", "nan", 1, None),
        ("hong", "C", "nan", 1, None),
        ("hong", "ell", "nan;2", 1, None),
        ("hong", "certificate.verify_samples_per_kappa", "0", 1, None),
        ("hong", "certificate.kappa_points", "0", 1, None),
        ("pnf", "C0", "-1", 1, None),
        ("hong", "kappa_bound", "0.45", 1, None),
        ("hong", "kappa_bound", "0", 1, None),
        ("hong", "kappa_pos", "-0.2", 1, None),
        ("hong", "kappa_pos", "0.3", 1, None),
        ("hong", "certificate.seed", "1\ncertificate.sead = 1", 1, None),
        # vacuous certificates: one failing row, exit 2
        ("pnf", "rho", "-5", 2, "rho"),
        ("pnf", "rho", "1e-8", 2, "rho"),
        ("pnf", "rho0", "-5", 2, "rho0"),
        ("pnf", "rho0", "1e-12", 2, "rho0"),
        ("hong", "C", "-1", 2, "decay constant C (file)"),
    ],
)
def test_verify_rejects_corrupt_and_vacuous_files(tmp_path, capsys, fresh_gain_files, kind, key, value, code, failing):
    lines = fresh_gain_files[kind].splitlines()
    edited = [f"{key} = {value}" if ln.split("=", 1)[0].strip() == key else ln for ln in lines]
    assert edited != lines
    path = tmp_path / "edited.gains"
    path.write_text("\n".join(edited) + "\n")
    capsys.readouterr()
    assert main(["verify", "--gains", str(path)]) == code
    if failing is None:
        _one_line_error(capsys, "error: ")
    else:
        assert _failing_rows(capsys.readouterr().out) == [failing]


def _scipy_loaded_by(code: str) -> list:
    """The scipy modules loaded after running code in a fresh interpreter that imports ptstab from src/."""
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p))
    probe = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    out = subprocess.run([sys.executable, "-c", code + probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _main_code(argv) -> str:
    return f"from ptstab.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


def test_cli_import_leaves_out_scipy_integrate_and_optimize():
    # ptstab.cli imports no scipy module at all; only PNF synthesis and the
    # expflat clock load scipy, inside the code that calls it
    assert _scipy_loaded_by("import ptstab.cli") == []


@pytest.mark.parametrize("command", ["synthesize hong", "verify hong", "verify pnf", "simulate matched_robust"])
def test_commands_off_the_scipy_paths_load_no_scipy(tmp_path, gain_paths, command):
    if command == "synthesize hong":
        argv = ["synthesize", "--kind", "hong", "--n", "2", "--b-lower", "1", "--out", tmp_path / "h2.gains"]
    elif command == "verify hong":
        argv = ["verify", "--gains", gain_paths["hong", 2]]
    elif command == "verify pnf":
        argv = ["verify", "--gains", gain_paths["pnf", 2]]
    else:
        lines = [ln for ln in _run_configs(gain_paths)["matched_robust"] if not ln.startswith("runs.count")]
        lines += ["runs.count = 1", f"output.dir = {tmp_path / 'out'}"]
        argv = ["simulate", "--config", _write_cfg(tmp_path / "robust.cfg", lines)]
    assert _scipy_loaded_by(_main_code(argv)) == []


def test_pnf_synthesis_loads_scipy_linalg_and_writes_the_in_process_bytes(tmp_path):
    fresh, here = tmp_path / "fresh.gains", tmp_path / "here.gains"
    argv = ["synthesize", "--kind", "pnf", "--n", "2", "--b-lower", "1", "--out"]
    assert "scipy.linalg" in _scipy_loaded_by(_main_code(argv + [fresh]))
    assert main(argv + [str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


_RUNS = ["runs.count = 2", "runs.seed = 1", "runs.x0_min = 0.3", "runs.x0_max = 30.0", "sim.rel_tol = 1e-7", "sim.horizon = 1.0"]
_REG_EPS = 5e-3
_T_TARGET = 0.5


def _run_configs(gain_paths):
    """The README's matched-robust example at n = 2, a prescribed-time and a pnf config."""
    hong = f"controller.gains = {gain_paths['hong', 2]}"
    robust = [
        "plant.b_lower = 1.0",
        "plant.b_upper = 3.0",
        "plant.d_bound = 1.0",
        f"controller.reg_eps = {_REG_EPS!r}",
        "disturbance.d = sine:1.0,0.7,0.2",
        "disturbance.b = sine:1,3,0.4",
    ]
    kinds = {
        "matched_robust": [hong] + robust,
        "prescribed_time": [hong, f"controller.t_target = {_T_TARGET!r}"],
        "pnf": [f"controller.gains = {gain_paths['pnf', 2]}", "controller.density = expflat", "controller.eta = 4.0"],
    }
    return {kind: ["plant.n = 2", "plant.t = 1.0", f"controller.kind = {kind}"] + lines + _RUNS for kind, lines in kinds.items()}


def _simulate(tmp_path, name, lines) -> Path:
    out = tmp_path / name
    cfg = _write_cfg(tmp_path / f"{name}.cfg", lines + [f"output.dir = {out}"])
    assert main(["simulate", "--config", cfg]) == 0
    return out


@pytest.mark.parametrize("kind", ["matched_robust", "prescribed_time"])
def test_simulate_switching_kinds(tmp_path, gain_paths, kind):
    out = _simulate(tmp_path, kind, _run_configs(gain_paths)[kind])
    summary = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
    assert len(summary) == 2
    for k, row in enumerate(summary):
        with open(out / f"run_{k}.csv") as fh:
            assert fh.readline().strip() == "t,x1,x2,u,V0,Vkp,Vkm,kappa,Z"
            vkm = np.array([float(line.split(",")[6]) for line in fh])
        if kind == "matched_robust":
            # the sliding set {V_{-kappa0} <= 1} is invariant up to the regularization
            inside = np.flatnonzero(vkm <= 1.0)
            assert inside.size and vkm[inside[0]:].max() <= 1.0 + 10.0 * _REG_EPS
        else:
            # the undisturbed prescribed-time loop settles before t_target
            assert row["status"] == "SettledAt" and float(row["settle_time"]) <= _T_TARGET


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracing_keeps_outputs(tmp_path, gain_paths, capsys):
    # the traced benchmark patches cli attributes, rebuilds controllers with
    # dataclasses.replace(u=, surfaces=, diag=), shadows TimeScale methods on
    # the instance and calls verify_decay(g, kappa_points, samples, ...)
    # positionally; every output must keep its bytes under those patches
    tracing = _load_tracing()

    def outputs(label):
        files = {}
        for name, lines in _run_configs(gain_paths).items():
            out = _simulate(tmp_path / label, name, lines)
            files.update({(name, p.name): p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
        for key in (("hong", 1), ("pnf", 2)):
            assert main(["verify", "--gains", gain_paths[key]]) == 0
            files["verify", key] = capsys.readouterr().out
        return files

    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = outputs("plain")
    rec = tracing.Recorder()
    with tracing.install(rec, full=True):
        traced = outputs("traced")
    assert len(plain) == 3 * 3 + 2 and traced == plain
    assert len(rec.integrations) == 6 and rec.calls["hong.verify_decay"] == 1
    for span in ("switching.feedback", "switching.surface", "switching.diag", "pnf.feedback", "timescale.lam"):
        assert rec.calls[span] > 0, span
