import csv
import dataclasses
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

from ptstab import cli, hong
from ptstab.cli import main
from ptstab.gainfile import CONFIG_SCHEMA, ConfigError, read_config, read_gains, validate_config, write_gains
from ptstab.hong import GainSynthesisError, HongGainSet, synthesize_hong_gains
from ptstab.pnf import LinearGain, certify_perturbation, synthesize_linear_gain
from ptstab.timescale import Density, build


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

    h = synthesize_hong_gains(2, seed=1)
    hpath = str(tmp_path / "h.gains")
    write_gains(hpath, h, b_lower=2.0)
    h2, bl = read_gains(hpath)
    assert np.array_equal(h.ell, h2.ell)
    assert h.C == h2.C and bl == 2.0
    assert h2.certificate["c_raw"] == h.certificate["c_raw"]

    # the reader takes exactly what the writer writes: write -> read -> write gives the same bytes
    write_gains(str(tmp_path / "g2.gains"), g2)
    write_gains(str(tmp_path / "h2.gains"), h2, b_lower=bl)
    assert Path(tmp_path, "g2.gains").read_bytes() == Path(path).read_bytes()
    assert Path(tmp_path, "h2.gains").read_bytes() == Path(hpath).read_bytes()


def test_gain_file_lines_are_the_gain_fields(tmp_path, monkeypatch):
    # write_gains walks the format's keys and would drop any field or
    # certificate entry they miss: a pnf file has one line per LinearGain
    # field, a hong file one per HongGainSet field, certificate entry and b_lower
    def keys(path):
        return {ln.split(" = ")[0] for ln in path.read_text().splitlines()} - {"format", "kind"}

    pnf = tmp_path / "p.gains"
    write_gains(str(pnf), synthesize_linear_gain(2, 1.0))
    assert keys(pnf) == {f.name for f in dataclasses.fields(LinearGain)}

    monkeypatch.setattr(hong, "SAMPLES_PER_LEVEL", 50)
    monkeypatch.setattr(hong, "VERIFY_SAMPLES_PER_KAPPA", 50)
    h = synthesize_hong_gains(1)
    path = tmp_path / "h.gains"
    write_gains(str(path), h)
    cert = {f"certificate.{key}" for key in h.certificate}
    assert {key for key in keys(path) if key.startswith("certificate.")} == cert
    assert keys(path) - cert == {f.name for f in dataclasses.fields(HongGainSet)} - {"certificate"} | {"b_lower"}


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


def test_read_gains_refuses_recursion_record_lines(tmp_path, monkeypatch, capsys):
    # files written before the recursion record was dropped carried safety and level* lines
    monkeypatch.setattr(hong, "SAMPLES_PER_LEVEL", 50)
    monkeypatch.setattr(hong, "VERIFY_SAMPLES_PER_KAPPA", 50)
    h = synthesize_hong_gains(1)
    path = tmp_path / "old.gains"
    write_gains(str(path), h)
    fresh = path.read_text()
    assert "certificate.safety" not in fresh and "certificate.level" not in fresh
    for old in ("certificate.safety = 4", "certificate.level2.K = 1.5", "certificate.level2.ell_recursion_bound = 3"):
        path.write_text(fresh + old + "\n")
        with pytest.raises(ConfigError, match="unknown key certificate"):
            read_gains(str(path))
        assert main(["verify", "--gains", str(path)]) == 1
        assert _one_line_error(capsys, "error: ").count(str(path)) == 1


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


def test_unset_pnf_eta_is_the_certified_one(tmp_path):
    # at n = 3, eta = 1 lies below the a_sup/C0 (about 11) of the perturbation
    # certificate: the run grows past |x| = 1e8 and stops at the horizon.  An
    # unset eta is max(1, a_sup/C0), the same run as that value given, and settles
    g = synthesize_linear_gain(3, 1.0)
    certified = max(1.0, build(1.0, Density("constant", 1.0)).a_sup() / g.C0)
    base = ["plant.n = 3", "controller.kind = pnf", "sim.horizon = 1"]
    rows = {}
    for name, extra in (("unset", []), ("given", [f"controller.eta = {certified!r}"]), ("one", ["controller.eta = 1"])):
        cfg = _write_cfg(tmp_path / f"{name}.cfg", base + extra + [f"output.dir = {tmp_path / name}"])
        assert main(["simulate", "--config", cfg]) == 0
        rows[name] = Path(tmp_path, name, "summary.csv").read_text().splitlines()[1].split(",")
    assert rows["unset"] == rows["given"] and rows["unset"][2] == "SettledAt"
    assert rows["one"][2] == "ReachedHorizon" and float(rows["one"][4]) > 1e8


def test_unset_pnf_eta_is_one_without_a_perturbation_certificate(tmp_path):
    gains = tmp_path / "p.gains"
    assert main(["synthesize", "--kind", "pnf", "--n", "2", "--b-lower", "1", "--out", str(gains)]) == 0
    gains.write_text(re.sub(r"(?m)^C0 = .*$", "C0 = 0", gains.read_text()))
    assert read_gains(str(gains))[0].C0 == 0.0
    base = ["plant.n = 2", "controller.kind = pnf", f"controller.gains = {gains}", "sim.horizon = 0.5"]
    for name, extra in (("unset", []), ("one", ["controller.eta = 1.0"])):
        assert main(["simulate", "--config", _write_cfg(tmp_path / f"{name}.cfg", base + extra + [f"output.dir = {tmp_path / name}"])]) == 0
    assert Path(tmp_path, "unset", "run_0.csv").read_bytes() == Path(tmp_path, "one", "run_0.csv").read_bytes()


def test_pnf_gains_must_cover_the_plant_b_lower(tmp_path, capsys):
    # the LMI certificate holds only for b >= the file's b_lower: a gain made
    # for b >= 4 and run with plant.b_lower = 0.05 used to end its 3 runs at the
    # horizon with sup_norm 87.5, 415 and 6265, and exit 0
    gains = tmp_path / "p4.gains"
    assert main(["synthesize", "--kind", "pnf", "--n", "2", "--b-lower", "4", "--out", str(gains)]) == 0
    capsys.readouterr()
    base = ["plant.n = 2", "controller.kind = pnf", f"controller.gains = {gains}", "sim.horizon = 0.2"]
    for b_lower in ("0.05", "3.9999999999999996"):
        out = tmp_path / f"o{b_lower}"
        cfg = _write_cfg(tmp_path / "low.cfg", base + [f"plant.b_lower = {b_lower}", f"output.dir = {out}"])
        for argv in (["simulate", "--config", cfg], ["sweep", "--config", cfg, "--param", "eta", "--values", "1"]):
            assert main(argv) == 1
            err = _one_line_error(capsys, f"config error: {gains}: pnf gains certified for b >= 4.0,")
            assert err.count(str(gains)) == 1
        assert not out.exists()
    for b_lower in ("4", "5"):
        cfg = _write_cfg(tmp_path / "ok.cfg", base + [f"plant.b_lower = {b_lower}", f"output.dir = {tmp_path / 'ok'}"])
        assert main(["simulate", "--config", cfg]) == 0


def test_disturbance_b_must_lie_within_the_plant_bounds(tmp_path, capsys):
    # every certificate assumes plant.b_lower <= b <= plant.b_upper: a gain made
    # for b >= 4 run under b = sine:0.05,4 used to end its 3 runs at the horizon
    # with sup_norm up to 4.37, and exit 0
    gains = tmp_path / "p4.gains"
    assert main(["synthesize", "--kind", "pnf", "--n", "2", "--b-lower", "4", "--out", str(gains)]) == 0
    capsys.readouterr()
    base = [
        "plant.n = 2", "plant.b_lower = 4", "plant.b_upper = 5", "controller.kind = pnf",
        f"controller.gains = {gains}", "sim.horizon = 0.2",
    ]
    for b in ("sine:0.05,4", "constant:3.9", "sine:4,5.5", "constant:6"):
        out = tmp_path / "bad"
        cfg = _write_cfg(tmp_path / "bad.cfg", base + [f"disturbance.b = {b}", f"output.dir = {out}"])
        for argv in (["simulate", "--config", cfg], ["sweep", "--config", cfg, "--param", "eta", "--values", "1"]):
            assert main(argv) == 1
            _one_line_error(capsys, "config error: disturbance.b: range [")
        assert not out.exists()
    for b in ("sine:4,5", "constant:4", "constant:5"):
        cfg = _write_cfg(tmp_path / "ok.cfg", base + [f"disturbance.b = {b}", f"output.dir = {tmp_path / 'ok'}"])
        assert main(["simulate", "--config", cfg]) == 0


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


def _one_line_error(capsys, prefix) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


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
        # a direction list is checked even when its channel is zero
        "disturbance.d1_direction = 1,x",
        "disturbance.d2_direction = 1,2,3",
        "runs.x0 = 1,2,3",
        "plant.b_lower = -1",
        "controller.m = 1.5",
        "controller.m = 0",
        "controller.density = power\ncontroller.density_param = 0.5",
        # outside the horizons an expflat clock can represent
        "controller.density = expflat\nplant.t = 1e-3",
        "controller.density = expflat\nplant.t = 1e155",
        "runs.count = -3",
        "runs.x0_min = 0",
        "runs.x0_max = -1",
        "runs.x0_min = 5\nruns.x0_max = 1",
        "sim.rel_tol = -1e-9",
        "sim.rel_tol = 0\nsim.abs_tol = 0",
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
        # more cycles over sim.horizon than sim.max_steps: no run could follow the sine
        "disturbance.d = sine:1,1e300",
        "disturbance.d1 = sine:0.1,-1e7",
        "disturbance.d2 = sine:0.1,1e5\nsim.horizon = 30",
        "disturbance.b = sine:1,3,1e300",
        "disturbance.d = sine:1,2e4\nsim.max_steps = 1000",
        "disturbance.d = sine:1\nsim.horizon = 1e7",
        # more values than the kind takes
        "disturbance.d = zero:5",
        "disturbance.d = noise:0.1,7",
        "disturbance.d = sine:1,0.7,0.2,9",
        "disturbance.d1 = constant:0.1,2",
        "disturbance.b = sine:1,3,0.4,0,7",
        "disturbance.b = noise:1",
        # a second colon used to drop what followed it
        "disturbance.d = sine:1:2",
    ],
)
def test_bad_run_specs_are_config_errors(tmp_path, capsys, line):
    # rejected before any synthesis, with one stderr line and exit code 1
    base = ["plant.n = 2", "controller.kind = pnf", f"output.dir = {tmp_path / 'o'}"]
    cfg = _write_cfg(tmp_path / "d.cfg", base + [line])
    assert main(["simulate", "--config", cfg]) == 1
    _one_line_error(capsys, "config error: ")
    # a sweep over eta would replace a bad controller.eta
    param = "d2_amp" if line.startswith("controller.eta") else "eta"
    assert main(["sweep", "--config", cfg, "--param", param, "--values", "1"]) == 1
    _one_line_error(capsys, "config error: ")


def test_zero_tolerance_pair_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # both tolerances 0 used to grind through sim.max_steps forced steps; now nothing is synthesized or run
    def no_work(*args, **kwargs):
        raise AssertionError("reached synthesis or integration")

    for name in ("synthesize_linear_gain", "synthesize_hong_gains", "integrate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "o"
    for kind in ("pnf", "matched_robust"):
        lines = ["plant.n = 2", f"controller.kind = {kind}", "sim.rel_tol = 0", "sim.abs_tol = 0.0", f"output.dir = {out}"]
        cfg = _write_cfg(tmp_path / "z.cfg", lines)
        assert main(["simulate", "--config", cfg]) == 1
        _one_line_error(capsys, "config error: sim: need rel_tol >= 0 and abs_tol >= 0, not both 0")
        assert main(["sweep", "--config", cfg, "--param", "d2_amp", "--values", "1,2"]) == 1
        _one_line_error(capsys, "config error: sim: ")
    assert not out.exists()


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
    assert main(["sweep", "--config", cfg, "--param", "d2_amp", "--values", "1"]) == 1
    _one_line_error(capsys, "config error: controller: ")


@pytest.mark.parametrize("param", ["d1_amp", "d2_amp"])
def test_non_finite_swept_amplitudes_are_config_errors(tmp_path, capsys, param):
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path / "a.cfg", ["plant.n = 2", "controller.kind = pnf", f"output.dir = {out}"])
    for values in ("nan", "1,inf"):
        assert main(["sweep", "--config", cfg, "--param", param, "--values", values]) == 1
        _one_line_error(capsys, f"config error: disturbance.{param[:2]}: non-finite value")
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, param",
    [("pnf", "T_target"), ("fixed_time", "eta"), ("fixed_time", "T_target"), ("matched_robust", "eta"),
     ("matched_robust", "T_target"), ("prescribed_time", "eta")],
)
def test_sweep_refuses_a_parameter_the_kind_does_not_read(tmp_path, capsys, monkeypatch, kind, param):
    # every value would run the same closed loop; refused before any synthesis or run
    def no_work(*args, **kwargs):
        raise AssertionError("reached synthesis or integration")

    for name in ("synthesize_linear_gain", "synthesize_hong_gains", "integrate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path / "k.cfg", ["plant.n = 2", f"controller.kind = {kind}", f"output.dir = {out}"])
    assert main(["sweep", "--config", cfg, "--param", param, "--values", "0.5,1"]) == 1
    _one_line_error(capsys, f"config error: --param {param} sets ")
    assert not out.exists()


_WORK = ("read_gains", "synthesize_linear_gain", "synthesize_hong_gains", "design_switch_params", "integrate")


def _no_work(monkeypatch, names=_WORK):
    """Make each cli step in names (a gain-file read, synthesis, switch design, integration) an AssertionError."""

    def no_work(*args, **kwargs):
        raise AssertionError("reached a step that a config error must come before")

    for name in names:
        monkeypatch.setattr(cli, name, no_work)


# the controller.* keys each kind reads (the README's controller rows), and a valid value of each
_SWITCHING_READS = {"kind", "gains", "synth_seed", "m", "design_seed"}
_READS = {
    "pnf": {"kind", "gains", "eta", "density", "density_param", "t_stop_frac"},
    "fixed_time": _SWITCHING_READS,
    "matched_robust": _SWITCHING_READS | {"reg_eps"},
    "prescribed_time": _SWITCHING_READS | {"t_target"},
}
_VALID = {"eta": "2.0", "density": "power", "density_param": "2", "t_stop_frac": "0.99", "m": "0.4",
          "t_target": "0.5", "reg_eps": "0.01", "synth_seed": "1", "design_seed": "3"}


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, reads in _READS.items() for key in _VALID if key not in reads]
)
def test_a_controller_key_the_kind_does_not_read_is_refused(tmp_path, capsys, monkeypatch, kind, key):
    # simulate used to run such a config as if the key were absent; refused before any gain file or work
    _no_work(monkeypatch)
    out = tmp_path / "o"
    lines = ["plant.n = 2", f"controller.kind = {kind}", f"controller.{key} = {_VALID[key]}", f"output.dir = {out}"]
    cfg = _write_cfg(tmp_path / "u.cfg", lines)
    want = f"config error: controller.kind = {kind} does not read controller.{key}"
    assert main(["simulate", "--config", cfg]) == 1
    assert _one_line_error(capsys, "config error: ") == want
    assert main(["sweep", "--config", cfg, "--param", "d2_amp", "--values", "0.5,1"]) == 1
    assert _one_line_error(capsys, "config error: ") == want
    assert not out.exists()


def test_a_fixed_time_config_with_pnf_and_prescribed_time_keys_is_refused(tmp_path, capsys, monkeypatch):
    # such a config ran a plain fixed-time loop and exited 0; one line names every unread key
    _no_work(monkeypatch)
    out = tmp_path / "o"
    base = ["plant.n = 2", "controller.kind = fixed_time", f"output.dir = {out}"]
    unread = ["controller.eta = 5", "controller.t_target = 0.5", "controller.density = expflat", "controller.reg_eps = 0.1"]
    cfg = _write_cfg(tmp_path / "f.cfg", base + unread)
    want = (
        "config error: controller.kind = fixed_time does not read"
        " controller.eta, controller.t_target, controller.density, controller.reg_eps"
    )
    for argv in (["simulate", "--config", cfg], ["sweep", "--config", cfg, "--param", "d2_amp", "--values", "1"]):
        assert main(argv) == 1
        assert _one_line_error(capsys, "config error: ") == want
    # a range error is still reported first
    cfg = _write_cfg(tmp_path / "r.cfg", base + ["controller.eta = -1"])
    assert main(["simulate", "--config", cfg]) == 1
    assert _one_line_error(capsys, "config error: ") == "config error: controller.eta must be > 0, got -1.0"
    assert not out.exists()


@pytest.mark.parametrize("kind", list(_READS))
def test_every_controller_key_a_kind_reads_is_accepted(tmp_path, monkeypatch, gain_paths, kind):
    # with no runs, simulate and sweep build the controller from every key the kind reads and exit 0
    _no_work(monkeypatch, ["integrate"])
    gains = gain_paths["pnf" if kind == "pnf" else "hong", 2]
    lines = ["plant.n = 2", f"controller.kind = {kind}", f"controller.gains = {gains}", "runs.count = 0"]
    lines += [f"controller.{key} = {_VALID[key]}" for key in sorted(_READS[kind] & _VALID.keys())]
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path / "a.cfg", lines + [f"output.dir = {out}"])
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["sweep", "--config", cfg, "--param", "d2_amp", "--values", "0"]) == 0


_UNKNOWN_KIND = "controller.kind must be one of ('pnf', 'fixed_time', 'matched_robust', 'prescribed_time')"


@pytest.mark.parametrize(
    "kind, gains, param, want",
    [
        ("bogus", None, "d2_amp", _UNKNOWN_KIND),
        # the swept eta used to be blamed: "which controller.kind = bogus does not read"
        ("bogus", None, "eta", _UNKNOWN_KIND),
        ("pnf", ("hong", 2), "eta", "pnf controller needs a pnf gain file"),
        ("fixed_time", ("pnf", 2), "d2_amp", "fixed_time controller needs a hong gain file"),
    ],
)
def test_an_unknown_kind_or_a_gain_file_of_the_other_kind_is_refused(
    tmp_path, capsys, monkeypatch, gain_paths, kind, gains, param, want
):
    # one config error line before any synthesis, switch design or run (the gain file is read)
    _no_work(monkeypatch, _WORK[1:])
    out = tmp_path / "o"
    lines = ["plant.n = 2", f"controller.kind = {kind}", f"output.dir = {out}"]
    cfg = _write_cfg(tmp_path / "k.cfg", lines + ([f"controller.gains = {gain_paths[gains]}"] if gains else []))
    for argv in (["simulate", "--config", cfg], ["sweep", "--config", cfg, "--param", param, "--values", "0.5,1"]):
        assert main(argv) == 1
        assert _one_line_error(capsys, "config error: ") == f"config error: {want}"
    assert not out.exists()


@pytest.mark.parametrize("param", ["d1_amp", "d2_amp"])
@pytest.mark.parametrize("template", ["zero:5", "sine:1:2", "square:1", "noise", "constant:0.1,2"])
def test_sweep_refuses_a_malformed_amplitude_template(tmp_path, capsys, param, template):
    # the swept spec is parsed by the disturbance catalog, as simulate parses it
    out = tmp_path / "o"
    key = f"disturbance.{param[:2]}"
    cfg = _write_cfg(tmp_path / "t.cfg", ["plant.n = 2", "controller.kind = pnf", f"{key} = {template}", f"output.dir = {out}"])
    for values in ("0.5,1", "0"):
        assert main(["sweep", "--config", cfg, "--param", param, "--values", values]) == 1
        _one_line_error(capsys, f"config error: {key}: ")
    assert not out.exists()


def test_amplitude_sweep_keeps_the_other_values_of_its_spec(tmp_path):
    # d2 = sine:0.1,3,0.5 swept to 0.2 runs what simulate runs with d2 = sine:0.2,3,0.5
    base = ["plant.n = 1", "controller.kind = pnf", "runs.count = 2", "sim.horizon = 0.5"]
    cfg = _write_cfg(tmp_path / "s.cfg", base + ["disturbance.d2 = sine:0.1,3,0.5", f"output.dir = {tmp_path / 's'}"])
    assert main(["sweep", "--config", cfg, "--param", "d2_amp", "--values", "0.2"]) == 0
    swept = [ln.split(",", 2)[2] for ln in Path(tmp_path, "s", "sweep.csv").read_text().splitlines()[1:-1]]
    cfg = _write_cfg(tmp_path / "r.cfg", base + ["disturbance.d2 = sine:0.2,3,0.5", f"output.dir = {tmp_path / 'r'}"])
    assert main(["simulate", "--config", cfg]) == 0
    assert swept == Path(tmp_path, "r", "summary.csv").read_text().splitlines()[1:]


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


def test_readme_names_the_kinds_that_read_each_controller_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `controller\.(\w+)` \| [^|]* \| (.*) \|$", readme, re.M))
    assert rows.keys() == {key.removeprefix("controller.") for key in CONFIG_SCHEMA if key.startswith("controller.")}
    for key, row in rows.items():
        head, sep, named = row.rpartition("; read by ")
        assert sep, key
        kinds = list(cli._CONTROLLERS) if named == "every kind" else re.findall(r"`(\w+)`", named)
        assert kinds == [kind for kind, (_, reads, _) in cli._CONTROLLERS.items() if key in reads], key


def _spec_examples(form: str) -> list:
    """A spec of every value count that a documented form such as sine:amp[,freq[,phase]] allows."""
    kind, _, layout = form.partition(":")
    n_required = len(re.findall(r"\w+", layout.split("[")[0]))
    n_all = len(re.findall(r"\w+", layout))
    return [kind] if not n_all else [f"{kind}:" + ",".join(["0.5"] * k) for k in range(n_required, n_all + 1)]


def test_readme_documents_the_disturbance_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(disturbance\.\w+)` \| [^|]* \| (.*) \|$", readme, re.M))
    for key, catalog in (("disturbance.d", cli._SIGNALS), ("disturbance.b", cli._B_PROFILES)):
        forms = re.findall(r"`([a-z]+(?::[^`]*)?)`", rows[key])
        # every catalog kind is documented, with the layout its parser takes
        assert sorted(forms) == sorted(cli._spec_form(kind, defaults) for kind, (defaults, _) in catalog.items())
        for form in forms:
            examples = _spec_examples(form)
            for spec in examples:
                kind, values = cli._parse_spec(key, spec, catalog)
                assert kind == form.partition(":")[0] and len(values) == len(catalog[kind][0])
            # and one value more is an error
            too_many = examples[-1] + (",0.5" if ":" in form else ":0.5")
            with pytest.raises(ConfigError, match="expected "):
                cli._parse_spec(key, too_many, catalog)
    for key in ("disturbance.d1", "disturbance.d2"):
        assert rows[key].startswith("same catalog")


def test_sweep_footer_is_nan_for_a_value_with_a_run_without_statistic(tmp_path, monkeypatch):
    from ptstab.gainfile import format_float

    # pnf records no Z, and no run settles within 0.5: the footer read 2:-inf 3:-inf
    out = tmp_path / "o"
    lines = ["plant.n = 2", "controller.kind = pnf", "runs.count = 2", "sim.horizon = 0.5", f"output.dir = {out}"]
    cfg = _write_cfg(tmp_path / "s.cfg", lines)
    assert main(["sweep", "--config", cfg, "--param", "eta", "--values", "2,3"]) == 0
    assert Path(out, "sweep.csv").read_text().splitlines()[-1] == "# isotonic_envelope: 2:nan 3:nan"
    # n=1 pnf settles at every eta; with its first run unsettled, eta = 4 used to report the other run
    real, seen = cli.iss_metrics, []

    def first_run_unsettled(traj):
        seen.append(real(traj))
        return dict(seen[-1], settle_time=None) if len(seen) == 1 else seen[-1]

    monkeypatch.setattr(cli, "iss_metrics", first_run_unsettled)
    lines = ["plant.n = 1", "controller.kind = pnf", "runs.count = 2", "runs.x0 = 1.0", "sim.settle_radius = 1e-6",
             f"output.dir = {out}"]
    cfg = _write_cfg(tmp_path / "m.cfg", lines)
    assert main(["sweep", "--config", cfg, "--param", "eta", "--values", "4,6"]) == 0
    settle_6 = max(m["settle_time"] for m in seen[2:])
    assert Path(out, "sweep.csv").read_text().splitlines()[-1] == f"# isotonic_envelope: 4:nan 6:{format_float(settle_6)}"


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


def test_inline_hong_failure_names_its_evidence(tmp_path, capsys, monkeypatch):
    # simulate and sweep print the evidence line that synthesize prints
    def fail_synthesis(*args, **kwargs):
        raise GainSynthesisError("decay verification failed after repairs", (0.02, np.zeros(2), 699.6), 1.697e4)

    monkeypatch.setattr(cli, "synthesize_hong_gains", fail_synthesis)
    cfg = _write_cfg(tmp_path / "h.cfg", ["plant.n = 2", "controller.kind = fixed_time", f"output.dir = {tmp_path}"])
    want = (
        "synthesis failed: decay verification failed after repairs (20 repair rounds; last round's worst"
        " sample: kappa=0.02, ratio=699.6 against C_raw=1.697e+04)"
    )
    for argv in (["simulate", "--config", cfg], ["sweep", "--config", cfg, "--param", "d2_amp", "--values", "0"]):
        assert main(argv) == 2
        assert _one_line_error(capsys, "synthesis failed: ") == want


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
        ("hong", "kappa_pos", "-0.2", 1, None),
        ("hong", "kappa_pos", "0", 1, None),
        ("hong", "kappa_pos", "0.3", 1, None),
        ("hong", "certificate.seed", "1\ncertificate.sead = 1", 1, None),
        ("hong", "certificate.c_raw", "0", 1, None),
        # keys outside the format: a misspelled one, and the kappa_bound of
        # v1 files, whatever its value (the interval starts at -1/(2n))
        ("hong", "n", "2\nkapa_pos = 0.25", 1, None),
        ("hong", "n", "2\nkappa_bound = 0.25", 1, None),
        ("hong", "n", "2\nkappa_bound = 0.45", 1, None),
        ("hong", "n", "2\nkappa_bound = 0", 1, None),
        # a missing key (None drops the line) and a v1 tag
        ("hong", "certificate.seed", None, 1, None),
        ("hong", "format", "ptstab-gains-v1", 1, None),
        ("pnf", "format", "ptstab-gains-v1", 1, None),
        # a dimension that disagrees with the vectors
        ("pnf", "n", "3", 1, None),
        ("hong", "n", "3", 1, None),
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
    edit = "" if value is None else f"{key} = {value}"
    edited = [edit if ln.split("=", 1)[0].strip() == key else ln for ln in lines]
    assert edited != lines
    path = tmp_path / "edited.gains"
    path.write_text("\n".join(edited) + "\n")
    capsys.readouterr()
    assert main(["verify", "--gains", str(path)]) == code
    if failing is None:
        # the path is named once, not again inside the reason
        assert _one_line_error(capsys, "error: ").count(str(path)) == 1
    else:
        assert _failing_rows(capsys.readouterr().out) == [failing]


def test_repeated_keys_are_refused(tmp_path, capsys, fresh_gain_files):
    # the last value used to win: runs.x0 = 1,2 then runs.x0 = 5,6 ran from (5, 6)
    out = tmp_path / "o"
    cfg = _write_cfg(
        tmp_path / "r.cfg",
        ["plant.n = 2", "controller.kind = pnf", "runs.x0 = 1,2", f"output.dir = {out}", "runs.x0 = 5,6"],
    )
    for argv in (["simulate", "--config", cfg], ["sweep", "--config", cfg, "--param", "eta", "--values", "1"]):
        assert main(argv) == 1
        _one_line_error(capsys, f"config error: {cfg}:5: repeated key runs.x0")
    assert not out.exists()
    lines = fresh_gain_files["hong"].splitlines() + ["C = 1"]
    gains = tmp_path / "r.gains"
    gains.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--gains", str(gains)]) == 1
    assert _one_line_error(capsys, "error: ") == f"error: {gains}:{len(lines)}: repeated key C"


def test_hong_file_without_kappa_pos_is_refused(tmp_path, capsys, fresh_gain_files):
    # a missing key used to take kappa_pos_certified(n); every key is now required
    lines = [ln for ln in fresh_gain_files["hong"].splitlines() if not ln.startswith("kappa_pos")]
    path = tmp_path / "no_kappa_pos.gains"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="missing key kappa_pos"):
        read_gains(str(path))
    assert main(["verify", "--gains", str(path)]) == 1
    assert _one_line_error(capsys, "error: ").count(str(path)) == 1
    # n = 0 used to end in a ZeroDivisionError traceback
    path.write_text(fresh_gain_files["hong"].replace("n = 2", "n = 0", 1))
    assert main(["verify", "--gains", str(path)]) == 1
    _one_line_error(capsys, "error: ")


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
    # ptstab.cli imports no scipy module at all; only PNF synthesis loads
    # scipy, inside the code that calls it
    assert _scipy_loaded_by("import ptstab.cli") == []


def test_expflat_time_scale_loads_no_scipy():
    code = "from ptstab.timescale import Density, build\nts = build(1.0, Density('expflat'))\nts.t_of_s(ts.s(0.5))"
    assert _scipy_loaded_by(code) == []


@pytest.mark.parametrize(
    "command", ["synthesize hong", "verify hong", "verify pnf", "simulate matched_robust", "simulate pnf expflat"]
)
def test_commands_off_the_scipy_paths_load_no_scipy(tmp_path, gain_paths, command):
    if command == "synthesize hong":
        argv = ["synthesize", "--kind", "hong", "--n", "2", "--b-lower", "1", "--out", tmp_path / "h2.gains"]
    elif command == "verify hong":
        argv = ["verify", "--gains", gain_paths["hong", 2]]
    elif command == "verify pnf":
        argv = ["verify", "--gains", gain_paths["pnf", 2]]
    else:
        kind = command.split()[1]  # the pnf config runs the expflat density
        lines = [ln for ln in _run_configs(gain_paths)[kind] if not ln.startswith("runs.count")]
        lines += ["runs.count = 1", f"output.dir = {tmp_path / 'out'}"]
        argv = ["simulate", "--config", _write_cfg(tmp_path / f"{kind}.cfg", lines)]
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


def test_unbounded_plant_designs_for_the_largest_b_of_the_profile(tmp_path, gain_paths):
    # with plant.b_upper = inf the switch is designed for the b the runs see: the
    # outputs are those of the plant bounded at the profile's largest b (a design
    # at plant.b_lower = 1 gave another kappa0 and other bytes)
    base = ["plant.n = 2", "controller.kind = fixed_time", f"controller.gains = {gain_paths['hong', 2]}"] + _RUNS
    for b, b_hi in (("sine:1,100,5", "100"), ("constant:2", "2")):
        lines = base + [f"disturbance.b = {b}"]
        unset = _simulate(tmp_path, f"unset_{b_hi}", lines)
        bounded = _simulate(tmp_path, f"bounded_{b_hi}", lines + [f"plant.b_upper = {b_hi}"])
        for name in ("run_0.csv", "run_1.csv", "summary.csv"):
            assert (unset / name).read_bytes() == (bounded / name).read_bytes(), (b, name)


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
