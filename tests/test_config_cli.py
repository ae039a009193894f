"""Config schema strictness, canonical hashing, and the CLI surface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pnrsim.cli import _float_lines, _fmt, main
from pnrsim.config import (RunConfig, build_envelope, canonical_json,
                           config_sha256)
from pnrsim.errors import ConfigError, ResourceLimitError
from pnrsim.hierarchy import IntegratorOptions
from pnrsim.pulses import FieldInput
from pnrsim.trajectories import _prepare

SRC = Path(__file__).resolve().parents[1] / "src"


def base_doc(**over):
    doc = {
        "schema_version": 1,
        "architecture": {"kind": "single",
                         "params": {"gamma": 1.0, "Gamma": 1.0}},
        "field": {"photons": 1,
                  "envelope": {"shape": "gaussian", "sigma0": 2.0}},
        "t_span": [-16.0, 28.0],
    }
    doc.update(over)
    return doc


# gamma_eff 1: collective coupling makes the hierarchy stiff (BDF)
STIFF_ARCHITECTURE = {
    "kind": "pnr-symmetric",
    "params": {"n_D": 200, "n_A": 8, "exc_cap": 2, "Gamma": 1.0, "k_A": 1.0,
               "gamma_eff": 1.0}}


def _photons(n):
    return {"photons": n, "envelope": {"shape": "gaussian", "sigma0": 2.0}}


def write_cfg(tmp_path, name="cfg.json", **over):
    p = tmp_path / name
    p.write_text(json.dumps(base_doc(**over)))
    return str(p)


def test_defaults_resolve():
    cfg = RunConfig.from_dict(base_doc())
    assert cfg.seed == 0
    assert cfg.max_count == 1
    assert cfg.n_photons == 1
    assert cfg.metrics["compute"] == ["efficiency", "jitter"]
    assert cfg.metrics["t_MIN"] == 0.0 and cfg.metrics["Delta"] == 0.0
    assert cfg.limits == {"max_dim": 4096, "max_points": 512}
    assert cfg.trajectories["n_traj"] == 1
    assert cfg.sweep_axes() == []
    # resolved form is JSON-clean, including the infinite step default
    json.dumps(cfg.raw)
    assert cfg.raw["integrator"]["max_step"] == "inf"
    assert cfg.integrator_options() == IntegratorOptions()


def test_unknown_keys_rejected_everywhere():
    cases = [
        base_doc(typo=1),
        base_doc(architecture={"kind": "single", "params": {}, "x": 1}),
        base_doc(field={"photons": 1, "x": 2}),
        base_doc(field={"photons": 1,
                        "envelope": {"shape": "gaussian", "sigma0": 1.0,
                                     "x": 3}}),
        base_doc(integrator={"rtolx": 1e-8}),
        base_doc(metrics={"computed": []}),
        base_doc(trajectories={"n": 4}),
        base_doc(sweep={"axes": [{"parameter": "seed", "values": [1],
                                  "step": 2}]}),
        base_doc(limits={"max_dims": 10}),
    ]
    for doc in cases:
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)


def test_schema_version_gate():
    doc = base_doc()
    del doc["schema_version"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(schema_version=2))


def test_field_section_rules():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(field={"photons": 1, "weights": [1, 0],
                                            "envelope": {"shape": "gaussian",
                                                         "sigma0": 1.0}}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(field={"photons": -1}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(field={"photons": 1}))   # no envelope
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(field={"amplitudes": []}))
    # vacuum needs no envelope but then needs an explicit span
    cfg = RunConfig.from_dict(base_doc(field={"photons": 0},
                                       t_span=[0.0, 1.0]))
    assert cfg.build_field() is None
    doc = base_doc(field={"photons": 0})
    del doc["t_span"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


def test_superposition_field_counts_photons():
    cfg = RunConfig.from_dict(base_doc(
        field={"amplitudes": [0.6, 0.0, 0.8],
               "envelope": {"shape": "gaussian", "sigma0": 1.0}}))
    assert cfg.n_photons == 2
    assert cfg.max_count == 2
    field = cfg.build_field()
    assert isinstance(field, FieldInput) and field.n_max == 2
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(max_count=1, field={
            "amplitudes": [0.6, 0.0, 0.8],
            "envelope": {"shape": "gaussian", "sigma0": 1.0}}))


def test_span_and_metrics_rules():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(t_span=[0.0]))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(t_span=[2.0, 1.0]))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(metrics={"compute": ["darkness"]}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(metrics={"compute": ["dark_counts"]}))
    cfg = RunConfig.from_dict(base_doc(
        metrics={"compute": ["dark_counts"]},
        trajectories={"t_m": 0.5}))
    assert cfg.metrics["t_m"] == 0.5


def test_sweep_rules():
    ax = lambda p: {"parameter": p, "values": [1, 2]}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(sweep={"axes": [ax("a"), ax("b"),
                                                     ax("c"), ax("d")]}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(sweep={"axes": [ax("a"), ax("a")]}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_doc(sweep={"axes": [{"parameter": "a",
                                                      "values": []}]}))
    cfg = RunConfig.from_dict(base_doc(sweep={"axes": [ax("seed")]}))
    assert cfg.sweep_axes() == [("seed", [1, 2])]


def test_canonical_json_and_hash():
    assert canonical_json({"b": 2, "a": 1}) == '{"a":1,"b":2}'
    ref = hashlib.sha256(b'{"a":1,"b":2}').hexdigest()
    assert config_sha256({"b": 2, "a": 1}) == ref
    assert config_sha256({"a": 1, "b": 2}) == ref
    with pytest.raises(ConfigError):
        canonical_json({"x": math.nan})
    with pytest.raises(ConfigError):
        canonical_json({"x": object()})
    # hash covers content, not input spelling of defaults
    a = RunConfig.from_dict(base_doc())
    b = RunConfig.from_dict(base_doc(seed=0))
    assert a.sha256 == b.sha256


def test_with_values_rewrites_leaves():
    cfg = RunConfig.from_dict(base_doc(
        sweep={"axes": [{"parameter": "architecture.params.gamma",
                         "values": [0.5, 1.0]}]}))
    pt = cfg.with_values({"architecture.params.gamma": 0.5, "seed": 3})
    assert pt.raw["architecture"]["params"]["gamma"] == 0.5
    assert pt.seed == 3
    assert pt.sweep_axes() == []
    assert cfg.raw["architecture"]["params"]["gamma"] == 1.0
    with pytest.raises(ConfigError):
        cfg.with_values({"bogus.path.x": 1})
    with pytest.raises(ConfigError):
        cfg.with_values({"seed": -1})


def test_envelope_builder_errors():
    with pytest.raises(ConfigError):
        build_envelope({"sigma0": 1.0})
    with pytest.raises(ConfigError):
        build_envelope({"shape": "triangle"})
    with pytest.raises(ConfigError):
        build_envelope({"shape": "gaussian"})
    env = build_envelope({"shape": "square", "width": 2.0, "t_center": 1.0})
    assert env.support == (0.0, 2.0)


def test_from_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        RunConfig.from_file(arr)


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_config(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["validate-config", path]) == 0
    out = capsys.readouterr().out.strip()
    cfg = RunConfig.from_file(path)
    assert out == f"OK config_sha256={cfg.sha256}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_doc(typo=1)))
    assert main(["validate-config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_validate_config_builds_every_point(tmp_path, capsys):
    # validate-config builds what a run builds: each sweep point's
    # architecture (or the config's own without a sweep) under the
    # config's limits, so it exits as the run would
    configs = SRC.parent / "perfbench" / "configs"
    sym = json.loads((configs / "sym-sweep.json").read_text())
    pnr = json.loads((configs / "pnr-tensor.json").read_text())
    detuned = {**sym, "architecture": {**sym["architecture"], "params": {
        **sym["architecture"]["params"], "detuning": 0.3}}}
    large = {**pnr, "architecture": {**pnr["architecture"], "params": {
        **pnr["architecture"]["params"], "n_D": 7}}}
    swept = {**pnr, "sweep": {"axes": [
        {"parameter": "architecture.params.n_D", "values": [2, 7]}]}}
    many = {**sym, "limits": {"max_points": 5}}
    for i, (doc, code, name) in enumerate(
            ((detuned, 2, "detuning"), (large, 4, "limits.max_dim"),
             (swept, 4, "limits.max_dim"), (many, 4, "limits.max_points"))):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-config", str(path)]) == code
        captured = capsys.readouterr()
        assert name in captured.err and captured.out == ""
    for name in ("pnr-tensor", "sym-sweep", "traj-ensemble"):
        path = configs / f"{name}.json"
        assert main(["validate-config", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"OK config_sha256={RunConfig.from_file(path).sha256}"


@pytest.mark.parametrize("seed", [2**63, 2**70, -1])
def test_cli_seed_outside_the_stream_key_range_exits_2(tmp_path, capsys, seed):
    # 2**70 ended in an OverflowError traceback; the config seed and
    # --seed share the range [0, 2**63 - 1] of the trajectory streams
    path = write_cfg(tmp_path, architecture={"kind": "single", "params": {
        "gamma": 1.0, "Gamma": 1.0, "k": 0.5}},
                     trajectories={"n_traj": 1, "dt": 0.05})
    out = tmp_path / "out"
    assert main(["trajectories", path, "--seed", str(seed),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed must be an integer in [0, 2**63 - 1]" in err
    assert not out.exists()
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict(base_doc(seed=seed))
    assert RunConfig.from_dict(base_doc(seed=2**63 - 1)).seed == 2**63 - 1


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    path = write_cfg(tmp_path, metrics={"compute": ["efficiency", "jitter",
                                                    "dark_counts"],
                                        "t_m": 1.0},
                     architecture={"kind": "single",
                                   "params": {"gamma": 1.0, "Gamma": 1.0,
                                              "k": 0.5}})
    out = tmp_path / "run"
    assert main(["simulate", path, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "efficiency" in msg
    expected = {"resolved_config.json", "timeseries.csv", "distribution.csv",
                "metrics.json"}
    assert expected <= {p.name for p in out.iterdir() if p.is_file()}
    assert (out / "plotdata" / "reg_ge_1.dat").exists()
    assert (out / "plotdata" / "drive_intensity.dat").exists()

    cfg = RunConfig.from_file(path)
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["config_sha256"] == cfg.sha256
    met = doc["metrics"]
    assert 0.65 < met["efficiency"] <= 1.0
    assert met["dark_rate"] > 0.0
    assert met["snr0"] == pytest.approx(2.0)   # sqrt(8 * 0.5 * 1.0)
    head = (out / "timeseries.csv").read_text().splitlines()
    assert head[0] == "# schema_version=1"
    assert head[1] == f"# config_sha256={cfg.sha256}"
    assert head[2].startswith("t,P_sector_0,P_sector_1,P_reg_ge_1")


def test_cli_metrics_record_the_solver(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", path, "--out", str(out)]) == 0
    run = json.loads((out / "metrics.json").read_text())[
        "metrics"]["provenance"]["run"]
    assert set(run) == {"size", "full_size", "basis_size", "stiffness",
                        "stiffness_estimate", "segments", "trace_defect",
                        "hermiticity_defect"}
    assert 0 < run["basis_size"] <= run["size"] <= run["full_size"]
    # a small run decides on the exact eigenvalue, recorded as [re, im]
    assert run["stiffness_estimate"] == "exact"
    assert len(run["stiffness"]) == 2 and run["stiffness"][0] < 0
    trace_tol = RunConfig.from_file(path).integrator_options().trace_tol
    for key in ("trace_defect", "hermiticity_defect"):
        assert math.isfinite(run[key]) and 0 <= run[key] < trace_tol
    # the gaussian support [-16, 16] splits the span [-16, 28]
    assert [seg["t_span"] for seg in run["segments"]] == [[-16.0, 16.0],
                                                          [16.0, 28.0]]
    for seg in run["segments"]:
        assert set(seg) == {"t_span", "method", "nfev", "njev", "nlu",
                            "rejected"}
        assert seg["method"] == "RK45" and seg["nfev"] > 0
        assert seg["njev"] == seg["nlu"] == 0 <= seg["rejected"]


def test_cli_simulate_is_deterministic(tmp_path):
    path = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", path, "--out", str(a)]) == 0
    assert main(["simulate", path, "--out", str(b)]) == 0
    rel = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rel and rel == sorted(p.relative_to(b)
                                 for p in b.rglob("*") if p.is_file())
    for r in rel:
        assert (a / r).read_bytes() == (b / r).read_bytes()


def test_cli_exit_codes_and_no_partial_outputs(tmp_path, capsys):
    # configuration error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_doc(typo=1)))
    out = tmp_path / "o1"
    assert main(["simulate", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()

    # numerical failure: the run stops at the pulse peak, so the
    # efficiency is not converged
    peak = write_cfg(tmp_path, name="peak.json", t_span=[-16.0, 0.0])
    out = tmp_path / "o2"
    assert main(["simulate", peak, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()

    # the step cap is below the spacing of floats near t
    tiny = write_cfg(tmp_path, name="tiny.json",
                     integrator={"max_step": 1e-300})
    out = tmp_path / "o2b"
    assert main(["simulate", tiny, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: RK45 integration on [-16, ")
    assert not out.exists()
    tiny = write_cfg(tmp_path, name="tiny_stiff.json",
                     architecture=STIFF_ARCHITECTURE,
                     integrator={"max_step": 1e-300})
    out = tmp_path / "o2c"
    assert main(["simulate", tiny, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: BDF integration on [-16, 16] failed: the step "
        "fell below 10 ulp of t = -16")
    assert not out.exists()

    # finite rates whose squares overflow: the pnr builder raised an
    # OverflowError (exit 1), and the single model's blocks overflowed into
    # a numerical failure that asked for a smaller dt (exit 3)
    huge = write_cfg(tmp_path, name="huge.json", architecture={
        "kind": "pnr", "params": {"n_D": 2, "n_A": 3, "gamma": 1e200,
                                  "Gamma": 1.0, "k_A": 1.0}},
        field=_photons(2))
    huge_traj = write_cfg(tmp_path, name="huge_traj.json", architecture={
        "kind": "single", "params": {"gamma": 1e300, "Gamma": 1e300,
                                     "k": 0.5}},
        t_span=[-8.0, 12.0], trajectories={"n_traj": 2, "dt": 0.01})
    for cmd, cfg, names in (("simulate", huge, "gamma = 1e+200: "),
                            ("trajectories", huge_traj,
                             "gamma = 1e+300, Gamma = 1e+300: ")):
        out = tmp_path / f"o_{cmd}"
        assert main([cmd, cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: " + names)
        assert not out.exists()

    # resource guard, lifted by --allow-large
    guarded = write_cfg(tmp_path, name="guarded.json",
                        limits={"max_dim": 2})
    out = tmp_path / "o3"
    assert main(["simulate", guarded, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("resource guard: ")
    assert not out.exists()
    assert main(["simulate", guarded, "--out", str(out),
                 "--allow-large"]) == 0
    capsys.readouterr()

    # a 302-dimensional band inside limits.max_dim whose compile would hold
    # 54 million generator entries at once: it ran out of memory
    band = write_cfg(tmp_path, name="band300.json", architecture={
        "kind": "band", "params": {"dos": {"kind": "flat2d", "width": 1.0},
                                   "n_b": 300, "gamma": 0.1, "Gamma": 1.0}})
    out = tmp_path / "o4"
    assert main(["simulate", band, "--out", str(out)]) == 4
    assert "max_store_bytes=536870912" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep(tmp_path, capsys):
    path = write_cfg(tmp_path, sweep={"axes": [
        {"parameter": "architecture.params.gamma", "values": [0.8, 1.0]}]})
    out = tmp_path / "sw"
    assert main(["sweep", path, "--out", str(out), "--workers", "2"]) == 0
    capsys.readouterr()
    text = (out / "sweep.csv").read_text().splitlines()
    assert text[2] == "# axes=architecture.params.gamma"
    cols = text[3].split(",")
    assert cols[:2] == ["index", "architecture.params.gamma"]
    assert "efficiency" in cols
    rows = text[4:]
    assert len(rows) == 2 and rows[0].startswith("0,0.8,")
    assert (out / "points" / "0000" / "metrics.json").exists()
    assert (out / "points" / "0001" / "metrics.json").exists()
    assert (out / "plotdata" / "sweep_efficiency.dat").exists()
    # efficiency grows toward the matched coupling
    eff = [float(r.split(",")[2]) for r in rows]
    assert eff[1] > eff[0]

    pt = json.loads((out / "points" / "0001" / "metrics.json").read_text())
    assert pt["point"] == {"index": 1,
                           "architecture.params.gamma": 1.0}
    assert pt["config"]["architecture"]["params"]["gamma"] == 1.0

    # one worker must write the same bytes as two
    out1 = tmp_path / "sw1"
    assert main(["sweep", path, "--out", str(out1), "--workers", "1"]) == 0
    capsys.readouterr()
    rel = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert rel == sorted(p.relative_to(out1) for p in out1.rglob("*")
                         if p.is_file())
    for r in rel:
        assert (out / r).read_bytes() == (out1 / r).read_bytes()


def test_cli_sweep_guard_and_missing_axes(tmp_path, capsys):
    path = write_cfg(tmp_path, sweep={"axes": [
        {"parameter": "architecture.params.gamma", "values": [0.8, 1.0]}]},
        limits={"max_points": 1})
    out = tmp_path / "sw2"
    assert main(["sweep", path, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("resource guard: ")
    assert not out.exists()
    plain = write_cfg(tmp_path, name="plain.json")
    assert main(["sweep", plain, "--out", str(out)]) == 2
    capsys.readouterr()
    # a worker count below 1 is a config error that writes nothing
    swept = write_cfg(tmp_path, name="swept.json", sweep={"axes": [
        {"parameter": "architecture.params.gamma", "values": [0.8, 1.0]}]})
    assert main(["sweep", swept, "--out", str(out), "--workers", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: --workers")
    assert not out.exists()
    assert main(["sweep", swept, "--out", str(out), "--workers", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: --workers")
    assert not out.exists()


def test_cli_trajectories(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        architecture={"kind": "single",
                      "params": {"gamma": 1.0, "Gamma": 1.0, "k": 0.5}},
        field={"photons": 1, "envelope": {"shape": "gaussian",
                                          "sigma0": 1.0}},
        t_span=[-8.0, 8.0],
        trajectories={"n_traj": 4, "dt": 0.01, "store_every": 5,
                      "t_m": 1.0, "threshold": 0.5})
    out = tmp_path / "t1"
    assert main(["trajectories", path, "--out", str(out),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    for i in range(4):
        assert (out / "records" / f"traj_{i:04d}.csv").exists()
    assert (out / "ensemble.csv").exists()
    assert (out / "clicks.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_traj"] == 4 and summary["tags"] == ["AMP"]
    assert summary["seed"] == 0

    # a different worker count must not change a single byte
    out2 = tmp_path / "t2"
    assert main(["trajectories", path, "--out", str(out2),
                 "--workers", "3"]) == 0
    capsys.readouterr()
    rel = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    for r in rel:
        assert (out / r).read_bytes() == (out2 / r).read_bytes()

    # seed override lands in the outputs and changes the records
    out3 = tmp_path / "t3"
    assert main(["trajectories", path, "--out", str(out3),
                 "--seed", "5"]) == 0
    capsys.readouterr()
    s3 = json.loads((out3 / "summary.json").read_text())
    assert s3["seed"] == 5
    assert ((out / "records" / "traj_0000.csv").read_bytes()
            != (out3 / "records" / "traj_0000.csv").read_bytes())


def test_cli_worker_validation(tmp_path, capsys):
    path = write_cfg(tmp_path, trajectories={"n_traj": 2, "dt": 0.05})
    assert main(["trajectories", path, "--out", str(tmp_path / "w"),
                 "--workers", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: --workers")
    assert not (tmp_path / "w").exists()


def test_cli_oracle_output(capsys):
    assert main(["oracle", "band-eff", "--n-b", "16", "--gamma", "0.25",
                 "--Gamma", "1", "--zeta", "0"]) == 0
    out = capsys.readouterr().out
    assert "band-eff = 1" in out and "formula:" in out

    assert main(["oracle", "rates", "--N", "2", "--Delta", "0.3",
                 "--t-min", "1", "--snr0", "2"]) == 0
    out = capsys.readouterr().out
    assert "rates.r_C = 0.6" in out
    assert "rates.eff_loss = " in out

    assert main(["oracle", "count-rate", "--Delta", "1", "--t-min", "1",
                 "--eff-loss", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [count-rate]")


def test_cli_design_output(tmp_path, capsys):
    assert main(["design", "snr0", "--f", "0.1", "--I", "10e-6",
                 "--tm", "1e-9"]) == 0
    assert "snr0 = 17.6656574665" in capsys.readouterr().out

    assert main(["design", "absorbers", "--area", "1e-12",
                 "--sigma", "1e-18"]) == 0
    assert "n_d = 666667" in capsys.readouterr().out

    csv_path = tmp_path / "curve.csv"
    assert main(["design", "tradeoff", "--N", "12", "--n-A", "25",
                 "--eff-loss", "0.01", "--f", "0.1", "--I", "10e-6",
                 "--target-rc", "5e7", "--target-rdc", "1.2e-5",
                 "--out", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    header_at = next(i for i, ln in enumerate(lines)
                     if not ln.startswith("#"))
    assert lines[header_at] == "t_MIN,Delta,r_C,r_DC,SNR0,n_A"
    assert len(lines) - header_at - 1 == 121
    assert lines[header_at + 1].endswith(",25")

    # infeasible target refuses with a config error
    assert main(["design", "tradeoff", "--N", "12", "--n-A", "24",
                 "--eff-loss", "0.01", "--f", "0.1", "--I", "10e-6",
                 "--target-rc", "5e7", "--target-rdc", "1.2e-5"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    # and both halves of the target are required together
    assert main(["design", "tradeoff", "--N", "12", "--eff-loss", "0.01",
                 "--f", "0.1", "--I", "10e-6", "--target-rc", "5e7"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["design", "absorbers", "--area", "nan", "--sigma", "1"],
    ["design", "absorbers", "--area", "inf", "--sigma", "1"],
    ["design", "coupling", "--lam", "nan", "--area", "1", "--n-d", "1",
     "--gamma-free2", "1"],
    ["design", "thickness", "--alpha", "nan"],
    ["oracle", "rates", "--N", "2", "--Delta", "nan", "--t-min", "1",
     "--snr0", "2"],
    ["oracle", "rates", "--N", "2", "--Delta", "0.3", "--t-min", "inf",
     "--snr0", "2"]])
def test_cli_non_finite_design_and_oracle_numbers_exit_2(capsys, argv):
    # refused by argparse (exit 2) before a calculator sees nan or inf,
    # which gave tracebacks or printed nan or 0
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["design", "absorbers", "--area", "1e308", "--sigma", "1e-300"],
    ["design", "coupling", "--lam", "1e200", "--area", "1e-200", "--n-d", "1",
     "--gamma-free2", "1"]])
def test_cli_overflowing_design_results_exit_2(capsys, argv):
    # finite numbers whose result overflows: an OverflowError traceback
    # (exit 1) and "gamma_eff2 = inf" (exit 0)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and not captured.out


@pytest.mark.parametrize("bad", [["--t-lo", "-1"], ["--t-lo", "0"],
                                 ["--t-hi=-1e-6"], ["--points", "-1"]])
def test_cli_tradeoff_grid_bounds_are_config_errors(capsys, bad):
    # checked before np.geomspace, which warns on a negative bound and
    # raises on a zero one or a negative count
    argv = ["design", "tradeoff", "--N", "2", "--eff-loss", "0.05",
            "--f", "0.1", "--I", "10e-6", *bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --t-lo")
    assert captured.out == ""


def test_cli_design_tradeoff_stdout(capsys):
    assert main(["design", "tradeoff", "--N", "2", "--eff-loss", "0.05",
                 "--f", "0.1", "--I", "10e-6", "--points", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# schema_version=1"
    assert any(ln == "t_MIN,Delta,r_C,r_DC,SNR0,n_A" for ln in out)
    data = [ln for ln in out if ln and not ln.startswith(("#", "t_MIN"))]
    assert len(data) == 5 and all(ln.endswith(",4") for ln in data)


def test_cli_bad_architecture_params(tmp_path, capsys):
    sym = {"n_D": 2, "n_A": 1, "gamma_eff": 1.0, "Gamma": 1.0}
    cases = [
        ({"kind": "single", "params": {"bogus": 1.0}}, "bogus"),
        # the symmetric detuning is delta_omega, with the tensor sign: the
        # old name would flip it silently, so it is refused
        ({"kind": "pnr-symmetric", "params": {**sym, "detuning": 0.3}},
         "detuning"),
        # the dimension guard is limits.max_dim alone
        ({"kind": "pnr", "params": {"n_D": 1, "n_A": 1, "max_dim": 10**5}},
         "limits.max_dim"),
    ]
    for i, (arch, name) in enumerate(cases):
        path = write_cfg(tmp_path, name=f"arch{i}.json", architecture=arch)
        out = tmp_path / f"arch{i}"
        assert main(["simulate", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err
        assert not out.exists()


def test_limits_max_dim_is_the_builders_guard():
    # a 5,832-dimensional PNR tensor: the builder's own guard of 4,096
    # used to refuse it whatever limits.max_dim and --allow-large said
    doc = base_doc(architecture={"kind": "pnr",
                                 "params": {"n_D": 6, "n_A": 3}},
                   field=_photons(2))
    big = RunConfig.from_dict({**doc, "limits": {"max_dim": 100000}})
    assert big.build_architecture().dim == 5832
    assert RunConfig.from_dict(doc).build_architecture(True).dim == 5832
    with pytest.raises(ResourceLimitError, match="limits.max_dim"):
        RunConfig.from_dict(doc).build_architecture()
    small = RunConfig.from_dict({**base_doc(), "limits": {"max_dim": 2}})
    with pytest.raises(ResourceLimitError, match="limits.max_dim=2"):
        small.build_architecture()


def test_cli_vacuum_run(tmp_path, capsys):
    path = write_cfg(tmp_path, field={"photons": 0}, t_span=[0.0, 5.0])
    out = tmp_path / "vac"
    assert main(["simulate", path, "--out", str(out)]) == 0
    capsys.readouterr()
    met = json.loads((out / "metrics.json").read_text())["metrics"]
    assert met["efficiency"] == pytest.approx(0.0, abs=1e-12)
    assert met["jitter_sigma"] is None


def test_cli_band_and_banded_pnr_take_a_dos_mapping(tmp_path, capsys):
    # RunConfig.build_architecture turns the config's DOS mapping into a
    # DosModel, so both kinds build and run
    dos = {"kind": "flat2d", "width": 1.0}
    archs = {
        "band": {"kind": "band", "params": {"dos": dos, "n_b": 2,
                                            "gamma": 0.7, "Gamma": 1.0}},
        "pnr": {"kind": "pnr", "params": {"n_D": 1, "n_A": 1, "n_b": 2,
                                          "dos": dos}},
    }
    for name, arch in archs.items():
        path = write_cfg(tmp_path, name=f"{name}.json", architecture=arch,
                         t_span=[-8.0, 16.0])
        out = tmp_path / name
        assert main(["simulate", path, "--out", str(out)]) == 0, name
        capsys.readouterr()
        assert (out / "metrics.json").exists()


def _symmetric_arch():
    return {"kind": "pnr-symmetric",
            "params": {"n_D": 2, "n_A": 1, "gamma_eff": 1.0, "Gamma": 1.0,
                       "k_A": 1.0}}


def test_cli_unmonitored_models_are_config_errors(tmp_path, capsys):
    # the symmetric encoding carries no amplifier channel: dark counts and
    # trajectories have nothing to read
    cases = [
        ("simulate", write_cfg(
            tmp_path, name="dark.json", architecture=_symmetric_arch(),
            metrics={"compute": ["efficiency", "dark_counts"], "t_m": 1.0})),
        ("trajectories", write_cfg(
            tmp_path, name="sym_traj.json", architecture=_symmetric_arch(),
            trajectories={"n_traj": 2, "dt": 0.05})),
        # a single element with the default k = 0
        ("trajectories", write_cfg(
            tmp_path, name="k0_traj.json",
            trajectories={"n_traj": 2, "dt": 0.05})),
    ]
    for i, (cmd, path) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main([cmd, path, "--out", str(out), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "k > 0" in err
        assert not out.exists()


def test_cli_non_finite_parameters_are_config_errors(tmp_path, capsys):
    # a NaN or infinite rate used to leave RK45 spinning without end
    cases = [
        ({"gamma": math.nan, "Gamma": 1.0}, "architecture.params.gamma"),
        ({"gamma": 1.0, "Gamma": 1.0, "delta_omega": math.nan},
         "architecture.params.delta_omega"),
        ({"gamma": math.inf, "Gamma": 1.0}, "architecture.params.gamma"),
    ]
    for i, (params, where) in enumerate(cases):
        path = write_cfg(tmp_path, name=f"nf{i}.json",
                         architecture={"kind": "single", "params": params})
        out = tmp_path / f"nf{i}"
        assert main(["simulate", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and where in err
        assert not out.exists()
    # nested DOS values are checked too, and the path names them
    with pytest.raises(ConfigError, match=r"params\.dos\.width"):
        RunConfig.from_dict(base_doc(architecture={
            "kind": "band", "params": {"dos": {"kind": "flat2d",
                                               "width": math.inf},
                                       "n_b": 2, "gamma": 1.0,
                                       "Gamma": 1.0}}))


def test_cli_model_arguments_of_the_wrong_type_are_config_errors(tmp_path, capsys):
    # "gamma": true ran as gamma = 1, and a dos that is not a mapping
    # ended in an AttributeError traceback (exit 1)
    flat = {"kind": "flat2d", "width": 1.0}
    band = {"n_b": 2, "gamma": 0.7, "Gamma": 1.0}
    cases = [
        ({"kind": "single", "params": {"gamma": True, "Gamma": 1.0}},
         "gamma must be a real number, got True"),
        ({"kind": "pnr", "params": {"n_D": 1, "n_A": 1, "chi": True}},
         "chi must be a real number, got True"),
        ({"kind": "band", "params": {**band, "dos": None}},
         "dos must be a DosModel, got None"),
        ({"kind": "band", "params": {**band, "dos": 3}},
         "dos must be a DosModel, got 3"),
        ({"kind": "band", "params": {**band, "dos": "flat2d"}},
         "dos must be a DosModel, got 'flat2d'"),
        ({"kind": "pnr", "params": {"n_D": 1, "n_A": 1, "dos": "flat2d"}},
         "dos must be a DosModel, got 'flat2d'"),
        ({"kind": "band", "params": {**band, "dos": flat, "span": False}},
         "span must be a real number, got False"),
    ]
    for i, (arch, message) in enumerate(cases):
        path = write_cfg(tmp_path, name=f"type{i}.json", architecture=arch)
        out = tmp_path / f"type{i}"
        assert main(["simulate", path, "--out", str(out)]) == 2, message
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()


def test_cli_window_shorter_than_the_stored_spacing_exits_2(tmp_path, capsys):
    # t_m = 1e-300 ended in "ValueError: Maximum allowed size exceeded"
    path = write_cfg(
        tmp_path,
        architecture={"kind": "single",
                      "params": {"gamma": 1.0, "Gamma": 1.0, "k": 0.5}},
        t_span=[-4.0, 4.0],
        trajectories={"n_traj": 2, "dt": 0.01, "store_every": 4,
                      "t_m": 1e-300, "threshold": 0.5})
    out = tmp_path / "t"
    assert main(["trajectories", path, "--out", str(out),
                 "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_m = 1e-300 is shorter than the "
                          "record's stored spacing 0.04")
    assert not out.exists()


def test_cli_non_integer_counts_are_config_errors(tmp_path, capsys):
    sym = {"n_D": 2, "n_A": 1, "gamma_eff": 1.0, "Gamma": 1.0}
    cases = [
        ({"kind": "pnr-symmetric", "params": {**sym, "n_D": "abc"}}, "n_D"),
        ({"kind": "pnr-symmetric", "params": {**sym, "n_D": 2.7}}, "n_D"),
        ({"kind": "pnr", "params": {"n_D": 1, "n_A": 1, "n_b": "x"}}, "n_b"),
    ]
    for i, (arch, name) in enumerate(cases):
        path = write_cfg(tmp_path, name=f"cnt{i}.json", architecture=arch)
        out = tmp_path / f"cnt{i}"
        assert main(["simulate", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{name} must be an integer" in err
        assert not out.exists()


def test_cli_non_finite_integrator_options_are_config_errors(tmp_path, capsys):
    # a NaN rtol spun RK45 without end, and a NaN trace_tol switched the
    # trace check off
    cases = [
        ("simulate", {"integrator": {"rtol": math.nan}}, "rtol"),
        ("simulate", {"integrator": {"trace_tol": math.nan}}, "trace_tol"),
        ("trajectories", {
            "architecture": {"kind": "single",
                             "params": {"gamma": 1.0, "Gamma": 1.0, "k": 0.5}},
            "trajectories": {"n_traj": 2, "dt": math.nan}}, "dt"),
        # wrong types ended in a TypeError traceback (exit 1)
        ("simulate", {"integrator": {"n_points": 2.5}}, "n_points"),
        ("simulate", {"integrator": {"n_points": 1e9}}, "n_points"),
        ("simulate", {"integrator": {"rtol": "1e-8"}}, "rtol"),
        ("simulate", {"integrator": {"max_step": "abc"}}, "max_step"),
        ("simulate", {"integrator": {"max_store_bytes": "big"}},
         "max_store_bytes"),
    ]
    # the integrator method, the trapezoid's dt and store_states are gone:
    # a config that still sets one names it under simulate and
    # validate-config alike
    for over, name in (({"method": "trapezoid"}, "integrator: method"),
                       ({"method": "dop853"}, "integrator: method"),
                       ({"dt": 1e-3}, "integrator: dt"),
                       ({"store_states": True}, "integrator: store_states")):
        cases += [(cmd, {"integrator": over}, name)
                  for cmd in ("simulate", "validate-config")]
    for i, (cmd, over, name) in enumerate(cases):
        path = write_cfg(tmp_path, name=f"opt{i}.json", **over)
        out = tmp_path / f"opt{i}"
        extra = ["--workers", "1"] if cmd == "trajectories" else []
        if cmd != "validate-config":
            extra += ["--out", str(out)]
        start = time.perf_counter()
        assert main([cmd, path, *extra]) == 2
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err
        assert not out.exists()


def test_cli_trajectory_step_over_pulse_is_config_error(tmp_path, capsys):
    # dt = 100 ran one 20-unit step and wrote mean_x_AMP = -5.8e6 with exit 0
    path = write_cfg(
        tmp_path,
        architecture={"kind": "single",
                      "params": {"gamma": 1.0, "Gamma": 1.0, "k": 0.5}},
        field={"photons": 1, "envelope": {"shape": "gaussian",
                                          "sigma0": 1.0}},
        t_span=[-8.0, 12.0],
        trajectories={"n_traj": 4, "dt": 100})
    out = tmp_path / "big_dt"
    assert main(["trajectories", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "dt" in err
    assert not out.exists()


def test_import_leaves_optimizers_and_integrators_unloaded():
    code = ("import sys, pnrsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.optimize', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_cli_process_runs_blas_on_one_thread_and_keeps_its_environment():
    # importing the CLI first loads numpy with BLAS on one thread (OpenBLAS
    # starts a worker per core otherwise), then restores os.environ; a
    # thread count the caller set is kept
    code = ("import os; before = dict(os.environ); import pnrsim.cli; "
            "import numpy as np; a = np.ones((600, 600)); a @ a; "
            "print(len(os.listdir('/proc/self/task')), "
            "dict(os.environ) == before, "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)

    def run(env):
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=env).stdout.split()

    assert run(env) == ["1", "True", "None"]
    assert run({**env, "OPENBLAS_NUM_THREADS": "2"})[1:] == ["True", "2"]


def test_import_leaves_unused_scipy_submodules_unloaded():
    code = ("import sys, pnrsim.cli; "
            "print(sorted(m for m in sys.modules if m in ("
            "'scipy.special', 'scipy.sparse.linalg', 'scipy.linalg', "
            "'scipy.constants')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


def test_import_and_benchmark_commands_load_no_scipy(tmp_path):
    # the package's own CSR type carries every sparse product, so neither
    # the import nor the three benchmark workloads load any scipy module
    # (scipy.sparse alone was about 0.24 s of each process's start-up).
    # Dark counts and the rate oracle take math.erfc, not scipy.special's
    # (a fresh import of scipy.special took 0.30-0.34 s).
    # Nor do they load numpy.ma (about 11 ms), which np.unique without
    # return_inverse and np.union1d import. Only the trajectories load
    # numpy.random (15-22 ms and about 6 MB): the sweep's dense blocks and
    # the Krylov-reduced pnr-tensor solve take the exact eigenvalue, and the
    # Arnoldi estimate starts from a Weyl sequence. Names are matched
    # exactly: the prefix numpy.ma also matches numpy.matrixlib
    # Nor do they, or validate-config, load pnrsim.design or pnrsim.oracles,
    # which only their own subcommands import.
    configs = SRC.parent / "perfbench" / "configs"
    dark = write_cfg(tmp_path, metrics={"compute": ["efficiency", "dark_counts"],
                                        "t_m": 1.0},
                     architecture={"kind": "single", "params": {
                         "gamma": 1.0, "Gamma": 1.0, "k": 0.5}})
    commands = [None,
                ["simulate", str(configs / "pnr-tensor.json")],
                ["sweep", str(configs / "sym-sweep.json"), "--workers", "2"],
                ["trajectories", str(configs / "traj-ensemble.json"),
                 "--workers", "2"],
                ["simulate", dark],
                ["validate-config", str(configs / "pnr-tensor.json")],
                ["validate-config", str(configs / "sym-sweep.json")],
                ["validate-config", str(configs / "traj-ensemble.json")],
                ["oracle", "rates", "--N", "2", "--Delta", "0.3", "--t-min", "1",
                 "--snr0", "2"]]
    for i, argv in enumerate(commands):
        if argv is not None and argv[0] not in ("oracle", "validate-config"):
            argv = argv + ["--out", str(tmp_path / str(i))]
        run = "" if argv is None else f"assert main({argv!r}) == 0; "
        banned = ["scipy", "numpy.ma"]
        if argv is None or argv[0] != "trajectories":
            banned.append("numpy.random")
        if argv is None or argv[0] != "oracle":
            banned += ["pnrsim.design", "pnrsim.oracles"]
        code = ("import sys; from pnrsim.cli import main; " + run +
                f"print(sorted(m for m in sys.modules for b in {banned!r} "
                "if m == b or m.startswith(b + '.')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.strip().splitlines()[-1] == "[]", argv


@pytest.mark.parametrize("name,value", [("gamma", 1e100), ("Gamma", 1e150),
                                        ("Delta", 1e300)])
def test_huge_rates_are_config_errors(tmp_path, capsys, name, value):
    # below the amplitude limit, rates whose (entry x span)**2 overflows
    # leave no step that resolves them: refused at compile, not a solver
    # failure after overflow warnings
    params = {"gamma": 1.0, "Gamma": 1.0, "k": 0.5, name: value}
    path = write_cfg(tmp_path, architecture={"kind": "single", "params": params},
                     t_span=[-8.0, 12.0],
                     trajectories={"n_traj": 2, "dt": 0.005})
    for command in ("simulate", "trajectories"):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "rates" in err
        assert not out.exists()


def test_float_lines_write_floats_as_fmt_does():
    # the rows come as one block; joined, they must read as one line of
    # _fmt'd values per row
    values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 3.0, 0.1]
    col = np.array(values)
    block = np.column_stack([np.roll(col, k) for k in range(5)])
    cases = [([col], ","), ([col, col[::-1]], " "), ([block], ","),
             ([col, block, col[::-1]], ","), ([col[:1]], ","),
             ([block[:0]], ",")]
    for columns, sep in cases:
        table = np.column_stack(columns)
        rows = [sep.join(_fmt(v) for v in row) for row in table]
        assert "\n".join(_float_lines(columns, sep)) == "\n".join(rows)
        assert len(_float_lines(columns, sep)) == min(len(rows), 1)


def test_only_stiff_simulate_loads_sparse_linalg(tmp_path):
    # the explicit solve and the stiffness estimate run on numpy alone, and
    # so does BDF up to hierarchy._DENSE_SIZE kept components (35
    # at exc_cap 2 with 2 photons); above it (112 at exc_cap 3 with 3
    # photons) BDF needs splu, the only reason a run imports scipy.sparse.
    # scipy.integrate (which loads scipy.optimize, scipy.special,
    # scipy.spatial and scipy.fft) added about 0.3-0.5 s to start-up,
    # scipy.sparse about 0.24 s and scipy.sparse.linalg about 0.1 s more
    stiff = write_cfg(tmp_path, name="stiff.json",
                      architecture=STIFF_ARCHITECTURE, field=_photons(2))
    large = dict(STIFF_ARCHITECTURE, params={**STIFF_ARCHITECTURE["params"],
                                             "exc_cap": 3})
    large = write_cfg(tmp_path, name="large.json", architecture=large,
                      field=_photons(3))
    for cfg, out, method, size, loaded in (
            (write_cfg(tmp_path), "o", "RK45", 6, []),
            (stiff, "s", "BDF", 35, []),
            (large, "l", "BDF", 112, ["scipy.linalg", "scipy.sparse.linalg"])):
        code = ("import sys; from pnrsim.cli import main; "
                f"assert main(['simulate', {cfg!r}, '--out', "
                f"{str(tmp_path / out)!r}]) == 0; "
                "print(sorted(m for m in sys.modules if m in ("
                "'scipy.integrate', 'scipy.sparse.linalg', 'scipy.linalg', "
                "'scipy.optimize')))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert run.stdout.strip().splitlines()[-1] == str(loaded)
        doc = json.loads((tmp_path / out / "metrics.json").read_text())
        prov = doc["metrics"]["provenance"]["run"]
        assert {seg["method"] for seg in prov["segments"]} == {method}
        assert prov["size"] == size


def test_stiff_sweep_loads_no_scipy_solvers(tmp_path):
    # every stiff point of the sym-sweep benchmark takes the dense Newton
    # path of BDF, so a sweep over them imports no scipy solver
    cfg = write_cfg(tmp_path, architecture=STIFF_ARCHITECTURE,
                    field=_photons(2), sweep={"axes": [
                        {"parameter": "architecture.params.gamma_eff",
                         "values": [0.4, 0.7, 1.0]}]})
    code = ("import sys; from pnrsim.cli import main; "
            f"assert main(['sweep', {cfg!r}, '--out', "
            f"{str(tmp_path / 'o')!r}, '--workers', '2']) == 0; "
            "print(sorted(m for m in sys.modules if m in ("
            "'scipy.integrate', 'scipy.sparse.linalg', 'scipy.linalg')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.stdout.strip().splitlines()[-1] == "[]"
    for i in range(3):
        doc = json.loads((tmp_path / "o" / "points" / f"{i:04d}" /
                          "metrics.json").read_text())
        segments = doc["metrics"]["provenance"]["run"]["segments"]
        assert {seg["method"] for seg in segments} == {"BDF"}


def test_dense_trajectories_load_no_scipy_solvers(tmp_path):
    # the dense path's only exponential, prop0, is the in-package Pade one
    cfg = write_cfg(
        tmp_path,
        architecture={"kind": "single",
                      "params": {"gamma": 1.0, "Gamma": 1.0, "k": 0.5}},
        field={"photons": 1, "envelope": {"shape": "gaussian",
                                          "sigma0": 1.0}},
        t_span=[-8.0, 8.0], trajectories={"n_traj": 2, "dt": 0.01})
    rc = RunConfig.from_file(cfg)
    p = _prepare(rc.build_architecture().liouvillian(), rc.build_field(),
                 rc.t_span, rc.trajectory_options(), None)
    assert p.prop0 is not None
    code = ("import sys; from pnrsim.cli import main; "
            f"assert main(['trajectories', {cfg!r}, '--out', "
            f"{str(tmp_path / 'o')!r}, '--workers', '2']) == 0; "
            "print(sorted(m for m in sys.modules if m in ("
            "'scipy.linalg', 'scipy.sparse.linalg', 'scipy.special', "
            "'scipy.integrate')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "o" / "ensemble.csv").exists()
