"""Config schema strictness, canonical hashing, and the CLI surface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pnrsim.cli import main
from pnrsim.config import (RunConfig, build_envelope, canonical_json,
                           config_sha256)
from pnrsim.errors import ConfigError
from pnrsim.hierarchy import IntegratorOptions
from pnrsim.pulses import FieldInput

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


def test_cli_sweep_guard_and_missing_axes(tmp_path, capsys, monkeypatch):
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
    # a worker count below 1 is a config error that writes nothing, and
    # an explicit --workers is what the error names, over the environment
    swept = write_cfg(tmp_path, name="swept.json", sweep={"axes": [
        {"parameter": "architecture.params.gamma", "values": [0.8, 1.0]}]})
    assert main(["sweep", swept, "--out", str(out), "--workers", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: --workers")
    assert not out.exists()
    monkeypatch.setenv("PNRSIM_WORKERS", "0")
    assert main(["sweep", swept, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: PNRSIM_WORKERS")
    assert main(["sweep", swept, "--out", str(out), "--workers", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: --workers")
    assert not out.exists()


def test_cli_trajectories(tmp_path, capsys, monkeypatch):
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
    monkeypatch.setenv("PNRSIM_WORKERS", "3")
    assert main(["trajectories", path, "--out", str(out2)]) == 0
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


def test_cli_worker_validation(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, trajectories={"n_traj": 2, "dt": 0.05})
    monkeypatch.setenv("PNRSIM_WORKERS", "abc")
    assert main(["trajectories", path, "--out", str(tmp_path / "w")]) == 2
    assert "PNRSIM_WORKERS" in capsys.readouterr().err
    monkeypatch.delenv("PNRSIM_WORKERS")
    assert main(["trajectories", path, "--out", str(tmp_path / "w"),
                 "--workers", "0"]) == 2
    capsys.readouterr()


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


def test_cli_design_tradeoff_stdout(capsys):
    assert main(["design", "tradeoff", "--N", "2", "--eff-loss", "0.05",
                 "--f", "0.1", "--I", "10e-6", "--points", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# schema_version=1"
    assert any(ln == "t_MIN,Delta,r_C,r_DC,SNR0,n_A" for ln in out)
    data = [ln for ln in out if ln and not ln.startswith(("#", "t_MIN"))]
    assert len(data) == 5 and all(ln.endswith(",4") for ln in data)


def test_cli_bad_architecture_params(tmp_path, capsys):
    path = write_cfg(tmp_path, architecture={"kind": "single",
                                             "params": {"bogus": 1.0}})
    assert main(["simulate", path, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_vacuum_run(tmp_path, capsys):
    path = write_cfg(tmp_path, field={"photons": 0}, t_span=[0.0, 5.0])
    out = tmp_path / "vac"
    assert main(["simulate", path, "--out", str(out)]) == 0
    capsys.readouterr()
    met = json.loads((out / "metrics.json").read_text())["metrics"]
    assert met["efficiency"] == pytest.approx(0.0, abs=1e-12)
    assert met["jitter_sigma"] is None


def test_cli_band_and_banded_pnr_take_a_dos_mapping(tmp_path, capsys):
    # the config's DOS mapping goes through the same deserializer as
    # ArchitectureSpec.from_dict, so both kinds build and run
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
    # a NaN rtol spun RK45 without end, a NaN trace_tol switched the trace
    # check off, and a trapezoid NaN dt died in an uncaught ValueError
    cases = [
        ("simulate", {"integrator": {"rtol": math.nan}}, "rtol"),
        ("simulate", {"integrator": {"trace_tol": math.nan}}, "trace_tol"),
        ("simulate", {"integrator": {"method": "trapezoid", "dt": math.nan}},
         "dt"),
        ("trajectories", {
            "architecture": {"kind": "single",
                             "params": {"gamma": 1.0, "Gamma": 1.0, "k": 0.5}},
            "trajectories": {"n_traj": 2, "dt": math.nan}}, "dt"),
    ]
    for i, (cmd, over, name) in enumerate(cases):
        path = write_cfg(tmp_path, name=f"opt{i}.json", **over)
        out = tmp_path / f"opt{i}"
        extra = ["--workers", "1"] if cmd == "trajectories" else []
        start = time.perf_counter()
        assert main([cmd, path, "--out", str(out), *extra]) == 2
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
