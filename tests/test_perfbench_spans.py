"""The benchmark's modules against the package. The tracer
(perfbench/spans.py): every layer boundary it patches must exist, be
wrapped inside `traced` and be restored on exit, so that a traced
benchmark run cannot fail on a renamed function. The workloads
(perfbench/workloads.py): each must run through the CLI and pass its
output check, so that a change which breaks a benchmark reference fails
here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

import pnrsim
import pnrsim.cli
from pnrsim.architectures import ArchitectureSpec, build_single_element
from pnrsim.config import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """perfbench/<name>.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _unwrap(value):
    return value.__func__ if isinstance(value, classmethod) else value


def test_traced_patches_every_target_and_restores_it(monkeypatch):
    spans = _load(monkeypatch, "spans")
    owners = (pnrsim.cli, RunConfig, ArchitectureSpec)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    with spans.traced(pnrsim, tracer):
        patched = {}
        for owner, old in zip(owners, before):
            for attr, value in vars(owner).items():
                if old.get(attr) is not value:
                    patched[owner.__name__.rsplit(".", 1)[-1], attr] = value
                    assert _unwrap(value).__wrapped__ is _unwrap(old[attr])
        build_single_element(1.0, 1.0).counting(1)
    assert ("ArchitectureSpec", "counting") in patched
    assert ("cli", "integrate_hierarchy") in patched
    assert ("RunConfig", "from_file") in patched
    assert [s.name for s in tracer.spans] == ["liouville.counting"]
    for owner, old in zip(owners, before):
        assert dict(vars(owner)) == old


@pytest.mark.parametrize("name", ["pnr-tensor", "sym-sweep", "traj-ensemble"])
def test_benchmark_workload_runs_and_passes_its_check(monkeypatch, tmp_path,
                                                      name):
    workloads = _load(monkeypatch, "workloads")
    assert sorted(workloads.WORKLOADS) == sorted(
        ["pnr-tensor", "sym-sweep", "traj-ensemble"])
    w = workloads.WORKLOADS[name]
    out = tmp_path / name
    assert pnrsim.cli.main(w.cli_args(out, 0)) == 0
    assert w.check(out) == []
