"""The package namespace: `import pnrsim` loads nothing, and every public
name resolves, on first use, to the object its submodule defines."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pnrsim

SRC = Path(__file__).resolve().parents[1] / "src"

# the names the package imported eagerly from each submodule before it
# loaded them on first use
EXPORTED = {
    "architectures": [
        "ArchitectureSpec", "BandDiscretization", "DosModel",
        "build_architecture", "build_array", "build_band_element",
        "build_pnr", "build_single_element", "build_symmetric_reduced",
        "cw_single_photon_efficiency", "discretize_dos",
        "ideal_total_coupling"],
    "config": ["RunConfig", "build_envelope", "canonical_json",
               "config_sha256"],
    "design": [
        "TradeoffCurve", "TradeoffPoint", "effective_coupling",
        "film_thickness", "required_absorbers", "snr0_transport",
        "tradeoff_curve", "tradeoff_family", "transport_amplifier"],
    "errors": ["ConfigError", "NumericsError", "PnrsimError",
               "ResourceLimitError"],
    "hierarchy": ["HierarchyResult", "IntegratorOptions",
                  "integrate_hierarchy", "reduced_matter_state"],
    "liouville": ["AmpChannel", "JumpChannel", "Liouvillian",
                  "assemble_liouvillian", "counting_resolve"],
    "metrics": [
        "BandwidthResult", "DetectionDistribution", "MetricsReport",
        "bandwidth", "dark_count_rate", "detection_probabilities",
        "efficiency", "efficiency_curve", "jitter"],
    "oracles": [
        "OracleResult", "band_efficiency", "check_ideal_conditions",
        "jitter_model", "pnr_rate_relations", "single_element_count_rate"],
    "pulses": [
        "FieldInput", "PulseEnvelope", "fock_input", "gaussian_envelope",
        "mixture_input", "rising_exponential_envelope", "square_envelope",
        "superposition_input", "tabulated_envelope"],
    "spaces": ["HilbertSpace", "Operator", "build_space", "projector",
               "transition"],
    "symmetric": ["SymmetricLiouvillian", "enumerate_classes"],
    "trajectories": [
        "ClickEvent", "TrajectoryOptions", "TrajectoryRecord",
        "ensemble_average", "extract_clicks", "run_trajectories",
        "simulate_trajectory", "window_averages"],
}


def test_import_loads_no_numpy_and_no_submodule():
    # the CLI sets up numpy's BLAS threads before numpy loads, and both
    # `python -m pnrsim.cli` and the console script import the package first
    code = ("import sys, pnrsim; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith(('numpy.', 'pnrsim.'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves_to_its_submodule_object():
    names = {n for module_names in EXPORTED.values() for n in module_names}
    for module, module_names in EXPORTED.items():
        sub = importlib.import_module(f"pnrsim.{module}")
        assert getattr(pnrsim, module) is sub
        for name in module_names:
            assert getattr(pnrsim, name) is getattr(sub, name), name
    star = {}
    exec("from pnrsim import *", star)
    assert set(star) - {"__builtins__"} == names
    assert names <= set(dir(pnrsim))
    assert pnrsim.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(pnrsim, "no_such_name")


def test_no_module_level_import_goes_unused():
    # a module-level name imported and never read costs import time and
    # hides which layers a module really depends on
    unused = []
    for path in sorted((SRC / "pnrsim").glob("*.py")):
        if path.name == "__init__.py":  # its lazy loader is its whole body
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []
