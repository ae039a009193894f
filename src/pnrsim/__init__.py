"""Simulation and design toolkit for photon-number-resolving detectors.

The package splits into layers: `spaces` builds operator algebra and
`liouville` open-system generators as terms of those operators (no
superoperator is ever assembled); `pulses` describes the incident
field; `hierarchy` integrates the driven master-equation member grid
with jump counting; `trajectories` unravels the continuously monitored
dynamics into single-shot records; `architectures` assembles detector
models; `symmetric` is the permutation-reduced engine for identical
elements; `metrics`, `oracles`, and `design` turn runs into numbers;
`config` and `cli` wrap everything for batch use.

Every builder names a model parameter the same way (`delta_omega` is the
carrier detuning of every architecture kind, the symmetric one
included), and checks it by that name from one table in `architectures`.
`RunConfig` is the one deserializer; the only serializer is
`MetricsReport.to_dict`, which the CLI writes.

`import pnrsim` loads no submodule and no numpy: each public name below
is imported from its submodule on first use (PEP 562), so a command-line
process can set up numpy before anything loads it (see `cli`).
"""

import importlib

# submodule -> the public names the package exports from it
_EXPORTS = {
    "architectures": """ArchitectureSpec BandDiscretization DosModel
        build_architecture build_array build_band_element build_pnr
        build_single_element build_symmetric_reduced
        cw_single_photon_efficiency discretize_dos ideal_total_coupling""",
    "config": "RunConfig build_envelope canonical_json config_sha256",
    "csr": "",
    "design": """TradeoffCurve TradeoffPoint effective_coupling film_thickness
        required_absorbers snr0_transport tradeoff_curve tradeoff_family
        transport_amplifier""",
    "errors": "ConfigError NumericsError PnrsimError ResourceLimitError",
    "hierarchy": """HierarchyResult IntegratorOptions integrate_hierarchy
        reduced_matter_state""",
    "ivp": "",
    "krylov": "",
    "liouville": """AmpChannel JumpChannel Liouvillian assemble_liouvillian
        counting_resolve""",
    "metrics": """BandwidthResult DetectionDistribution MetricsReport
        bandwidth dark_count_rate detection_probabilities efficiency
        efficiency_curve jitter""",
    "oracles": """OracleResult band_efficiency check_ideal_conditions
        jitter_model pnr_rate_relations single_element_count_rate""",
    "pulses": """FieldInput PulseEnvelope fock_input gaussian_envelope
        mixture_input rising_exponential_envelope square_envelope
        superposition_input tabulated_envelope""",
    "spaces": "HilbertSpace Operator build_space projector transition",
    "symmetric": "SymmetricLiouvillian enumerate_classes",
    "trajectories": """ClickEvent TrajectoryOptions TrajectoryRecord
        ensemble_average extract_clicks run_trajectories simulate_trajectory
        window_averages""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
