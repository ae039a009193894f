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
included). `RunConfig` is the one deserializer; the only serializer is
`MetricsReport.to_dict`, which the CLI writes.
"""

from .architectures import (
    ArchitectureSpec,
    BandDiscretization,
    DosModel,
    build_architecture,
    build_array,
    build_band_element,
    build_pnr,
    build_single_element,
    build_symmetric_reduced,
    cw_single_photon_efficiency,
    discretize_dos,
    ideal_total_coupling,
)
from .config import RunConfig, build_envelope, canonical_json, config_sha256
from .design import (
    TradeoffCurve,
    TradeoffPoint,
    effective_coupling,
    film_thickness,
    required_absorbers,
    snr0_transport,
    tradeoff_curve,
    tradeoff_family,
    transport_amplifier,
)
from .errors import ConfigError, NumericsError, PnrsimError, ResourceLimitError
from .hierarchy import (
    HierarchyResult,
    IntegratorOptions,
    integrate_hierarchy,
    reduced_matter_state,
)
from .liouville import (
    AmpChannel,
    JumpChannel,
    Liouvillian,
    assemble_liouvillian,
    counting_resolve,
)
from .metrics import (
    BandwidthResult,
    DetectionDistribution,
    MetricsReport,
    bandwidth,
    dark_count_rate,
    detection_probabilities,
    efficiency,
    efficiency_curve,
    jitter,
)
from .oracles import (
    OracleResult,
    band_efficiency,
    check_ideal_conditions,
    jitter_model,
    pnr_rate_relations,
    single_element_count_rate,
)
from .pulses import (
    FieldInput,
    PulseEnvelope,
    fock_input,
    gaussian_envelope,
    mixture_input,
    rising_exponential_envelope,
    square_envelope,
    superposition_input,
    tabulated_envelope,
)
from .spaces import HilbertSpace, Operator, build_space, projector, transition
from .symmetric import SymmetricLiouvillian, enumerate_classes
from .trajectories import (
    ClickEvent,
    TrajectoryOptions,
    TrajectoryRecord,
    ensemble_average,
    extract_clicks,
    run_trajectories,
    simulate_trajectory,
    window_averages,
)

__version__ = "0.1.0"
