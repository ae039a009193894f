"""Detection statistics, jitter, dark counts, and bandwidth extraction."""

import numpy as np
import pytest
from scipy.special import erfc

from pnrsim.architectures import (DosModel, build_array, build_band_element,
                                  build_single_element, build_symmetric_reduced,
                                  ideal_total_coupling)
from pnrsim.cli import _fmt
from pnrsim.errors import ConfigError, NumericsError
from pnrsim.hierarchy import IntegratorOptions, integrate_hierarchy
from pnrsim.metrics import (DetectionDistribution, MetricsReport, bandwidth,
                            dark_count_rate, detection_probabilities, efficiency,
                            efficiency_curve, jitter)
from pnrsim.oracles import pnr_rate_relations
from pnrsim.pulses import fock_input, gaussian_envelope
from pnrsim.spaces import Operator, projector


def single_run(gamma, Gamma, n=1, sigma0=1.0, drain=None, max_count=None,
               observables=None, rtol=1e-10):
    arch = build_single_element(gamma, Gamma)
    env = gaussian_envelope(sigma0)
    lo, hi = env.support
    if drain is None:
        drain = 12.0 / Gamma ** 2
    opts = IntegratorOptions(rtol=rtol, atol=rtol * 1e-2, n_points=201)
    return integrate_hierarchy(arch.counting(max_count or max(n, 1)),
                               fock_input(n, env), (lo, hi + drain), opts,
                               observables=observables or {})


def test_vacuum_distribution():
    run = single_run(1.0, 1.0, n=0, drain=4.0)
    dist = detection_probabilities(run, 0.0, 0.0)
    assert dist.M == 0
    assert np.all(dist.at_least[0] == 1.0)
    assert np.all(dist.exactly[0] == 1.0)
    assert efficiency(dist) == 0.0


def test_distribution_guards_refuse_unphysical_counts():
    t = np.array([0.0, 1.0])
    # count probabilities summing over one
    exactly = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-6]])
    with pytest.raises(NumericsError, match="sum to 1.000001"):
        DetectionDistribution(1, t, np.array([[1.0, 1.0], [0.5, 0.5]]),
                              exactly, 0.0, 0.0)
    # a cumulative registration that falls with no reset to explain it;
    # the same fall with resets active is allowed
    at_least = np.array([[1.0, 1.0], [0.5, 0.5 - 1e-6]])
    exactly = np.array([[0.5, 0.5 + 1e-6], [0.5, 0.5 - 1e-6]])
    with pytest.raises(NumericsError, match="decreased by 1.00e-06"):
        DetectionDistribution(1, t, at_least, exactly, 0.0, 0.0)
    DetectionDistribution(1, t, at_least, exactly, 0.0, 0.1)


def test_no_registration_loss_reads_raw_jump_statistics():
    run = single_run(1.0, 1.0)
    dist = detection_probabilities(run, 0.0, 0.0)
    raw = run.count_probabilities()
    assert np.abs(dist.at_least[1] - (1.0 - raw[0])).max() < 1e-12


def test_flux_population_identity_single_element():
    arch = build_single_element(1.0, 1.0)
    pc = projector(arch.space, "element", "C")
    run = single_run(1.0, 1.0, observables={"shelved": pc})
    dist = detection_probabilities(run, 0.0, 0.0)
    p1 = efficiency(dist)
    shelved = float(np.real(run.observable("shelved"))[-1])
    assert abs(p1 - shelved) < 1e-8


def test_flux_population_identity_two_photons():
    # expected registered count equals total shelved population at the end
    arch = build_array(2, 0.9, 1.0)
    space = arch.space
    shelf = Operator(space, sum(projector(space, f"d{i}", "C").matrix
                                for i in range(2)), hermitian=True)
    env = gaussian_envelope(1.0)
    lo, hi = env.support
    run = integrate_hierarchy(arch.counting(2), fock_input(2, env),
                              (lo, hi + 12.0),
                              IntegratorOptions(rtol=1e-10, atol=1e-12,
                                                n_points=101),
                              observables={"shelved": shelf})
    dist = detection_probabilities(run, 0.0, 0.0)
    mean_counts = sum(n * dist.exactly[n, -1] for n in range(3))
    shelved = float(np.real(run.observable("shelved"))[-1])
    assert abs(mean_counts - shelved) < 1e-8


def test_survival_factor_is_exact():
    arch = build_array(2, 1.0, 1.0)
    env = gaussian_envelope(0.8)
    lo, hi = env.support
    run = integrate_hierarchy(arch.counting(2), fock_input(2, env),
                              (lo, hi + 12.0),
                              IntegratorOptions(rtol=1e-10, atol=1e-12,
                                                n_points=201))
    t_MIN = 0.37
    plain = detection_probabilities(run, t_MIN, 0.0)
    reset = detection_probabilities(run, t_MIN, 0.55)
    for n in (1, 2):
        factor = np.exp(-n * 0.55 * t_MIN)
        ratio = reset.at_least[n, -1] / plain.at_least[n, -1]
        assert ratio == pytest.approx(factor, rel=1e-14)


def test_registration_delay_shifts_counts():
    run = single_run(1.0, 1.0)
    t_MIN = 0.5
    dist = detection_probabilities(run, t_MIN, 0.0)
    raw = detection_probabilities(run, 0.0, 0.0)
    # value at final time equals the raw curve t_MIN earlier
    ref = np.interp(run.t[-1] - t_MIN, run.t, raw.at_least[1])
    assert dist.at_least[1, -1] == pytest.approx(ref, abs=1e-12)


def test_unsettled_run_refuses_efficiency():
    arch = build_single_element(1.0, 1.0)
    env = gaussian_envelope(1.0)
    lo, hi = env.support
    run = integrate_hierarchy(arch.counting(1), fock_input(1, env),
                              (lo, 0.0),  # stops at the pulse peak
                              IntegratorOptions(rtol=1e-8, n_points=51))
    dist = detection_probabilities(run, 0.0, 0.0)
    with pytest.raises(NumericsError):
        efficiency(dist)


def bare_pulse_distribution(env, n_t=20001):
    lo, hi = env.support
    t = np.linspace(lo, hi, n_t)
    f = np.asarray(env.cumulative(t))
    at_least = np.vstack([np.ones_like(t), f])
    exactly = at_least - np.vstack([at_least[1:], np.zeros_like(t)])
    return DetectionDistribution(1, t, at_least, exactly, 0.0, 0.0,
                                 {"settled": True})


def test_jitter_of_bare_pulse_is_pulse_width():
    env = gaussian_envelope(0.7, t_center=0.3)
    sigma, sigma_sys = jitter(bare_pulse_distribution(env), env)
    assert sigma == pytest.approx(0.7, abs=1e-6)
    assert abs(sigma_sys) < 1e-3


def test_jitter_shelving_delay_single_element():
    # weak absorption, unit shelving: the response convolves the pulse
    # with an exponential of width 1/Gamma^2
    run = single_run(np.sqrt(0.1), 1.0, sigma0=1.0, drain=14.0, rtol=1e-9)
    dist = detection_probabilities(run, 0.0, 0.0)
    env = gaussian_envelope(1.0)
    sigma, sigma_sys = jitter(dist, env)
    assert isinstance(sigma_sys, float)
    assert abs(sigma_sys - 1.0) < 0.2
    assert sigma == pytest.approx(np.sqrt(1.0 + sigma_sys ** 2), rel=1e-6)
    assert dist.meta["jitter_reliable"]
    assert dist.meta["jitter_stencil_rel"] < 0.01


def test_jitter_flags_subpulse_width_as_imaginary():
    env = gaussian_envelope(1.0)
    narrow = gaussian_envelope(0.5)
    sigma, sigma_sys = jitter(bare_pulse_distribution(narrow), env)
    assert isinstance(sigma_sys, complex)
    assert sigma_sys.imag == pytest.approx(np.sqrt(1.0 - 0.25), rel=1e-3)


def test_jitter_rejects_zero_efficiency():
    env = gaussian_envelope(1.0)
    lo, hi = env.support
    t = np.linspace(lo, hi, 101)
    zeros = np.zeros_like(t)
    dist = DetectionDistribution(1, t, np.vstack([np.ones_like(t), zeros]),
                                 np.vstack([np.ones_like(t), zeros]),
                                 0.0, 0.0, {"settled": True})
    with pytest.raises(ConfigError):
        jitter(dist, env)


def test_dark_count_limits():
    assert dark_count_rate([0.0], 1.0, snr0=np.inf) == 0.0
    assert dark_count_rate([0.0, 0.0], 0.25, snr0=0.0) == pytest.approx(
        2 * 0.5 / 0.25, rel=1e-14)
    # internal excitations add linearly
    assert dark_count_rate([0.01, 0.02], 0.5, snr0=np.inf) == pytest.approx(
        0.06, rel=1e-12)


def test_dark_count_snr_from_gain_and_contrast():
    # snr0 = sqrt(8 k t_m) chi = 2 sqrt(2): rate = 0.25 erfc(2)
    got = dark_count_rate([0.0], 2.0, k=0.5, chi=1.0)
    assert got == pytest.approx(0.25 * erfc(2.0), rel=1e-13)
    with pytest.raises(ConfigError):
        dark_count_rate([0.0], 2.0, k=0.5)
    with pytest.raises(ConfigError):
        dark_count_rate([0.0], 0.0, snr0=1.0)
    with pytest.raises(ConfigError):
        dark_count_rate([-0.1], 1.0, snr0=1.0)


def test_channel_sum_matches_rate_formula():
    # 2N channels read out at t_m = t_MIN reproduce (N/t_MIN) erfc(snr0/sqrt2)
    N, t_MIN, snr0 = 12, 1e-8, 4.0
    summed = dark_count_rate([0.0] * (2 * N), t_MIN, snr0=snr0)
    closed = pnr_rate_relations(N, 0.0, t_MIN, snr0=snr0).r_DC
    assert summed == pytest.approx(closed, rel=1e-12)


def test_bandwidth_interpolates_crossings():
    grid = np.linspace(-2.0, 2.0, 5)
    effs = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    bw = bandwidth(None, 0.5, grid, efficiencies=effs)
    assert bw.lo == pytest.approx(-1.5)
    assert bw.hi == pytest.approx(1.5)
    assert bw.width == pytest.approx(3.0)


def test_bandwidth_picks_widest_interval():
    grid = np.linspace(0.0, 10.0, 11)
    effs = np.zeros(11)
    effs[1] = 1.0          # narrow spike
    effs[5:9] = 1.0        # wide plateau
    bw = bandwidth(None, 0.9, grid, efficiencies=effs)
    assert 4.0 < bw.lo < 5.0 and 8.0 < bw.hi < 9.0


def test_bandwidth_errors():
    grid = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ConfigError):
        bandwidth(None, 0.9, grid, efficiencies=np.full(5, 0.5))
    with pytest.raises(ConfigError):
        bandwidth(None, 0.9, grid[::-1], efficiencies=np.full(5, 0.95))
    with pytest.raises(ConfigError):
        bandwidth(None, 0.9, grid, efficiencies=np.full(4, 0.95))


def test_efficiency_curve_single_element_closed_form():
    arch = build_single_element(1.0, 1.0)
    deltas = np.linspace(-2.0, 2.0, 9)
    got = efficiency_curve(arch, deltas)
    assert np.allclose(got, 1.0 / (1.0 + deltas ** 2), rtol=1e-9)


def test_efficiency_curve_cw_matches_hierarchy():
    G = np.sqrt(0.1)
    dos = DosModel("vanhove1d", width=1.0)
    tot = ideal_total_coupling(dos, 24, G)
    arch = build_band_element(dos, 24, np.sqrt(tot / 24), G)
    deltas = np.array([0.25])
    cw = efficiency_curve(arch, deltas)
    hier = efficiency_curve(arch, deltas, method="hierarchy", sigma0=150.0,
                            opts=IntegratorOptions(rtol=1e-7, atol=1e-10,
                                                   n_points=2))
    assert np.abs(cw - hier).max() < 1e-3


def test_efficiency_curve_sweeps_the_symmetric_detuning():
    # every kind, the symmetric reduction included, names its detuning
    # `delta_omega`; both builds describe the same two-element array
    deltas = [-0.6, 0.0, 0.6]
    sym = efficiency_curve(build_symmetric_reduced(2, 0, 1.0, 1.0), deltas,
                           method="hierarchy", sigma0=2.0)
    full = efficiency_curve(build_array(2, 1.0, 1.0), deltas,
                            method="hierarchy", sigma0=2.0)
    assert np.abs(sym - full).max() < 1e-6
    assert sym[1] > sym[0] + 0.01


def test_efficiency_curve_drains_past_slow_resets():
    # the run stopped 10/Gamma^2 past the pulse, short of the 5/Delta the
    # readout waits for, so any reset rate below 0.5 raised NumericsError;
    # a single photon's registration does not depend on the reset rate
    def curve(Delta):
        arch = build_single_element(1.0, 1.0, Delta=Delta)
        return efficiency_curve(arch, [0.0], method="hierarchy", sigma0=1.0)
    assert abs(curve(0.1)[0] - curve(0.0)[0]) < 1e-6


def test_efficiency_curve_without_shelving_is_a_config_error():
    # the drain lasts 10/Gamma^2: Gamma = 0, which the builders accept,
    # ended in a bare ZeroDivisionError
    arch = build_single_element(1.0, 0.0)
    with pytest.raises(ConfigError, match="Gamma"):
        efficiency_curve(arch, [0.0], method="hierarchy", sigma0=1.0)


def test_metrics_report_serialization():
    rep = MetricsReport(efficiency=0.95, jitter_sigma=1.2, jitter_sys=0.4j,
                        dark_rate=1e-6, count_rate=2e7, bandwidth_width=0.3,
                        snr0=8.0, provenance={"config_sha256": "ab"})
    d = rep.to_dict()
    assert d["jitter_sys"] == {"imaginary": 0.4}
    assert d["provenance"]["config_sha256"] == "ab"

    def csv_row(r):  # the sweep.csv metric cells
        return [_fmt(getattr(r, k)) for k in MetricsReport.CSV_COLUMNS]
    row = csv_row(rep)
    assert len(row) == len(MetricsReport.CSV_COLUMNS)
    assert row[0] == "0.95"
    rep2 = MetricsReport(efficiency=0.5, jitter_sys=0.7)
    assert rep2.to_dict()["jitter_sys"] == pytest.approx(0.7)
    assert csv_row(rep2)[1] == ""


def test_metrics_report_rejects_bad_efficiency():
    with pytest.raises(NumericsError):
        MetricsReport(efficiency=1.5)
    with pytest.raises(NumericsError):
        MetricsReport(efficiency=0.5, jitter_sigma=-0.1)
