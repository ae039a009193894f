"""Stochastic measurement records: exactness limits, noise statistics,
reproducibility, and click extraction."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from pnrsim.architectures import build_array, build_pnr, build_single_element
from pnrsim.config import RunConfig
from pnrsim.csr import CSR
from pnrsim.errors import ConfigError, NumericsError
from pnrsim.hierarchy import (IntegratorOptions, compile_hierarchy,
                              integrate_hierarchy)
from pnrsim.liouville import AmpChannel, assemble_liouvillian
from pnrsim.pulses import fock_input, gaussian_envelope, square_envelope
from pnrsim.spaces import Operator, build_space, projector, transition
from pnrsim.trajectories import (_DENSE_MAX, _THETA, TrajectoryOptions,
                                 TrajectoryRecord, _expm,
                                 _prepare, _spectral_range, ensemble_average, extract_clicks,
                                 run_trajectories, simulate_trajectory,
                                 window_averages)

from helpers import loop_trajectory

TRAJ_ENSEMBLE = (Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                 / "traj-ensemble.json")
SHELF = np.diag([0.0, 0.0, 1.0]).astype(complex)


def test_weak_monitoring_recovers_unmonitored_decay():
    # k -> 0: backaction vanishes and the record observable follows the
    # plain master equation; undriven steps use the exact propagator
    arch = build_single_element(0.0, 1.0, k=1e-14)
    rec = simulate_trajectory(arch.liouvillian(), t_span=(0.0, 5.0), seed=3,
                              opts=TrajectoryOptions(dt=2e-3, store_every=50),
                              rho0=np.diag([0.0, 1.0, 0.0]).astype(complex))
    expected = 1.0 - np.exp(-rec.t)
    assert np.abs(rec.observables["AMP"] - expected).max() < 1e-5


def test_weak_monitoring_tracks_driven_hierarchy():
    arch = build_single_element(1.0, 1.0, k=1e-12)
    env = gaussian_envelope(1.0)
    field = fock_input(1, env)
    rec = simulate_trajectory(arch.liouvillian(), field, seed=9,
                              opts=TrajectoryOptions(dt=1e-3, store_every=100))
    run = integrate_hierarchy(
        arch.liouvillian(), field, env.support,
        IntegratorOptions(rtol=1e-11, atol=1e-13, n_points=2),
        t_eval=rec.t,
        observables={"shelf": projector(arch.space, "element", "C")})
    ref = np.real(run.observable("shelf"))
    assert np.abs(rec.observables["AMP"] - ref).max() < 1e-4


def test_eigenstate_record_slope_is_chi():
    # shelf-occupied state is a fixed point: <X> stays exactly chi and
    # the record grows linearly up to pure measurement noise
    arch = build_single_element(1.0, 1.0, chi=0.7, k=4.0)
    rec = simulate_trajectory(arch.liouvillian(), t_span=(0.0, 3.0), seed=2,
                              opts=TrajectoryOptions(dt=0.01), rho0=SHELF)
    assert np.abs(rec.observables["AMP"] - 0.7).max() < 1e-12
    drift = rec.records["AMP"][-1] - 0.7 * 3.0
    # residual is N(0, T/(8k)) = N(0, 0.094): just check the scale
    assert abs(drift) < 5 * np.sqrt(3.0 / 32.0)


def test_window_noise_variance():
    # empty detector: window averages are pure noise, var = 1/(8 k t_m)
    k, t_m = 2.0, 0.5
    arch = build_single_element(1.0, 1.0, k=k)
    rec = simulate_trajectory(arch.liouvillian(), t_span=(0.0, 1000.0),
                              seed=11, opts=TrajectoryOptions(dt=0.01,
                                                              store_every=5))
    edges, means = window_averages(rec, "AMP", t_m)
    assert means.size == 2000
    target = 1.0 / (8.0 * k * t_m)
    assert abs(means.mean()) < 3 * np.sqrt(target / means.size)
    assert means.var(ddof=1) == pytest.approx(target, rel=0.12)


def test_occupied_channel_snr():
    # SNR0 = sqrt(8 k t_m) chi, measured over 1e4 windows
    k, t_m, chi = 5.625, 0.2, 1.0
    arch = build_single_element(1.0, 1.0, chi=chi, k=k)
    rec = simulate_trajectory(arch.liouvillian(), t_span=(0.0, 2000.0),
                              seed=5, rho0=SHELF,
                              opts=TrajectoryOptions(dt=0.02, store_every=5))
    edges, means = window_averages(rec, "AMP", t_m)
    assert means.size == 10000
    snr = means.mean() / means.std(ddof=1)
    assert snr == pytest.approx(np.sqrt(8 * k * t_m) * chi, rel=0.05)


def test_batch_matches_solo_bitwise():
    arch = build_single_element(1.0, 1.0, k=0.5)
    field = fock_input(1, gaussian_envelope(1.0))
    opts = TrajectoryOptions(dt=0.01, store_every=10)
    batch = run_trajectories(arch.liouvillian(), field, n_traj=3, seed=7,
                             opts=opts)
    for i, rec in enumerate(batch):
        solo = simulate_trajectory(arch.liouvillian(), field, seed=7,
                                   opts=opts, traj_index=i)
        assert np.array_equal(rec.records["AMP"], solo.records["AMP"])
        assert np.array_equal(rec.observables["AMP"], solo.observables["AMP"])
    assert not np.array_equal(batch[0].records["AMP"],
                              batch[1].records["AMP"])


def test_unmonitored_generator_produces_no_records():
    arch = build_single_element(1.0, 1.0)   # k = 0
    rec = simulate_trajectory(arch.liouvillian(), t_span=(0.0, 1.0), seed=0,
                              opts=TrajectoryOptions(dt=0.05))
    assert rec.records == {} and rec.observables == {}
    with pytest.raises(ConfigError):
        window_averages(rec, "AMP", 0.5)


def fabricated_record():
    t = np.linspace(0.0, 8.0, 801)
    r = np.minimum(t, 2.0) + np.clip(t - 5.0, 0.0, 1.0)
    return TrajectoryRecord(t=t, observables={}, records={"AMP": r},
                            dt=0.01, seed=0, traj_index=0)


def test_window_averages_on_known_record():
    edges, means = window_averages(fabricated_record(), "AMP", 1.0)
    assert np.allclose(edges, np.arange(9.0))
    assert np.allclose(means, [1, 1, 0, 0, 0, 1, 0, 0], atol=1e-12)
    with pytest.raises(ConfigError):
        window_averages(fabricated_record(), "AMP", 0.0)
    with pytest.raises(ConfigError):
        window_averages(fabricated_record(), "AMP", 9.0)


def test_extract_clicks_applies_minimum_duration():
    rec = fabricated_record()
    clicks = extract_clicks(rec, 0.6, 1.0)
    assert len(clicks) == 2
    assert (clicks[0].t_start, clicks[0].t_end) == (0.0, 2.0)
    assert (clicks[1].t_start, clicks[1].t_end) == (5.0, 6.0)
    assert clicks[0].level == pytest.approx(1.0)
    # requiring two consecutive windows drops the one-window event
    long_only = extract_clicks(rec, 0.6, 1.0, t_MIN=2.0)
    assert len(long_only) == 1 and long_only[0].t_end == 2.0
    assert extract_clicks(rec, 1.5, 1.0) == []


def test_window_lengths_are_validated():
    # checked before any division: t_m = 0 was a ZeroDivisionError, NaN a
    # ValueError, and a NaN t_MIN was ignored
    rec = fabricated_record()
    for t_m in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="t_m must be finite"):
            window_averages(rec, "AMP", t_m)
        with pytest.raises(ConfigError, match="t_m must be finite"):
            extract_clicks(rec, 0.5, t_m, t_MIN=1.0)
    for t_MIN in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="t_MIN must be finite"):
            extract_clicks(rec, 0.5, 1.0, t_MIN=t_MIN)


def test_windows_the_record_cannot_resolve():
    # a window shorter than the stored spacing (0.01 here) was counted
    # before any check: t_m = 1e-300 asked np.arange for ~1e301 edges, and
    # t_MIN = 1e308 made ceil(t_MIN / t_m) an OverflowError
    rec = fabricated_record()
    for t_m in (1e-300, 5e-324, 0.005):
        with pytest.raises(ConfigError, match="stored spacing 0.01"):
            window_averages(rec, "AMP", t_m)
        with pytest.raises(ConfigError, match="stored spacing 0.01"):
            extract_clicks(rec, 0.5, t_m, t_MIN=1.0)
    # one stored step is still a window, and no click outlasts the record
    assert window_averages(rec, "AMP", 0.01)[1].size == 800
    assert extract_clicks(rec, 0.6, 0.5, t_MIN=1e308) == []
    assert extract_clicks(rec, 0.6, 1e-300, t_MIN=1e308) == []
    assert len(extract_clicks(rec, 0.6, 1.0, t_MIN=8.0)) == 0
    assert len(extract_clicks(rec, 0.6, 1.0, t_MIN=2.0)) == 1


def test_clicks_on_simulated_records():
    # strong monitoring: occupied shelf yields one long click, empty
    # detector at SNR0 = 8 yields none
    arch = build_single_element(1.0, 1.0, k=1e6)
    rec = simulate_trajectory(arch.liouvillian(), t_span=(0.0, 10.0), seed=4,
                              opts=TrajectoryOptions(dt=0.01), rho0=SHELF)
    clicks = extract_clicks(rec, 0.5, 1.0)
    assert len(clicks) == 1
    assert clicks[0].t_start == 0.0 and clicks[0].t_end == 10.0
    assert clicks[0].level == pytest.approx(1.0, abs=1e-3)

    k = 80.0   # 8 k t_m chi^2 = 64 at t_m = 0.1
    empty = build_single_element(1.0, 1.0, k=k)
    rec2 = simulate_trajectory(empty.liouvillian(), t_span=(0.0, 100.0),
                               seed=6, opts=TrajectoryOptions(dt=0.01))
    assert extract_clicks(rec2, 1.0, 0.1) == []


def test_ensemble_average_statistics():
    t = np.linspace(0.0, 1.0, 3)
    vals = [np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 4.0]),
            np.array([2.0, 1.0, 0.0])]
    recs = [TrajectoryRecord(t=t, observables={"AMP": v}, records={},
                             dt=0.5, seed=0, traj_index=i)
            for i, v in enumerate(vals)]
    tt, mean, stderr, n = ensemble_average(recs, "AMP")
    assert n == 3
    assert np.allclose(mean, [1.0, 1.0, 2.0])
    assert np.allclose(stderr, np.std(vals, axis=0, ddof=1) / np.sqrt(3))
    _, _, se1, _ = ensemble_average(recs[:1], "AMP")
    assert np.all(np.isinf(se1))
    with pytest.raises(ConfigError):
        ensemble_average([], "AMP")
    with pytest.raises(ConfigError):
        ensemble_average(recs, "MISSING")
    bad = TrajectoryRecord(t=t + 0.1, observables={"AMP": vals[0]},
                           records={}, dt=0.5, seed=0, traj_index=9)
    with pytest.raises(ConfigError):
        ensemble_average(recs + [bad], "AMP")


def test_independent_streams_variance_scaling():
    # grouping M independent records shrinks the mean's variance as 1/M;
    # correlated streams would flatten the slope
    arch = build_single_element(1.0, 1.0, k=2.0)
    opts = TrajectoryOptions(dt=0.0125, store_every=20)
    recs = run_trajectories(arch.liouvillian(), t_span=(0.0, 0.25),
                            n_traj=4096, seed=21, opts=opts)
    finals = np.array([r.records["AMP"][-1] for r in recs])
    sizes = np.array([4, 16, 64])
    log_var, weights = [], []
    for m in sizes:
        groups = finals.reshape(-1, m).mean(axis=1)
        log_var.append(np.log(groups.var(ddof=1)))
        weights.append(groups.size / 2.0)
    slope = np.polyfit(np.log(sizes), log_var, 1,
                       w=np.sqrt(np.asarray(weights)))[0]
    assert abs(slope + 1.0) < 0.1


def test_option_and_input_validation():
    with pytest.raises(ConfigError):
        TrajectoryOptions(dt=0.0)
    with pytest.raises(ConfigError):
        TrajectoryOptions(dt=0.1, store_every=0)
    arch = build_single_element(1.0, 1.0, k=0.5)
    with pytest.raises(ConfigError):
        simulate_trajectory(arch.liouvillian())   # no field, no span
    with pytest.raises(ConfigError):
        simulate_trajectory(arch.liouvillian(), t_span=(1.0, 1.0))
    space = build_space([("element", ("0", "1", "C"))])
    undriven = assemble_liouvillian(
        None, [("SHELVE", transition(space, "element", "C", "1", 1.0))],
        None, [AmpChannel("AMP", projector(space, "element", "C"), 0.5, 1.0)])
    with pytest.raises(ConfigError):
        simulate_trajectory(undriven, fock_input(1, gaussian_envelope(1.0)))


def test_trajectory_counts_are_validated():
    liou = build_single_element(1.0, 1.0, k=0.5).liouvillian()
    span = (0.0, 0.1)
    for bad in (0, -1, 1.5, True, np.bool_(True), np.nan, np.inf, "2"):
        with pytest.raises(ConfigError, match="store_every"):
            TrajectoryOptions(dt=0.05, store_every=bad)
        with pytest.raises(ConfigError, match="n_traj"):
            run_trajectories(liou, t_span=span, n_traj=bad)
    opts = TrajectoryOptions(dt=0.05, store_every=2.0)
    assert opts.store_every == 2 and type(opts.store_every) is int
    recs = run_trajectories(liou, t_span=span, n_traj=2.0, opts=opts)
    assert [r.traj_index for r in recs] == [0, 1]
    assert recs[0].t.size == 2
    assert len(run_trajectories(liou, t_span=span, n_traj=np.int64(3),
                                opts=opts)) == 3


def test_stream_keys_stay_in_the_philox_key_range():
    # (seed, traj_index) keys each trajectory's Philox stream. Outside
    # [0, 2**63 - 1] keys wrapped or rounded: seeds 2**63 and 2**63 + 1
    # gave one record, as did 1.5 and 1, and 2**64 - 1 warned in a cast
    liou = build_single_element(1.0, 1.0, k=0.5).liouvillian()
    span, opts = (0.0, 0.1), TrajectoryOptions(dt=0.05)
    for bad in (1.5, 1.0, -1, 2**63, 2**63 + 1, 2**64 - 1, True, "1"):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            simulate_trajectory(liou, t_span=span, seed=bad, opts=opts)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            run_trajectories(liou, t_span=span, seed=bad, opts=opts)
    for bad in (-1, 2**63, 1.0):
        with pytest.raises(ConfigError, match="traj_index must be an integer"):
            simulate_trajectory(liou, t_span=span, traj_index=bad, opts=opts)
    top = 2**63 - 1
    rec = simulate_trajectory(liou, t_span=span, seed=np.int64(top),
                              traj_index=top, opts=opts)
    assert (rec.seed, rec.traj_index) == (top, top)


def assert_batch_matches_solo(liou, field, opts, n_traj, seed):
    batch = run_trajectories(liou, field, n_traj=n_traj, seed=seed, opts=opts)
    tags = batch[0].meta["tags"]
    assert tags
    for i, rec in enumerate(batch):
        solo = simulate_trajectory(liou, field, seed=seed, opts=opts,
                                   traj_index=i)
        for tag in tags:
            assert np.array_equal(rec.records[tag], solo.records[tag])
            assert np.array_equal(rec.observables[tag], solo.observables[tag])
    assert not np.array_equal(batch[0].records[tags[0]],
                              batch[1].records[tags[0]])


def test_two_channel_batch_matches_solo_bitwise():
    # two monitored channels on dense blocks (state 12)
    liou = build_array(2, 1, 1, k=0.5).liouvillian()
    field = fock_input(1, gaussian_envelope(1.0))
    assert compile_hierarchy(liou, field).y0.size == 12
    assert_batch_matches_solo(liou, field, TrajectoryOptions(
        dt=0.01, store_every=10), n_traj=3, seed=4)


def test_sparse_batch_matches_solo_bitwise():
    # PNR(2,2) under two photons has state 62, which runs on CSR blocks
    liou = build_pnr(2, 2, k=0.5).liouvillian()
    field = fock_input(2, gaussian_envelope(1.0))
    assert compile_hierarchy(liou, field).y0.size == 62
    assert_batch_matches_solo(liou, field, TrajectoryOptions(
        dt=0.01, store_every=10), n_traj=3, seed=7)


def test_step_must_resolve_the_pulse():
    # support of a sigma0 = 1 Gaussian is 16 wide: dt may be at most 0.25
    liou = build_single_element(1.0, 1.0).liouvillian()
    field = fock_input(1, gaussian_envelope(1.0))
    with pytest.raises(ConfigError, match="dt"):
        simulate_trajectory(liou, field, opts=TrajectoryOptions(dt=0.26))
    rec = simulate_trajectory(liou, field, opts=TrajectoryOptions(dt=0.25))
    assert rec.meta["n_steps"] == 64


def test_oversized_steps_are_numerics_errors():
    rho0 = np.diag([0.5, 0.0, 0.5]).astype(complex)
    # these runs wrote <X> down to -9036 (seed 0); X's range is [0, 1]
    liou = build_single_element(1.0, 1.0, k=20.0).liouvillian()
    for seed in range(4):
        with pytest.raises(NumericsError, match="spectral range"):
            simulate_trajectory(liou, t_span=(0.0, 2.0), seed=seed,
                                opts=TrajectoryOptions(dt=0.5), rho0=rho0)
    # here the renormalization divided by a zero trace with a warning
    liou = build_single_element(1.0, 1.0, k=50.0).liouvillian()
    with pytest.raises(NumericsError, match="trace"):
        simulate_trajectory(liou, t_span=(0.0, 2.0),
                            opts=TrajectoryOptions(dt=0.2), rho0=rho0)


def test_spectral_range_reads_a_diagonal_x():
    # x_range came from eigvalsh of every monitored X made dense, d x d
    # complex per channel (544 MB at PNR(6, 3)); every builder's X is
    # chi times a projector, whose range is on its stored diagonal
    def dense_range(x):
        h = x.toarray()
        return np.linalg.eigvalsh(0.5 * (h + h.conj().T))[[0, -1]]

    rng = np.random.default_rng(5)
    xs = [a.op.matrix for arch in (build_single_element(1.0, 1.0, k=0.5),
                                   build_array(2, 1.0, 1.0, k=0.5),
                                   build_pnr(2, 2, k=0.5))
          for a in arch.liouvillian().amps]
    assert len(xs) == 5
    xs += [CSR.diags(np.array([0.5, 0.0, 2.0])),    # 0 unstored: the lower end
           CSR.diags(np.array([-0.5, 0.0, -2.0])),  # and the upper one
           CSR.diags(rng.standard_normal(6) + 1j * rng.standard_normal(6)),
           CSR.from_dense(rng.standard_normal((6, 6))
                          + 1j * rng.standard_normal((6, 6)))]
    for x in xs:
        assert np.array_equal(_spectral_range(x), dense_range(x))
    assert np.array_equal(_spectral_range(xs[5]), [0.0, 2.0])

    # PNR(4, 3), d = 648: no d x d array is made (6.7 MB complex)
    import tracemalloc
    liou = build_pnr(4, 3, k=0.5).liouvillian()
    liou.engine_view()
    d = liou.amps[0].op.matrix.shape[0]
    tracemalloc.start()
    try:
        p = _prepare(liou, None, (0.0, 1.0), TrajectoryOptions(dt=0.01), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 648 and p.x_range.tolist() == [[0.0, 1.0]] * 3
    assert peak < d * d * 16 / 4


def test_overflow_in_a_step_is_a_numerics_error():
    # rates of 1e80 pass the compile's overflow test over this span, but
    # the step's Taylor polynomial overflows: the FloatingPointError raised
    # inside the stepping loop becomes a NumericsError
    liou = build_single_element(1e40, 1e40, k=0.5).liouvillian()
    field = fock_input(1, gaussian_envelope(1.0))
    with pytest.raises(NumericsError,
                       match="overflow encountered in matmul near t = -8"):
        simulate_trajectory(liou, field, opts=TrajectoryOptions(dt=0.01))


def test_batch_matches_plain_loop_bitwise():
    # the batched kernel does the plain loop's arithmetic, column by column
    field = fock_input(1, gaussian_envelope(1.0))
    # 550 steps: the 256-step chunks mix undriven and driven steps, and
    # the last chunk is partial
    square = fock_input(1, square_envelope(2.0))
    cases = [(build_single_element(1.0, 1.0, k=0.5), field, None, 0.01),
             (build_array(2, 1, 1, k=0.5), field, None, 0.01),
             (build_single_element(1.0, 1.0, k=2.0), None, (0.0, 2.0), 0.01),
             (build_single_element(1.0, 1.0, k=0.5), square, (-2.0, 3.5), 0.01)]
    for arch, fld, span, dt in cases:
        liou = arch.liouvillian()
        recs = run_trajectories(liou, fld, t_span=span, n_traj=2, seed=3,
                                opts=TrajectoryOptions(dt=dt, store_every=7))
        for rec in recs:
            obs, r = loop_trajectory(liou, fld, span, 3, rec.traj_index, dt, 7)
            for tag in obs:
                assert np.array_equal(rec.observables[tag], obs[tag])
                assert np.array_equal(rec.records[tag], r[tag])


def test_expm_matches_scipy():
    def rel_err(a):
        ref = la.expm(a)
        return (np.abs(_expm(a) - ref).sum(axis=0).max()
                / np.abs(ref).sum(axis=0).max())

    # 1-norms just under each theta_m (one per Pade degree), then two that
    # need squaring. On real 3x3 and 6x6 matrices of norm 30 to 300,
    # scipy's expm strays from a 50-digit mpmath reference by up to 3e-12
    # (_expm by up to 2e-13), so the random cases have the dense path's
    # largest size, where both stay within 2e-14 of it.
    rng = np.random.default_rng(7)
    norms = [0.999 * t for t in _THETA.values()] + [30.0, 300.0]
    for norm in norms:
        for cplx in (False, True):
            a = rng.standard_normal((_DENSE_MAX, _DENSE_MAX))
            if cplx:
                a = a + 1j * rng.standard_normal(a.shape)
            a *= norm / np.abs(a).sum(axis=0).max()
            assert rel_err(a) <= 1e-13, (norm, cplx)

    # a0 dt of every dense-path model that test_batch_matches_plain_loop_bitwise
    # and the traj-ensemble benchmark run
    field = fock_input(1, gaussian_envelope(1.0))
    cases = [(build_single_element(1.0, 1.0, k=0.5), field, None, 0.01),
             (build_array(2, 1, 1, k=0.5), field, None, 0.01),
             (build_single_element(1.0, 1.0, k=2.0), None, (0.0, 2.0), 0.01),
             (build_single_element(1.0, 1.0, k=0.5),
              fock_input(1, square_envelope(2.0)), (-2.0, 3.5), 0.01)]
    cfg = RunConfig.from_file(TRAJ_ENSEMBLE)
    cases.append((cfg.build_architecture(), cfg.build_field(), cfg.t_span,
                  cfg.trajectory_options().dt))
    for arch, fld, span, dt in cases:
        p = _prepare(arch.liouvillian(), fld, span, TrajectoryOptions(dt=dt),
                     None)
        assert p.prop0 is not None
        assert rel_err(p.a0 * p.dt) <= 1e-13

    assert np.array_equal(_expm(np.zeros((5, 5))), np.eye(5))
    d = np.array([-40.0, -3.0, -0.01, 0.0, 0.5, 2.0, 7.0])
    e = _expm(np.diag(d))
    assert np.array_equal(e, np.diag(e.diagonal()))
    assert np.allclose(e.diagonal(), np.exp(d), rtol=1e-13, atol=0)
    # overflowing model rates must end in a NumericsError, not a traceback
    assert np.isnan(_expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))).all()
