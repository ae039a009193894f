"""Driven-hierarchy integration against closed forms and dense references."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import bdf as scipy_bdf
from scipy.sparse.linalg import splu

from pnrsim import csr, hierarchy, ivp, krylov, spaces
from pnrsim.architectures import (DosModel, build_array, build_band_element,
                                  build_pnr, build_single_element,
                                  build_symmetric_reduced)
from pnrsim.errors import ConfigError, NumericsError, ResourceLimitError
from pnrsim.hierarchy import (IntegratorOptions, _dominant_eigenvalue,
                              _is_stiff, compile_hierarchy,
                              integrate_hierarchy, reduced_matter_state)
from pnrsim.liouville import assemble_liouvillian, counting_resolve
from pnrsim.metrics import detection_probabilities, efficiency, jitter
from pnrsim.pulses import (fock_input, gaussian_envelope,
                           rising_exponential_envelope, superposition_input)
from pnrsim.spaces import build_space, projector, transition
from pnrsim.symmetric import enumerate_classes
from pnrsim.trajectories import TrajectoryOptions, run_trajectories

from helpers import (compiled_reference, dense_count_probabilities,
                     dense_hierarchy, expm_evolve, full_grid_hierarchy,
                     random_architecture, random_density, start_vector,
                     superop, trace_row)


def test_vacuum_input_matches_dense_expm():
    arch = build_single_element(0.8, 1.1, Delta=0.4, k=0.3)
    liou = arch.liouvillian()
    rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
    T = 2.5
    ref = expm_evolve(liou, rho0, T)
    opts = IntegratorOptions(rtol=1e-12, atol=1e-14)
    run = integrate_hierarchy(liou, None, (0.0, T), opts, rho0=rho0)
    got = run.state_at(-1).member(0, 0)
    assert np.abs(got - ref).max() < 1e-10


def test_vacuum_fock_input_equals_no_field():
    # N=0 drive carries no photons: identical to running without a field
    arch = build_single_element(0.7, 0.9)
    liou = arch.liouvillian()
    rho0 = random_density(np.random.default_rng(0), 3)
    env = gaussian_envelope(1.0)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-12)
    a = integrate_hierarchy(liou, fock_input(0, env), (-3.0, 3.0), opts, rho0=rho0)
    b = integrate_hierarchy(liou, None, (-3.0, 3.0), opts, rho0=rho0)
    assert np.abs(a.state_at(-1).member(0, 0) - b.state_at(-1).member(0, 0)).max() < 1e-9


def test_single_photon_amplitude_oracle():
    # two-level absorber: excited amplitude obeys psi' = -(g^2/2) psi + g E(t)
    g, sig = 0.9, 1.3
    el = build_single_element(g, 0.0)
    env = gaussian_envelope(sig)
    lo, hi = env.support
    tgrid = np.linspace(lo, hi, 301)

    def rhs(t, y):
        return [-0.5 * g * g * y[0] + g * env(t).real]

    sol = solve_ivp(rhs, (lo, hi), [0.0], t_eval=tgrid, rtol=1e-11, atol=1e-13)
    p_ref = sol.y[0] ** 2
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    run = integrate_hierarchy(el.liouvillian(), fock_input(1, env), (lo, hi), opts,
                              t_eval=tgrid,
                              observables={"pe": projector(el.space, "element", "1")})
    p_sim = np.real(run.observable("pe"))
    assert p_ref.max() > 0.5  # the pulse actually drives the element
    assert np.abs(p_sim - p_ref).max() < 1e-6


def test_member_grid_size_matches_photon_number():
    el = build_single_element(1.0, 1.0)
    env = gaussian_envelope(0.5)
    opts = IntegratorOptions(rtol=1e-6, atol=1e-9, n_points=5)
    run = integrate_hierarchy(el.liouvillian(), fock_input(3, env), None, opts)
    assert run.n_max == 3
    state = run.final_state()
    seen = [(n, m) for n in range(4) for m in range(4)
            if state.member(n, m) is not None]
    assert len(seen) == 16
    with pytest.raises(ConfigError):
        state.member(4, 0)


def _two_sector_run():
    """A 2-sector run at the default 201 points."""
    return integrate_hierarchy(build_single_element(1.0, 1.0).counting(1),
                               fock_input(1, gaussian_envelope(1.0)))


def test_member_sector_past_the_last_is_a_config_error():
    # sector 2 of 2 read member (0, 1)'s sector-0 block
    state = _two_sector_run().final_state()
    with pytest.raises(ConfigError, match=r"sector 2 outside 0\.\.1"):
        state.member(0, 0, sector=2)
    both = state.member(0, 0, sector=0) + state.member(0, 0, sector=1)
    assert np.array_equal(both, state.member(0, 0))


def test_negative_member_sector_is_a_config_error():
    # sector -1 read zeros
    state = _two_sector_run().final_state()
    with pytest.raises(ConfigError, match=r"sector -1 outside 0\.\.1"):
        state.member(0, 0, sector=-1)


def test_state_index_outside_the_run_is_a_config_error():
    # index -300 of 201 wrapped to t = 0.16
    run = _two_sector_run()
    for bad in (-300, -202, 201):
        with pytest.raises(ConfigError, match=r"t_index .* outside -201\.\.200"):
            run.state_at(bad)
    assert run.state_at(-201).t == run.t[0] and run.state_at(200).t == run.t[-1]


def test_member_conjugate_symmetry():
    el = build_single_element(0.9, 0.8)
    env = gaussian_envelope(1.0)
    field = superposition_input([1.0, 0.8, 0.4j], env)
    opts = IntegratorOptions(rtol=1e-9, atol=1e-11, n_points=9)
    run = integrate_hierarchy(el.liouvillian(), field, None, opts)
    for idx in (2, -1):
        st = run.state_at(idx)
        for n in range(3):
            for m in range(3):
                a = st.member(n, m)
                b = st.member(m, n)
                assert np.abs(a - b.conj().T).max() < 1e-9


def test_physical_state_positive_and_normalized():
    el = build_single_element(0.9, 0.8)
    env = gaussian_envelope(1.0)
    field = superposition_input([0.6, 0.8], env)
    opts = IntegratorOptions(rtol=1e-9, atol=1e-11, n_points=11)
    run = integrate_hierarchy(el.liouvillian(), field, None, opts)
    rho = reduced_matter_state(run.final_state(), field)
    assert abs(np.trace(rho) - 1.0) < 1e-8
    assert np.abs(rho - rho.conj().T).max() < 1e-8
    assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_reduced_state_rejects_larger_field():
    el = build_single_element(0.9, 0.8)
    env = gaussian_envelope(1.0)
    small = fock_input(1, env)
    opts = IntegratorOptions(rtol=1e-8, n_points=5)
    run = integrate_hierarchy(el.liouvillian(), small, None, opts)
    with pytest.raises(ConfigError):
        reduced_matter_state(run.final_state(), fock_input(2, env))


def test_truncation_matches_full_space():
    arch = build_array(2, 1.0, 1.0)
    counting = arch.counting(1)
    env = gaussian_envelope(1.5)
    field = fock_input(1, env)
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13, n_points=31)
    small = integrate_hierarchy(counting, field, None, opts)
    assert small.diagnostics["size"] < small.diagnostics["full_size"]
    full = dense_count_probabilities(counting, field, small.t,
                                     rtol=1e-11, atol=1e-13)
    assert np.abs(full - small.count_probabilities()).max() < 1e-10


def test_grade_raising_channel_matches_dense_reference():
    # a channel that raises the excitation grade needs no special case:
    # the reduction follows whatever the generator reaches
    arch = build_single_element(1.0, 1.0)
    liou = arch.liouvillian()
    absorb = liou.channel("ABSORB")
    raising = type(absorb)("UP", absorb.op.dag())  # |1><0| raises the grade
    model = counting_resolve(
        type(liou)(liou.space, liou.hamiltonian,
                   list(liou.channels) + [raising], field_tag=liou.field_tag),
        "SHELVE", 1)
    field = fock_input(1, gaussian_envelope(1.5))
    run = integrate_hierarchy(model, field, None, IntegratorOptions(
        rtol=1e-11, atol=1e-13, n_points=31))
    full = dense_count_probabilities(model, field, run.t,
                                     method="DOP853", rtol=1e-11, atol=1e-13)
    assert np.abs(full - run.count_probabilities()).max() < 1e-9


def _assert_keep_is_invariant(ode, blocks):
    """Every block maps span(keep) into span(keep), and y0 lies on keep."""
    a0, am, ap, y0 = dense_hierarchy(ode.engine, ode.field)
    out = np.setdiff1d(np.arange(y0.size), ode.keep)
    for block in (a0, am, ap, *blocks):
        assert not np.any(block[np.ix_(out, ode.keep)])
    assert not np.any(y0[out]) and np.array_equal(y0[ode.keep], ode.y0)


def test_reachable_subspace_on_random_architectures():
    # dense references stay under ~1000 components (16 MB per block), so
    # draws whose full grid is larger are passed over
    cases = []
    seed = 0
    while len(cases) < 9:
        rng = np.random.default_rng(seed)
        seed += 1
        arch = random_architecture(rng)
        n = int(rng.integers(1, 3))
        model = arch.counting(n)
        field = fock_input(n, gaussian_envelope(1.0))
        ode = compile_hierarchy(model, field)
        if ode.full_size > 1000:
            continue
        cases.append(arch.kind)
        _assert_keep_is_invariant(ode, ())
        run = integrate_hierarchy(model, field, None, IntegratorOptions(
            rtol=1e-11, atol=1e-13, n_points=21))
        assert run.diagnostics["size"] == ode.keep.size < ode.full_size
        full = dense_count_probabilities(ode.engine, field, run.t,
                                         method="DOP853", rtol=1e-11, atol=1e-13)
        assert np.abs(full - run.count_probabilities()).max() < 1e-9
    assert set(cases) == {"single", "band", "array", "pnr"}


def test_reachable_subspace_is_closed_under_measurement_backaction():
    # X = |1><2| + |2><1| is off-diagonal: its kick X rho + rho X carries
    # |1><1| to the coherence |2><1|, which the generator never reaches
    space = build_space([("element", ("0", "1", "2"))])
    x = (transition(space, "element", "1", "2", 1.0)
         + transition(space, "element", "2", "1", 1.0))
    liou = assemble_liouvillian(
        None, [("DECAY", transition(space, "element", "0", "2", 1.0))],
        ("ABSORB", transition(space, "element", "0", "1", 1.0)),
        [("AMP", x, 0.5)])
    ode = compile_hierarchy(counting_resolve(liou, "DECAY", 1),
                            fock_input(1, gaussian_envelope(1.0)))
    n_blocks = ode.full_size // ode.engine.vec_dim
    kick = sp.kron(sp.identity(n_blocks), superop(ode.engine.kicks[0])).toarray()
    _assert_keep_is_invariant(ode, (kick,))
    member_11 = (1 * 2 + 1) * 2 * 9          # member (1, 1), sector 0
    assert member_11 + 2 * 3 + 1 in ode.keep


def _assert_same_csr(got, want):
    if want is None:
        assert got is None
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_block_compile_matches_full_grid_reference():
    # the block-by-block compile must give exactly what kron-then-search
    # over the whole (member, sector, component) grid gives
    space = build_space([("element", ("0", "1", "2"))])
    x = (transition(space, "element", "1", "2", 1.0)
         + transition(space, "element", "2", "1", 1.0))
    liou = assemble_liouvillian(
        None, [("DECAY", transition(space, "element", "0", "2", 1.0))],
        ("ABSORB", transition(space, "element", "0", "1", 1.0)),
        [("AMP", x, 0.5)])
    cases = [(counting_resolve(liou, "DECAY", 1), fock_input(1, gaussian_envelope(1.0))),
             (build_symmetric_reduced(6, 2, 0.4, 1.0, k_A=1.0, exc_cap=2).counting(2),
              fock_input(2, gaussian_envelope(2.0))),
             # more photons than count sectors: the last sector feeds itself
             (build_single_element(0.8, 1.1, Delta=0.3, k=0.4).counting(1),
              fock_input(2, gaussian_envelope(1.0)))]
    kinds, seed = set(), 0
    while len(cases) < 10 or len(kinds) < 4:
        rng = np.random.default_rng(seed)
        seed += 1
        arch = random_architecture(rng)
        n = int(rng.integers(1, 3))
        if not any(a.k > 0 for a in arch.liouvillian().amps):
            continue
        kinds.add(arch.kind)
        cases.append((arch.counting(n), fock_input(n, gaussian_envelope(1.0))))
    for model, field in cases:
        ode = compile_hierarchy(model, field)
        keep, a0, am, ap, y0 = full_grid_hierarchy(ode.engine, field)
        assert np.array_equal(ode.keep, keep) and keep.size < ode.full_size
        assert np.array_equal(ode.y0, y0)
        for got, want in ((ode.a0, a0), (ode.am, am), (ode.ap, ap)):
            _assert_same_csr(got, want)
        amps = [a for a in ode.engine.amps if a.k > 0]
        assert len(ode.kicks) == len(ode.engine.kicks) == len(amps)
        n_blocks = ode.full_size // ode.engine.vec_dim
        for kick, terms in zip(ode.kicks, ode.engine.kicks):
            full = sp.kron(sp.identity(n_blocks), superop(terms), format="csr")
            _assert_same_csr(kick, full[keep][:, keep])


def test_compile_memory_follows_the_kept_size():
    # PNR(4, 2) under two photons: 282 of 2,834,352 grid components are
    # reachable; building the whole grid took about 1.9 GB
    import tracemalloc
    model = build_pnr(4, 2, gamma=0.7071067811865476, Gamma=1.0, k_A=1.0).counting(2)
    field = fock_input(2, gaussian_envelope(2.0))
    tracemalloc.start()
    try:
        ode = compile_hierarchy(model, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ode.full_size == 2_834_352 and ode.keep.size == 282
    assert peak < 64 * 2 ** 20


def test_compile_builds_no_superoperator(monkeypatch):
    # counting and compile read the d x d operator terms: once the
    # architecture is built, nothing forms a kron product
    archs = [build_pnr(2, 3), build_array(2, 0.8, 1.0, Delta=0.3, k=0.4)]

    def refuse(*args, **kwargs):
        raise AssertionError("a kron product was formed")
    monkeypatch.setattr(sp, "kron", refuse)
    monkeypatch.setattr(csr, "kron", refuse)
    monkeypatch.setattr(spaces, "kron", refuse)
    for arch in archs:
        ode = compile_hierarchy(arch.counting(2),
                                fock_input(2, gaussian_envelope(2.0)))
        assert ode.keep.size < ode.full_size
    assert len(ode.kicks) == 2


def _tensor_compile_peak(n_D):
    """The compile of tensor PNR(n_D, 3) under three photons, counting
    included, and its tracemalloc peak in MiB (max_dim lifted as
    --allow-large does)."""
    import tracemalloc
    arch = build_pnr(n_D, 3, max_dim=sys.maxsize)
    field = fock_input(3, gaussian_envelope(2.0))
    tracemalloc.start()
    try:
        ode = compile_hierarchy(arch.counting(3), field, (-16.0, 28.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ode, peak / 2 ** 20


def test_large_tensor_compile_memory():
    # PNR(4, 3) under three photons keeps 1,454 components; its d**2 x d**2
    # superoperators (g0 with 2.47 million nonzeros) peaked at 272 MiB in
    # counting and compile, the operator terms and the d**2-long start,
    # trace and adjoint arrays at 23 MiB, the operator terms alone at 4.9
    ode, peak = _tensor_compile_peak(4)
    assert ode.keep.size == 1454 and ode.a0.nnz == 13134
    assert peak < 12


def test_larger_tensor_compiles_build_nothing_of_size_d_squared():
    # PNR(5, 3) (d = 1,944) peaked at 204 MiB with the d**2-long view
    # arrays and peaks at 15.9 without them; PNR(6, 3) (d = 5,832) would
    # have needed about 1.6 GB for those arrays and peaks at 46.9
    ode, peak = _tensor_compile_peak(5)
    assert ode.keep.size == 3310 and ode.a0.nnz == 42520
    assert peak < 32
    ode, peak = _tensor_compile_peak(6)
    assert ode.engine.vec_dim == 5832 ** 2 and ode.keep.size == 6948
    assert peak < 64


def test_options_must_be_finite():
    # a NaN slips past "<= 0" tests: NaN rtol spins RK45, NaN trace_tol
    # turns the trace check off
    for name in ("rtol", "atol", "trace_tol"):
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ConfigError, match=name):
                IntegratorOptions(**{name: bad})
    for bad in (np.nan, 0.0):
        with pytest.raises(ConfigError, match="max_step"):
            IntegratorOptions(max_step=bad)
    assert IntegratorOptions(max_step=np.inf).max_step == np.inf
    # wrong types are ConfigErrors naming the field, not TypeErrors later
    for name, bad in (("rtol", "1e-8"), ("atol", None), ("max_step", "abc"),
                      ("trace_tol", [1e-6]), ("n_points", 2.5),
                      ("n_points", 1e9), ("n_points", True),
                      ("max_store_bytes", "big"), ("max_store_bytes", 1.0)):
        with pytest.raises(ConfigError, match=name):
            IntegratorOptions(**{name: bad})
    assert IntegratorOptions(n_points=np.int64(3), rtol=np.float32(1e-6)).n_points == 3
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(ConfigError, match="dt"):
            TrajectoryOptions(dt=bad)


def test_start_state_must_be_finite_with_unit_trace():
    # a zero rho0 used to warn and end in a trace-drift NumericsError, a
    # NaN entry in scipy's ValueError, and trajectories ran on regardless
    arch = build_single_element(1.0, 1.0)  # k = 0: no monitored channel
    field = fock_input(1, gaussian_envelope(1.0))
    with_nan = np.diag([1.0, 0.0, 0.0])
    with_nan[0, 1] = np.nan
    cases = [(np.zeros((3, 3)), "unit trace"),
             (np.diag([2.0, 0.0, 0.0]), "unit trace"),
             (with_nan, "non-finite")]
    for rho0, what in cases:
        with pytest.raises(ConfigError, match=f"rho0.*{what}"):
            integrate_hierarchy(arch.counting(1), field, rho0=rho0)
        with pytest.raises(ConfigError, match=f"rho0.*{what}"):
            run_trajectories(arch.liouvillian(), field, rho0=rho0)
    run = integrate_hierarchy(arch.counting(1), field,
                              rho0=np.diag([1.0, 0.0, 0.0]))
    assert run.count_probabilities()[:, -1].sum() == pytest.approx(1.0)


def test_count_probabilities_sum_to_one():
    arch = build_single_element(1.0, 1.0, Delta=0.2)
    counting = arch.counting(2)
    env = gaussian_envelope(1.0)
    run = integrate_hierarchy(counting, fock_input(2, env), None,
                              IntegratorOptions(rtol=1e-9, atol=1e-11, n_points=21))
    totals = run.count_probabilities().sum(axis=0)
    assert np.abs(totals - 1.0).max() < 1e-8
    assert run.count_probabilities().min() > -1e-9


def test_observable_rows_and_operators_agree():
    el = build_single_element(0.8, 1.0)
    env = gaussian_envelope(1.0)
    p1 = projector(el.space, "element", "1")
    ev = el.liouvillian().engine_view()
    raw = np.zeros(ev.vec_dim, dtype=complex)
    raw[:9] = p1.matrix.toarray().conj().T.reshape(-1)  # tr(P rho) row over vec(rho)
    opts = IntegratorOptions(rtol=1e-9, n_points=11)
    run = integrate_hierarchy(el.liouvillian(), fock_input(1, env), None, opts,
                              observables={"op": p1, "row": raw[:9]})
    assert np.allclose(run.observable("op"), run.observable("row"))
    with pytest.raises(ConfigError):
        run.observable("missing")


def test_operator_observable_tables_match_dense_rows():
    # the entries X[j, i] gathered at the kept (i, j) give bitwise the
    # tables of the dense d**2 row X^T.reshape(-1), read by a scipy CSR
    arch = build_pnr(2, 2, k=0.5)
    space = arch.liouvillian().space
    x = (projector(space, "d0", "C")
         + transition(space, "d1", "0", "1_0", 0.3 - 0.7j)
         + transition(space, "a0", "A1", "A0", 1.1j))
    field = fock_input(2, gaussian_envelope(1.0))
    run = integrate_hierarchy(arch.counting(2), field, None,
                              IntegratorOptions(n_points=31),
                              observables={"x": x})
    np1, S, vd, total = 3, run.n_sectors, run.vec_dim, run.keep.size
    row = x.matrix.toarray().T.reshape(-1)
    blk, pos = np.divmod(run.keep, vd)
    r = sp.csr_matrix((row[pos], (blk, np.arange(total))),
                      shape=(np1 * np1 * S, total))
    want = (r @ run.states.T).reshape(np1, np1, S, -1)
    assert np.abs(want).max() > 0.1
    assert run.observables["x"].tobytes() == want.tobytes()
    small = projector(build_space([("element", 2)]), "element", "1")
    with pytest.raises(ConfigError, match="shape"):
        integrate_hierarchy(arch.counting(2), field, None,
                            IntegratorOptions(n_points=3),
                            observables={"small": small})


def test_t_eval_must_lie_inside_span():
    el = build_single_element(1.0, 1.0)
    env = gaussian_envelope(1.0)
    with pytest.raises(ConfigError):
        integrate_hierarchy(el.liouvillian(), fock_input(1, env), (-2.0, 2.0),
                            IntegratorOptions(rtol=1e-6), t_eval=[0.0, 5.0])


def test_empty_t_eval_is_a_config_error():
    # was a bare IndexError on t_eval[0]
    model = build_single_element(1.0, 1.0).counting(1)
    with pytest.raises(ConfigError, match="non-empty"):
        integrate_hierarchy(model, fock_input(1, gaussian_envelope(1.0)),
                            (-8.0, 12.0), t_eval=[])


def test_non_finite_t_eval_is_a_config_error():
    # NaN passes the sorting and range tests, so [0, nan] ran silently
    model = build_single_element(1.0, 1.0).counting(1)
    field = fock_input(1, gaussian_envelope(1.0))
    for t_eval in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(ConfigError, match="finite"):
            integrate_hierarchy(model, field, (-8.0, 12.0), t_eval=t_eval)


def test_infinite_t_span_is_a_config_error():
    # was refused as "rates are too large" by the overflow test of the compile
    model = build_single_element(1.0, 1.0).counting(1)
    field = fock_input(1, gaussian_envelope(1.0))
    for span in ((-8.0, np.inf), (-np.inf, 12.0), (np.nan, 12.0)):
        with pytest.raises(ConfigError, match="t_span must be finite"):
            integrate_hierarchy(model, field, span)


def test_trace_drift_is_a_numerics_error():
    # a counted view with its counted jumps dropped (one sector, no jump
    # part) loses the shelved population's trace, as a failing solve would
    view = build_single_element(1.0, 1.0).counting(1)
    lossy = dataclasses.replace(view, n_sectors=1, jump=None)
    field = fock_input(1, gaussian_envelope(1.0))
    with pytest.raises(NumericsError, match="physical trace drifted by"):
        integrate_hierarchy(lossy, field, (-8.0, 20.0))
    assert integrate_hierarchy(view, field, (-8.0, 20.0)).diagnostics[
        "trace_defect"] < 1e-6


def test_store_guard_trips_on_tiny_budget():
    el = build_single_element(1.0, 1.0)
    env = gaussian_envelope(1.0)
    # budgets above each compile's 56 bytes per generator entry, so that
    # the stored states are what is refused
    opts = IntegratorOptions(rtol=1e-6, n_points=5001, max_store_bytes=4096)
    with pytest.raises(ResourceLimitError, match="storing 5001 states"):
        integrate_hierarchy(el.liouvillian(), fock_input(3, env), None, opts)
    # the guard refuses before anything of the states' size exists: PNR(2,
    # 3) under two photons keeps 76 components, so 20,000 states need 24 MB,
    # and the solve used to build them (58 MB at peak) before dropping them
    import tracemalloc
    model = build_pnr(2, 3, gamma=0.7071067811865476, Gamma=1.0, k_A=1.0).counting(2)
    field = fock_input(2, gaussian_envelope(2.0))
    opts = IntegratorOptions(n_points=20000, max_store_bytes=2 ** 16)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="storing 20000 states"):
            integrate_hierarchy(model, field, (-16.0, 28.0), opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_stored_states_are_written_once(monkeypatch):
    # PNR(2, 3) under two photons keeps 76 components, so 20,000 states are
    # 24.3 MB. Collecting each segment's outputs and then copying them into
    # the result peaked at 60.5 MB; written in place, the peak is the
    # states and the 8.6 MB of sector traces read from them. Solved on the
    # kept system: its 26-dim Krylov basis would shrink the states until
    # the copy's peak fell under the bound
    import tracemalloc
    monkeypatch.setattr(hierarchy, "_BASIS_MAX", 0)
    model = build_pnr(2, 3, gamma=0.7071067811865476, Gamma=1.0, k_A=1.0).counting(2)
    field = fock_input(2, gaussian_envelope(2.0))
    tracemalloc.start()
    try:
        run = integrate_hierarchy(model, field, (-16.0, 28.0),
                                  IntegratorOptions(n_points=20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.states.shape == (20000, 76) and run.basis is None
    assert peak < run.states.nbytes + run.sector_traces.nbytes + 4 * 2 ** 20


def test_store_guard_trips_before_the_krylov_search(monkeypatch):
    # the states are refused on the kept size before the Krylov search
    # allocates anything, and a run that fits holds the search to the
    # directions whose four kept size x directions arrays fit the budget.
    # A band element (291 kept components) does not reduce
    band = build_band_element(DosModel("lorentzian", width=1.0), 16,
                              np.sqrt(2.0 / 16), 1.0).counting(1)
    field = fock_input(1, gaussian_envelope(25.0))
    calls = []

    class Searched(Exception):
        pass

    def spy(mats, y0, max_size):
        calls.append(max_size)
        raise Searched
    monkeypatch.setattr(hierarchy, "krylov_reduction", spy)
    states = 291 * 201 * 16
    with pytest.raises(ResourceLimitError, match="size 291"):
        integrate_hierarchy(band, field, opts=IntegratorOptions(
            max_store_bytes=states - 1))
    assert calls == []
    with pytest.raises(Searched):
        integrate_hierarchy(band, field, opts=IntegratorOptions(
            max_store_bytes=states))
    assert calls == [states // (4 * 16 * 291)] and calls[0] < hierarchy._BASIS_MAX


def test_compile_guard_refuses_before_the_entry_arrays():
    # a flat band of 300 levels is 302-dimensional, far inside
    # limits.max_dim, but its dense absorb^dag absorb block gives every
    # kept column about 2 n_b entries: the reachable search held 54.3
    # million at once and the compile ran out of memory. It is refused
    # before those arrays exist, on the default budget as trajectories
    # use it, and integrate_hierarchy hands its options' budget on
    import tracemalloc
    flat = DosModel("flat2d", width=1.0)
    field = fock_input(1, gaussian_envelope(2.0))
    model = build_band_element(flat, 300, 0.1, 1.0).counting(1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=r"54270300 generator entries .* over "
                                 r"max_store_bytes=536870912"):
            compile_hierarchy(model, field, (-16.0, 28.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    small = build_band_element(flat, 16, 0.1, 1.0).counting(1)
    with pytest.raises(ResourceLimitError, match="generator entries"):
        integrate_hierarchy(small, field, (-16.0, 28.0),
                            IntegratorOptions(max_store_bytes=10 ** 5))
    assert compile_hierarchy(small, field, (-16.0, 28.0)).keep.size == 291


def test_compile_hierarchy_blocks_and_start_vector():
    arch = build_single_element(1.0, 1.0, k=0.5)
    counting = arch.counting(2)
    env = gaussian_envelope(1.0)
    ode = compile_hierarchy(counting, fock_input(2, env))
    ev = ode.engine
    assert (ode.t0, ode.t1) == env.support and ode.n_max == 2
    assert ev.n_sectors == 3 and ev.vec_dim == 9
    assert ode.full_size == 9 * 3 * 9    # members x sectors x vec_dim
    kept = len(ode.keep)
    for block in (ode.a0, ode.am, ode.ap):
        assert block.shape == (kept, kept)
    # each diagonal member (n, n) starts in the ground state, sector 0
    starts = np.flatnonzero(ode.y0)
    assert list(ode.keep[starts]) == [g * 3 * 9 for g in (0, 4, 8)]
    assert np.all(ode.y0[starts] == 1.0)
    # no photons: no drive blocks, and the span must be given
    vac = compile_hierarchy(counting, None, (0.0, 1.0))
    assert vac.am is None and vac.ap is None and vac.envelope is None
    with pytest.raises(ConfigError):
        compile_hierarchy(counting, None)
    with pytest.raises(ConfigError):
        compile_hierarchy(object(), None, (0.0, 1.0))


def test_engine_views_are_frozen_and_state_their_amps():
    arch = build_single_element(1.0, 1.0, k=0.5)
    liou = arch.liouvillian()
    base = liou.engine_view()
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.n_sectors = 4
    assert base.amps == liou.amps and base.amps[0].tag == "AMP"
    counted = arch.counting(2)
    assert counted.n_sectors == 3 and counted.amps == liou.amps
    # resolving counts leaves the base model's own view untouched
    assert liou.engine_view().n_sectors == 1
    sym = build_symmetric_reduced(2, 1, 1.0, 1.0, k_A=1.0)
    assert sym.liouvillian().amps == ()
    assert sym.counting(1).amps == ()
    # each model builds its view once, and nothing writes into it
    assert liou.engine_view() is base
    assert sym.liouvillian().engine_view() is sym.liouvillian().engine_view()
    sym_view = sym.liouvillian().engine_view()
    for a in (*base.start, *sym_view.start, sym_view.trace, sym_view.adjoint_perm):
        with pytest.raises(ValueError):
            a[0] = 0


def test_start_state_must_be_a_density_matrix():
    # both ran without complaint; the first gave count probabilities
    # 0.236 / 0.764 that looked physical
    arch = build_single_element(1.0, 1.0)
    field = fock_input(1, gaussian_envelope(1.0))
    not_hermitian = np.zeros((3, 3))
    not_hermitian[0, :2] = [1.0, 0.5]
    cases = [(np.diag([2.0, -1.0, 0.0]), "positive semidefinite"),
             (not_hermitian, "Hermitian")]
    for rho0, what in cases:
        with pytest.raises(ConfigError, match=f"rho0.*{what}"):
            integrate_hierarchy(arch.counting(1), field, rho0=rho0)
        with pytest.raises(ConfigError, match=f"rho0.*{what}"):
            run_trajectories(arch.liouvillian(), field, rho0=rho0)
    mixed = np.array([[0.5, 0.25j, 0], [-0.25j, 0.5, 0], [0, 0, 0]])
    run = integrate_hierarchy(arch.counting(1), field, rho0=mixed)
    assert run.count_probabilities()[:, -1].sum() == pytest.approx(1.0)
    # the symmetric encoding is checked through its adjoint map
    sym = build_symmetric_reduced(2, 1, 1.0, 1.0).counting(1)
    ev = sym
    slots = np.arange(ev.vec_dim, dtype=complex)
    one_sided = start_vector(ev)
    one_sided[np.flatnonzero(np.conj(slots[ev.adjoint_perm]) != slots)[0]] = 0.1
    with pytest.raises(ConfigError, match="rho0.*Hermitian"):
        integrate_hierarchy(sym, field, rho0=one_sided)
    integrate_hierarchy(sym, field, rho0=start_vector(ev))


def test_start_state_must_have_the_encoding_shape():
    field = fock_input(1, gaussian_envelope(1.0))
    tensor = build_single_element(1.0, 1.0)        # d = 3: (3, 3) or (9,)
    sym = build_symmetric_reduced(2, 1, 1.0, 1.0)
    n = sym.liouvillian().engine_view().vec_dim    # (n,) only
    cases = [(tensor, np.eye(4) / 4), (tensor, np.full(8, 0.125)),
             (tensor, np.eye(3).reshape(3, 3, 1) / 3),
             (sym, np.eye(1, n + 1)), (sym, np.eye(1, n).reshape(n, 1))]
    for arch, rho0 in cases:
        with pytest.raises(ConfigError, match="rho0"):
            integrate_hierarchy(arch.counting(1), field, rho0=rho0)
        with pytest.raises(ConfigError, match="rho0"):
            run_trajectories(arch.liouvillian(), field, rho0=rho0)


def test_symmetric_start_state_must_have_nonnegative_populations():
    # unit trace and Hermitian, but one diagonal-type class holds -0.5
    sym = build_symmetric_reduced(2, 1, 1.0, 1.0).counting(1)
    ev = sym
    row = trace_row(ev)
    ground = int(np.flatnonzero(start_vector(ev))[0])
    other = [i for i in np.flatnonzero(row) if i != ground][0]
    negative = start_vector(ev)
    negative[other] = -0.5
    negative[ground] += 0.5 * row[other].real
    assert complex(row @ negative) == pytest.approx(1.0)
    field = fock_input(1, gaussian_envelope(1.0))
    with pytest.raises(ConfigError, match="rho0.*nonnegative"):
        integrate_hierarchy(sym, field, rho0=negative)
    with pytest.raises(ConfigError, match="rho0.*nonnegative"):
        compile_hierarchy(sym, field, rho0=negative)


def test_narrow_pulse_on_a_wide_span_is_not_stepped_over():
    # with an uncapped step RK45 never sampled these pulses and reported
    # efficiency 0
    arch = build_single_element(1.0, 1.0, k=0.5)
    for sigma0, expected in ((0.1, 0.21519), (0.02, 0.0486)):
        field = fock_input(1, gaussian_envelope(sigma0))
        run = integrate_hierarchy(arch.counting(1), field, (-8.0, 12.0),
                                  IntegratorOptions(n_points=2))
        ref = integrate_hierarchy(
            arch.counting(1), field, (-8.0, 12.0),
            IntegratorOptions(rtol=1e-10, atol=1e-12, max_step=sigma0 / 20,
                              n_points=2))
        eff = run.count_probabilities()[1, -1]
        assert eff == pytest.approx(expected, abs=5e-5)
        assert abs(eff - ref.count_probabilities()[1, -1]) < 1e-6


def test_narrow_pulse_caps_the_step_only_under_the_pulse():
    # a step cap over the whole span took nfev 96,026 here
    arch = build_single_element(1.0, 1.0, k=0.5)
    field = fock_input(1, gaussian_envelope(0.005))
    run = integrate_hierarchy(arch.counting(1), field, (-8.0, 12.0),
                              IntegratorOptions(n_points=2))
    assert run.diagnostics["nfev"] < 5000
    assert [seg["t_span"] for seg in run.diagnostics["segments"]] == [
        [-8.0, -0.04], [-0.04, 0.04], [0.04, 12.0]]
    # reference: rtol 1e-10, atol 1e-12 and max_step = sigma0 / 20 over
    # the whole span (nfev 480,020)
    ref = 0.012433764712017247
    assert run.count_probabilities()[1, -1] == pytest.approx(ref, abs=1e-8)


def _methods(arch, field, t_span, opts=IntegratorOptions(n_points=2)):
    run = integrate_hierarchy(arch, field, t_span, opts)
    return {seg["method"] for seg in run.diagnostics["segments"]}


def _sym_sweep_model(gamma_eff, exc_cap=2):
    """One point of a collective sweep: 200 elements, 8 registers."""
    return build_symmetric_reduced(200, 8, gamma_eff, 1.0, k_A=1.0,
                                   exc_cap=exc_cap).counting(2)


def _excited_element(model):
    """The class vector of one excited element (no photon, no register)."""
    i = enumerate_classes(200, 8, 2)[(0, 0, 1, 0, 0)]
    y = np.zeros(model.vec_dim, dtype=complex)
    y[i] = 1 / model.trace[i]
    return y


def test_stiff_collective_coupling_switches_to_bdf():
    field = fock_input(2, gaussian_envelope(2.0))
    # spectral radius of a0 is 400 at gamma_eff 1 and 16 at 0.0707, against
    # a pulse step bound of 0.5
    assert _methods(_sym_sweep_model(1.0), field, (-16, 28)) == {"BDF"}
    assert _methods(_sym_sweep_model(0.0707), field, (-16, 28)) == {"RK45"}
    # a mildly stiff tensor model and an oscillatory band spectrum stay
    # explicit: BDF took 5x and 40x longer on models like these
    assert _methods(build_pnr(2, 3).counting(2), field, (-16, 28)) == {"RK45"}
    band = build_band_element(DosModel("lorentzian", width=1.0), 16,
                              np.sqrt(2.0 / 16), 1.0)
    env = gaussian_envelope(25.0)
    lo, hi = env.support
    assert _methods(band.counting(1), fock_input(1, env), (lo, hi + 10.0),
                    IntegratorOptions(n_points=2)) == {"RK45"}
    # the choice is recorded with its estimate
    run = integrate_hierarchy(_sym_sweep_model(1.0), field, (-16, 28),
                              IntegratorOptions(n_points=2))
    assert run.diagnostics["stiffness"] == pytest.approx(-400.0, rel=1e-3)
    assert all(seg["nlu"] > 0 for seg in run.diagnostics["segments"])


def test_bdf_point_matches_tight_explicit_reference():
    env = gaussian_envelope(2.0)
    field = fock_input(2, env)
    arch = _sym_sweep_model(0.4)
    got = integrate_hierarchy(arch, field, (-16, 28))
    traces = compiled_reference(arch, field, (-16, 28), got.t)[1]
    ref = dataclasses.replace(got, sector_traces=traces)
    assert got.diagnostics["segments"][0]["method"] == "BDF"
    a, b = (detection_probabilities(r, 0.0, 0.0) for r in (got, ref))
    assert abs(efficiency(a) - efficiency(b)) < 1e-8
    assert abs(jitter(a, env)[0] - jitter(b, env)[0]) < 1e-6


def _scipy_ivp(rhs, y, t0, t1, t_eval, out, **kw):
    """solve_ivp on [t0, t1] with the integrators' contract: the states
    at t_eval into the rows of `out`, the state at t1 returned. The times
    handed to solve_ivp are t_eval with t1 appended unless it ends there,
    as the in-package integrators evaluate them."""
    te = t_eval if t_eval.size and t_eval[-1] == t1 else np.append(t_eval, t1)
    sol = solve_ivp(rhs, (t0, t1), y, t_eval=te, dense_output=True, **kw)
    assert sol.success
    out[:] = sol.y.T[:len(out)]
    return sol


def _scipy_rk45(rhs, y, t0, t1, t_eval, out, rtol, atol, max_step,
                lift=ivp._identity):
    """solve_ivp's RK45 in place of the in-package integrator. Every step
    attempt costs 6 rhs calls after the 2 of the starting step, so the
    rejected steps are the attempts that left no step in the solution.
    solve_ivp measures errors on y itself, so only unreduced runs compare."""
    assert lift is ivp._identity
    sol = _scipy_ivp(rhs, y, t0, t1, t_eval, out, method="RK45", rtol=rtol,
                     atol=atol, max_step=max_step)
    steps = len(sol.sol.interpolants)
    return sol.y[:, -1], dict(nfev=sol.nfev, njev=0, nlu=0,
                              rejected=(sol.nfev - 2) // 6 - steps)


def _scipy_bdf(monkeypatch):
    """solve_ivp's BDF with the sparse Jacobian in place of the in-package
    integrator. Each Newton solve of a step attempt ends in the accepted
    step, a Jacobian refresh (every njev after the first) or a rejection,
    so the rejected steps are the solves counted through scipy's
    solve_bdf_system less those two."""
    solves = []
    newton = scipy_bdf.solve_bdf_system

    def counted(*args):
        solves.append(None)
        return newton(*args)
    monkeypatch.setattr(scipy_bdf, "solve_bdf_system", counted)

    def bdf(rhs, jac, factorize, y, t0, t1, t_eval, out, rtol, atol, max_step,
            lift=ivp._identity):
        assert lift is ivp._identity
        solves.clear()
        sol = _scipy_ivp(rhs, y, t0, t1, t_eval, out, method="BDF", jac=jac,
                         rtol=rtol, atol=atol, max_step=max_step)
        steps = len(sol.sol.interpolants)
        return sol.y[:, -1], dict(nfev=sol.nfev, njev=sol.njev, nlu=sol.nlu,
                                  rejected=len(solves) - steps - (sol.njev - 1))
    return bdf


def test_in_package_rk45_matches_solve_ivp(monkeypatch):
    wide = gaussian_envelope(25.0)
    lo, hi = wide.support
    band = build_band_element(DosModel("lorentzian", width=1.0), 16,
                              np.sqrt(2.0 / 16), 1.0)
    single = build_single_element(0.8, 1.1, Delta=0.4, k=0.3)
    runs = [
        (build_pnr(2, 3).counting(2), fock_input(2, gaussian_envelope(2.0)),
         (-16, 28), IntegratorOptions(), {}),
        (band.counting(1), fock_input(1, wide), (lo, hi + 10.0),
         IntegratorOptions(rtol=1e-6, atol=1e-9), {}),
        (single.liouvillian(), None, (0.0, 2.5),
         IntegratorOptions(max_step=0.1),
         dict(rho0=np.diag([0.2, 0.5, 0.3]))),
    ]
    rejected = 0
    # on the kept systems: a reduced run measures its errors through the
    # basis, which solve_ivp cannot
    monkeypatch.setattr(hierarchy, "_BASIS_MAX", 0)
    for model, field, span, opts, kw in runs:
        got = integrate_hierarchy(model, field, span, opts, **kw)
        with monkeypatch.context() as m:
            m.setattr(hierarchy, "rk45", _scipy_rk45)
            ref = integrate_hierarchy(model, field, span, opts, **kw)
        segs = got.diagnostics["segments"]
        assert {seg["method"] for seg in segs} == {"RK45"}
        assert segs == ref.diagnostics["segments"]
        assert np.abs(got.states - ref.states).max() < 1e-12
        rejected += sum(seg["rejected"] for seg in segs)
    assert rejected > 0


def _bdf_runs():
    """Stiff sym-sweep runs (at most 35 kept components), small enough
    for the dense Newton path."""
    field = fock_input(2, gaussian_envelope(2.0))
    store = IntegratorOptions()
    runs = [(_sym_sweep_model(g), field, (-16, 28), store, {})
            for g in (0.4, 0.7, 1.0)]
    # after a rising-exponential pulse the drive is exactly zero: one
    # uncapped segment of collective decay from one excited element
    model = _sym_sweep_model(1.0)
    runs.append((model, fock_input(2, rising_exponential_envelope(1.0)),
                 (0.5, 12.5), store, dict(rho0=_excited_element(model))))
    # a max_step that binds on both segments
    runs.append((_sym_sweep_model(0.7), field, (-16, 28),
                 IntegratorOptions(max_step=0.05), {}))
    return runs


def _bdf_against_solve_ivp(monkeypatch, runs):
    """Each run and its solve_ivp BDF reference with the same Jacobian."""
    for model, field, span, opts, kw in runs:
        got = integrate_hierarchy(model, field, span, opts, **kw)
        with monkeypatch.context() as m:
            m.setattr(hierarchy, "bdf", _scipy_bdf(m))
            ref = integrate_hierarchy(model, field, span, opts, **kw)
        assert {seg["method"] for seg in got.diagnostics["segments"]} == {"BDF"}
        yield got, ref


def test_in_package_bdf_matches_solve_ivp(monkeypatch):
    # splu factors of the sparse Jacobian: the models of _bdf_runs forced
    # onto that path unreduced, and 112 kept components, above the dense
    # size, where the Krylov basis does not reduce
    above = _sym_sweep_model(1.0, exc_cap=3)
    runs = _bdf_runs() + [(above, fock_input(3, gaussian_envelope(2.0)),
                           (-16, 28), IntegratorOptions(), {})]
    records = []
    with monkeypatch.context() as m:
        m.setattr(hierarchy, "_DENSE_SIZE", 0)
        m.setattr(hierarchy, "_BASIS_MAX", 0)
        pairs = list(_bdf_against_solve_ivp(monkeypatch, runs[:-1]))
    pairs += _bdf_against_solve_ivp(monkeypatch, runs[-1:])
    for got, ref in pairs:
        segs = got.diagnostics["segments"]
        assert segs == ref.diagnostics["segments"]
        assert np.array_equal(got.states, ref.states)
        records.append(segs)
    d = pairs[-1][0].diagnostics
    assert d["size"] == d["basis_size"] == 112 > hierarchy._DENSE_SIZE
    # counts of the sym-sweep points; Newton failures refresh the
    # Jacobian and some steps are rejected
    assert [(s["nfev"], s["njev"], s["nlu"]) for s in records[0]] == [
        (968, 5, 62), (40, 1, 7)]
    assert any(s["rejected"] > 0 for s in records[1])
    assert [s["t_span"] for s in records[3]] == [[0.5, 12.5]]
    assert records[4][0]["nfev"] > records[1][0]["nfev"]

    # the hierarchy is linear, so Newton with a fresh Jacobian converges;
    # the Van der Pol oscillator at mu = 1000 also halves steps on which
    # Newton fails after the refresh
    def vdp(t, y):
        return np.array([y[1], 1e3 * (1 - y[0] ** 2) * y[1] - y[0]])

    def vdp_jac(t, y):
        return sp.csc_matrix(np.array([[0, 1], [-2e3 * y[0] * y[1] - 1,
                                                1e3 * (1 - y[0] ** 2)]]))

    def vdp_splu(J, c):
        return splu(sp.identity(2, format="csc") - c * J).solve
    y0, t_eval = np.array([2, 0], dtype=complex), np.linspace(0, 3000, 7)
    got, ref = (np.empty((7, 2), dtype=complex) for _ in range(2))
    head = (vdp, vdp_jac, vdp_splu, y0, 0.0, 3000.0, t_eval)
    tail = (1e-3, 1e-6, np.inf)
    end, counts = ivp.bdf(*head, got, *tail)
    with monkeypatch.context() as m:
        ref_end, ref_counts = _scipy_bdf(m)(*head, ref, *tail)
    assert counts == ref_counts
    assert np.array_equal(got, ref) and np.array_equal(end, ref_end)


def test_dense_newton_matches_solve_ivp_bdf(monkeypatch):
    # up to _DENSE_SIZE kept components J is a dense array and I - c J is
    # inverted; solve_ivp's BDF takes the same dense J through an LU
    # factorization, so the steps agree and the states to rounding. None
    # of these runs is reduced; the last one has exactly _DENSE_SIZE = 64
    # kept components, where the dense RHS and the inverse are applied in
    # serial row blocks
    edge = build_symmetric_reduced(200, 8, 1.0, 1.0, k_A=1.0, Delta=0.5,
                                   exc_cap=1).counting(2)
    runs = _bdf_runs() + [(edge, fock_input(4, gaussian_envelope(2.0)),
                           (-16, 28), IntegratorOptions(), {})]
    jacs = []
    newton_algebra = hierarchy._newton_algebra

    def spy(*args):
        jac, factorize = newton_algebra(*args)
        jacs.append(jac(0.0, None))
        return jac, factorize
    monkeypatch.setattr(hierarchy, "_newton_algebra", spy)
    for got, ref in _bdf_against_solve_ivp(monkeypatch, runs):
        assert got.diagnostics["basis_size"] == got.diagnostics["size"]
        assert got.diagnostics["size"] <= hierarchy._DENSE_SIZE
        assert isinstance(jacs[-1], np.ndarray)
        assert got.diagnostics["segments"] == ref.diagnostics["segments"]
        scale = np.abs(ref.states).max()
        assert np.abs(got.states - ref.states).max() < 1e-13 * scale
    assert got.diagnostics["size"] == 64 == hierarchy._DENSE_SIZE


def test_undriven_stiff_run_takes_bdf(monkeypatch):
    # one excited element decays collectively (lambda* = -201 on 5 kept
    # components); with no envelope the step scale is the span here
    model = _sym_sweep_model(1.0)
    kw = dict(rho0=_excited_element(model))
    opts = IntegratorOptions()
    got = integrate_hierarchy(model, None, (0.5, 12.5), opts, **kw)
    ref = compiled_reference(model, None, (0.5, 12.5), got.t, **kw)[0]
    d = got.diagnostics
    assert d["size"] == 5 <= hierarchy._DENSE_SIZE
    assert d["stiffness"] == pytest.approx(-201.0, rel=1e-3)
    (seg,) = d["segments"]
    # RK45 took nfev 5,342 with 123 rejected steps here
    assert seg["method"] == "BDF" and seg["nfev"] < 1000
    assert np.abs(got.states - ref).max() < 1e-8
    # the splu path takes the same steps on the constant Jacobian a0
    with monkeypatch.context() as m:
        m.setattr(hierarchy, "_DENSE_SIZE", 0)
        m.setattr(hierarchy, "_BASIS_MAX", 0)
        sparse = integrate_hierarchy(model, None, (0.5, 12.5), opts, **kw)
    assert sparse.diagnostics["segments"] == d["segments"]
    assert np.abs(sparse.states - got.states).max() < 1e-13
    # the vacuum keeps one component with lambda* = 0: nothing to damp
    vac = integrate_hierarchy(model, None, (0.5, 12.5))
    assert vac.diagnostics["size"] == 1 and vac.diagnostics["stiffness"] == 0
    assert {s["method"] for s in vac.diagnostics["segments"]} == {"RK45"}


@pytest.mark.parametrize("case", ["sym-0.0707", "sym-0.1", "sym-0.2",
                                  "sym-0.4", "sym-0.7", "sym-1.0",
                                  "sym-1.0-detuned", "pnr-1-2"])
def test_dense_blocks_match_the_sparse_path(monkeypatch, case):
    # up to _DENSE_SIZE kept components the RHS and the stiffness estimate
    # run on dense blocks. Unreduced, the six benchmark sweep points (35
    # kept components; the last three on BDF), the last one under a
    # detuned pulse (a complex E(t)), and a detuned PNR(1, 2) (24) take the
    # steps the CSR path takes, with states equal to rounding
    if case.startswith("sym"):
        model = _sym_sweep_model(float(case.split("-")[1]))
        field = fock_input(2, gaussian_envelope(
            2.0, detuning=0.2 if case.endswith("detuned") else 0.0))
    else:
        model = build_pnr(1, 2).counting(2)
        field = fock_input(2, gaussian_envelope(2.0, detuning=0.2))
    monkeypatch.setattr(hierarchy, "_BASIS_MAX", 0)
    got = integrate_hierarchy(model, field, (-16, 28))
    with monkeypatch.context() as m:
        m.setattr(hierarchy, "_DENSE_SIZE", 0)
        ref = integrate_hierarchy(model, field, (-16, 28))
    size = got.diagnostics["size"]
    assert size == (35 if case.startswith("sym") else 24) <= hierarchy._DENSE_SIZE
    assert got.diagnostics["basis_size"] == size
    # the dense size is the largest whose n x (n - 1) level-2 calls inside
    # eigvals and inv stay serial
    n = hierarchy._DENSE_SIZE
    assert n * (n - 1) < hierarchy.SERIAL_GEMV <= (n + 1) * n
    assert got.diagnostics["segments"] == ref.diagnostics["segments"]
    scale = np.abs(ref.states).max()
    assert np.abs(got.states - ref.states).max() <= 1e-12 * scale
    # the exact eigenvalue against the Arnoldi estimate
    assert got.diagnostics["stiffness_exact"]
    assert not ref.diagnostics["stiffness_exact"]
    assert got.diagnostics["stiffness"] == pytest.approx(
        ref.diagnostics["stiffness"], rel=1e-5)


def test_arnoldi_estimate_is_the_dense_eigenvalue_on_small_states():
    rng = np.random.default_rng(5)
    for n in (1, 7, 23, 40):
        a = sp.random(n, n, density=0.3, random_state=rng, format="csr")
        a = a + 1j * sp.random(n, n, density=0.3, random_state=rng) - sp.identity(n)
        lam = np.linalg.eigvals(a.toarray())
        dense = lam[np.argmax(np.abs(lam))]
        assert _dominant_eigenvalue(csr.as_csr(a)) == pytest.approx(dense,
                                                                   rel=1e-10)
    # an invariant Krylov space closes the iteration early
    a = csr.as_csr(sp.diags([-3.0, -1.0, -1.0, -1.0] * 20), complex)
    assert _dominant_eigenvalue(a) == pytest.approx(-3.0, rel=1e-12)


def test_arnoldi_estimate_keeps_the_stiffness_decisions():
    # moduli from dense eigenvalues; BDF only on the three stiffest
    # collective points, as with the ARPACK estimate it replaced
    env = gaussian_envelope(2.0)
    wide = gaussian_envelope(25.0)
    cases = [(build_pnr(2, 3).counting(2), fock_input(2, env), 6.0, False),
             (build_pnr(3, 3).counting(3), fock_input(3, env), 9.0, False),
             (build_pnr(4, 2).counting(2), fock_input(2, env), 8.0, False)]
    for n_b, radius in ((16, 7.5645481), (32, 7.8133789)):
        band = build_band_element(DosModel("lorentzian", width=1.0), n_b,
                                  np.sqrt(2.0 / n_b), 1.0)
        cases.append((band.counting(1), fock_input(1, wide), radius, False))
    for g, radius, stiff in ((0.0707, 16.0, False), (0.1, 16.0, False),
                             (0.2, 17.92, False), (0.4, 65.68, True),
                             (0.7, 197.02, True), (1.0, 400.0, True)):
        cases.append((_sym_sweep_model(g), fock_input(2, env), radius, stiff))
    above = 0
    for model, field, radius, stiff in cases:
        a0 = compile_hierarchy(model, field).a0
        lam = _dominant_eigenvalue(a0)
        assert abs(lam) == pytest.approx(radius, rel=1e-6)
        assert _is_stiff(lam, field.envelope.step_bound) == stiff
        assert _dominant_eigenvalue(a0) == lam
        # runs up to _DENSE_SIZE kept components decide on the exact
        # eigenvalue of the dense block; the Arnoldi estimate acts above
        if a0.shape[0] <= hierarchy._DENSE_SIZE:
            exact = _dominant_eigenvalue(a0.toarray())
            assert abs(exact) == pytest.approx(radius, rel=1e-6)
            assert _is_stiff(exact, field.envelope.step_bound) == stiff
        else:
            above += 1
    assert above >= 5


def _reduction_cases():
    """(id, model, field, t_span) for the models of this file: tensor,
    symmetric and monitored, small and above _DENSE_SIZE."""
    env1, env2 = gaussian_envelope(1.0), gaussian_envelope(2.0)
    return [
        ("single", build_single_element(0.8, 1.1, Delta=0.4, k=0.3).counting(1),
         fock_input(2, env1), None),
        ("single-superposition", build_single_element(0.9, 0.8).liouvillian(),
         superposition_input([1.0, 0.8, 0.4j], env1), None),
        ("array", build_array(2, 1.0, 1.0).counting(1),
         fock_input(1, gaussian_envelope(1.5)), None),
        ("array-monitored",
         build_array(2, 0.8, 1.0, Delta=0.3, k=0.4).counting(1),
         fock_input(2, env1), None),
        ("pnr-1-2", build_pnr(1, 2).counting(2),
         fock_input(2, gaussian_envelope(2.0, detuning=0.2)), (-16, 28)),
        ("pnr-2-2", build_pnr(2, 2, k=0.5).counting(2), fock_input(2, env1),
         None),
        ("pnr-2-3", build_pnr(2, 3).counting(2), fock_input(2, env2), (-16, 28)),
        ("pnr-4-2", build_pnr(4, 2, gamma=0.7071067811865476, Gamma=1.0,
                              k_A=1.0).counting(2), fock_input(2, env2), (-16, 28)),
        ("pnr-3-3", build_pnr(3, 3).counting(3), fock_input(3, env2), (-16, 28)),
        ("sym-small", build_symmetric_reduced(6, 2, 0.4, 1.0, k_A=1.0,
                                              exc_cap=2).counting(2),
         fock_input(2, env2), (-16, 28)),
        ("sym-0.1", _sym_sweep_model(0.1), fock_input(2, env2), (-16, 28)),
        ("sym-1.0", _sym_sweep_model(1.0), fock_input(2, env2), (-16, 28)),
        ("sym-edge", build_symmetric_reduced(200, 8, 1.0, 1.0, k_A=1.0, Delta=0.5,
                                             exc_cap=1).counting(2),
         fock_input(4, env2), (-16, 28)),
    ]


@pytest.mark.parametrize("case", [c[0] for c in _reduction_cases()])
def test_krylov_reduction_matches_the_kept_solve(monkeypatch, case):
    # the solve on the Krylov basis against the solve on the kept
    # coordinates at rtol 1e-11: count probabilities, members and the
    # Hermiticity defect within 1e-9. Kept sizes up to _DENSE_SIZE are
    # reduced only with the dense size set to 0 (on both sides, so that
    # the two runs differ only in the basis; the reference keeps CSR
    # blocks). PNR(3, 3) reduces to 81 directions, past _BASIS_MAX, so its
    # cap is raised here to check that reduction on a solve
    _, model, field, span = next(c for c in _reduction_cases() if c[0] == case)
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13, n_points=41)
    if compile_hierarchy(model, field, span).y0.size <= hierarchy._DENSE_SIZE:
        monkeypatch.setattr(hierarchy, "_DENSE_SIZE", 0)
    if case == "pnr-3-3":
        monkeypatch.setattr(hierarchy, "_BASIS_MAX", 128)
    got = integrate_hierarchy(model, field, span, opts)
    monkeypatch.setattr(hierarchy, "_BASIS_MAX", 0)
    ref = integrate_hierarchy(model, field, span, opts)
    d = got.diagnostics
    assert got.basis is not None and ref.basis is None
    assert d["basis_size"] < d["size"] == ref.diagnostics["size"]
    assert got.states.shape == (41, d["basis_size"])
    assert np.abs(got.basis.conj().T @ got.basis
                  - np.eye(d["basis_size"])).max() < 1e-12
    # the basis is invariant under every block to 1e-11 of its norm bound
    # (the directions it drops have residuals below BASIS_TOL = 1e-12)
    ode = compile_hierarchy(model, field, span)
    for m in (ode.a0, ode.am, ode.ap):
        mq = m @ got.basis
        residual = mq - got.basis @ (got.basis.conj().T @ mq)
        assert np.abs(residual).max() < 1e-11 * krylov._norm_bound(m)
    assert np.abs(got.count_probabilities()
                  - ref.count_probabilities()).max() < 1e-9
    assert np.abs(got.kept_states() - ref.states).max() < 1e-9
    a, b = got.state_at(-1), ref.state_at(-1)
    for n in range(got.n_max + 1):
        for m in range(got.n_max + 1):
            assert np.abs(a.member(n, m) - b.member(n, m)).max() < 1e-9
    assert d["hermiticity_defect"] < 1e-9


def test_krylov_reduction_skips_irreducible_and_small_runs():
    # a band element's kept coordinates are all reachable directions, and
    # PNR(3, 3) under three photons needs 81 directions: both bases pass
    # _BASIS_MAX and the runs keep their CSR blocks. Kept sizes up to
    # _DENSE_SIZE are solved on dense blocks as they are
    band = build_band_element(DosModel("lorentzian", width=1.0), 16,
                              np.sqrt(2.0 / 16), 1.0)
    wide = gaussian_envelope(25.0)
    budget = IntegratorOptions().max_store_bytes
    ode = compile_hierarchy(band.counting(1), fock_input(1, wide))
    assert ode.y0.size == 291 and hierarchy._reduction(ode, budget) is None
    ode = compile_hierarchy(build_pnr(3, 3).counting(3),
                            fock_input(3, gaussian_envelope(2.0)))
    assert ode.y0.size == 582 and hierarchy._reduction(ode, budget) is None
    ode = compile_hierarchy(_sym_sweep_model(0.1), fock_input(
        2, gaussian_envelope(2.0)))
    assert ode.y0.size == 35 and hierarchy._reduction(ode, budget) is None


def test_partial_krylov_reduction_stops_at_max_size():
    # with `partial`, a search that reaches max_size returns the projection
    # on the directions it holds: for one matrix the Arnoldi basis and its
    # Hessenberg matrix, which the stiffness estimate reads. Without it the
    # search gives None, as test_krylov_reduction_skips_irreducible_and_
    # small_runs checks on the hierarchies
    rng = np.random.default_rng(11)
    a = csr.as_csr(sp.random(100, 100, density=0.1, random_state=rng)
                   + 1j * sp.random(100, 100, density=0.1, random_state=rng),
                   complex)
    y0 = rng.standard_normal(100) + 0j
    assert krylov.krylov_reduction([a], y0, 40) is None
    q, (h,), z0 = krylov.krylov_reduction([a], y0, 40, partial=True)
    assert q.shape == (100, 40)
    assert np.abs(q.conj().T @ q - np.eye(40)).max() < 1e-12
    assert np.abs(h - q.conj().T @ a.toarray() @ q).max() < 1e-12
    assert np.abs(np.tril(h, -2)).max() < 1e-12
    assert np.abs(q @ z0 - y0).max() < 1e-12
    # a start vector in a 2-dimensional invariant space closes the search
    a = csr.as_csr(sp.diags([-3.0, -1.0, -1.0, -1.0] * 20), complex)
    y0 = np.ones(80, dtype=complex)
    q, (h,), _ = krylov.krylov_reduction([a], y0, 40, partial=True)
    assert q.shape == (80, 2)
    assert np.abs(a @ q - q @ h).max() < 1e-12
    assert np.sort(np.linalg.eigvals(h).real) == pytest.approx([-3.0, -1.0])


def test_krylov_basis_ranks_repeat_across_processes():
    # the expected ranks, and the same bases bit for bit in two fresh
    # processes: breadth-first order keeps rounding from adding directions
    code = (
        "import hashlib; from pnrsim.architectures import build_pnr; "
        "from pnrsim.hierarchy import compile_hierarchy; "
        "from pnrsim.krylov import krylov_reduction; "
        "from pnrsim.pulses import fock_input, gaussian_envelope\n"
        "for n_d, k in ((2, 2), (3, 3), (4, 3)):\n"
        "    ode = compile_hierarchy(build_pnr(n_d, 3).counting(k), "
        "fock_input(k, gaussian_envelope(2.0)))\n"
        "    q = krylov_reduction((ode.a0, ode.am, ode.ap), ode.y0, 128)[0]\n"
        "    print(n_d, q.shape[0], q.shape[1], hashlib.sha256(q.tobytes()).hexdigest())")
    src = str(Path(hierarchy.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    sizes = [tuple(map(int, line.split()[:3])) for line in outs[0].splitlines()]
    assert sizes == [(2, 76, 26), (3, 582, 81), (4, 1454, 81)]


def test_stiffness_decisions_on_reduced_blocks():
    # the models of test_arnoldi_estimate_keeps_the_stiffness_decisions:
    # the exact dominant eigenvalue of the reduced a0 makes the choice of
    # BDF or RK45 that the kept a0 makes. Bases are built for every model
    # that reduces, also those below _DENSE_SIZE or above _BASIS_MAX
    env = gaussian_envelope(2.0)
    cases = [(build_pnr(2, 3).counting(2), fock_input(2, env), False),
             (build_pnr(3, 3).counting(3), fock_input(3, env), False),
             (build_pnr(4, 2).counting(2), fock_input(2, env), False),
             (build_pnr(4, 3).counting(3), fock_input(3, env), False)]
    for g, stiff in ((0.0707, False), (0.1, False), (0.2, False), (0.4, True),
                     (0.7, True), (1.0, True)):
        cases.append((_sym_sweep_model(g), fock_input(2, env), stiff))
    reduced = 0
    for model, field, stiff in cases:
        ode = compile_hierarchy(model, field)
        n = ode.y0.size
        reduction = krylov.krylov_reduction((ode.a0, ode.am, ode.ap), ode.y0,
                                            min(n - 1, 128))
        if reduction is None:
            continue
        reduced += 1
        q, (a0, _, _), _ = reduction
        lam = _dominant_eigenvalue(a0)
        assert _is_stiff(lam, field.envelope.step_bound) == stiff
        assert _is_stiff(_dominant_eigenvalue(ode.a0),
                         field.envelope.step_bound) == stiff
        if q.shape[1] == 81:
            # PNR(3, 3) and PNR(4, 3), whose spectral radius is 9
            assert abs(lam) == pytest.approx(9.0, rel=1e-4)
    assert reduced == 8


def test_reduced_run_measures_errors_on_kept_components(monkeypatch):
    # rtol and atol refer to the kept components: the solve on z scales its
    # error estimates through Q, so at the default tolerances the pnr-tensor
    # model takes the kept solve's steps under the pulse, to 1e-14 (1.3e-9
    # apart, with 18 more RHS calls, when the errors were measured on z)
    model = build_pnr(2, 3).counting(2)
    field = fock_input(2, gaussian_envelope(2.0))
    got = integrate_hierarchy(model, field, (-16, 28))
    monkeypatch.setattr(hierarchy, "_BASIS_MAX", 0)
    ref = integrate_hierarchy(model, field, (-16, 28))
    assert got.diagnostics["basis_size"] == 26 and ref.basis is None
    assert got.diagnostics["segments"][0] == ref.diagnostics["segments"][0]
    driven = got.t <= 16.0
    diff = np.abs(got.count_probabilities() - ref.count_probabilities())
    assert diff[:, driven].max() < 1e-12
    assert diff.max() < 1e-8
