"""Driven-hierarchy integration against closed forms and dense references."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from pnrsim.architectures import (build_array, build_single_element,
                                  build_symmetric_reduced)
from pnrsim.errors import ConfigError, ResourceLimitError
from pnrsim.hierarchy import (IntegratorOptions, compile_hierarchy,
                              integrate_hierarchy, reduced_matter_state)
from pnrsim.liouville import assemble_liouvillian, counting_resolve
from pnrsim.pulses import fock_input, gaussian_envelope, superposition_input
from pnrsim.spaces import build_space, projector, transition
from pnrsim.trajectories import TrajectoryOptions, run_trajectories

from helpers import (dense_count_probabilities, dense_hierarchy, expm_evolve,
                     random_architecture, random_density)


def test_vacuum_input_matches_dense_expm():
    arch = build_single_element(0.8, 1.1, Delta=0.4, k=0.3)
    liou = arch.liouvillian()
    rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
    T = 2.5
    ref = expm_evolve(liou, rho0, T)
    opts = IntegratorOptions(method="dop853", rtol=1e-12, atol=1e-14, store_states=True)
    run = integrate_hierarchy(liou, None, (0.0, T), opts, rho0=rho0)
    got = run.state_at(-1).member(0, 0)
    assert np.abs(got - ref).max() < 1e-10


def test_vacuum_fock_input_equals_no_field():
    # N=0 drive carries no photons: identical to running without a field
    arch = build_single_element(0.7, 0.9)
    liou = arch.liouvillian()
    rho0 = random_density(np.random.default_rng(0), 3)
    env = gaussian_envelope(1.0)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-12, store_states=True)
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
    opts = IntegratorOptions(method="dop853", rtol=1e-11, atol=1e-13)
    run = integrate_hierarchy(el.liouvillian(), fock_input(1, env), (lo, hi), opts,
                              t_eval=tgrid,
                              observables={"pe": projector(el.space, "element", "1")})
    p_sim = np.real(run.observable("pe"))
    assert p_ref.max() > 0.5  # the pulse actually drives the element
    assert np.abs(p_sim - p_ref).max() < 1e-6


def test_member_grid_size_matches_photon_number():
    el = build_single_element(1.0, 1.0)
    env = gaussian_envelope(0.5)
    opts = IntegratorOptions(rtol=1e-6, atol=1e-9, n_points=5, store_states=True)
    run = integrate_hierarchy(el.liouvillian(), fock_input(3, env), None, opts)
    assert run.n_max == 3
    state = run.final_state()
    seen = [(n, m) for n in range(4) for m in range(4)
            if state.member(n, m) is not None]
    assert len(seen) == 16
    with pytest.raises(ConfigError):
        state.member(4, 0)


def test_member_conjugate_symmetry():
    el = build_single_element(0.9, 0.8)
    env = gaussian_envelope(1.0)
    field = superposition_input([1.0, 0.8, 0.4j], env)
    opts = IntegratorOptions(rtol=1e-9, atol=1e-11, n_points=9, store_states=True)
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
    opts = IntegratorOptions(rtol=1e-9, atol=1e-11, n_points=11, store_states=True)
    run = integrate_hierarchy(el.liouvillian(), field, None, opts)
    rho = reduced_matter_state(run.final_state(), field)
    assert abs(np.trace(rho) - 1.0) < 1e-8
    assert np.abs(rho - rho.conj().T).max() < 1e-8
    assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_reduced_state_rejects_larger_field():
    el = build_single_element(0.9, 0.8)
    env = gaussian_envelope(1.0)
    small = fock_input(1, env)
    opts = IntegratorOptions(rtol=1e-8, n_points=5, store_states=True)
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
    full = dense_count_probabilities(counting.engine_view(), field, small.t,
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
        method="dop853", rtol=1e-11, atol=1e-13, n_points=31))
    full = dense_count_probabilities(model.engine_view(), field, run.t,
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
            method="dop853", rtol=1e-11, atol=1e-13, n_points=21))
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
    kick = sp.kron(sp.identity(n_blocks), liou.amps[0].backaction).toarray()
    _assert_keep_is_invariant(ode, (kick,))
    member_11 = (1 * 2 + 1) * 2 * 9          # member (1, 1), sector 0
    assert member_11 + 2 * 3 + 1 in ode.keep


def test_options_must_be_finite():
    # a NaN slips past "<= 0" tests: NaN rtol spins RK45, NaN trace_tol
    # turns the trace check off, NaN dt breaks the step count
    for name in ("rtol", "atol", "dt", "trace_tol"):
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ConfigError, match=name):
                IntegratorOptions(**{name: bad})
    for bad in (np.nan, 0.0):
        with pytest.raises(ConfigError, match="max_step"):
            IntegratorOptions(max_step=bad)
    assert IntegratorOptions(max_step=np.inf).max_step == np.inf
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


def test_trapezoid_matches_adaptive():
    arch = build_single_element(1.0, 1.0)
    counting = arch.counting(1)
    env = gaussian_envelope(2.0)
    field = fock_input(1, env)
    lo, hi = env.support
    span = (lo, hi + 4.0)
    ref = integrate_hierarchy(counting, field, span, IntegratorOptions(
        rtol=1e-10, atol=1e-12, n_points=41))
    trap = integrate_hierarchy(counting, field, span, IntegratorOptions(
        method="trapezoid", dt=2e-3, n_points=41))
    assert np.abs(ref.count_probabilities() - trap.count_probabilities()).max() < 1e-7


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


def test_t_eval_must_lie_inside_span():
    el = build_single_element(1.0, 1.0)
    env = gaussian_envelope(1.0)
    with pytest.raises(ConfigError):
        integrate_hierarchy(el.liouvillian(), fock_input(1, env), (-2.0, 2.0),
                            IntegratorOptions(rtol=1e-6), t_eval=[0.0, 5.0])


def test_store_guard_trips_on_tiny_budget():
    el = build_single_element(1.0, 1.0)
    env = gaussian_envelope(1.0)
    opts = IntegratorOptions(rtol=1e-6, n_points=5001, store_states=True,
                             max_store_bytes=1024)
    with pytest.raises(ResourceLimitError):
        integrate_hierarchy(el.liouvillian(), fock_input(3, env), None, opts)


def test_state_access_requires_storage():
    el = build_single_element(1.0, 1.0)
    env = gaussian_envelope(1.0)
    opts = IntegratorOptions(rtol=1e-6, n_points=11, store_states=False)
    run = integrate_hierarchy(el.liouvillian(), fock_input(1, env), None, opts)
    with pytest.raises(ConfigError):
        run.state_at(-1)


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
    counted = arch.counting(2).engine_view()
    assert counted.n_sectors == 3 and counted.amps == liou.amps
    # resolving counts leaves the base model's own view untouched
    assert liou.engine_view().n_sectors == 1
    sym = build_symmetric_reduced(2, 1, 1.0, 1.0, k_A=1.0)
    assert sym.liouvillian().amps == ()
    assert sym.counting(1).engine_view().amps == ()


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
    ev = sym.engine_view()
    slots = np.arange(ev.vec_dim, dtype=complex)
    one_sided = ev.default_state.copy()
    one_sided[np.flatnonzero(ev.adjoint(slots) != slots)[0]] = 0.1
    with pytest.raises(ConfigError, match="rho0.*Hermitian"):
        integrate_hierarchy(sym, field, rho0=one_sided)
    integrate_hierarchy(sym, field, rho0=ev.default_state)


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
