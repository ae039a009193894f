"""Propagation of matter dynamics driven by few-photon wavepackets.

The driven state is represented by a grid of coupled members indexed by
(n, m), n and m running 0..n_max over the photon content of the input.
Member (n, m) obeys the undriven generator plus drive terms that pull in
members (n-1, m) and (n, m-1) with weights sqrt(n) E(t) and
sqrt(m) E*(t). Every diagonal member starts from the same initial matter
state; the physical state is recovered by summing members with the input
field's coefficient table.

When jumps of selected channels are counted, each member additionally
splits into sectors 0..max_count; counted jumps feed sector s into s+1
and the last sector collects "max_count or more". The whole grid is one
sparse linear ODE, integrated jointly.

`compile_hierarchy` is the single step from a model and an input field
to that ODE (`HierarchyODE`); the integrator here and the trajectory
engine both start from it. Most of the member x sector x component grid
can never become nonzero, so `compile_hierarchy` keeps only the indices
reachable from the nonzeros of the start vector along the union sparsity
pattern of the generator blocks (and of the measurement backaction the
trajectory engine applies). The generator at any time is a combination
of those blocks, so it maps the kept coordinates into themselves and the
dropped ones stay exactly zero: the restriction is exact, not a
truncation with a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .errors import ConfigError, NumericsError, ResourceLimitError
from .liouville import EngineView
from .pulses import FieldInput
from .spaces import Operator

_METHODS = ("adaptive", "dop853", "trapezoid")


@dataclass(frozen=True)
class IntegratorOptions:
    """Knobs for the hierarchy integrator.

    method "adaptive" is an embedded Runge-Kutta pair; "dop853" is the
    higher-order variant for tight tolerances; "trapezoid" is an
    unconditionally stable fixed-step fallback for stiff generators
    (strong amplification), using `dt` as the step.
    """

    method: str = "adaptive"
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = np.inf
    dt: float = 1e-3
    n_points: int = 201
    store_states: bool = None
    max_store_bytes: int = 512 * 2 ** 20
    trace_tol: float = 1e-6

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {_METHODS}")
        for name in ("rtol", "atol", "dt", "trace_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and positive, got {v}")
        if not self.max_step > 0:
            raise ConfigError(f"max_step must be positive, got {self.max_step}")
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")


def _member_wiring(n_max, which):
    """Sparse coupling matrix between members of the (n, m) grid.

    which = "ket": (n, m) <- (n-1, m) with weight sqrt(n).
    which = "bra": (n, m) <- (n, m-1) with weight sqrt(m).
    """
    np1 = n_max + 1
    rows, cols, vals = [], [], []
    for n in range(np1):
        for m in range(np1):
            g = n * np1 + m
            if which == "ket" and n >= 1:
                rows.append(g)
                cols.append((n - 1) * np1 + m)
                vals.append(np.sqrt(n))
            if which == "bra" and m >= 1:
                rows.append(g)
                cols.append(n * np1 + (m - 1))
                vals.append(np.sqrt(m))
    return sp.csr_matrix((vals, (rows, cols)), shape=(np1 * np1, np1 * np1))


def _sector_feed(n_sectors):
    """Counted jumps move sector s -> s+1; the last sector self-feeds so
    block-column sums reproduce the unresolved generator exactly."""
    rows = list(range(1, n_sectors)) + [n_sectors - 1]
    cols = list(range(0, n_sectors - 1)) + [n_sectors - 1]
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(n_sectors, n_sectors))


class HierarchyState:
    """Snapshot of all members at one time, when states were stored."""

    def __init__(self, result, t_index):
        self._r = result
        self.t_index = int(t_index)
        self.t = float(result.t[t_index])
        self.n_max = result.n_max

    def member(self, n, m, sector=None):
        """Dense matrix of member (n, m), summed over sectors by default."""
        return self._r._member(self.t_index, n, m, sector)


@dataclass
class HierarchyResult:
    t: np.ndarray
    n_max: int
    n_sectors: int
    vec_dim: int
    field: FieldInput
    sector_traces: np.ndarray          # (n_max+1, n_max+1, n_sectors, nt)
    observables: dict
    states: np.ndarray                 # (nt, len(keep)) or None
    keep: np.ndarray                   # kept indices into the full grid
    diagnostics: dict
    dense_shape: tuple = None

    def count_probabilities(self):
        """Physical probability of each count sector over time, (S, nt)."""
        c = self.field.coefficients if self.field is not None else None
        if c is None:
            # undriven run: single member (0, 0)
            out = self.sector_traces[0, 0]
        else:
            out = np.einsum("nm,nmst->st", c, self.sector_traces)
        return np.real(out)

    def observable(self, name):
        """Physical expectation of a requested observable over time."""
        if name not in self.observables:
            raise ConfigError(f"observable {name!r} was not requested; "
                              f"have {sorted(self.observables)}")
        table = self.observables[name]
        if self.field is None:
            return table[0, 0].sum(axis=0)
        return np.einsum("nm,nmst->t", self.field.coefficients, table)

    def state_at(self, t_index=-1):
        if self.states is None:
            raise ConfigError("states were not stored; pass store_states=True")
        if t_index < 0:
            t_index += len(self.t)
        return HierarchyState(self, t_index)

    def _component(self, t_index, n, m, sector):
        """One (member, sector) component, scattered from the kept indices."""
        g = n * (self.n_max + 1) + m
        lo = (g * self.n_sectors + sector) * self.vec_dim
        i, j = np.searchsorted(self.keep, (lo, lo + self.vec_dim))
        out = np.zeros(self.vec_dim, dtype=complex)
        out[self.keep[i:j] - lo] = self.states[t_index, i:j]
        return out

    def _member_vec(self, t_index, n, m, sector=None):
        if self.states is None:
            raise ConfigError("states were not stored; pass store_states=True")
        if not (0 <= n <= self.n_max and 0 <= m <= self.n_max):
            raise ConfigError(f"member ({n}, {m}) outside grid 0..{self.n_max}")
        if sector is None:
            secs = range(self.n_sectors)
        else:
            secs = [int(sector)]
        y = np.zeros(self.vec_dim, dtype=complex)
        for s in secs:
            y += self._component(t_index, n, m, s)
        return y

    def _member(self, t_index, n, m, sector=None):
        y = self._member_vec(t_index, n, m, sector)
        if self.dense_shape is None:
            return y
        return y.reshape(self.dense_shape)

    def final_state(self):
        return self.state_at(-1)


def reduced_matter_state(state, field):
    """Physical matter density matrix at a snapshot: the coefficient-weighted
    sum of members. Hermiticity is restored by explicit symmetrization and
    the defect reported in the matrix is bounded by integration error."""
    c = field.coefficients
    if c.shape[0] - 1 > state.n_max:
        raise ConfigError(
            f"field holds up to {c.shape[0] - 1} photons but the run "
            f"integrated members only up to {state.n_max}")
    rho = None
    for n in range(c.shape[0]):
        for m in range(c.shape[1]):
            w = c[n, m]
            if w == 0:
                continue
            block = state.member(n, m)
            rho = w * block if rho is None else rho + w * block
    if rho.ndim != 2:
        raise ConfigError("reduced state needs a dense tensor encoding")
    return 0.5 * (rho + rho.conj().T)


@dataclass(frozen=True)
class HierarchyODE:
    """dy/dt = (a0 + E(t) am + E*(t) ap) y on [t0, t1], y(t0) = y0, where E
    is the envelope (None when undriven) and am, ap are None when n_max is
    0. `engine` is the model's EngineView the blocks were built from.

    The blocks and y0 live on the reachable subspace: `keep` holds its
    sorted indices into the full (member, sector, component) layout of
    length `full_size`, and every other full-layout entry stays zero."""

    engine: EngineView
    field: FieldInput
    envelope: object
    t0: float
    t1: float
    n_max: int
    a0: sp.csr_matrix
    am: object
    ap: object
    y0: np.ndarray
    keep: np.ndarray

    @property
    def full_size(self):
        return (self.n_max + 1) ** 2 * self.engine.n_sectors * self.engine.vec_dim


def _reachable(y0, blocks):
    """Sorted indices reachable from the nonzeros of y0 along the union
    sparsity pattern of `blocks`: the smallest coordinate subspace that
    holds y0 and that every linear combination of the blocks maps into
    itself."""
    n = y0.size
    seeds = np.flatnonzero(y0)
    coos = [b.tocoo() for b in blocks]
    # edge j -> i wherever a block has an (i, j) entry; the extra node n
    # feeds every seed, so one search covers them all
    src = np.concatenate([c.col for c in coos] + [np.full(seeds.size, n)])
    dst = np.concatenate([c.row for c in coos] + [seeds])
    graph = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n + 1, n + 1))
    order = breadth_first_order(graph, n, return_predecessors=False)
    return np.sort(order[1:])


def _check_density(ev):
    """A given start state must be Hermitian (every encoding, through its
    adjoint) and, on tensor encodings, positive semidefinite, both within
    1e-9. Positivity of the symmetric encoding's class vector is not
    checked."""
    y = ev.default_state
    if ev.adjoint is not None:
        defect = float(np.abs(ev.adjoint(y) - y).max())
        if defect > 1e-9:
            raise ConfigError(f"rho0 must be Hermitian; rho0 - rho0^dag "
                              f"has an entry of size {defect:.3g}")
    if ev.dense_shape is not None:
        rho = y.reshape(ev.dense_shape)
        low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
        if low < -1e-9:
            raise ConfigError(f"rho0 must be positive semidefinite; its "
                              f"smallest eigenvalue is {low:.6g}")


def compile_hierarchy(model, field, t_span=None, *, rho0=None):
    """The hierarchy ODE of `model` (anything with `engine_view(rho0)`)
    driven by `field` (None: undriven) over `t_span` (default: the envelope
    support), restricted to the subspace reachable from its start. Every
    diagonal member starts from the engine's default matter state, or
    rho0, in sector 0, which must be finite with unit trace; a given rho0
    must also be a density matrix (see _check_density)."""
    if not hasattr(model, "engine_view"):
        raise ConfigError(f"cannot integrate object of type {type(model).__name__}")
    ev = model.engine_view(rho0)
    if not np.all(np.isfinite(ev.default_state)):
        raise ConfigError("rho0 has non-finite entries")
    trace = complex(ev.trace_row @ ev.default_state)
    if abs(trace - 1.0) > 1e-9:
        raise ConfigError(f"rho0 must have unit trace, got {trace:.6g}")
    if rho0 is not None:
        _check_density(ev)
    env = field.envelope if field is not None else None
    n_max = field.n_max if field is not None else 0
    if n_max > 0 and ev.field_ket is None:
        raise ConfigError("the generator has no field coupling operator "
                          "but the input carries photons")
    if t_span is None:
        if env is None:
            raise ConfigError("t_span is required when there is no envelope")
        t_span = env.support
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ConfigError(f"empty time span ({t0}, {t1})")

    np1 = n_max + 1
    n_members = np1 * np1
    S = ev.n_sectors
    vd = ev.vec_dim
    if S > 1:
        if ev.jump is None:
            raise ConfigError("n_sectors > 1 but the engine has no jump part")
        sector_block = sp.kron(sp.identity(S), ev.g0) + sp.kron(_sector_feed(S), ev.jump)
    else:
        sector_block = ev.g0
    a0 = sp.kron(sp.identity(n_members), sector_block, format="csr")
    am = ap = None
    if n_max > 0:
        eye_s = sp.identity(S)
        am = sp.kron(_member_wiring(n_max, "ket"), sp.kron(eye_s, ev.field_ket),
                     format="csr")
        ap = sp.kron(_member_wiring(n_max, "bra"), sp.kron(eye_s, ev.field_bra),
                     format="csr")
    y0 = np.zeros(n_members * S * vd, dtype=complex)
    for n in range(np1):
        lo = (n * np1 + n) * S * vd
        y0[lo:lo + vd] = ev.default_state

    blocks = [b for b in (a0, am, ap) if b is not None]
    # the trajectory engine kicks the state with each monitored backaction
    blocks += [sp.kron(sp.identity(n_members * S), a.backaction)
               for a in ev.amps if a.k > 0]
    keep = _reachable(y0, blocks)

    def restrict(m):
        return None if m is None else m[keep][:, keep]

    return HierarchyODE(engine=ev, field=field, envelope=env, t0=t0, t1=t1,
                        n_max=n_max, a0=restrict(a0), am=restrict(am),
                        ap=restrict(ap), y0=y0[keep], keep=keep)


def integrate_hierarchy(liou, field, t_span=None, opts=None, *, rho0=None,
                        t_eval=None, observables=None):
    """Integrate the driven member grid of `liou` under the input `field`.

    liou: assembled Liouvillian, its counting resolution, or a
        symmetry-reduced variant.
    field: FieldInput (None integrates the undriven generator only).
    t_span: (t0, t1); defaults to the envelope support.
    observables: mapping name -> Operator (tensor encodings) or a raw
        row vector of length vec_dim.
    """
    opts = opts or IntegratorOptions()
    ode = compile_hierarchy(liou, field, t_span, rho0=rho0)
    ev, a0, am, ap, env = ode.engine, ode.a0, ode.am, ode.ap, ode.envelope
    t0, t1, np1 = ode.t0, ode.t1, ode.n_max + 1
    S, vd, total = ev.n_sectors, ev.vec_dim, ode.y0.size

    if t_eval is None:
        t_eval = np.linspace(t0, t1, opts.n_points)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or np.any(np.diff(t_eval) < 0):
            raise ConfigError("t_eval must be a sorted 1d array")
        if t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12:
            raise ConfigError("t_eval must lie inside t_span")
    nt = len(t_eval)

    store = opts.store_states
    need = total * nt * 16
    if store is None:
        store = need <= opts.max_store_bytes
    elif store and need > opts.max_store_bytes:
        raise ResourceLimitError(
            f"storing {nt} states of size {total} needs {need / 2**20:.0f} MiB, "
            f"over the {opts.max_store_bytes / 2**20:.0f} MiB guard; raise "
            f"max_store_bytes or request fewer points")

    if am is not None:
        def rhs(t, y):
            out = a0 @ y
            e = env(t)
            if e != 0:
                out = out + e * (am @ y)
                out = out + np.conj(e) * (ap @ y)
            return out
    else:
        def rhs(t, y):
            return a0 @ y

    if opts.method in ("adaptive", "dop853"):
        from scipy.integrate import solve_ivp
        method = "RK45" if opts.method == "adaptive" else "DOP853"
        max_step = opts.max_step
        if env is not None:
            # an adaptive step wider than the pulse can step over it unseen
            max_step = min(max_step, env.step_bound)
        sol = solve_ivp(rhs, (t0, t1), ode.y0, method=method, t_eval=t_eval,
                        rtol=opts.rtol, atol=opts.atol, max_step=max_step)
        if not sol.success:
            raise NumericsError(f"integration failed: {sol.message}")
        ys = sol.y.T
        nfev = int(sol.nfev)
    else:
        ys, nfev = _trapezoid(a0, am, ap, env, ode.y0, t0, t1, t_eval, opts.dt)

    # per (member, sector) readout of a component row: kept index i lies in
    # block blk[i] at position pos[i]
    blk, pos = np.divmod(ode.keep, vd)

    def readout(row):
        r = sp.csr_matrix((row[pos], (blk, np.arange(total))),
                          shape=(np1 * np1 * S, total))
        return (r @ ys.T).reshape(np1, np1, S, nt)

    obs_tables = {}
    for name, ob in (observables or {}).items():
        if isinstance(ob, Operator):
            row = np.asarray(ob.matrix.T.toarray(), dtype=complex).reshape(-1)
        else:
            row = np.asarray(ob, dtype=complex).reshape(-1)
            if row.size != vd:
                raise ConfigError(
                    f"observable {name!r} row has length {row.size}, expected {vd}")
        obs_tables[name] = readout(row)

    result = HierarchyResult(
        t=t_eval, n_max=ode.n_max, n_sectors=S, vec_dim=vd,
        field=field, sector_traces=readout(ev.trace_row),
        observables=obs_tables, states=ys if store else None, keep=ode.keep,
        diagnostics={}, dense_shape=ev.dense_shape,
    )

    probs = result.count_probabilities()
    trace_defect = float(np.abs(probs.sum(axis=0) - 1.0).max())
    result.diagnostics.update(trace_defect=trace_defect, nfev=nfev,
                              method=opts.method, size=total,
                              full_size=ode.full_size)
    if trace_defect > opts.trace_tol:
        raise NumericsError(
            f"physical trace drifted by {trace_defect:.2e} "
            f"(tolerance {opts.trace_tol:.1e}); tighten rtol/atol or use "
            f"the trapezoid method with a smaller dt")
    if store and ev.adjoint is not None:
        result.diagnostics["hermiticity_defect"] = _hermiticity_defect(result, ev)
    return result


def _hermiticity_defect(result, ev):
    """max |member(n, m) - member(m, n)^dag| at the final stored time."""
    worst = 0.0
    last = len(result.t) - 1
    for n in range(result.n_max + 1):
        for m in range(result.n_max + 1):
            a = result._member_vec(last, n, m)
            b = ev.adjoint(result._member_vec(last, m, n))
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


def _trapezoid(a0, am, ap, env, y0, t0, t1, t_eval, dt):
    """Fixed-step trapezoid rule with the drive frozen at midpoints.

    Solves (I - dt/2 A(tm)) y' = (I + dt/2 A(tm)) y each step; stable for
    stiff generators at the cost of one sparse factorization per step
    (one total when there is no drive).
    """
    n_steps = max(int(np.ceil((t1 - t0) / dt)), 1)
    h = (t1 - t0) / n_steps
    total = y0.size
    eye = sp.identity(total, dtype=complex, format="csc")

    lu = None
    if am is None:
        lu = spla.splu((eye - 0.5 * h * a0).tocsc())
        rhs_mat = (eye + 0.5 * h * a0).tocsr()

    out = np.empty((len(t_eval), total), dtype=complex)
    grid = t0 + h * np.arange(n_steps + 1)
    # linear interpolation of the stepped solution onto the requested times
    idx = np.clip(np.searchsorted(grid, t_eval, side="right") - 1, 0, n_steps - 1)
    w = (t_eval - grid[idx]) / h

    y = y0.astype(complex)
    nfev = 0
    for step in range(n_steps):
        tm = grid[step] + 0.5 * h
        if am is None:
            ynew = lu.solve(rhs_mat @ y)
        else:
            e = env(tm)
            a_mid = a0 + e * am + np.conj(e) * ap
            lu_step = spla.splu((eye - 0.5 * h * a_mid).tocsc())
            ynew = lu_step.solve(y + 0.5 * h * (a_mid @ y))
            nfev += 1
        sel = np.where(idx == step)[0]
        for j in sel:
            out[j] = (1.0 - w[j]) * y + w[j] * ynew
        y = ynew
    exact_end = np.where(np.isclose(t_eval, grid[-1]))[0]
    for j in exact_end:
        out[j] = y
    return out, nfev
