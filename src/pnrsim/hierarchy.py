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

`integrate_hierarchy` splits the span at the envelope support. Only the
driven segment caps the step, so that a narrow pulse is not stepped
over; the right-hand side is the same on every segment. Non-stiff runs
step with the Dormand-Prince 5(4) pair written here (`_rk45`, step for
step scipy's RK45), so they need neither scipy.integrate nor
scipy.sparse.linalg. Collective coupling makes the generator stiff, so
the adaptive method moves to the variable-order NDF of Shampine &
Reichelt (SIAM J. Sci. Comput. 18, 1 (1997)) written here (`_bdf`, step
for step scipy's BDF) when a one-off Arnoldi estimate of the spectral
radius says so (see `IntegratorOptions`); undriven runs make the same
test against their step cap or span. Its Newton matrix I - c J is
inverted densely by numpy up to _DENSE_NEWTON_SIZE kept components,
where that is faster and loads no scipy solver, and factorized with
scipy.sparse.linalg.splu above (`_newton_algebra`). The run keeps the
state at every output time; a run whose states would exceed
`max_store_bytes` is refused before they are allocated. The diagnostics
record each segment's method and its nfev, njev, nlu and rejected steps,
and the trace and Hermiticity defects of the result.

`compile_hierarchy` is the single step from a model's engine view and an
input field to that ODE (`HierarchyODE`); the integrator here and the
trajectory engine both start from it. Most of the member x sector x component grid
can never become nonzero, so `compile_hierarchy` keeps only the indices
reachable from the nonzeros of the start vector along the union sparsity
pattern of the generator blocks (and of the measurement backaction the
trajectory engine applies). The generator at any time is a combination
of those blocks, so it maps the kept coordinates into themselves and the
dropped ones stay exactly zero: the restriction is exact, not a
truncation with a tolerance.

The reduction is found block by block (`_BlockGraph`), a block being one
(member, sector) pair: the search follows the component-level patterns
of g0 and each backaction within a block, of the jump operator from
sector s to s+1 (and within the last sector), and of the field operators
from member (n-1, m) and (n, m-1) to (n, m), and the restricted blocks
are assembled from slices of those operators. The full grid is never
built: its length `full_size` is only a count, and one flag per grid
index is the only array of that length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericsError, ResourceLimitError
from .liouville import EngineView
from .pulses import FieldInput
from .spaces import Operator

_METHODS = ("adaptive", "dop853")
_ARNOLDI_STEPS = 40     # Krylov dimension of the stiffness estimate
_STIFF_RATIO = 20.0     # |lambda*| * step_bound above which BDF can win
# kept size up to which BDF inverts I - c J densely: on stiff symmetric
# models the inverse beat splu per solve at 35 and 62 kept components,
# was about even at 89 and lost at 112 and 189
_DENSE_NEWTON_SIZE = 64


@dataclass(frozen=True)
class IntegratorOptions:
    """Knobs for the hierarchy integrator.

    method "adaptive" chooses its solver once per run from the eigenvalue
    lambda* of largest modulus of the undriven generator, estimated by an
    Arnoldi iteration: the in-package NDF/BDF of Shampine & Reichelt
    (1997) with the exact Jacobian, as scipy's BDF, when |lambda*| * step
    > 20 and lambda* lies within 45 degrees of the negative real axis
    (stiff, damped spectra such as strong collective coupling), the
    in-package Dormand-Prince pair RK45 otherwise. The step is
    envelope.step_bound on driven runs and min(max_step, t1 - t0) on
    undriven ones (no photons). BDF holds the Jacobian as a dense array
    and inverts I - c J with numpy up to _DENSE_NEWTON_SIZE kept
    components, and as a sparse matrix factorized by splu above. "dop853"
    is scipy's higher-order explicit pair for tight tolerances. Both
    methods split the span at the envelope support and cap the step at
    envelope.step_bound on the driven segment only.

    The run keeps the state at every output time. Before anything of
    that size is allocated, a run whose kept size x output times x 16
    bytes exceeds max_store_bytes is refused with ResourceLimitError.

    rtol, atol, max_step and trace_tol are real numbers, n_points and
    max_store_bytes integers (never bools).
    """

    method: str = "adaptive"
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = np.inf
    n_points: int = 201
    max_store_bytes: int = 512 * 2 ** 20
    trace_tol: float = 1e-6

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {_METHODS}")
        for names, kind, what in (
                (("rtol", "atol", "max_step", "trace_tol"), Real,
                 "a real number"),
                (("n_points", "max_store_bytes"), Integral, "an integer")):
            for name in names:
                v = getattr(self, name)
                if isinstance(v, bool) or not isinstance(v, kind):
                    raise ConfigError(f"{name} must be {what}, got {v!r}")
        for name in ("rtol", "atol", "trace_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and positive, got {v}")
        if not self.max_step > 0:
            raise ConfigError(f"max_step must be positive, got {self.max_step}")
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")


class _BlockGraph:
    """The hierarchy's operators on the full (member, sector, component)
    layout, held block by block. Block b = (n (n_max+1) + m) S + s is
    member (n, m) in sector s, and full index b * vec_dim + c is its
    component c.

    Each part (label, op, target, weight) maps component c of block b to
    the rows of op's column c in block target[b] (no block where -1),
    scaled by weight[b]; parts with the same label sum to one operator.
    `graph` stacks the parts' sparsity patterns into one CSC matrix whose
    data are positions in each op's own `data`, so the entries of any set
    of full-layout columns come out of one gather, whatever blocks they
    lie in, and no operator on the full layout is built."""

    def __init__(self, parts, vec_dim):
        self.vd = vec_dim
        self.labels, self.ops, target, weight = zip(*parts)
        self.target, self.weight = np.array(target), np.array(weight)
        where = [sp.csr_matrix((np.arange(op.nnz, dtype=np.int32), op.indices,
                                op.indptr), shape=op.shape) for op in self.ops]
        self.graph = sp.vstack(where, format="csr").tocsc()

    def _entries(self, cols):
        """Every stored entry of the parts in the full-layout columns
        `cols`: its position in cols, part, source block, full-layout row
        (-1 where the part has no target block) and position in the
        part's op.data."""
        blk, comp = np.divmod(cols, self.vd)
        lo = self.graph.indptr[comp]
        count = self.graph.indptr[comp + 1] - lo
        src = np.repeat(np.arange(cols.size), count)
        at = np.arange(src.size) + np.repeat(lo - np.cumsum(count) + count, count)
        part, row = np.divmod(self.graph.indices[at], self.vd)
        blk = blk[src]
        to = self.target[part, blk]
        return (src, part, blk, np.where(to >= 0, to * self.vd + row, -1),
                self.graph.data[at])

    def reach(self, seeds, full_size):
        """Sorted full-layout indices reachable from `seeds` along every
        part: the smallest coordinate subspace that holds the seeds and
        that each part maps into itself. Every block's frontier advances
        in the same step; `seen` is one flag per full-layout index."""
        seen = np.zeros(full_size, dtype=bool)
        seen[seeds] = True
        found = front = seeds
        while front.size:
            row = self._entries(front)[3]
            row = row[row >= 0]
            front = np.unique(row[~seen[row]])
            seen[front] = True
            found = np.concatenate([found, front])
        return np.sort(found)

    def restrict(self, keep):
        """label -> the labelled operator restricted to the rows and
        columns `keep`, a set the parts map into itself (CSR, sorted)."""
        src, part, blk, row, at = self._entries(keep)
        part = np.where(row >= 0, part, -1)
        row = np.searchsorted(keep, row)
        out = {}
        for p, label in enumerate(self.labels):
            i = np.flatnonzero(part == p)
            m = sp.csr_matrix((self.weight[p, blk[i]] * self.ops[p].data[at[i]],
                               (row[i], src[i])), shape=(keep.size, keep.size))
            out[label] = out[label] + m if label in out else m
        return out


def _block_parts(ev, n_max):
    """Parts of a0, am, ap and of each monitored channel's backaction (the
    kick of the trajectory engine, labelled by its index among the
    monitored channels) for `_BlockGraph`. Counted jumps move sector s to
    s+1 and the last sector keeps "S-1 or more", so its diagonal block is
    g0 + jump; the field moves member (n-1, m) to (n, m) with weight
    sqrt(n) through field_ket and (n, m-1) to (n, m) with weight sqrt(m)
    through field_bra."""
    np1, S = n_max + 1, ev.n_sectors
    n, m, s = np.unravel_index(np.arange(np1 * np1 * S), (np1, np1, S))
    b = np.arange(n.size)
    one = np.ones(b.size)
    parts = [("a0", ev.g0, b, one)]
    if S > 1:
        if ev.jump is None:
            raise ConfigError("n_sectors > 1 but the engine has no jump part")
        parts.append(("a0", ev.jump, np.where(s < S - 1, b + 1, b), one))
    if n_max > 0:
        parts += [("am", ev.field_ket, np.where(n < n_max, b + np1 * S, -1),
                   np.sqrt(n + 1.0)),
                  ("ap", ev.field_bra, np.where(m < n_max, b + S, -1),
                   np.sqrt(m + 1.0))]
    monitored = [a for a in ev.amps if a.k > 0]
    parts += [(i, a.backaction, b, one) for i, a in enumerate(monitored)]
    return parts


def union_pattern(mats, fmt="csr"):
    """One sparse matrix of format `fmt` (sorted indices) on the union
    sparsity pattern of `mats`, and each matrix's values on that pattern
    (0 where it has no entry). A combination of the matrices is then a
    few vector operations written into the pattern's `data`, with no
    sparse-object construction."""
    pattern = sum(abs(m) for m in mats).asformat(fmt)    # abs: nothing cancels
    pattern.sort_indices()
    pattern.data = pattern.data.astype(complex)
    at = pattern.tocoo()
    return pattern, [np.asarray(m.tocsr()[at.row, at.col]).ravel() for m in mats]


class HierarchyState:
    """Snapshot of all members at one time."""

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
    states: np.ndarray                 # (nt, len(keep))
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
    sorted indices into the full (member, sector, component) layout, and
    every other full-layout entry stays zero. `full_size` is only the
    length of that layout; no operator on that layout is built.
    `kicks` holds, on the same subspace, the backaction X y + y X^dag of
    each monitored channel (k > 0) in every (member, sector) block, in
    the order of `engine.amps`; the reachable subspace is closed under
    these as well."""

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
    kicks: tuple = ()

    @property
    def full_size(self):
        return (self.n_max + 1) ** 2 * self.engine.n_sectors * self.engine.vec_dim


def _start_view(ev, rho0):
    """`ev` with the start state `rho0` (`ev` itself when rho0 is None): a
    density matrix of shape `ev.dense_shape` or a vector of length
    `ev.vec_dim`. It must be finite with unit trace, Hermitian (every
    encoding, through the adjoint) and have no negative populations, both
    within 1e-9: on tensor encodings its smallest eigenvalue, on the
    symmetric encoding the weight of each diagonal-type class (the classes
    the trace row reads)."""
    if rho0 is None:
        return ev
    y = np.array(rho0, dtype=complex)
    shapes = [s for s in (ev.dense_shape, (ev.vec_dim,)) if s is not None]
    if y.shape not in shapes:
        raise ConfigError(f"rho0 has shape {y.shape}, expected "
                          f"{' or '.join(map(str, shapes))}")
    y = y.reshape(-1)
    if not np.all(np.isfinite(y)):
        raise ConfigError("rho0 has non-finite entries")
    trace = complex(ev.trace_row @ y)
    if abs(trace - 1.0) > 1e-9:
        raise ConfigError(f"rho0 must have unit trace, got {trace:.6g}")
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
    else:
        # the adjoint maps each diagonal-type class to itself, so the
        # Hermiticity check above already made these weights real
        low = float(y[ev.trace_row != 0].real.min())
        if low < -1e-9:
            raise ConfigError(f"rho0 class populations must be nonnegative; "
                              f"the smallest is {low:.6g}")
    return replace(ev, default_state=y)


def compile_hierarchy(model, field, t_span=None, *, rho0=None):
    """The hierarchy ODE of `model` (an EngineView, such as a counted view
    from `counting_resolve`, or a model with `engine_view()`) driven by
    `field` (None: undriven) over `t_span` (default: the envelope support),
    restricted to the subspace reachable from its start. Every diagonal
    member starts in sector 0 from the view's default matter state, or
    from rho0: a density matrix of the view's `dense_shape`, or a vector
    of length `vec_dim` (see _start_view for the checks)."""
    if isinstance(model, EngineView):
        ev = model
    elif hasattr(model, "engine_view"):
        ev = model.engine_view()
    else:
        raise ConfigError(f"cannot integrate object of type {type(model).__name__}")
    ev = _start_view(ev, rho0)
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

    np1, S, vd = n_max + 1, ev.n_sectors, ev.vec_dim
    graph = _BlockGraph(_block_parts(ev, n_max), vd)
    # every diagonal member (n, n) starts from the matter state in sector 0
    nz = np.flatnonzero(ev.default_state)
    starts = (np.arange(np1) * (np1 + 1) * S * vd)[:, None] + nz
    keep = graph.reach(starts.ravel(), np1 * np1 * S * vd)
    ops = graph.restrict(keep)
    y0 = np.zeros(keep.size, dtype=complex)
    y0[np.searchsorted(keep, starts)] = ev.default_state[nz]
    return HierarchyODE(engine=ev, field=field, envelope=env, t0=t0, t1=t1,
                        n_max=n_max, a0=ops["a0"], am=ops.get("am"),
                        ap=ops.get("ap"), y0=y0, keep=keep,
                        kicks=tuple(ops[k] for k in ops if not isinstance(k, str)))


def integrate_hierarchy(liou, field, t_span=None, opts=None, *, rho0=None,
                        t_eval=None, observables=None):
    """Integrate the driven member grid of `liou` under the input `field`.

    liou: an EngineView (a counted view from `counting_resolve` or
        `ArchitectureSpec.counting` resolves jump counts) or a model with
        `engine_view()` (the tensor Liouvillian or the symmetric
        reduction), as for `compile_hierarchy`.
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

    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or np.any(np.diff(t_eval) < 0):
            raise ConfigError("t_eval must be a sorted 1d array")
        if t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12:
            raise ConfigError("t_eval must lie inside t_span")
    nt = opts.n_points if t_eval is None else len(t_eval)
    # the states at every output time are the run's largest allocation
    need = total * nt * 16
    if need > opts.max_store_bytes:
        raise ResourceLimitError(
            f"storing {nt} states of size {total} needs {need / 2**20:.1f} MiB, "
            f"over max_store_bytes={opts.max_store_bytes}; raise "
            f"max_store_bytes or request fewer points")
    if t_eval is None:
        t_eval = np.linspace(t0, t1, nt)

    if am is not None:
        # one product gives a0 y, am y and ap y, stacked
        blocks = sp.vstack([a0, am, ap], format="csr")

        def rhs(t, y):
            e = env(t)
            if e == 0:
                return a0 @ y
            u = blocks @ y
            return u[:total] + e * u[total:2 * total] + np.conj(e) * u[2 * total:]
    else:
        def rhs(t, y):
            return a0 @ y

    stiffness = jac = factorize = None
    method = "DOP853" if opts.method == "dop853" else "RK45"
    if opts.method == "adaptive":
        # the step an explicit pair wants: the pulse's on a driven run, the
        # cap or the whole span on an undriven one
        step = env.step_bound if am is not None else min(opts.max_step, t1 - t0)
        stiffness = _dominant_eigenvalue(a0)
        if _is_stiff(stiffness, step):
            method = "BDF"
            jac, factorize = _newton_algebra(a0, am, ap, env)
    ys, segments = _solve_segments(rhs, jac, factorize, ode.y0, t0, t1, t_eval,
                                   env if am is not None else None, method, opts)
    nfev = sum(seg["nfev"] for seg in segments)

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
        observables=obs_tables, states=ys, keep=ode.keep,
        diagnostics={}, dense_shape=ev.dense_shape,
    )

    probs = result.count_probabilities()
    trace_defect = float(np.abs(probs.sum(axis=0) - 1.0).max())
    result.diagnostics.update(trace_defect=trace_defect, nfev=nfev,
                              method=opts.method, size=total,
                              full_size=ode.full_size, segments=segments,
                              stiffness=stiffness)
    if trace_defect > opts.trace_tol:
        raise NumericsError(
            f"physical trace drifted by {trace_defect:.2e} "
            f"(tolerance {opts.trace_tol:.1e}) with "
            f"{'/'.join(seg['method'] for seg in segments)}; tighten rtol/atol")
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


def _dominant_eigenvalue(a):
    """Eigenvalue of largest modulus of the sparse matrix `a`: the Ritz
    value of largest modulus after m = min(n, _ARNOLDI_STEPS) Arnoldi
    steps from a fixed start vector (so repeated runs agree), each new
    direction orthogonalised twice against the basis. If the Krylov space
    closes early it is invariant and its Ritz values are eigenvalues; with
    n <= m the basis spans the whole space and the estimate is the dense
    one."""
    n = a.shape[0]
    m = min(n, _ARNOLDI_STEPS)
    v = np.random.default_rng(0).standard_normal(n).astype(complex)
    basis = np.zeros((m, n), dtype=complex)
    hess = np.zeros((m + 1, m), dtype=complex)
    basis[0] = v / np.linalg.norm(v)
    for j in range(m):
        w = a @ basis[j]
        size = np.linalg.norm(w)
        for _ in range(2):
            c = (basis[:j + 1] @ w.conj()).conj()
            w = w - c @ basis[:j + 1]
            hess[:j + 1, j] += c
        hess[j + 1, j] = h = np.linalg.norm(w)
        if j + 1 == m or h <= 1e-12 * size:
            break
        basis[j + 1] = w / h
    lam = np.linalg.eigvals(hess[:j + 1, :j + 1])
    return complex(lam[np.argmax(np.abs(lam))])


def _newton_algebra(a0, am, ap, env):
    """The Jacobian J(t) = a0 + E(t) am + E*(t) ap of the hierarchy (a0
    alone when am is None) and `factorize(J, c)`, the solve of I - c J,
    for `_bdf`. Up to _DENSE_NEWTON_SIZE kept components J is a dense
    array and the factorization its inverse, applied by one product per
    Newton iteration: numpy alone, with no sparse object made per call
    and no scipy solver loaded. Above it, J is CSC on the union pattern of
    the blocks and factorized by splu, whose fill stays far below the n^2
    of an inverse."""
    mats = [m for m in (a0, am, ap) if m is not None]
    n = a0.shape[0]
    if n <= _DENSE_NEWTON_SIZE:
        blocks, make = [m.toarray() for m in mats], np.asarray
        eye = np.eye(n)

        def factorize(J, c):
            return np.linalg.inv(eye - c * J).dot
    else:
        from scipy.sparse.linalg import splu
        gen, blocks = union_pattern(mats, fmt="csc")
        eye = sp.identity(n, dtype=complex, format="csc")

        def make(data):
            return sp.csc_matrix((data, gen.indices, gen.indptr), shape=gen.shape)

        def factorize(J, c):
            return splu(eye - c * J).solve
    if am is None:
        J = make(blocks[0])
        return (lambda t, y: J), factorize
    g0, gm, gp = blocks

    def jac(t, y):
        e = env(t)
        return make(g0 + e * gm + np.conj(e) * gp)
    return jac, factorize


def _is_stiff(lam, step):
    """Whether BDF beats RK45: the stability limit of an explicit step,
    about 1/|lam|, is far below `step` (the step that resolves the pulse,
    or the cap or span of an undriven run), and lam lies within 45 degrees
    of the negative real axis. Oscillatory (band-like) spectra stay
    explicit: there BDF's step is held down by accuracy, not stability,
    and each step costs a factorization."""
    return abs(lam) * step > _STIFF_RATIO and -lam.real >= abs(lam.imag)


def _solve_segments(rhs, jac, factorize, y0, t0, t1, t_eval, env, method,
                    opts):
    """Integrate on [t0, t1] split at the support of `env` (None: one
    segment): "RK45" with the in-package `_rk45`, "BDF" with the in-package
    NDF `_bdf` on the Jacobian `jac` and the factorization `factorize` of
    `_newton_algebra` (a dense inverse up to _DENSE_NEWTON_SIZE kept
    components, splu factors above), and "DOP853" with scipy's solve_ivp.
    The right-hand side is the same on every segment; only the driven one
    caps the step at `env.step_bound`, so that the pulse is not stepped
    over. Returns the states at t_eval and one record per segment:
    method, nfev, njev, nlu and the rejected steps (None for DOP853, whose
    solve_ivp does not report them)."""
    cuts, lo, hi = [t0, t1], np.inf, -np.inf
    if env is not None:
        lo, hi = env.support
        cuts = [t0] + [c for c in (lo, hi) if t0 < c < t1] + [t1]
    # each requested time is read from the first segment that reaches it
    owner = np.minimum(np.searchsorted(cuts[1:], t_eval), len(cuts) - 2)
    ys = np.empty((len(t_eval), y0.size), dtype=complex)
    segments = []
    y = y0
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        sel = np.flatnonzero(owner == i)
        # the segment end is always evaluated: it starts the next segment
        te, back = np.unique(np.append(np.clip(t_eval[sel], a, b), b),
                             return_inverse=True)
        max_step = opts.max_step
        if a < hi and b > lo:
            max_step = min(max_step, env.step_bound)
        if method == "RK45":
            out, counts = _rk45(rhs, y, a, b, te, opts.rtol, opts.atol, max_step)
        elif method == "BDF":
            out, counts = _bdf(rhs, jac, factorize, y, a, b, te, opts.rtol,
                               opts.atol, max_step)
        else:
            from scipy.integrate import solve_ivp
            sol = solve_ivp(rhs, (a, b), y, method=method, t_eval=te,
                            rtol=opts.rtol, atol=opts.atol, max_step=max_step)
            if not sol.success:
                raise NumericsError(f"{method} integration on [{a:.6g}, "
                                    f"{b:.6g}] failed: {sol.message}")
            out, counts = sol.y, dict(nfev=sol.nfev, njev=sol.njev,
                                      nlu=sol.nlu, rejected=None)
        ys[sel] = out.T[back[:-1]]
        y = out[:, -1]
        segments.append(dict(t_span=[a, b], method=method, **counts))
    return ys, segments


# Dormand-Prince 5(4): nodes, stage weights, 5th-order weights, the error
# row (5th minus embedded 4th order, on the 7 stages including the FSAL
# one) and the quartic dense-output matrix (Dormand & Prince, J. Comput.
# Appl. Math. 6, 19 (1980); Shampine, Math. Comp. 46, 135 (1986)).
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t, y, f, t1, max_step, order, rtol, atol):
    """Starting step of Hairer, Norsett & Wanner (Solving ODEs I, II.4) for
    a method whose error estimate is of order `order`, as solve_ivp's
    select_initial_step: an Euler probe at h0 (one rhs call) sizes the
    second derivative, and the step is capped at 100 h0, the span and
    max_step."""
    span = t1 - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, span, max_step)


def _too_small(method, t0, t1, t):
    return NumericsError(f"{method} integration on [{t0:.6g}, {t1:.6g}] "
                         f"failed: the step fell below 10 ulp of t = {t:.6g}")


def _rk45(rhs, y, t0, t1, t_eval, rtol, atol, max_step):
    """Dormand-Prince 5(4) on [t0, t1] from y, with solve_ivp's RK45
    step by step, so that states and nfev are the same: the starting step
    of `_initial_step`, local extrapolation, the RMS norm of the error
    scaled by atol + rtol max(|y|, |y_new|), step factors 0.9 err^(-1/5)
    clipped to [0.2, 10] with no growth right after a rejection, and the
    quartic dense output onto `t_eval` (sorted, inside the span). Returns
    the states at t_eval, shape (n, len(t_eval)), and the counts nfev,
    njev, nlu (both 0) and rejected (steps that failed the error test); a
    step below 10 ulp of t is a NumericsError."""
    rtol = max(rtol, 100 * np.finfo(float).eps)
    t, f = t0, rhs(t0, y)
    h_abs = _initial_step(rhs, t, y, f, t1, max_step, 4, rtol, atol)
    nfev, n_rejected, done, out = 2, 0, 0, []
    K = np.empty((7, y.size), dtype=complex)
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _too_small("RK45", t0, t1, t)
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = rhs(t + _DP_C[s] * h,
                           y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[6] = f_new = rhs(t + h, y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
            n_rejected += 1
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        stop = np.searchsorted(t_eval, t, side="right")
        if stop > done:
            x = (t_eval[done:stop] - t_old) / (t - t_old)
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            out.append((t - t_old) * np.dot(K.T.dot(_DP_P), p) + y_old[:, None])
            done = stop
    return np.hstack(out), dict(nfev=nfev, njev=0, nlu=0, rejected=n_rejected)


# The NDF family of Shampine & Reichelt (SIAM J. Sci. Comput. 18, 1 (1997)),
# orders 1-5, with the kappa constants of their Table 1 (order 5 is plain
# BDF): gamma_k = sum 1/j, alpha_k = (1 - kappa_k) gamma_k, and the error
# constants kappa_k gamma_k + 1/(k+1) of the difference-form estimate.
_NDF_KAPPA = np.array([0, -0.1850, -1/9, -0.0823, -0.0415, 0])
_NDF_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, 6))))
_NDF_ALPHA = (1 - _NDF_KAPPA) * _NDF_GAMMA
_NDF_ERROR = _NDF_KAPPA * _NDF_GAMMA + 1 / np.arange(1, 7)
_NEWTON_MAXITER = 4


def _change_D(D, order, factor):
    """Rescale the backward differences D[:order+1] in place from step h
    to factor h (Shampine & Reichelt, section 2.3)."""
    def r(f):
        i = np.arange(1, order + 1)[:, None]
        m = np.zeros((order + 1, order + 1))
        m[1:, 1:] = (i - 1 - f * np.arange(1, order + 1)) / i
        m[0] = 1
        return np.cumprod(m, axis=0)
    D[:order + 1] = np.dot(r(factor).dot(r(1)).T, D[:order + 1])


def _newton(rhs, t, y_predict, c, psi, solve, scale, tol):
    """Simplified Newton iteration for y = y_predict + d with
    (I - c J) dy = c f(t, y) - psi - d, at most _NEWTON_MAXITER times,
    stopped when the contraction rate predicts a miss of `tol`. Returns
    whether it converged, the number of rhs calls, y and d."""
    d, y, dy_norm_old = 0, y_predict.copy(), None
    for k in range(_NEWTON_MAXITER):
        f = rhs(t, y)
        if not np.all(np.isfinite(f)):
            break
        dy = solve(c * f - psi - d)
        dy_norm = _rms(dy / scale)
        rate = None if dy_norm_old is None else dy_norm / dy_norm_old
        if rate is not None and (rate >= 1 or rate ** (_NEWTON_MAXITER - k)
                                 / (1 - rate) * dy_norm > tol):
            break
        y += dy
        d += dy
        if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < tol:
            return True, k + 1, y, d
        dy_norm_old = dy_norm
    return False, k + 1, y, d


def _bdf(rhs, jac, factorize, y, t0, t1, t_eval, rtol, atol, max_step):
    """Variable-order NDF on [t0, t1] from y, with solve_ivp's BDF step by
    step, so that states, nfev, njev and nlu are the same: orders 1-5 in
    backward-difference form D, the starting step of `_initial_step` for
    error order 1, D rescaled on every step change (`_change_D`), at most
    4 Newton iterations on `factorize(J, c)`, the solve of I - c J with
    J = `jac(t, y)` (for the hierarchy a dense inverse or splu factors,
    see `_newton_algebra`), J refreshed once per step when Newton fails
    before the step is halved, the error test with safety
    0.9 (2 N + 1) / (2 N + n_iter), factors in [0.2, 10] and an order
    change after order + 1 equal steps, and dense output onto `t_eval`
    from the D, order and step after that update. Returns the states at
    t_eval, shape (n, len(t_eval)), and the counts nfev, njev, nlu and
    rejected (steps that failed the error test or were halved after Newton
    failed); a step below 10 ulp of t is a NumericsError."""
    eps = np.finfo(float).eps
    rtol = max(rtol, 100 * eps)
    newton_tol = max(10 * eps / rtol, min(0.03, rtol ** 0.5))
    t, f = t0, rhs(t0, y)
    h_abs = _initial_step(rhs, t, y, f, t1, max_step, 1, rtol, atol)
    J = jac(t, y)
    D = np.empty((8, y.size), dtype=complex)
    D[0], D[1] = y, f * h_abs
    order, n_equal, solve = 1, 0, None
    nfev, njev, nlu, n_rejected, done, out = 2, 1, 0, 0, 0, []
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step or h_abs < min_step:
            bound = max_step if h_abs > max_step else min_step
            _change_D(D, order, bound / h_abs)
            h_abs, n_equal = bound, 0
        fresh_jac = False
        while True:
            if h_abs < min_step:
                raise _too_small("BDF", t0, t1, t)
            t_new = t + h_abs
            if t_new > t1:
                t_new = t1
                _change_D(D, order, np.abs(t_new - t) / h_abs)
                n_equal, solve = 0, None
            h = t_new - t
            h_abs = np.abs(h)
            y_predict = np.sum(D[:order + 1], axis=0)
            scale = atol + rtol * np.abs(y_predict)
            alpha = _NDF_ALPHA[order]
            psi = np.dot(D[1:order + 1].T, _NDF_GAMMA[1:order + 1]) / alpha
            c = h / alpha
            while True:
                if solve is None:
                    solve = factorize(J, c)
                    nlu += 1
                converged, n_iter, y_new, d = _newton(
                    rhs, t_new, y_predict, c, psi, solve, scale, newton_tol)
                nfev += n_iter
                if converged or fresh_jac:
                    break
                J, solve, fresh_jac = jac(t_new, y_predict), None, True
                njev += 1
            if converged:
                safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER
                                                           + n_iter)
                scale = atol + rtol * np.abs(y_new)
                error_norm = _rms(_NDF_ERROR[order] * d / scale)
                if not error_norm > 1:      # NaN passes, as in solve_ivp
                    break
                factor = max(0.2, safety * error_norm ** (-1 / (order + 1)))
            else:
                factor = 0.5
                solve = None
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal = 0
            n_rejected += 1
        n_equal += 1
        t = t_new
        # D becomes the differences of the new step: d is its (order+1)-th
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]
        if n_equal >= order + 1:
            # order and step from the error estimates at order - 1, order
            # and order + 1
            down = up = np.inf
            if order > 1:
                down = _rms(_NDF_ERROR[order - 1] * D[order] / scale)
            if order < 5:
                up = _rms(_NDF_ERROR[order + 1] * D[order + 2] / scale)
            norms = np.array([down, error_norm, up])
            with np.errstate(divide="ignore"):
                factors = norms ** (-1 / np.arange(order, order + 3))
            order += int(np.argmax(factors)) - 1
            factor = min(10, safety * np.max(factors))
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal, solve = 0, None
        stop = np.searchsorted(t_eval, t, side="right")
        if stop > done:
            k = np.arange(order)
            x = ((t_eval[done:stop] - (t - h_abs * k)[:, None])
                 / (h_abs * (1 + k))[:, None])
            out.append(np.dot(D[1:order + 1].T, np.cumprod(x, axis=0))
                       + D[0, :, None])
            done = stop
    return np.hstack(out), dict(nfev=nfev, njev=njev, nlu=nlu,
                                rejected=n_rejected)
