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
sparse linear ODE, integrated jointly. Its blocks are the package's own
CSR matrices (`csr.CSR`), so compiling and stepping it loads no scipy
module.

`integrate_hierarchy` splits the span at the envelope support. Only the
driven segment caps the step, so that a narrow pulse is not stepped
over; the right-hand side is the same on every segment. Non-stiff runs
step with the in-package Dormand-Prince 5(4) pair (`ivp.rk45`, step for
step scipy's RK45). Collective coupling makes the generator stiff, so
the run moves to the in-package variable-order NDF of Shampine &
Reichelt (SIAM J. Sci. Comput. 18, 1 (1997)) (`ivp.bdf`, step
for step scipy's BDF) when a one-off estimate of the spectral radius
says so (see `IntegratorOptions`); undriven runs make the same test
against their step cap or span.

Above _DENSE_SIZE kept components the run is solved on the exact Krylov
reduction of the kept system (`krylov.krylov_reduction`) when one of at
most _BASIS_MAX directions exists: z' = Q^dag (a0 + E am + E* ap) Q z on
dense blocks, with states stored as z, read through R Q and lifted with
Q (`HierarchyResult.kept_states`), and errors measured on Q z. The
PNR(2, 3) hierarchy under two photons keeps 76 components and moves in
26 dimensions. Dense blocks, at most _DENSE_SIZE components kept or
solved, take the exact spectral radius and a dense Newton inverse; CSR
blocks (larger runs that do not reduce) take an Arnoldi estimate and
splu (`_newton_algebra`), the one place a run imports scipy.sparse.
Dense products run in row blocks that stay on the calling thread. A run
whose states would exceed `max_store_bytes` is refused before they or
the Krylov search are allocated, and so is a compile whose entry arrays
would. The diagnostics record the kept and solved sizes, the stiffness
estimate, each segment's method, nfev, njev, nlu and rejected steps, and
the trace and Hermiticity defects.

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
(member, sector) pair, and term by term, a term (A, B) of the engine
view being rho -> A rho B on the block's component grid: the search
follows the entries A[k, i] B[j, l] of the terms of g0 and of each kick
within a block, of the jump terms from sector s to s+1 (and within the
last sector), and of the field terms from member (n-1, m) and (n, m-1) to
(n, m), and the restricted blocks are summed from those entries. Neither
the full grid nor any superoperator is built: `full_size` is only a
count, the search holds the sorted kept indices, and traces and
observables are read at those only (`EngineView.row`). A compile whose
largest block entry times the span overflows when squared is refused
with a ConfigError: no step size could resolve such rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .csr import CSR, runs, union_pattern, unique, vstack
from .errors import ConfigError, NumericsError, ResourceLimitError
from .ivp import _identity, bdf, rk45
from .krylov import (SERIAL_GEMV, krylov_reduction, serial_matmul,
                     serial_matvec)
from .liouville import EngineView
from .pulses import FieldInput

_ARNOLDI_STEPS = 40     # Krylov dimension of the stiffness estimate
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0   # step of the Arnoldi start vector
_STIFF_RATIO = 20.0     # |lambda*| * step_bound above which BDF can win
# size up to which the blocks are dense arrays with the exact stiffness
# estimate and a dense Newton inverse: the largest n whose n x (n - 1)
# level-2 calls inside np.linalg.eigvals and inv stay below SERIAL_GEMV
# entries, 64 (eigvals took 2.9 ms at 64 and 385 ms at 81 with threads,
# 7.6 ms at 81 on one thread). On stiff symmetric models the dense inverse
# also beat splu per solve at 35 and 62 kept components and was about even
# at 89
_DENSE_SIZE = math.isqrt(SERIAL_GEMV)
# largest Krylov basis solved on, so that every reduced run takes the
# dense blocks above. No benchmark workload reduces to more than 26
# directions; larger bases (81 for PNR(3, 3) and PNR(4, 3) under three
# photons) wait for a workload that can show their gain
_BASIS_MAX = _DENSE_SIZE
# bytes per generator entry of a compile: the five int64 indices that
# _BlockGraph._entries returns and the complex value `restrict` forms
_ENTRY_BYTES = 5 * 8 + 16


@dataclass(frozen=True)
class IntegratorOptions:
    """Knobs for the hierarchy integrator.

    The integrator chooses its solver once per run from the eigenvalue
    lambda* of largest modulus of the undriven generator: the in-package
    NDF/BDF of Shampine & Reichelt (1997) with the exact Jacobian, as
    scipy's BDF, when |lambda*| * step > 20 and lambda* lies within 45
    degrees of the negative real axis (stiff, damped spectra such as
    strong collective coupling), the in-package Dormand-Prince pair RK45
    otherwise. The step is envelope.step_bound on driven runs and
    min(max_step, t1 - t0) on undriven ones (no photons). Runs above
    _DENSE_SIZE kept components are solved on their exact Krylov basis
    where one of at most _BASIS_MAX directions exists. Up to _DENSE_SIZE
    kept or solved components the blocks are dense arrays, lambda* is the
    exact eigenvalue and BDF inverts I - c J with numpy; a larger run
    that does not reduce keeps CSR blocks, lambda* is an Arnoldi estimate
    and BDF factorizes I - c J with splu. Both solvers split the span at
    the envelope support and cap the step at envelope.step_bound on the
    driven segment only; rtol and atol apply to the kept components, on a
    reduced run too.

    The run keeps the state at every output time. Before anything of
    that size is allocated, a run whose kept size x output times x 16
    bytes exceeds max_store_bytes is refused with ResourceLimitError, and
    the Krylov search is held to the directions whose arrays fit in
    max_store_bytes. The compile is refused in the same way when the
    entry arrays of its reachable search (_ENTRY_BYTES per generator
    entry) would exceed max_store_bytes.

    rtol, atol, max_step and trace_tol are real numbers, n_points and
    max_store_bytes integers (never bools).
    """

    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = np.inf
    n_points: int = 201
    max_store_bytes: int = 512 * 2 ** 20
    trace_tol: float = 1e-6

    def __post_init__(self):
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
    layout, held block by block and term by term. Block b =
    (n (n_max+1) + m) S + s is member (n, m) in sector s, and full index
    b * vec_dim + i * d_bra + j is entry (i, j) of its component grid.

    Each part (label, terms, target, weight) maps block b into block
    target[b] (no block where -1), scaled by weight[b], through the sum of
    its terms (A, B): component (i, j) feeds (k, l) with A[k, i] B[j, l].
    Parts with the same label sum to one operator. The terms' A are
    stacked into one matrix (rows term * d_ket + k) held by columns, as
    the CSR of its transpose, and their B into one CSR matrix (rows
    term * d_bra + j), so the entries of any set of
    full-layout columns come out of two gathers, whatever blocks and terms
    they lie in; no operator on the full layout is built, and no
    d**2 x d**2 superoperator either."""

    def __init__(self, parts, vec_dim, max_bytes):
        self.vd, self.max_bytes = vec_dim, max_bytes
        self.labels, terms, target, weight = zip(*parts)
        self.target, self.weight = np.array(target), np.array(weight)
        self.part = np.array([p for p, ts in enumerate(terms) for _ in ts])
        flat = [t for ts in terms for t in ts]
        self.db = flat[0][1].shape[0]
        self.dk = vec_dim // self.db
        self.a = vstack([a for a, _ in flat]).transpose().eliminate_zeros()
        self.b = vstack([b for _, b in flat]).eliminate_zeros()
        # a bound on the entries of one column: the longest row of `a`
        # (every term's A[:, i]) times the longest row of `b`. Entries are
        # counted exactly only where this bound could exceed max_bytes
        self.column_max = (int(np.diff(self.a.indptr).max(initial=0))
                           * int(np.diff(self.b.indptr).max(initial=0)))

    def _entries(self, cols):
        """Every entry of the terms in the full-layout columns `cols`: its
        position in cols, term, full-layout row (-1 where the term's part
        has no target block) and the positions of its factors A[k, i] and
        B[j, l] in the stacked `a.data` and `b.data`."""
        blk, comp = np.divmod(cols, self.vd)
        i, j = np.divmod(comp, self.db)
        if cols.size * self.column_max * _ENTRY_BYTES > self.max_bytes:
            self._check_size(i, j)
        src, at_a = runs(self.a.indptr, i)
        term, k = np.divmod(self.a.indices[at_a], self.dk)
        own, at_b = runs(self.b.indptr, term * self.db + j[src])
        src, term, k, at_a = src[own], term[own], k[own], at_a[own]
        to = self.target[self.part[term], blk[src]]
        row = np.where(to >= 0, (to * self.dk + k) * self.db + self.b.indices[at_b],
                       -1)
        return src, term, row, at_a, at_b

    def _check_size(self, i, j):
        """Refuse the columns (i, j) with ResourceLimitError when their
        entries' arrays would exceed max_bytes. The count is exact, from
        the stored entries of A per (i, term) and of B per (term, j)."""
        a_count = CSR.from_triplets(
            np.ones(self.a.nnz, dtype=np.int64), self.a.rows(),
            self.a.indices // self.dk, (self.dk, self.part.size))
        own, at = runs(a_count.indptr, i)
        n = int((a_count.data[at] * np.diff(self.b.indptr)[
            a_count.indices[at] * self.db + j[own]]).sum())
        if n * _ENTRY_BYTES > self.max_bytes:
            raise ResourceLimitError(
                f"compiling the hierarchy takes {n} generator entries at once "
                f"({n * _ENTRY_BYTES / 2**20:.1f} MiB of entry arrays), over "
                f"max_store_bytes={self.max_bytes}; raise max_store_bytes or "
                f"build a smaller model")

    def reach(self, seeds):
        """Sorted full-layout indices reachable from the sorted `seeds`
        along every term: the smallest coordinate subspace that holds the
        seeds and that each part maps into itself. Every block's frontier
        advances in the same step."""
        found = front = seeds
        while front.size:
            row = self._entries(front)[2]
            row = unique(row[row >= 0])
            # the rows not in `found` yet (sorted, so one searchsorted)
            front = row[found.take(np.searchsorted(found, row), mode="clip") != row]
            found = unique(np.concatenate((found, front)))
        return found

    def restrict(self, keep):
        """label -> the labelled operator restricted to the rows and
        columns `keep`, a set the parts map into itself (CSR, sorted, no
        stored zeros). As in the superoperator sum over terms of
        A kron B^T, each part sums its terms in order before its weight is
        applied; a label then sums its parts in order."""
        n = keep.size
        entries = self._entries(keep)
        src, term, row, at_a, at_b = (x[entries[2] >= 0] for x in entries)
        row = np.searchsorted(keep, row)
        val = self.a.data[at_a] * self.b.data[at_b]
        out = {}
        for p, label in enumerate(self.labels):
            m = CSR.zeros((n, n), complex)
            for t in np.flatnonzero(self.part == p):
                i = term == t
                m = m + CSR.from_triplets(val[i], row[i], src[i], (n, n))
            m.data *= self.weight[p, keep[m.indices] // self.vd]
            out[label] = out[label] + m if label in out else m
        return out


def _block_parts(ev, n_max):
    """Parts of a0, am, ap and of each monitored channel's kick (labelled
    by its index among the monitored channels) for `_BlockGraph`. Counted
    jumps move sector s to s+1 and the last sector keeps "S-1 or more", so
    its diagonal block is g0 + jump; the field moves member (n-1, m) to
    (n, m) with weight sqrt(n) through field_ket and (n, m-1) to (n, m)
    with weight sqrt(m) through field_bra."""
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
    parts += [(i, kick, b, one) for i, kick in enumerate(ev.kicks)]
    return parts


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
    states: np.ndarray                 # (nt, len(keep)), or (nt, r) with basis
    keep: np.ndarray                   # kept indices into the full grid
    diagnostics: dict
    dense_shape: tuple = None
    basis: np.ndarray = None           # (len(keep), r) when the run was reduced

    def kept_states(self, t_index=slice(None)):
        """The stored states at t_index (an index or a slice) on the kept
        indices: states[t_index] itself, or lifted by the basis for a
        reduced run."""
        z = self.states[t_index]
        if self.basis is None:
            return z
        return serial_matmul(self.basis, z.T).T

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
        nt = len(self.t)
        if not -nt <= t_index < nt:
            raise ConfigError(f"t_index {t_index} outside {-nt}..{nt - 1}")
        return HierarchyState(self, t_index % nt)

    def _component(self, t_index, n, m, sector):
        """One (member, sector) component, scattered from the kept indices."""
        g = n * (self.n_max + 1) + m
        lo = (g * self.n_sectors + sector) * self.vec_dim
        i, j = np.searchsorted(self.keep, (lo, lo + self.vec_dim))
        out = np.zeros(self.vec_dim, dtype=complex)
        if self.basis is None:
            out[self.keep[i:j] - lo] = self.states[t_index, i:j]
        else:
            out[self.keep[i:j] - lo] = serial_matmul(self.basis[i:j],
                                                      self.states[t_index])
        return out

    def _member(self, t_index, n, m, sector=None):
        """Member (n, m), summed over sectors by default: a matrix of
        `dense_shape`, or the component vector where that is None."""
        if not (0 <= n <= self.n_max and 0 <= m <= self.n_max):
            raise ConfigError(f"member ({n}, {m}) outside grid 0..{self.n_max}")
        if sector is None:
            secs = range(self.n_sectors)
        elif 0 <= sector < self.n_sectors:
            secs = [int(sector)]
        else:
            raise ConfigError(f"sector {sector} outside 0..{self.n_sectors - 1}")
        y = np.zeros(self.vec_dim, dtype=complex)
        for s in secs:
            y += self._component(t_index, n, m, s)
        return y if self.dense_shape is None else y.reshape(self.dense_shape)

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
    `kicks` holds, on the same subspace, the kick X y + y X^dag of each
    monitored channel (the terms `engine.kicks`) in every (member, sector)
    block; the reachable subspace is closed under these as well."""

    engine: EngineView
    field: FieldInput
    envelope: object
    t0: float
    t1: float
    n_max: int
    a0: CSR
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
    `ev.vec_dim`. It must be finite with unit trace, Hermitian and have no
    negative populations, both within 1e-9: on tensor encodings it is
    checked as the matrix, by its smallest eigenvalue; on the symmetric
    encoding through `adjoint_perm`, by the weight of each diagonal-type
    class (the classes the trace row reads)."""
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
    nz = np.flatnonzero(y)
    trace = complex(ev.row(ev.trace, nz) @ y[nz])
    if abs(trace - 1.0) > 1e-9:
        raise ConfigError(f"rho0 must have unit trace, got {trace:.6g}")
    if ev.dense_shape is None:
        # the adjoint maps each diagonal-type class to itself, so past the
        # Hermiticity check these weights are real
        rho, adjoint, low = y, np.conj(y[ev.adjoint_perm]), y[ev.trace != 0].real.min()
        need = "class populations must be nonnegative; the smallest is"
    else:
        rho = y.reshape(ev.dense_shape)
        adjoint = rho.conj().T
        low = np.linalg.eigvalsh(0.5 * (rho + adjoint))[0]
        need = "must be positive semidefinite; its smallest eigenvalue is"
    defect = float(np.abs(adjoint - rho).max())
    if defect > 1e-9:
        raise ConfigError(f"rho0 must be Hermitian; rho0 - rho0^dag "
                          f"has an entry of size {defect:.3g}")
    if low < -1e-9:
        raise ConfigError(f"rho0 {need} {float(low):.6g}")
    return replace(ev, start=(nz, y[nz]))


def compile_hierarchy(model, field, t_span=None, opts=None, *, rho0=None):
    """The hierarchy ODE of `model` (an EngineView, such as a counted view
    from `counting_resolve`, or a model with `engine_view()`) driven by
    `field` (None: undriven) over `t_span` (default: the envelope support),
    restricted to the subspace reachable from its start. Every diagonal
    member starts in sector 0 from the view's default matter state, or
    from rho0: a density matrix of the view's `dense_shape`, or a vector
    of length `vec_dim` (see _start_view for the checks). A compile whose
    entry arrays would exceed `opts.max_store_bytes` (IntegratorOptions,
    the default when opts is None) is refused with ResourceLimitError
    before they are allocated."""
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
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ConfigError(f"t_span must be finite, got ({t0}, {t1})")
    if not t1 > t0:
        raise ConfigError(f"empty time span ({t0}, {t1})")

    np1, S, vd = n_max + 1, ev.n_sectors, ev.vec_dim
    graph = _BlockGraph(_block_parts(ev, n_max), vd,
                        (opts or IntegratorOptions()).max_store_bytes)
    # every diagonal member (n, n) starts from the matter state in sector 0
    nz, values = ev.start
    starts = (np.arange(np1) * (np1 + 1) * S * vd)[:, None] + nz
    keep = graph.reach(starts.ravel())
    ops = graph.restrict(keep)
    # a solver needs (entry x span)**2 finite: past that no step size can
    # help, and the run would end in a misleading numerical failure
    top = float(max(np.abs(m.data).max(initial=0.0) for m in ops.values()))
    scale = top * (t1 - t0)
    if not math.isfinite(scale * scale):
        raise ConfigError(
            f"the generator's largest entry, {top:.3g}, times the time span "
            f"{t1 - t0:.6g} overflows when squared: the architecture's rates "
            f"are too large; rescale the time unit")
    y0 = np.zeros(keep.size, dtype=complex)
    y0[np.searchsorted(keep, starts)] = values
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
    ode = compile_hierarchy(liou, field, t_span, opts, rho0=rho0)
    ev, a0, am, ap, env = ode.engine, ode.a0, ode.am, ode.ap, ode.envelope
    t0, t1, np1 = ode.t0, ode.t1, ode.n_max + 1
    S, vd, total = ev.n_sectors, ev.vec_dim, ode.y0.size

    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or t_eval.size == 0:
            raise ConfigError("t_eval must be a non-empty 1d array")
        if not np.all(np.isfinite(t_eval)):
            raise ConfigError("t_eval must hold finite times")
        if np.any(np.diff(t_eval) < 0):
            raise ConfigError("t_eval must be sorted")
        if t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12:
            raise ConfigError("t_eval must lie inside t_span")
    nt = opts.n_points if t_eval is None else len(t_eval)
    # the states at every output time are the run's largest allocation;
    # refused on the kept size, before the Krylov search
    need = total * nt * 16
    if need > opts.max_store_bytes:
        raise ResourceLimitError(
            f"storing {nt} states of size {total} needs {need / 2**20:.1f} MiB, "
            f"over max_store_bytes={opts.max_store_bytes}; raise "
            f"max_store_bytes or request fewer points")

    reduction = _reduction(ode, opts.max_store_bytes)
    basis, y0, lift = None, ode.y0, _identity
    if reduction is not None:
        basis, (a0, am, ap), y0 = reduction
        lift = serial_matvec(basis)
    elif total <= _DENSE_SIZE:
        a0, am, ap = (m if m is None else m.toarray() for m in (a0, am, ap))
    if t_eval is None:
        t_eval = np.linspace(t0, t1, nt)

    rhs = _rhs(a0, am, ap, env)
    jac = factorize = None
    method = "RK45"
    # the step an explicit pair wants: the pulse's on a driven run, the cap
    # or the whole span on an undriven one
    step = env.step_bound if am is not None else min(opts.max_step, t1 - t0)
    stiffness = _dominant_eigenvalue(a0)
    if _is_stiff(stiffness, step):
        method = "BDF"
        jac, factorize = _newton_algebra(a0, am, ap, env)
    ys, segments = _solve_segments(rhs, jac, factorize, y0, t0, t1, t_eval,
                                   env if am is not None else None, method, opts,
                                   lift)
    nfev = sum(seg["nfev"] for seg in segments)

    # per (member, sector) readout of a component row, given by its values
    # at the kept indices: kept index i lies in block blk[i] at position
    # pos[i]; a reduced run reads z through R Q
    blk, pos = np.divmod(ode.keep, vd)

    def readout(vals):
        r = CSR.from_triplets(vals, blk, np.arange(total), (np1 * np1 * S, total))
        if basis is None:
            return (r @ ys.T).reshape(np1, np1, S, nt)
        return serial_matmul(ys, (r @ basis).T).T.reshape(np1, np1, S, nt)

    obs_tables = {name: readout(ev.row(ob, pos, f"observable {name!r}"))
                  for name, ob in (observables or {}).items()}
    result = HierarchyResult(
        t=t_eval, n_max=ode.n_max, n_sectors=S, vec_dim=vd,
        field=field, sector_traces=readout(ev.row(ev.trace, pos)),
        observables=obs_tables, states=ys, keep=ode.keep,
        diagnostics={}, dense_shape=ev.dense_shape, basis=basis,
    )

    probs = result.count_probabilities()
    trace_defect = float(np.abs(probs.sum(axis=0) - 1.0).max())
    result.diagnostics.update(
        trace_defect=trace_defect, nfev=nfev, size=total,
        basis_size=y0.size, full_size=ode.full_size, segments=segments,
        stiffness=stiffness, stiffness_exact=isinstance(a0, np.ndarray))
    if trace_defect > opts.trace_tol:
        raise NumericsError(
            f"physical trace drifted by {trace_defect:.2e} "
            f"(tolerance {opts.trace_tol:.1e}) with "
            f"{'/'.join(seg['method'] for seg in segments)}; tighten rtol/atol")
    result.diagnostics["hermiticity_defect"] = _hermiticity_defect(result, ev)
    return result


def _hermiticity_defect(result, ev):
    """max |member(n, m) - member(m, n)^dag| at the final stored time, on
    the kept indices only: each member's components summed over sectors in
    sector order, against the adjoint of the mirror member's (0 where that
    has no kept component)."""
    np1, S, vd = result.n_max + 1, result.n_sectors, result.vec_dim
    blk, comp = np.divmod(result.keep, vd)
    key = blk // S * vd + comp          # member and component
    keys, y = unique(key), result.kept_states(-1)
    member = np.zeros(keys.size, dtype=complex)
    for s in range(S):
        on = blk % S == s
        member[np.searchsorted(keys, key[on])] += y[on]
    n, m = np.divmod(keys // vd, np1)
    comp, d = keys % vd, ev.dense_shape and ev.dense_shape[1]
    # a tensor entry (i, j) mirrors (j, i); the symmetric classes permute
    mirror = (m * np1 + n) * vd + (ev.adjoint_perm[comp] if d is None
                                   else comp % d * d + comp // d)
    j = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    other = np.where(keys[j] == mirror, member[j], 0)
    return float(np.abs(member - np.conj(other)).max())


def _reduction(ode, max_bytes):
    """`krylov.krylov_reduction` of the kept system, (Q, (a0, am, ap),
    z0), on at most _BASIS_MAX directions and on no more than the
    search's arrays (the basis and one product per block, kept size x
    directions each) fit in max_bytes, or None: kept sizes up to
    _DENSE_SIZE are solved on dense blocks as they are (a 35 -> 26
    reduction of the sweep's points changed no solve time beyond the
    spread)."""
    n = ode.y0.size
    if n <= _DENSE_SIZE:
        return None
    mats = (ode.a0, ode.am, ode.ap)
    arrays = 1 + sum(m is not None for m in mats)
    return krylov_reduction(mats, ode.y0, min(n - 1, _BASIS_MAX,
                                               max_bytes // (arrays * 16 * n)))


def _rhs(a0, am, ap, env):
    """f(t, y) = (a0 + E(t) am + E*(t) ap) y, a0 y where E(t) = 0 or am is
    None. Sparse blocks take one product with the three stacked. Dense
    blocks take one product with [a0 am ap] on (y, E y, E* y), in row
    blocks that keep it off OpenBLAS's threads (one block up to 36
    components). On a 2-vCPU x86-64 host, a call at 35 components took
    9.6 us this way, 12.5 us with three products, 10.2 us with the
    stacked (3n x n) array and 20 us with the stacked CSR blocks."""
    if am is None:
        product = serial_matvec(a0) if isinstance(a0, np.ndarray) else a0.__matmul__
        return lambda t, y: product(y)
    n = a0.shape[0]
    if not isinstance(a0, np.ndarray):
        # one product gives a0 y, am y and ap y, stacked
        blocks = vstack([a0, am, ap])

        def rhs(t, y):
            e = env(t)
            if e == 0:
                return a0 @ y
            u = blocks @ y
            return u[:n] + e * u[n:2 * n] + e.conjugate() * u[2 * n:]
    else:
        wide = serial_matvec(np.hstack((a0, am, ap)))
        alone = serial_matvec(a0)

        def rhs(t, y):
            e = env(t)
            if e == 0:
                return alone(y)
            return wide(np.concatenate((y, e * y, e.conjugate() * y)))
    return rhs


def _dominant_eigenvalue(a):
    """Eigenvalue of largest modulus of `a`. A dense array (at most
    _DENSE_SIZE rows) gets the exact one from np.linalg.eigvals. A CSR
    matrix gets the Ritz value of largest modulus after
    m = min(n, _ARNOLDI_STEPS) Arnoldi steps: `krylov_reduction` of `a`
    alone, stopped at m directions, from a fixed start vector (so repeated
    runs agree; a Weyl sequence, so no numpy.random import), whose
    projected block is the Hessenberg matrix. If the Krylov space closes
    early it is invariant and its Ritz values are eigenvalues; with n <= m
    the basis spans the whole space and the estimate is the dense one."""
    if not isinstance(a, np.ndarray):
        n = a.shape[0]
        v = (np.arange(1, n + 1) * _GOLDEN) % 1.0 - 0.5 + 0j
        (a,) = krylov_reduction([a], v, min(n, _ARNOLDI_STEPS), partial=True)[1]
    lam = np.linalg.eigvals(a)
    return complex(lam[np.argmax(np.abs(lam))])


def _newton_algebra(a0, am, ap, env):
    """The Jacobian J(t) = a0 + E(t) am + E*(t) ap of the hierarchy (a0
    alone when am is None) and `factorize(J, c)`, the solve of I - c J,
    for `ivp.bdf`. On dense blocks (up to _DENSE_SIZE kept or solved
    components) J is a dense array and the factorization its inverse,
    applied by one serial product per Newton iteration: numpy alone, with
    no sparse object made per call and no scipy module loaded. On CSR
    blocks, J is a scipy CSC matrix on the union pattern of the blocks and
    factorized by splu, whose fill stays far below the n^2 of an
    inverse."""
    mats = [m for m in (a0, am, ap) if m is not None]
    n = a0.shape[0]
    if isinstance(a0, np.ndarray):
        blocks = mats
        make = np.asarray
        eye = np.eye(n)

        def factorize(J, c):
            return serial_matvec(np.linalg.inv(eye - c * J))
    else:
        from scipy.sparse import csc_matrix, identity
        from scipy.sparse.linalg import splu
        # the CSR arrays of the transposes are the CSC arrays of the blocks
        gen, blocks = union_pattern([m.transpose() for m in mats])
        eye = identity(n, dtype=complex, format="csc")

        def make(data):
            return csc_matrix((data, gen.indices, gen.indptr), shape=(n, n))

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
                    opts, lift):
    """Integrate on [t0, t1] split at the support of `env` (None: one
    segment): "RK45" with the in-package `rk45`, "BDF" with the in-package
    NDF `bdf` on the Jacobian `jac` and the factorization `factorize` of
    `_newton_algebra` (a dense inverse on dense blocks, splu factors on
    CSR ones). The right-hand side is the same on
    every segment; only the driven one caps the step at `env.step_bound`,
    so that the pulse is not stepped over. Each integrator writes its dense output straight into the
    segment's rows of the result. Returns the states at t_eval, shape
    (len(t_eval), len(y0)) in column-major order, and one record per
    segment: method, nfev, njev, nlu and the rejected steps. The error
    norms are taken of `lift` of each vector: the identity, or z -> Q z
    on a reduced run, so that they are those of the kept coordinates the
    tolerances refer to."""
    cuts, lo, hi = [t0, t1], np.inf, -np.inf
    if env is not None:
        lo, hi = env.support
        cuts = [t0] + [c for c in (lo, hi) if t0 < c < t1] + [t1]
    # each requested time is read from the first segment that reaches it;
    # states are stored column-major, so the readout rows multiply them
    # without a transposed copy
    owner = np.minimum(np.searchsorted(cuts[1:], t_eval), len(cuts) - 2)
    ys = np.empty((y0.size, len(t_eval)), dtype=complex).T
    segments = []
    y = y0
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        first, last = np.searchsorted(owner, [i, i + 1])
        te, out = np.clip(t_eval[first:last], a, b), ys[first:last]
        max_step = opts.max_step
        if a < hi and b > lo:
            max_step = min(max_step, env.step_bound)
        if method == "RK45":
            y, counts = rk45(rhs, y, a, b, te, out, opts.rtol, opts.atol,
                             max_step, lift)
        else:
            y, counts = bdf(rhs, jac, factorize, y, a, b, te, out, opts.rtol,
                            opts.atol, max_step, lift)
        segments.append(dict(t_span=[a, b], method=method, **counts))
    return ys, segments
