"""Diffusive continuous-measurement unraveling of the member hierarchy.

Each monitored amplifier channel (observable X, measurement rate k)
produces a record dR = <X> dt + dW / sqrt(8 k). The matching state
backaction sqrt(2k) (X y + y X - 2 <X> y) dW uses one shared Wiener
increment across all hierarchy members, with <X> read from the
coefficient-weighted physical combination, so the trajectory mean
recovers the deterministic generator (whose amp term is the dissipator
of sqrt(2k) X).

Averaging a window of length t_m gives a signal of mean <X> and noise
standard deviation 1 / sqrt(8 k t_m); for X = chi P the window
signal-to-noise is sqrt(8 k t_m) chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from numbers import Integral

import numpy as np

from .csr import CSR, union_pattern
from .errors import ConfigError, NumericsError
from .hierarchy import compile_hierarchy
from .liouville import check_count

_CHUNK = 256


@dataclass(frozen=True)
class TrajectoryOptions:
    dt: float = 1e-3
    store_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be finite and positive, got {self.dt}")
        object.__setattr__(self, "store_every",
                           _positive_count("store_every", self.store_every))


def _positive_count(name, value):
    """`value` as an int >= 1 (a float with no fractional part counts);
    a ConfigError naming `name` otherwise."""
    check_count(**{name: value})
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")
    return int(value)


def _stream_key(name, value):
    """`value` as an int in [0, 2**63 - 1], the range of the seed and of
    the trajectory index that key a trajectory's Philox stream; a
    ConfigError naming `name` otherwise. Outside it the key words wrap or
    round, so two keys could give one stream."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not 0 <= value < 2**63):
        raise ConfigError(
            f"{name} must be an integer in [0, 2**63 - 1], got {value!r}")
    return int(value)


def _check_window(t_m, t_MIN=0.0):
    """A ConfigError unless the window length t_m is finite and positive
    and the shortest click t_MIN finite and >= 0."""
    if not (math.isfinite(t_m) and t_m > 0):
        raise ConfigError(f"t_m must be finite and positive, got {t_m!r}")
    if not (math.isfinite(t_MIN) and t_MIN >= 0):
        raise ConfigError(f"t_MIN must be finite and >= 0, got {t_MIN!r}")


@dataclass(frozen=True)
class ClickEvent:
    tag: str
    t_start: float
    t_end: float
    level: float


@dataclass
class TrajectoryRecord:
    t: np.ndarray
    observables: dict          # tag -> <X>(t) on the stored grid
    records: dict              # tag -> cumulative R(t) on the stored grid
    dt: float
    seed: int
    traj_index: int
    meta: dict = dc_field(default_factory=dict)


# Longest state that runs on dense blocks; longer states use CSR blocks.
# In batches of 64 on a 2-vCPU x86-64 host, dense blocks were as fast or
# faster up to d = 20 and CSR blocks faster from d = 30 on.
_DENSE_MAX = 24


class _Prepared:
    """Everything a batch of trajectories needs that does not depend on the
    seed: the step grid, the drive at each step midpoint, the generator
    blocks, the backaction operators and the readout rows.

    A batch advances as one state array of shape (n_traj, d, 1): a stack
    of column states, one per trajectory, and `mul(a, y)` applies an
    operator to every column. `a0`, `am`, `ap` hold the generator blocks'
    values on one layout. When d is at most _DENSE_MAX they are dense
    arrays, and `_propagators` turns them into one drift propagator per
    step, a chunk of steps at a time; `prop0`, the propagator of the
    undriven steps, is exp(a0 dt) by Pade scaling and squaring (`_expm`,
    Higham 2005). Otherwise they are the `.data` of CSR matrices on
    the union sparsity pattern of the three (`union_pattern`), and
    `_drift` writes each step's driven generator into the storage of the
    operator `gen` (with `buf` as scratch) and applies its Taylor
    polynomial. `readout` (shape (1 + n_amps, 1, 1, d)) stacks the trace
    row over each channel's row of 2X, and `x_range` holds the smallest
    and largest eigenvalue of each channel's X.
    """

    __slots__ = ("a0", "am", "ap", "gen", "buf", "mul", "prop0",
                 "e_mid", "sx", "readout", "x_range", "gains", "rec_noise",
                 "tags", "y0", "dt", "sqdt", "n_steps", "store_idx",
                 "stored_t")


# Column j of every product must be bitwise what trajectory j gives alone,
# whatever the batch size. Dense blocks use np.matmul over the stack of
# columns, which makes one BLAS call per column (gemv for an operator, dot
# for a readout row); `a @ Y` on a (d, n_traj) matrix (gemm) is not
# column-for-column equal to that, and np.einsum("ij,jk->ik", a, Y) is but
# ran 2-5x slower. The drift propagators themselves depend on the step
# only, never on the batch, so every column of a step meets the same
# matrix. CSR blocks use `a @ Y` (`CSR._matmul_dense`), which sums each
# column's products by np.bincount, in storage order from zero, exactly
# as for a single vector; np.add.reduceat would not do for this, since its
# summation may be pairwise.
def _csr_mul(a, y):
    return (a @ y[:, :, 0].T).T[:, :, None]


# Scaling and squaring with diagonal Pade approximants (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005)): degree m is accurate to double
# precision while the 1-norm is at most theta_m; above theta_13 the matrix
# is scaled down by 2**s and the approximant squared s times.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}
# numerator coefficients (2m - j)! / (j! (m - j)!) of x**j
_PADE = {m: [float(math.factorial(2 * m - j)
                   // (math.factorial(j) * math.factorial(m - j)))
             for j in range(m + 1)] for m in _THETA}


def _expm(a):
    """exp(a) of a dense square array: the degree-m Pade approximant
    (V + U) / (V - U), U the odd and V the even part of its numerator
    (each summed over the powers of a**2), of a / 2**s, squared s times.
    A non-finite `a` gives all NaN, which the stepping loop reports."""
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    m = next((m for m, theta in _THETA.items() if norm <= theta), 13)
    s = max(0, math.ceil(math.log2(norm / _THETA[13]))) if m == 13 else 0
    a = a * 0.5 ** s
    b, a2 = _PADE[m], a @ a
    pows = [np.eye(len(a)), a2]
    while len(pows) <= m // 2:
        pows.append(pows[-1] @ a2)
    u = a @ sum(b[2 * j + 1] * x for j, x in enumerate(pows))
    v = sum(b[2 * j] * x for j, x in enumerate(pows))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _spectral_range(x):
    """Smallest and largest eigenvalue of the Hermitian part of the CSR
    matrix x. A diagonal x, such as chi times a projector, has them on its
    diagonal, with 0 where a diagonal entry is not stored; any other x
    takes eigvalsh of its dense form."""
    if np.array_equal(x.rows(), x.indices):
        diag = x.data.real
        if x.nnz < x.shape[0]:
            diag = np.append(diag, 0.0)
        return diag.min(), diag.max()
    h = x.toarray()
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))[[0, -1]]


def _prepare(liou, field, t_span, opts, rho0):
    ode = compile_hierarchy(liou, field, t_span, rho0=rho0)
    ev, env, t0, t1 = ode.engine, ode.envelope, ode.t0, ode.t1
    if env is not None and opts.dt > env.step_bound:
        raise ConfigError(
            f"trajectory dt={opts.dt:g} is over 1/64 of the envelope support "
            f"width (bound {env.step_bound:.6g}); the steps would not "
            f"resolve the pulse")
    amps = [a for a in ev.amps if a.k > 0]

    # physical weight of the (member, sector) block of each kept index
    c = field.coefficients if field is not None else np.ones(1, dtype=complex)
    blk, pos = np.divmod(ode.keep, ev.vec_dim)
    weight = np.repeat(c.reshape(-1), ev.n_sectors)[blk]
    # tr(X rho + rho X^dag) is the row of X plus that of X^dag
    rows = [ev.row(ev.trace, pos)] + [
        ev.row(a.op, pos) + ev.row(a.op.matrix.getH(), pos) for a in amps]

    p = _Prepared()
    p.n_steps = max(1, math.ceil((t1 - t0) / opts.dt))
    p.dt = (t1 - t0) / p.n_steps
    p.sqdt = math.sqrt(p.dt)
    p.y0 = ode.y0
    p.readout = np.array([weight * r for r in rows])[:, None, None, :]
    p.x_range = np.array([_spectral_range(a.op.matrix) for a in amps]).reshape(-1, 2)
    p.gains = np.array([math.sqrt(2.0 * a.k) for a in amps])
    p.rec_noise = np.array([1.0 / math.sqrt(8.0 * a.k) for a in amps])
    p.tags = [a.tag for a in amps]

    a0, am, ap = ode.a0, ode.am, ode.ap
    p.e_mid = None
    if am is None:
        am = ap = CSR.zeros(a0.shape, complex)
    elif env is not None:
        p.e_mid = np.asarray(env(t0 + p.dt * (np.arange(p.n_steps) + 0.5)),
                             dtype=complex)
    if p.y0.size <= _DENSE_MAX:
        p.a0, p.am, p.ap = a0.toarray(), am.toarray(), ap.toarray()
        p.sx = [m.toarray() for m in ode.kicks]
        p.mul = np.matmul
        # the propagator wherever the drive vanishes: exp(a0 dt) by Pade
        # scaling and squaring (_expm, Higham 2005)
        p.prop0 = _expm(p.a0 * p.dt)
    else:
        p.gen, (p.a0, p.am, p.ap) = union_pattern([a0, am, ap])
        p.buf = np.empty_like(p.gen.data)
        p.sx = list(ode.kicks)
        p.mul = _csr_mul
        p.prop0 = None

    p.store_idx = list(range(0, p.n_steps, opts.store_every))
    if p.store_idx[-1] != p.n_steps:
        p.store_idx.append(p.n_steps)
    p.stored_t = t0 + p.dt * np.asarray(p.store_idx, dtype=float)
    return p


def _propagators(p, start, count):
    """Drift propagators of steps start .. start + count - 1 on dense
    blocks, shape (count, d, d): the generator frozen at the step midpoint,
    A = a0 + e am + conj(e) ap, through its order-4 Taylor polynomial
    I + h A (I + h/2 A (I + h/3 A (I + h/4 A))), or prop0 = exp(a0 h), the
    Pade scaling-and-squaring exponential of `_expm` (Higham 2005), where
    the drive is 0. Freezing keeps ensemble means free of O(dt) drift bias;
    only the O(dt^2) midpoint error is left."""
    props = np.broadcast_to(p.prop0, (count,) + p.prop0.shape)
    if p.e_mid is None:
        return props
    e = p.e_mid[start:start + count]
    on = np.flatnonzero(e)
    if not on.size:
        return props
    props = props.copy()
    e = e[on, None, None]
    a = p.am * e + p.ap * np.conj(e) + p.a0
    eye, h = np.eye(len(p.a0)), p.dt
    q = eye + (h / 4) * a
    q = eye + (h / 3) * (a @ q)
    q = eye + (h / 2) * (a @ q)
    props[on] = eye + h * (a @ q)
    return props


def _drift(p, step, y):
    """Deterministic part of one step on CSR blocks, for every column
    state: the propagator of `_propagators`, applied as four products
    without forming it."""
    e = p.e_mid[step] if p.e_mid is not None else 0.0
    mul, gen_vals = p.mul, p.gen.data
    np.multiply(p.am, e, out=gen_vals)
    np.multiply(p.ap, np.conj(e), out=p.buf)
    np.add(gen_vals, p.buf, out=gen_vals)
    np.add(gen_vals, p.a0, out=gen_vals)
    a, dt = p.gen, p.dt
    out = y + (dt / 4) * mul(a, y)
    out = y + (dt / 3) * mul(a, out)
    out = y + (dt / 2) * mul(a, out)
    return y + dt * mul(a, out)


def _run_batch(p, seed, indices):
    """Trajectories `indices` of stream `seed`, stepped together.

    Per-channel arrays are laid out (n_amps, n_traj, 1, 1), so that each
    channel's slice broadcasts against the (n_traj, d, 1) state. Floating
    point overflow, division by zero and invalid operations raise inside
    the loop, so a blown-up step ends in NumericsError, never a warning.
    """
    # indices increase, so their ends bound them all
    for name, key in (("seed", seed), ("traj_index", indices[0]),
                      ("traj_index", indices[-1])):
        _stream_key(name, key)
    n, n_amps, n_store = len(indices), len(p.tags), len(p.store_idx)
    rngs = [np.random.Generator(np.random.Philox(key=[seed, i]))
            for i in indices]
    obs = np.zeros((n_amps, n, n_store))
    rec = np.zeros((n_amps, n, n_store))
    trace_row = p.readout[:1]
    mul, dense = p.mul, p.prop0 is not None

    def checked(tr, step):
        """Physical traces must stay positive; each one is divided by."""
        if not tr.min() > 0:
            j = int(np.argmin(tr > 0))
            raise NumericsError(
                f"physical trace {tr.flat[j]:.3g} in trajectory "
                f"{indices[j]} at t = {p.stored_t[0] + p.dt * step:.6g}; "
                f"reduce dt")
        return tr

    def expectations(y, step):
        ro = np.matmul(p.readout, y)
        return 0.5 * ro[1:].real / checked(ro[0].real, step)

    y = np.tile(p.y0[:, None], (n, 1, 1))
    r_cum = np.zeros((n_amps, n, 1, 1))
    step = 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if n_amps:
                obs[:, :, 0] = expectations(y, 0)[..., 0, 0]
            ptr = 1
            for step in range(p.n_steps):
                pos = step % _CHUNK
                if dense:
                    if pos == 0:
                        props = _propagators(
                            p, step, min(_CHUNK, p.n_steps - step))
                    y = mul(props[pos], y)
                else:
                    y = _drift(p, step, y)

                if n_amps:
                    if pos == 0:
                        # per-trajectory Wiener increments, scaled per chunk
                        dw = np.stack([g.standard_normal((_CHUNK, n_amps))
                                       for g in rngs], axis=2)[..., None, None]
                        dw = dw * p.sqdt
                        gd_buf = p.gains[:, None, None, None] * dw
                        two_gd_buf = 2.0 * gd_buf
                        noise_buf = p.rec_noise[:, None, None, None] * dw
                    ex = expectations(y, step + 1)
                    gd = gd_buf[pos]
                    pull = two_gd_buf[pos] * ex
                    kick = gd[0] * mul(p.sx[0], y)
                    c_y = 0.0 - pull[0]
                    for i in range(1, n_amps):
                        kick = kick + gd[i] * mul(p.sx[i], y)
                        c_y = c_y - pull[i]
                    r_cum += ex * p.dt + noise_buf[pos]
                    y = y + kick + c_y * y
                    y = y / checked(np.matmul(trace_row, y)[0].real, step + 1)

                if ptr < n_store and step + 1 == p.store_idx[ptr]:
                    if n_amps:
                        obs[:, :, ptr] = expectations(y, step + 1)[..., 0, 0]
                        rec[:, :, ptr] = r_cum[..., 0, 0]
                    ptr += 1
    except FloatingPointError as err:
        raise NumericsError(
            f"{err} near t = {p.stored_t[0] + p.dt * step:.6g}; "
            f"reduce dt") from None

    _check_range(p, obs, indices)
    return [TrajectoryRecord(
        t=p.stored_t, observables=dict(zip(p.tags, obs[:, j])),
        records=dict(zip(p.tags, rec[:, j])), dt=p.dt, seed=seed,
        traj_index=idx, meta={"n_steps": p.n_steps, "tags": list(p.tags)})
        for j, idx in enumerate(indices)]


def _check_range(p, obs, indices):
    """Every stored <X> must lie in the spectral range of X, up to
    1e-6 max|eigenvalue|; outside it the step was too coarse."""
    lo, hi = p.x_range[:, :1, None], p.x_range[:, 1:, None]
    tol = 1e-6 * np.abs(p.x_range).max(axis=1)[:, None, None]
    bad = ~((obs >= lo - tol) & (obs <= hi + tol))
    if bad.any():
        s = int(np.argmax(bad.any(axis=(0, 1))))
        i, j = np.argwhere(bad[:, :, s])[0]
        raise NumericsError(
            f"<X> of channel {p.tags[i]!r} is {obs[i, j, s]:.6g}, outside "
            f"the spectral range [{lo[i, 0, 0]:.6g}, {hi[i, 0, 0]:.6g}] of "
            f"X, in trajectory {indices[j]} at t = {p.stored_t[s]:.6g}; "
            f"reduce dt")


def simulate_trajectory(liou, field=None, t_span=None, seed=0, opts=None, *,
                        traj_index=0, rho0=None):
    """One stochastic record of every monitored channel of `liou`.

    The Wiener stream is keyed by (seed, traj_index), so a trajectory is
    reproducible on its own and identical whether run solo or in a batch:
    it is a batch of one. The deterministic part advances by a
    midpoint-frozen propagator and the measurement backaction by an
    Euler-Maruyama kick with step opts.dt; the state is renormalized to
    unit physical trace after every step.
    """
    opts = opts or TrajectoryOptions()
    p = _prepare(liou, field, t_span, opts, rho0)
    return _run_batch(p, seed, [traj_index])[0]


def run_trajectories(liou, field=None, t_span=None, n_traj=1, seed=0, opts=None,
                     *, rho0=None):
    """Batch of independent trajectories indexed 0..n_traj-1.

    All of them advance together as one stack of column states. Every
    product acts on each column on its own, and each column draws its
    Wiener increments from its own (seed, index) stream, so each
    trajectory is bit-identical to running simulate_trajectory with its
    (seed, traj_index) alone.
    """
    n_traj = _positive_count("n_traj", n_traj)
    opts = opts or TrajectoryOptions()
    p = _prepare(liou, field, t_span, opts, rho0)
    return _run_batch(p, seed, range(n_traj))


def ensemble_average(records, name):
    """Mean and standard error of one observable across trajectories."""
    if not records:
        raise ConfigError("no trajectories to average")
    t = records[0].t
    rows = []
    for r in records:
        if r.t.shape != t.shape or not np.allclose(r.t, t):
            raise ConfigError("trajectories were stored on different grids")
        if name not in r.observables:
            raise ConfigError(f"observable {name!r} missing; have "
                              f"{sorted(records[0].observables)}")
        rows.append(r.observables[name])
    stack = np.asarray(rows)
    mean = stack.mean(axis=0)
    n = stack.shape[0]
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.full_like(mean, np.inf)
    return t, mean, stderr, n


def window_averages(record, tag, t_m):
    """Per-window record means: windows of length t_m tiled from t[0]. No
    window may be shorter than the record's stored spacing."""
    if tag not in record.records:
        raise ConfigError(f"no record for channel {tag!r}")
    t = record.t
    r = record.records[tag]
    _check_window(t_m)
    span = t[-1] - t[0]
    step = span / (t.size - 1) if t.size > 1 else 0.0
    if t_m < step * (1.0 - 1e-9):
        raise ConfigError(f"t_m = {t_m:g} is shorter than the record's stored "
                          f"spacing {step:g}")
    n_win = int(math.floor(span / t_m + 1e-9))
    if n_win < 1:
        raise ConfigError("the record is shorter than one window")
    edges = t[0] + t_m * np.arange(n_win + 1)
    r_edges = np.interp(edges, t, r)
    return edges, np.diff(r_edges) / t_m


def extract_clicks(record, threshold, t_m, t_MIN=0.0, tag=None):
    """Threshold the windowed record into click events.

    A click is a run of consecutive windows whose average stays at or
    above `threshold`, lasting at least ceil(t_MIN / t_m) windows; there
    is none when t_MIN is longer than the record.
    """
    _check_window(t_m, t_MIN)
    if t_MIN > record.t[-1] - record.t[0]:
        return []
    tags = [tag] if tag is not None else list(record.records)
    clicks = []
    for tg in tags:
        edges, wins = window_averages(record, tg, t_m)
        # finite: t_MIN is at most the record, t_m at least its spacing
        need = max(1, math.ceil(t_MIN / t_m - 1e-9))
        above = wins >= threshold
        i = 0
        while i < wins.size:
            if not above[i]:
                i += 1
                continue
            j = i
            while j + 1 < wins.size and above[j + 1]:
                j += 1
            if j - i + 1 >= need:
                clicks.append(ClickEvent(tg, float(edges[i]), float(edges[j + 1]),
                                         float(wins[i:j + 1].mean())))
            i = j + 1
    clicks.sort(key=lambda c: c.t_start)
    return clicks
