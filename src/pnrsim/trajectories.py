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

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericsError
from .hierarchy import compile_hierarchy

_CHUNK = 256


@dataclass(frozen=True)
class TrajectoryOptions:
    dt: float = 1e-3
    store_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be finite and positive, got {self.dt}")
        if self.store_every < 1:
            raise ConfigError("store_every must be >= 1")


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


class _Prepared:
    """Everything a trajectory needs that does not depend on the seed.

    Assembling generators, the drive envelope grid, and the tail
    propagator once makes batches cheap, and the per-trajectory math is
    byte-for-byte the same whether run solo or in a batch.
    """

    __slots__ = ("a0", "am", "ap", "y0", "prop0", "e_mid", "buf_a", "buf_b",
                 "w_full", "sx_full", "two_x_rows", "gains", "rec_noise",
                 "tags", "dt", "sqdt", "n_steps", "t0", "store_idx",
                 "stored_t", "dense")


def _prepare(liou, field, t_span, opts, rho0):
    ode = compile_hierarchy(liou, field, t_span, rho0=rho0)
    ev, env, t0, t1 = ode.engine, ode.envelope, ode.t0, ode.t1
    a0, am, ap, y = ode.a0, ode.am, ode.ap, ode.y0
    amps = [a for a in ev.amps if a.k > 0]

    # physical weights per (member, sector) block
    c = field.coefficients if field is not None else np.ones(1, dtype=complex)
    wvec = np.repeat(c.reshape(-1), ev.n_sectors)
    n_blocks = wvec.size
    keep = ode.keep
    w_full = np.kron(wvec, ev.trace_row)[keep]

    sx_full = []
    two_x_rows = []
    for a in amps:
        sx_block = a.backaction
        sx_full.append(sp.kron(sp.identity(n_blocks), sx_block,
                               format="csr")[keep][:, keep])
        two_x_rows.append(np.kron(wvec, ev.trace_row @ sx_block)[keep])

    p = _Prepared()
    p.n_steps = max(1, math.ceil((t1 - t0) / opts.dt))
    p.dt = (t1 - t0) / p.n_steps
    p.sqdt = math.sqrt(p.dt)
    p.t0 = t0
    p.y0 = y
    p.w_full = w_full
    p.two_x_rows = two_x_rows
    p.gains = np.array([math.sqrt(2.0 * a.k) for a in amps])
    p.rec_noise = np.array([1.0 / math.sqrt(8.0 * a.k) for a in amps])
    p.tags = [a.tag for a in amps]

    # dense algebra wins handily at the sizes measurement runs use
    p.dense = y.size <= 2048
    if p.dense:
        a0 = a0.toarray()
        if am is not None:
            am, ap = am.toarray(), ap.toarray()
        sx_full = [m.toarray() for m in sx_full]
    p.a0, p.am, p.ap = a0, am, ap
    p.sx_full = sx_full

    # the tail propagator: exact exponential wherever the drive vanishes
    if p.dense:
        import scipy.linalg as la
        p.prop0 = la.expm(a0 * p.dt)
    else:
        p.prop0 = None
    p.e_mid = None
    p.buf_a = p.buf_b = None
    if env is not None:
        p.e_mid = np.asarray(env(t0 + p.dt * (np.arange(p.n_steps) + 0.5)),
                             dtype=complex)
        if p.e_mid.shape == ():
            p.e_mid = np.full(p.n_steps, complex(p.e_mid))
        if p.dense:
            p.buf_a = np.empty_like(a0)
            p.buf_b = np.empty_like(a0)

    p.store_idx = list(range(0, p.n_steps, opts.store_every))
    if p.store_idx[-1] != p.n_steps:
        p.store_idx.append(p.n_steps)
    p.stored_t = t0 + p.dt * np.asarray(p.store_idx, dtype=float)
    return p


def _drift(p, istep, yv):
    """Deterministic half-step: the generator frozen at the step midpoint,
    applied through its order-4 Taylor propagator. Freezing keeps ensemble
    means free of O(dt) drift bias; only the O(dt^2) midpoint error is left."""
    e = p.e_mid[istep] if p.e_mid is not None else 0.0
    if e == 0:
        if p.prop0 is not None:
            return p.prop0 @ yv
        a = p.a0
    elif p.dense:
        np.multiply(p.am, e, out=p.buf_a)
        np.multiply(p.ap, np.conj(e), out=p.buf_b)
        np.add(p.buf_a, p.buf_b, out=p.buf_a)
        np.add(p.buf_a, p.a0, out=p.buf_a)
        a = p.buf_a
    else:
        a = p.a0 + e * p.am + np.conj(e) * p.ap
    dt = p.dt
    out = yv + (dt / 4) * (a @ yv)
    out = yv + (dt / 3) * (a @ out)
    out = yv + (dt / 2) * (a @ out)
    return yv + dt * (a @ out)


def _run_one(p, seed, traj_index):
    n_amps = len(p.tags)
    n_store = len(p.store_idx)
    obs_out = np.zeros((n_amps, n_store))
    rec_out = np.zeros((n_amps, n_store))
    rng = np.random.Generator(np.random.Philox(key=[seed, traj_index]))

    w_full = p.w_full
    rows = p.two_x_rows
    sx = p.sx_full
    gains = p.gains
    rec_noise = p.rec_noise
    dt = p.dt

    def expectations(yv):
        tr = (w_full @ yv).real
        if not np.isfinite(tr) or tr <= 0:
            raise NumericsError("physical trace became non-positive; reduce dt")
        return np.array([0.5 * (row @ yv).real for row in rows]) / tr

    y = p.y0.copy()
    r_cum = np.zeros(n_amps)
    ptr = 0
    if p.store_idx and p.store_idx[0] == 0:
        if n_amps:
            obs_out[:, 0] = expectations(y)
        ptr = 1

    step = 0
    dwbuf = None
    dwpos = _CHUNK
    while step < p.n_steps:
        y = _drift(p, step, y)

        if n_amps:
            if dwpos >= _CHUNK:
                dwbuf = rng.standard_normal((_CHUNK, n_amps)) * p.sqdt
                dwpos = 0
            dw = dwbuf[dwpos]
            dwpos += 1
            tr = (w_full @ y).real
            if not np.isfinite(tr) or tr <= 0:
                raise NumericsError(f"trace {tr} at step {step}; reduce dt")
            kick = None
            c_y = 0.0
            for i in range(n_amps):
                ex = 0.5 * (rows[i] @ y).real / tr
                gd = gains[i] * dw[i]
                v = sx[i] @ y
                kick = gd * v if kick is None else kick + gd * v
                c_y -= 2.0 * gd * ex
                r_cum[i] += ex * dt + rec_noise[i] * dw[i]
            y = y + kick + c_y * y
            y = y / (w_full @ y).real
        step += 1

        if ptr < n_store and step == p.store_idx[ptr]:
            if n_amps:
                obs_out[:, ptr] = expectations(y)
                rec_out[:, ptr] = r_cum
            ptr += 1

    return TrajectoryRecord(
        t=p.stored_t,
        observables={tag: obs_out[i] for i, tag in enumerate(p.tags)},
        records={tag: rec_out[i] for i, tag in enumerate(p.tags)},
        dt=dt, seed=seed, traj_index=traj_index,
        meta={"n_steps": p.n_steps, "tags": list(p.tags)},
    )


def simulate_trajectory(liou, field=None, t_span=None, seed=0, opts=None, *,
                        traj_index=0, rho0=None):
    """One stochastic record of every monitored channel of `liou`.

    The Wiener stream is keyed by (seed, traj_index), so a trajectory is
    reproducible on its own and identical whether run solo or in a batch.
    The deterministic part advances by a midpoint-frozen propagator and the
    measurement backaction by an Euler-Maruyama kick with step opts.dt; the
    state is renormalized to unit physical trace after every step.
    """
    opts = opts or TrajectoryOptions()
    p = _prepare(liou, field, t_span, opts, rho0)
    return _run_one(p, seed, traj_index)


def run_trajectories(liou, field=None, t_span=None, n_traj=1, seed=0, opts=None,
                     *, rho0=None):
    """Batch of independent trajectories indexed 0..n_traj-1.

    Preparation is shared; each trajectory is bit-identical to running
    simulate_trajectory with its (seed, traj_index) on its own.
    """
    opts = opts or TrajectoryOptions()
    p = _prepare(liou, field, t_span, opts, rho0)
    return [_run_one(p, seed, i) for i in range(n_traj)]


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
    """Per-window record means: windows of length t_m tiled from t[0]."""
    if tag not in record.records:
        raise ConfigError(f"no record for channel {tag!r}")
    t = record.t
    r = record.records[tag]
    if t_m <= 0:
        raise ConfigError("t_m must be positive")
    n_win = int(math.floor((t[-1] - t[0]) / t_m + 1e-9))
    if n_win < 1:
        raise ConfigError("the record is shorter than one window")
    edges = t[0] + t_m * np.arange(n_win + 1)
    r_edges = np.interp(edges, t, r)
    return edges, np.diff(r_edges) / t_m


def extract_clicks(record, threshold, t_m, t_MIN=0.0, tag=None):
    """Threshold the windowed record into click events.

    A click is a run of consecutive windows whose average stays at or
    above `threshold`, lasting at least ceil(t_MIN / t_m) windows.
    """
    tags = [tag] if tag is not None else list(record.records)
    need = max(1, math.ceil(t_MIN / t_m - 1e-9)) if t_MIN > 0 else 1
    clicks = []
    for tg in tags:
        edges, wins = window_averages(record, tg, t_m)
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
