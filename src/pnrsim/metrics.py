"""Performance metrics computed from counting runs.

Registration semantics: a counted jump at time s becomes a registered
photon at s + t_MIN, provided the register survives the dwell; the
survival of N simultaneous registrations costs exp(-N Delta t_MIN).
P_N(M, t) is the probability that N of the M incident photons are
registered by time t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .architectures import ArchitectureSpec, BandDiscretization, cw_single_photon_efficiency
from .errors import ConfigError, NumericsError
from .hierarchy import HierarchyResult, IntegratorOptions, integrate_hierarchy
from .pulses import fock_input


@dataclass
class DetectionDistribution:
    """Registered-count statistics for an M-photon input.

    `at_least[N]` is P(>= N registered by t); `exactly[N]` its
    difference, which sums to at most one. Efficiency and jitter read
    the N = M row of `at_least`.
    """

    M: int
    t: np.ndarray
    at_least: np.ndarray      # (M+1, nt)
    exactly: np.ndarray       # (M+1, nt)
    t_MIN: float
    Delta: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        tot = self.exactly.sum(axis=0)
        worst = float(tot.max(initial=0.0))
        if worst > 1.0 + 1e-8:
            raise NumericsError(f"count probabilities sum to {worst}, over 1 + 1e-8")
        if self.Delta * (self.t[-1] - self.t[0]) < 1e-9:
            dips = float(np.diff(self.at_least, axis=1).min(initial=0.0))
            if dips < -1e-7:
                raise NumericsError(
                    f"cumulative registration decreased by {-dips:.2e} "
                    f"with no reset active; integration is unreliable")

    def probability(self, n, t_index=-1):
        """P(exactly n registered) at an output time."""
        return float(self.exactly[n, t_index])


def detection_probabilities(run, t_MIN, Delta):
    """Registered-count distribution from a counting run.

    `run` must resolve the registration channels' jumps with at least
    M + 1 sectors for an M-photon input. Raw jump-count curves are
    shifted by the dwell t_MIN and scaled by the N-fold survival factor
    exp(-N Delta t_MIN).
    """
    if not isinstance(run, HierarchyResult):
        raise ConfigError("detection_probabilities expects a hierarchy run")
    if run.n_sectors < 2:
        raise ConfigError("the run did not resolve jump counts; "
                          "integrate a counting_resolve'd generator")
    m_photons = run.n_max
    if run.n_sectors - 1 < m_photons:
        raise ConfigError(
            f"counting resolved only {run.n_sectors - 1} jumps but the input "
            f"carries {m_photons} photons; raise max_count")
    if t_MIN < 0 or Delta < 0:
        raise ConfigError("t_MIN and Delta must be >= 0")

    raw = run.count_probabilities()            # (S, nt)
    t = run.t
    # P(>= N) from sector probabilities; the last sector already means
    # "max_count or more"
    at_least_raw = np.ones((m_photons + 1, t.size))
    for n in range(1, m_photons + 1):
        at_least_raw[n] = np.clip(1.0 - raw[:n].sum(axis=0), 0.0, 1.0)

    # registration delay: value at t reflects jumps counted by t - t_MIN
    at_least = np.empty_like(at_least_raw)
    at_least[0] = 1.0
    shifted = t - t_MIN
    for n in range(1, m_photons + 1):
        at_least[n] = np.interp(shifted, t, at_least_raw[n], left=0.0)
        at_least[n] *= np.exp(-n * Delta * t_MIN)
    exactly = at_least - np.vstack([at_least[1:], np.zeros_like(t)])

    meta = {}
    env = run.field.envelope if run.field is not None else None
    meta["settled"] = _settled(env, t, t_MIN, Delta)
    return DetectionDistribution(m_photons, t, at_least, exactly,
                                 float(t_MIN), float(Delta), meta)


def _settled(env, t, t_MIN, Delta):
    """Final time counts as "infinity": pulse flux below 1e-6 of its peak
    and the registration pipeline drained."""
    if env is None:
        return True
    lo, hi = env.support
    peak = float(np.max(env.intensity(np.linspace(lo, hi, 801))))
    tail = float(env.intensity(t[-1] - t_MIN))
    if peak > 0 and tail > 1e-6 * peak:
        return False
    drain = t_MIN + (5.0 / Delta if Delta > 0 else 0.0)
    return t[-1] >= hi + drain or peak == 0.0


def efficiency(dist):
    """Probability that all M incident photons are registered, read at
    the final output time. Zero for vacuum input."""
    if dist.M == 0:
        return 0.0
    if not dist.meta.get("settled", True):
        raise NumericsError(
            "final time is inside the pulse or the registration pipeline; "
            "extend t_span past the pulse support plus t_MIN (plus 5/Delta "
            "when resets are active)")
    return float(dist.at_least[dist.M, -1])


def jitter(dist, envelope):
    """Detection-time spread (sigma, sigma_sys).

    sigma is the standard deviation of the normalized detection-time
    density d/dt P_M(M, t); sigma_sys removes the pulse's own width in
    quadrature. When sigma < sigma0 numerically, sigma_sys is returned
    as an imaginary complex number rather than clipped to zero.
    """
    eff = efficiency(dist)
    if eff <= 0.0:
        raise ConfigError("zero efficiency: detection-time density undefined")
    t = dist.t
    curve = dist.at_least[dist.M]

    def moments(tt, cc):
        dens = np.gradient(cc, tt)
        dens = np.clip(dens, 0.0, None)
        norm = np.trapezoid(dens, tt)
        if norm <= 0:
            raise NumericsError("degenerate detection-time density")
        dens = dens / norm
        mean = np.trapezoid(tt * dens, tt)
        var = np.trapezoid((tt - mean) ** 2 * dens, tt)
        return mean, var

    mean, var = moments(t, curve)
    sigma = float(np.sqrt(max(var, 0.0)))
    # stencil convergence estimate: recompute at half grid density
    _, var_half = moments(t[::2], curve[::2])
    sigma_half = float(np.sqrt(max(var_half, 0.0)))
    stencil_rel = abs(sigma - sigma_half) / sigma if sigma > 0 else 0.0

    sigma0 = envelope.sigma0
    excess = sigma ** 2 - sigma0 ** 2
    if excess >= 0:
        sigma_sys = float(np.sqrt(excess))
    else:
        sigma_sys = 1j * float(np.sqrt(-excess))
    dist.meta.update(jitter_mean=float(mean), jitter_stencil_rel=float(stencil_rel),
                     jitter_reliable=bool(eff >= 1e-3))
    return sigma, sigma_sys


def dark_count_rate(internal_probs, t_m, snr0=None, k=None, chi=None):
    """Total false-click rate of the monitored channels.

    Per channel: the probability of a real internal excitation during a
    window divided by t_m, plus the amplifier-noise tail
    (0.5/t_m) erfc(2 sqrt(k t_m) chi). The noise argument equals
    SNR0/sqrt(2); pass snr0 directly or (k, chi).
    """
    if t_m <= 0:
        raise ConfigError(f"t_m must be positive, got {t_m}")
    probs = np.atleast_1d(np.asarray(internal_probs, dtype=float))
    if probs.min(initial=0.0) < 0:
        raise ConfigError("internal excitation probabilities must be >= 0")
    if snr0 is None:
        if k is None or chi is None:
            raise ConfigError("give either snr0 or both k and chi")
        snr0 = np.sqrt(8.0 * k * t_m) * chi
    noise = 0.5 / t_m * erfc(snr0 / np.sqrt(2.0))
    rates = probs / t_m + noise
    return float(np.sum(rates))


@dataclass
class BandwidthResult:
    lo: float
    hi: float
    threshold: float
    grid: np.ndarray
    efficiencies: np.ndarray

    @property
    def width(self):
        return self.hi - self.lo


def efficiency_curve(arch, delta_grid, method="cw", field_photons=1,
                     sigma0=None, opts=None, t_MIN=0.0):
    """Single-photon efficiency as a function of carrier detuning.

    method "cw" uses the long-pulse steady-state response (fast, exact
    in the quasi-static limit, single and band kinds only); method
    "hierarchy" rebuilds the architecture at each detuning and runs the
    driven integrator.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    if method == "cw":
        disc = arch.discretization
        if disc is None:
            if arch.kind != "single":
                raise ConfigError(
                    f"no quasi-static response path for kind {arch.kind!r}")
            p = arch.params
            disc = BandDiscretization(np.zeros(1), np.array([p["gamma"]]),
                                      np.array([p["Gamma"]]))
        center = 0.0
        dos = arch.params.get("dos")
        if dos is not None:
            center = dos.center
        return np.array([cw_single_photon_efficiency(disc, center + d)
                         for d in delta_grid])
    if method != "hierarchy":
        raise ConfigError(f"unknown efficiency-curve method {method!r}")
    if sigma0 is None:
        raise ConfigError("hierarchy efficiency curve needs sigma0")
    from .pulses import gaussian_envelope
    out = np.empty(delta_grid.size)
    for i, d in enumerate(delta_grid):
        a = arch.with_params(delta_omega=float(d))
        env = gaussian_envelope(sigma0)
        f = fock_input(field_photons, env)
        lo, hi = env.support
        drain = 10.0 / a.params["Gamma"] ** 2 + t_MIN
        run = integrate_hierarchy(
            a.counting(field_photons), f, (lo, hi + drain),
            opts or IntegratorOptions(n_points=2, rtol=1e-6, atol=1e-9,
                                      store_states=False))
        dist = detection_probabilities(run, t_MIN, a.params.get("Delta", 0.0))
        out[i] = efficiency(dist)
    return out


def bandwidth(arch, threshold, delta_grid, method="cw", efficiencies=None, **kw):
    """Widest contiguous detuning interval keeping efficiency >= threshold.

    Crossing points are linearly interpolated between grid points. Pass
    precomputed `efficiencies` to skip the scan.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    if delta_grid.ndim != 1 or delta_grid.size < 2 or np.any(np.diff(delta_grid) <= 0):
        raise ConfigError("delta grid must be strictly increasing, >= 2 points")
    if efficiencies is None:
        effs = efficiency_curve(arch, delta_grid, method=method, **kw)
    else:
        effs = np.asarray(efficiencies, dtype=float)
        if effs.shape != delta_grid.shape:
            raise ConfigError("efficiencies must match the grid")
    above = effs >= threshold
    if not above.any():
        raise ConfigError(
            f"efficiency never reaches {threshold} on the grid "
            f"(max {effs.max():.4f}); lower the threshold or re-center the grid")

    best = (0.0, delta_grid[0], delta_grid[0])
    i = 0
    n = delta_grid.size
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        lo = delta_grid[i]
        if i > 0:
            # interpolate the upward crossing in the preceding interval
            f0, f1 = effs[i - 1], effs[i]
            lo = delta_grid[i - 1] + (threshold - f0) / (f1 - f0) * (
                delta_grid[i] - delta_grid[i - 1])
        hi = delta_grid[j]
        if j + 1 < n:
            f0, f1 = effs[j], effs[j + 1]
            hi = delta_grid[j] + (threshold - f0) / (f1 - f0) * (
                delta_grid[j + 1] - delta_grid[j])
        if hi - lo > best[0]:
            best = (hi - lo, lo, hi)
        i = j + 1
    return BandwidthResult(best[1], best[2], float(threshold), delta_grid, effs)


@dataclass
class MetricsReport:
    """Flat bundle of the headline numbers for one configuration."""

    efficiency: float = None
    jitter_sigma: float = None
    jitter_sys: complex = None
    dark_rate: float = None
    count_rate: float = None
    bandwidth_width: float = None
    snr0: float = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.efficiency is not None and not -1e-9 <= self.efficiency <= 1 + 1e-9:
            raise NumericsError(f"efficiency {self.efficiency} outside [0, 1]")
        if self.jitter_sigma is not None and self.jitter_sigma < 0:
            raise NumericsError("negative jitter")

    def to_dict(self):
        d = {}
        for key in ("efficiency", "jitter_sigma", "dark_rate", "count_rate",
                    "bandwidth_width", "snr0"):
            val = getattr(self, key)
            d[key] = None if val is None else float(val)
        js = self.jitter_sys
        if js is None:
            d["jitter_sys"] = None
        elif isinstance(js, complex) and js.imag:
            d["jitter_sys"] = {"imaginary": float(js.imag)}
        else:
            d["jitter_sys"] = float(np.real(js))
        d["provenance"] = self.provenance
        return d

    CSV_COLUMNS = ("efficiency", "jitter_sigma", "jitter_sys", "dark_rate",
                   "count_rate", "bandwidth_width", "snr0")
