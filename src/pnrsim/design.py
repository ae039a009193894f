"""Physical-realization design calculators.

Closed-form arithmetic connecting device geometry and amplifier
transport numbers to detector-level rates: the collective
emitter-waveguide coupling obtained from a molecular ensemble, the
absorber count (or film thickness) needed for near-unity absorption,
the transduction signal-to-noise of a current-modulating amplifier,
and the count-rate / dark-count-rate trade-off family swept over the
re-arm dwell time t_MIN.

The trade-off model distributes an N-photon registration requirement
over n_A acceptor channels.  Relative to the baseline n_A = 2N, the
per-channel measurement window and the array count rate both scale by
n_A / (2N):

    Delta = -ln(1 - Eff_LOSS) / (N t_MIN)      per-channel reset rate
    r_C   = (n_A / 2) Delta                    array count rate
    t_m   = (n_A / (2N)) t_MIN                 per-channel window
    r_DC  = (n_A / (2 t_m)) erfc(SNR0(t_m)/sqrt(2))

At n_A = 2N this reduces to r_C = N Delta, t_m = t_MIN and
r_DC = (N / t_MIN) erfc(SNR0 / sqrt(2)).  Larger arrays buy longer
windows (hence larger SNR0 and lower dark rate) at the same count
rate.  The same dictionary is emitted in curve metadata.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.constants import elementary_charge

from .errors import ConfigError

__all__ = [
    "PhysicalParams",
    "TradeoffCurve",
    "TradeoffPoint",
    "TRADEOFF_CSV_COLUMNS",
    "effective_coupling",
    "film_thickness",
    "required_absorbers",
    "snr0_transport",
    "tradeoff_curve",
    "tradeoff_family",
    "transport_amplifier",
]

_SQRT2 = math.sqrt(2.0)


def effective_coupling(lam: float, area: float, n_d: float, gamma_free2: float) -> float:
    """Collective coupling rate of n_d emitters to a single guided mode.

    Returns (3 lam^2 / (4 pi area)) * n_d * gamma_free2: the free-space
    emission rate enhanced by the mode's capture fraction and the
    emitter number.  `lam` is the operating wavelength (m), `area` the
    waveguide cross-section (m^2), `gamma_free2` the free-space rate of
    one emitter (1/s).
    """
    if lam <= 0 or area <= 0 or n_d <= 0 or gamma_free2 <= 0:
        raise ConfigError("effective_coupling requires positive inputs")
    return (3.0 * lam * lam / (4.0 * math.pi * area)) * n_d * gamma_free2


def required_absorbers(area: float, sigma_cross: float) -> int:
    """Absorber count for near-unity absorption of a guided photon.

    Returns ceil(2 area / (3 sigma_cross)) where `sigma_cross` is the
    single-absorber cross-section (m^2).  The 2/3 prefactor is the
    orientation average over randomly aligned dipoles.
    """
    if area <= 0 or sigma_cross <= 0:
        raise ConfigError("required_absorbers requires positive inputs")
    return int(math.ceil(2.0 * area / (3.0 * sigma_cross)))


def film_thickness(alpha: float) -> float:
    """Film thickness h = 2/(3 alpha) realizing the absorber count in bulk.

    `alpha` is the bulk absorption coefficient (1/m); the returned
    thickness replaces a discrete absorber count when the active layer
    is a continuous film.
    """
    if alpha <= 0:
        raise ConfigError("film_thickness requires alpha > 0")
    return 2.0 / (3.0 * alpha)


def snr0_transport(f: float, current: float, t_m: float) -> float:
    """Window signal-to-noise of a current-modulating transport amplifier.

    SNR0 = f * sqrt(current * t_m / (2 e)): a channel carrying
    `current` amperes, modulated by fractional depth `f` while an
    acceptor is occupied, integrated for `t_m` seconds against shot
    noise.  `f` must lie in (0, 1].
    """
    if not 0.0 < f <= 1.0:
        raise ConfigError(f"fractional modulation f={f} outside (0, 1]")
    if current <= 0 or t_m <= 0:
        raise ConfigError("snr0_transport requires positive current and window")
    return f * math.sqrt(current * t_m / (2.0 * elementary_charge))


def transport_amplifier(f: float, current: float) -> Callable[[float], float]:
    """Bind (f, current) into an SNR0(t_m) callable for tradeoff_curve."""
    if not 0.0 < f <= 1.0:
        raise ConfigError(f"fractional modulation f={f} outside (0, 1]")
    if current <= 0:
        raise ConfigError("transport_amplifier requires current > 0")
    return lambda t_m: snr0_transport(f, current, t_m)


@dataclass(frozen=True)
class PhysicalParams:
    """Operating-point numbers for one physical realization.

    Optional fields stay None when a calculator does not need them;
    whatever is set must be positive, and f must lie in (0, 1].
    Units: lam, film thickness in m; area, sigma_cross in m^2; dos in
    s; alpha in 1/m; current in A; rates in 1/s.
    """

    lam: float
    area: float
    sigma_cross: float | None = None
    dos: float | None = None
    alpha: float | None = None
    current: float | None = None
    f: float | None = None
    gamma_free2: float | None = None
    gamma_eff2: float | None = None
    charge: float = elementary_charge

    def __post_init__(self) -> None:
        for name in (
            "lam",
            "area",
            "sigma_cross",
            "dos",
            "alpha",
            "current",
            "f",
            "gamma_free2",
            "gamma_eff2",
            "charge",
        ):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"PhysicalParams.{name} must be positive, got {v}")
        if self.f is not None and self.f > 1.0:
            raise ConfigError(f"PhysicalParams.f={self.f} outside (0, 1]")

    def _need(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(f"PhysicalParams missing {', '.join(missing)}")

    def effective_coupling(self, n_d: float) -> float:
        self._need("gamma_free2")
        return effective_coupling(self.lam, self.area, n_d, self.gamma_free2)

    def required_absorbers(self) -> int:
        self._need("sigma_cross")
        return required_absorbers(self.area, self.sigma_cross)

    def film_thickness(self) -> float:
        self._need("alpha")
        return film_thickness(self.alpha)

    def snr0(self, t_m: float) -> float:
        self._need("f", "current")
        return snr0_transport(self.f, self.current, t_m)


class TradeoffPoint(NamedTuple):
    """One operating point on a count-rate / dark-rate trade-off curve."""

    t_MIN: float
    Delta: float
    r_C: float
    r_DC: float
    snr0: float
    n_A: int


TRADEOFF_CSV_COLUMNS = ("t_MIN", "Delta", "r_C", "r_DC", "SNR0", "n_A")


def _eval_point(
    N: int,
    n_A: int,
    log_keep: float,
    snr0_fn: Callable[[float], float],
    t_min: float,
) -> TradeoffPoint:
    delta = log_keep / (N * t_min)
    t_m = 0.5 * n_A * t_min / N
    s = float(snr0_fn(t_m))
    r_dc = 0.5 * n_A / t_m * math.erfc(s / _SQRT2)
    return TradeoffPoint(t_min, delta, 0.5 * n_A * delta, r_dc, s, n_A)


@dataclass(frozen=True)
class TradeoffCurve:
    """Trade-off curve for one (N, n_A) pair, swept over t_MIN.

    Along the sweep t_MIN increases, so r_C falls while SNR0 grows and
    r_DC falls: the curve trades throughput against darkness.  The
    queries below exploit that monotonicity (they assume `snr0_fn` is
    nondecreasing in the window length, true for any integrating
    amplifier).
    """

    N: int
    n_A: int
    eff_loss: float
    points: tuple[TradeoffPoint, ...]
    meta: dict = field(repr=False)
    snr0_fn: Callable[[float], float] = field(repr=False, compare=False)

    def __iter__(self) -> Iterator[TradeoffPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def log_keep(self) -> float:
        return -math.log1p(-self.eff_loss)

    def point_at(self, t_min: float) -> TradeoffPoint:
        """Evaluate the curve at an arbitrary dwell time."""
        if t_min <= 0:
            raise ConfigError("t_MIN must be positive")
        return _eval_point(self.N, self.n_A, self.log_keep, self.snr0_fn, t_min)

    def boundary_point(self, r_c_min: float) -> TradeoffPoint:
        """The point with r_C exactly r_c_min (largest feasible t_MIN).

        Because r_DC falls with t_MIN, this point has the lowest dark
        rate among all points with r_C >= r_c_min.
        """
        if r_c_min <= 0:
            raise ConfigError("r_C target must be positive")
        t_star = 0.5 * self.n_A * self.log_keep / (self.N * r_c_min)
        return self.point_at(t_star)

    def contains(self, r_c_min: float, r_dc_max: float) -> bool:
        """Whether any operating point meets r_C >= r_c_min and r_DC <= r_dc_max."""
        if self.boundary_point(r_c_min).r_DC <= r_dc_max:
            return True
        # Grid fallback covers snr0 functions that are not monotone.
        return any(p.r_C >= r_c_min and p.r_DC <= r_dc_max for p in self.points)

    def best_r_c(self, r_dc_max: float) -> TradeoffPoint:
        """Fastest operating point with r_DC <= r_dc_max within the sweep range.

        Raises ConfigError when even the slowest end of the sweep stays
        darker than requested.
        """
        if r_dc_max < 0:
            raise ConfigError("r_DC bound must be nonnegative")
        t_lo = self.points[0].t_MIN
        t_hi = self.points[-1].t_MIN
        if self.point_at(t_lo).r_DC <= r_dc_max:
            return self.point_at(t_lo)
        if self.point_at(t_hi).r_DC > r_dc_max:
            raise ConfigError(
                f"infeasible target: r_DC <= {r_dc_max:g} not reached for "
                f"t_MIN up to {t_hi:g} s (n_A={self.n_A})"
            )
        from scipy.optimize import brentq
        u = brentq(
            lambda x: self.point_at(10.0**x).r_DC - r_dc_max,
            math.log10(t_lo),
            math.log10(t_hi),
        )
        t = 10.0**u
        # Land on the feasible side of the root.
        while self.point_at(t).r_DC > r_dc_max:
            t *= 1.0 + 1e-12
        return self.point_at(t)

    def csv_rows(self) -> list[tuple[float, float, float, float, float, int]]:
        return [tuple(p) for p in self.points]


def tradeoff_curve(
    N: int,
    n_A: int,
    eff_loss: float,
    snr0_fn: Callable[[float], float],
    t_min_grid: Sequence[float] | np.ndarray | None = None,
    target: tuple[float, float] | None = None,
) -> TradeoffCurve:
    """Sweep t_MIN and return the count-rate / dark-rate trade-off.

    At each dwell time the reset rate follows from the loss budget,
    Eff_LOSS = 1 - exp(-N Delta t_MIN), and the dark rate follows from
    the window SNR delivered by `snr0_fn` (see the module docstring
    for the full n_A scaling).  `target=(r_c_min, r_dc_max)` asks for
    a guarantee: a ConfigError is raised when no operating point meets
    both bounds.
    """
    if N < 1 or N != int(N):
        raise ConfigError(f"photon number N={N} must be a positive integer")
    if n_A < N or n_A != int(n_A):
        raise ConfigError(f"acceptor count n_A={n_A} must be an integer >= N={N}")
    if not 0.0 < eff_loss < 1.0:
        raise ConfigError(f"Eff_LOSS={eff_loss} outside (0, 1)")
    if not callable(snr0_fn):
        raise ConfigError("snr0_fn must be callable")
    if t_min_grid is None:
        grid = np.geomspace(1e-12, 1e-6, 121)
    else:
        grid = np.asarray(t_min_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ConfigError("t_min_grid must be a nonempty 1-d array")
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ConfigError("t_min_grid must be positive and strictly increasing")

    log_keep = -math.log1p(-eff_loss)
    points = tuple(
        _eval_point(int(N), int(n_A), log_keep, snr0_fn, float(t)) for t in grid
    )
    meta = {
        "Delta": "Delta = -ln(1 - Eff_LOSS) / (N * t_MIN)",
        "r_C": "r_C = (n_A / 2) * Delta",
        "t_m": "t_m = (n_A / (2 N)) * t_MIN",
        "r_DC": "r_DC = (n_A / (2 t_m)) * erfc(SNR0(t_m) / sqrt(2))",
        "baseline": "n_A = 2N gives r_C = N*Delta, t_m = t_MIN, "
        "r_DC = (N / t_MIN) * erfc(SNR0 / sqrt(2))",
        "scaling": "window and count rate both scale by n_A/(2N) at fixed "
        "per-channel reset rate",
        "assumes": "snr0_fn nondecreasing in t_m",
    }
    curve = TradeoffCurve(
        N=int(N),
        n_A=int(n_A),
        eff_loss=float(eff_loss),
        points=points,
        meta=meta,
        snr0_fn=snr0_fn,
    )
    if target is not None:
        r_c_min, r_dc_max = target
        if not curve.contains(r_c_min, r_dc_max):
            raise ConfigError(
                f"infeasible target: no point with r_C >= {r_c_min:g} and "
                f"r_DC <= {r_dc_max:g} for N={N}, n_A={n_A}"
            )
    return curve


def tradeoff_family(
    N: int,
    n_A_values: Sequence[int],
    eff_loss: float,
    snr0_fn: Callable[[float], float],
    t_min_grid: Sequence[float] | np.ndarray | None = None,
) -> list[TradeoffCurve]:
    """Trade-off curves for several array sizes at one loss budget."""
    return [tradeoff_curve(N, n, eff_loss, snr0_fn, t_min_grid) for n in n_A_values]
