"""Closed-form predictions used to cross-check the engines and to size
designs quickly. Amplitude arguments (gamma, Gamma, zeta) enter squared,
matching the jump-operator convention everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericsError


@dataclass(frozen=True)
class OracleResult:
    """A pure closed-form evaluation: the value and which formula
    produced it."""

    value: object
    formula: str


def band_efficiency(n_b, gamma, Gamma, zeta, delta_omega=0.0):
    """Single-photon detection probability of a band element in the
    long-pulse limit.

    P = [4 n_b g2 (G2 + z2) / (n_b g2 + G2 + z2)^2]
        x [1 + 4 dw^2 / (n_b g2 + G2 + z2)^2]^(-1)

    with g2 = gamma^2 etc. Unity exactly when the collective absorption
    rate n_b gamma^2 matches the total relaxation rate Gamma^2 + zeta^2
    at zero detuning.
    """
    if n_b < 0 or gamma < 0 or Gamma < 0 or zeta < 0:
        raise ConfigError("rates must be nonnegative")
    g2 = n_b * gamma ** 2
    r2 = Gamma ** 2 + zeta ** 2
    denom = g2 + r2
    if denom == 0:
        raise ConfigError("band efficiency undefined: every rate is zero")
    peak = 4.0 * g2 * r2 / denom ** 2
    return peak / (1.0 + 4.0 * delta_omega ** 2 / denom ** 2)


def single_element_count_rate(Delta, t_MIN, eff_loss, approximate=False):
    """Maximum count rate of a single resetting element at a given loss
    budget: r_C = -Delta / ln|1 - (1 - Eff_LOSS) e^(Delta t_MIN)|.

    The approximate branch -Delta / ln|Eff_LOSS + Delta t_MIN| is the
    small-loss expansion.
    """
    if not 0.0 < eff_loss < 1.0:
        raise ConfigError(f"eff_loss must be in (0, 1), got {eff_loss}")
    if Delta < 0 or t_MIN < 0:
        raise ConfigError("Delta and t_MIN must be nonnegative")
    if Delta == 0:
        return 0.0
    if approximate:
        arg = eff_loss + Delta * t_MIN
    else:
        arg = 1.0 - (1.0 - eff_loss) * math.exp(Delta * t_MIN)
    mag = abs(arg)
    if mag == 0.0:
        return 0.0
    log = math.log(mag)
    if log == 0.0:
        raise NumericsError(
            "count-rate formula singular: |log argument| reached 1 "
            f"(Delta={Delta}, t_MIN={t_MIN}, eff_loss={eff_loss})")
    return -Delta / log


class RateRelations(NamedTuple):
    r_C: float
    r_DC: float
    ratio: float
    eff_loss: float
    Delta: float
    r_C_approx: float


def pnr_rate_relations(N, Delta=None, t_MIN=0.0, snr0=math.inf, eff_loss=None):
    """Count-rate / dark-rate relations of an N-photon resolving detector.

    Exactly one of Delta and eff_loss may be omitted; they are tied by
    eff_loss = 1 - e^(-N Delta t_MIN). Returns

        r_C   = N Delta           (and the approximation N eff_loss / t_MIN)
        r_DC  = (N / t_MIN) erfc(snr0 / sqrt(2))
        ratio = r_DC / r_C ~= (1 / eff_loss) erfc(snr0 / sqrt(2))
    """
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if t_MIN <= 0:
        raise ConfigError("t_MIN must be positive")
    if Delta is None and eff_loss is None:
        raise ConfigError("give Delta or eff_loss")
    if Delta is None:
        if not 0.0 < eff_loss < 1.0:
            raise ConfigError(f"eff_loss must be in (0, 1), got {eff_loss}")
        Delta = -math.log(1.0 - eff_loss) / (N * t_MIN)
    else:
        if Delta < 0:
            raise ConfigError("Delta must be nonnegative")
        eff_loss = 1.0 - math.exp(-N * Delta * t_MIN)
    r_c = N * Delta
    r_dc = (N / t_MIN) * math.erfc(snr0 / math.sqrt(2.0))
    if r_c > 0:
        ratio = r_dc / r_c
    else:
        ratio = math.inf if r_dc > 0 else 0.0
    r_c_approx = N * eff_loss / t_MIN
    return RateRelations(r_c, r_dc, ratio, eff_loss, Delta, r_c_approx)


def jitter_model(sigma0, n_A, kA2, N):
    """Saturation law for the detection-time spread of an N-photon event
    routed through n_A register channels:

        sigma = sigma0 / (kA2 (n_A - N + 1))

    kA2 is the per-channel transfer rate expressed in units of 1/sigma0,
    so the result carries pulse-width units.
    """
    if N > n_A:
        raise ConfigError(f"N={N} exceeds the register count n_A={n_A}")
    if N < 1 or n_A < 1:
        raise ConfigError("N and n_A must be >= 1")
    if sigma0 <= 0 or kA2 <= 0:
        raise ConfigError("sigma0 and kA2 must be positive")
    return sigma0 / (kA2 * (n_A - N + 1))


def _bright_dark_split(space, field_op):
    """Bright states are the excited states the field operator couples
    down to lower grades; dark states are the remaining excited states."""
    grades = space.grades
    mat = field_op.matrix
    bright = set()
    for i, j in zip(mat.rows(), mat.indices):
        if grades[j] > grades[i]:
            bright.add(int(j))
    dark = {idx for idx in range(space.dim)
            if grades[idx] > 0 and idx not in bright}
    return bright, dark


def check_ideal_conditions(arch, tol=1e-9):
    """Structural test of the unit-efficiency conditions.

    1. no relaxation channel couples one field-coupled (bright) state to
       another,
    2. no relaxation channel feeds a dark state back into a bright one,
    3. the spectral intensity of the band couplings is symmetric about
       the band center.

    Returns a report dict with per-condition booleans, offending entries,
    and `all_pass`.
    """
    liou = arch.liouvillian()
    space = getattr(liou, "space", None)
    if space is None:
        raise ConfigError("ideal-condition check needs a tensor architecture")
    if liou.field_tag is None:
        raise ConfigError("the architecture declares no field coupling")
    field_op = liou.field_op

    bright, dark = _bright_dark_split(space, field_op)
    labels = ["/".join(space.state_labels(i)) for i in range(space.dim)]

    bright_to_bright = []
    dark_to_bright = []
    for ch in liou.channels:
        if ch.tag == liou.field_tag:
            continue
        mat = ch.op.matrix
        for i, j, v in zip(mat.rows(), mat.indices, mat.data):
            if v == 0:
                continue
            if j in bright and i in bright:
                bright_to_bright.append((ch.tag, labels[j], labels[i]))
            if j in dark and i in bright:
                dark_to_bright.append((ch.tag, labels[j], labels[i]))

    symmetric = True
    asymmetry = 0.0
    disc = arch.discretization
    if disc is not None and disc.levels.size > 1:
        dos = arch.params.get("dos")
        center = dos.center if dos is not None else 0.0
        intens = disc.couplings ** 2
        # reflect each line through the center and compare intensities;
        # snap reflections that land within a sliver of the band edge
        # (rounding can push an exact mirror 1 ulp outside the grid)
        q = 2 * center - disc.levels
        eps = 1e-9 * (disc.levels[-1] - disc.levels[0])
        q = np.where(np.abs(q - disc.levels[-1]) < eps, disc.levels[-1], q)
        q = np.where(np.abs(q - disc.levels[0]) < eps, disc.levels[0], q)
        mirrored = np.interp(q, disc.levels, intens, left=0.0, right=0.0)
        scale = float(intens.max())
        asymmetry = float(np.max(np.abs(intens - mirrored))) / scale
        symmetric = asymmetry <= max(tol, 1e-12)

    report = {
        "no_bright_to_bright": not bright_to_bright,
        "no_dark_to_bright": not dark_to_bright,
        "symmetric_intensity": symmetric,
        "bright_states": sorted(labels[i] for i in bright),
        "dark_states": sorted(labels[i] for i in dark),
        "violations": {
            "bright_to_bright": bright_to_bright,
            "dark_to_bright": dark_to_bright,
        },
        "intensity_asymmetry": asymmetry,
    }
    report["all_pass"] = (report["no_bright_to_bright"]
                          and report["no_dark_to_bright"]
                          and report["symmetric_intensity"])
    return report


def evaluate(name, **inputs):
    """Run one oracle by name; the result carries its formula."""
    table = {
        "band-eff": (band_efficiency, "band detection probability"),
        "count-rate": (single_element_count_rate, "single-element count rate"),
        "rates": (pnr_rate_relations, "count/dark-rate relations"),
        "jitter": (jitter_model, "jitter saturation law"),
    }
    if name not in table:
        raise ConfigError(f"unknown oracle {name!r}; have {sorted(table)}")
    fn, formula = table[name]
    return OracleResult(fn(**inputs), formula)
