"""Input field envelopes and photon-number content of the drive.

Envelopes are square-normalized, int |E(t)|^2 dt = 1, so the photon
content is carried entirely by the expansion coefficients in FieldInput.
The duration parameter sigma0 is always the standard deviation of the
intensity profile |E(t)|^2, whatever the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import ConfigError

_SHAPES = ("gaussian", "square", "rising_exponential", "tabulated")


class PulseEnvelope:
    """Square-normalized complex drive amplitude E(t).

    Call it on scalars or arrays of times. `cumulative(t)` integrates the
    intensity from the far past, `support` bounds where the amplitude is
    numerically nonzero, and `sigma0` is the intensity standard deviation.
    """

    def __init__(self, shape, *, sigma0=None, t_center=0.0, width=None,
                 rate=None, t_stop=None, times=None, values=None,
                 detuning=0.0):
        if shape not in _SHAPES:
            raise ConfigError(f"unknown envelope shape {shape!r}; choose from {_SHAPES}")
        self.shape = shape
        self.detuning = float(detuning)
        if shape == "gaussian":
            if sigma0 is None or sigma0 <= 0:
                raise ConfigError("gaussian envelope needs sigma0 > 0")
            self.sigma0 = float(sigma0)
            self.t_center = float(t_center)
        elif shape == "square":
            if width is None or width <= 0:
                raise ConfigError("square envelope needs width > 0")
            self.width = float(width)
            self.t_center = float(t_center)
            self.sigma0 = self.width / np.sqrt(12.0)
        elif shape == "rising_exponential":
            if rate is None or rate <= 0:
                raise ConfigError("rising_exponential envelope needs rate > 0")
            self.rate = float(rate)
            self.t_stop = 0.0 if t_stop is None else float(t_stop)
            self.sigma0 = 1.0 / self.rate
        elif shape == "tabulated":
            t = np.asarray(times, dtype=float)
            v = np.asarray(values, dtype=complex)
            if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
                raise ConfigError("tabulated envelope needs matching 1d times/values, >= 2 points")
            if np.any(np.diff(t) <= 0):
                raise ConfigError("tabulated envelope times must be strictly increasing")
            norm = np.trapezoid(np.abs(v) ** 2, t)
            if norm <= 0:
                raise ConfigError("tabulated envelope has zero power")
            v = v / np.sqrt(norm)
            self.times = t
            self.values = v
            intens = np.abs(v) ** 2
            # cumulative intensity on the grid, for interpolation
            dt = np.diff(t)
            seg = 0.5 * (intens[1:] + intens[:-1]) * dt
            self._cum = np.concatenate([[0.0], np.cumsum(seg)])
            mean = np.trapezoid(t * intens, t)
            var = np.trapezoid((t - mean) ** 2 * intens, t)
            self.t_center = mean
            self.sigma0 = float(np.sqrt(max(var, 0.0)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == "gaussian":
            s = self.sigma0
            amp = (2.0 * np.pi * s * s) ** -0.25 * np.exp(-((t - self.t_center) ** 2) / (4.0 * s * s))
        elif self.shape == "square":
            lo = self.t_center - 0.5 * self.width
            hi = self.t_center + 0.5 * self.width
            amp = np.where((t >= lo) & (t < hi), 1.0 / np.sqrt(self.width), 0.0)
        elif self.shape == "rising_exponential":
            x = self.rate * (t - self.t_stop)
            amp = np.where(t <= self.t_stop,
                           np.sqrt(self.rate) * np.exp(0.5 * np.clip(x, -745.0, 0.0)),
                           0.0)
        else:
            amp = np.interp(t, self.times, self.values.real,
                            left=0.0, right=0.0)
            if np.iscomplexobj(self.values) and np.any(self.values.imag):
                amp = amp + 1j * np.interp(t, self.times, self.values.imag,
                                           left=0.0, right=0.0)
        if self.detuning:
            amp = amp * np.exp(-1j * self.detuning * t)
        return amp if amp.shape else complex(amp) if np.iscomplexobj(amp) else float(amp)

    def intensity(self, t):
        return np.abs(self.__call__(t)) ** 2

    def cumulative(self, t):
        """int_{-inf}^{t} |E|^2 dt', in [0, 1]."""
        t = np.asarray(t, dtype=float)
        if self.shape == "gaussian":
            z = (t - self.t_center) / (np.sqrt(2.0) * self.sigma0)
            out = 0.5 * (1.0 + erf(z))
        elif self.shape == "square":
            lo = self.t_center - 0.5 * self.width
            out = np.clip((t - lo) / self.width, 0.0, 1.0)
        elif self.shape == "rising_exponential":
            x = self.rate * (t - self.t_stop)
            out = np.where(t <= self.t_stop, np.exp(np.clip(x, -745.0, 0.0)), 1.0)
        else:
            out = np.interp(t, self.times, self._cum, left=0.0, right=self._cum[-1])
            out = np.clip(out / self._cum[-1], 0.0, 1.0)
        return out if out.shape else float(out)

    @property
    def support(self):
        """(t_lo, t_hi) outside of which the amplitude is negligible."""
        if self.shape == "gaussian":
            return (self.t_center - 8.0 * self.sigma0, self.t_center + 8.0 * self.sigma0)
        if self.shape == "square":
            return (self.t_center - 0.5 * self.width, self.t_center + 0.5 * self.width)
        if self.shape == "rising_exponential":
            return (self.t_stop - 40.0 / self.rate, self.t_stop)
        return (float(self.times[0]), float(self.times[-1]))

    @property
    def step_bound(self):
        """Longest time step that still resolves the pulse: 1/64 of the
        support width, which is sigma0 / 4 for a Gaussian."""
        lo, hi = self.support
        return (hi - lo) / 64

    def to_dict(self):
        d = {"schema_version": 1, "shape": self.shape, "detuning": self.detuning}
        if self.shape == "gaussian":
            d.update(sigma0=self.sigma0, t_center=self.t_center)
        elif self.shape == "square":
            d.update(width=self.width, t_center=self.t_center)
        elif self.shape == "rising_exponential":
            d.update(rate=self.rate, t_stop=self.t_stop)
        else:
            d.update(times=self.times.tolist(),
                     values_re=self.values.real.tolist(),
                     values_im=self.values.imag.tolist())
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        ver = d.pop("schema_version", 1)
        if ver != 1:
            raise ConfigError(f"unsupported envelope schema_version {ver!r}")
        shape = d.pop("shape", None)
        if shape == "tabulated":
            times = d.pop("times")
            vals = np.asarray(d.pop("values_re"), dtype=float) + 1j * np.asarray(
                d.pop("values_im", np.zeros(len(times))), dtype=float)
            return cls("tabulated", times=times, values=vals, **d)
        return cls(shape, **d)

    @classmethod
    def from_file(cls, path, detuning=0.0):
        """Load a tabulated envelope from a text file.

        Columns: time, amplitude [, imaginary part]. Lines starting with
        '#' are comments. The profile is renormalized on load.
        """
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] < 2:
            raise ConfigError(f"{path}: need at least two columns (t, amplitude)")
        vals = data[:, 1].astype(complex)
        if data.shape[1] >= 3:
            vals = vals + 1j * data[:, 2]
        return cls("tabulated", times=data[:, 0], values=vals, detuning=detuning)

    def to_file(self, path, n_points=2001):
        lo, hi = self.support
        t = np.linspace(lo, hi, n_points) if self.shape != "tabulated" else self.times
        v = np.atleast_1d(self.__call__(t))
        np.savetxt(path, np.column_stack([t, v.real, v.imag]),
                   header="time re(E) im(E)")


def gaussian_envelope(sigma0, t_center=0.0, detuning=0.0):
    """Gaussian pulse whose intensity profile has standard deviation sigma0."""
    return PulseEnvelope("gaussian", sigma0=sigma0, t_center=t_center, detuning=detuning)


def square_envelope(width, t_center=0.0, detuning=0.0):
    return PulseEnvelope("square", width=width, t_center=t_center, detuning=detuning)


def rising_exponential_envelope(rate, t_stop=0.0, detuning=0.0):
    """Exponentially rising pulse cut off at t_stop (time-reversed decay)."""
    return PulseEnvelope("rising_exponential", rate=rate, t_stop=t_stop, detuning=detuning)


def tabulated_envelope(times, values, detuning=0.0):
    return PulseEnvelope("tabulated", times=times, values=values, detuning=detuning)


def cumulative_profile(envelope, times):
    """Fraction of the pulse energy arrived by each time."""
    return envelope.cumulative(times)


@dataclass(frozen=True)
class FieldInput:
    """Photon-number content of the input field.

    `coefficients[n, m]` multiplies the (n, m) member of the two-sided
    expansion; diagonal entries are the photon-number populations. The
    matrix must be hermitian with unit trace and nonnegative diagonal.
    """

    coefficients: np.ndarray
    envelope: PulseEnvelope

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coefficients, dtype=complex))
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ConfigError(f"coefficient table must be square, got {c.shape}")
        if np.abs(c - c.conj().T).max() > 1e-10:
            raise ConfigError("coefficient table must be hermitian")
        diag = np.diag(c)
        if np.abs(diag.imag).max() > 1e-12 or diag.real.min() < -1e-12:
            raise ConfigError("photon-number populations must be real and nonnegative")
        if abs(np.sum(diag.real) - 1.0) > 1e-10:
            raise ConfigError(f"populations must sum to 1, got {np.sum(diag.real)}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def n_max(self):
        return self.coefficients.shape[0] - 1

    def weight(self, n, m):
        return complex(self.coefficients[n, m])


def fock_input(n, envelope):
    """Exactly n photons in the given envelope."""
    n = int(n)
    if n < 0:
        raise ConfigError(f"photon number must be >= 0, got {n}")
    c = np.zeros((n + 1, n + 1), dtype=complex)
    c[n, n] = 1.0
    return FieldInput(c, envelope)


def superposition_input(amplitudes, envelope):
    """Pure superposition sum_n a_n |n> of photon numbers (renormalized)."""
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ConfigError("amplitudes must be a nonempty 1d sequence")
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ConfigError("amplitudes are all zero")
    a = a / norm
    return FieldInput(np.outer(a, a.conj()), envelope)


def mixture_input(weights, envelope):
    """Statistical mixture of photon numbers with the given weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or w.min() < 0 or w.sum() <= 0:
        raise ConfigError("weights must be nonnegative with positive sum")
    return FieldInput(np.diag(w / w.sum()).astype(complex), envelope)
