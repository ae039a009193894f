"""Detector architecture builders.

The detectors are one family: n_D absorbing elements, each with n_b
optically coupled levels and a shelf, coupled collectively to one mode
and optionally handing their energy to n_A two-level register stages.
`build_single_element` (one element of one level), `build_band_element`
(one element of n_b levels), `build_array` (n_D one-level elements) and
`build_pnr` (n_D elements of n_b levels, n_A registers) are tensor
builds of it by one assembly, `_build_tensor`, whose docstring gives the
naming rule of subsystems, states and channel tags;
`build_symmetric_reduced` is its permutation-reduced encoding.

Each builder returns an ArchitectureSpec bundling the labeled space, the
assembled generator with tagged channels, the registration channel(s)
whose jumps mean "a photon got registered", and the builder arguments
that rebuild the architecture with modified parameters.

Every builder argument is checked by its name, from one table: the
`_RATES` (gamma, gamma_eff, Gamma, k_A, Delta, k) are finite and >= 0;
the `_AMPLITUDES` (gamma, gamma_eff, Gamma, k_A, chi) have squares that
are finite doubles, since the generator holds those squares as rates;
the `_FINITE` numbers (chi, delta_omega, span) are finite; the `_COUNTS`
(n_D, n_A, n_b, max_dim, exc_cap) are integers. Each is a real number and
not a bool, `dos` is a DosModel, and anything else is a ConfigError that
names the argument.

Conventions: gamma, Gamma, zeta, k_A, chi are amplitudes whose squares
are rates; Delta is itself a rate (the register reset). delta_omega is
the input carrier detuning from the band center; the rotating frame puts
level l at energy (epsilon_l - delta_omega).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .csr import CSR
from .errors import ConfigError, ResourceLimitError
from .liouville import AmpChannel, assemble_liouvillian, check_count, counting_resolve
from .spaces import Operator, build_space, embed, projector, transition
from .symmetric import SymmetricLiouvillian

_DOS_KINDS = ("lorentzian", "flat2d", "vanhove1d", "tabulated")
# the largest amplitude whose square, a rate, is a finite double
_MAX_AMPLITUDE = math.sqrt(sys.float_info.max)


class DosModel:
    """Normalized density of optically coupled band states.

    lorentzian: width = full width at half maximum (a rate, zeta**2).
    flat2d: constant over [center - width/2, center + width/2].
    vanhove1d: 1d band edges, rho ~ [1 - (2(w-c)/W)^2]^(-1/2) on the same
    interval (integrable divergence at both edges).
    tabulated: arbitrary sampled shape, renormalized.
    """

    def __init__(self, kind, width=None, center=0.0, omegas=None, densities=None):
        if kind not in _DOS_KINDS:
            raise ConfigError(f"unknown DOS kind {kind!r}; choose from {_DOS_KINDS}")
        self.kind = kind
        self.center = float(center)
        if not math.isfinite(self.center):
            raise ConfigError(f"DOS center must be finite, got {center!r}")
        if kind == "tabulated":
            w = np.asarray(omegas, dtype=float)
            d = np.asarray(densities, dtype=float)
            if w.ndim != 1 or w.size < 2 or d.shape != w.shape:
                raise ConfigError("tabulated DOS needs matching 1d omegas/densities")
            for name, a in (("omegas", w), ("densities", d)):
                if not np.all(np.isfinite(a)):
                    raise ConfigError(f"tabulated DOS {name} must be finite")
            if np.any(np.diff(w) <= 0):
                raise ConfigError("tabulated DOS omegas must be strictly increasing")
            if d.min() < 0:
                raise ConfigError("tabulated DOS has negative density")
            norm = np.trapezoid(d, w)
            if norm <= 0:
                raise ConfigError("tabulated DOS has zero weight")
            self.omegas = w
            self.densities = d / norm
            self.width = float(w[-1] - w[0])
        else:
            if width is None or not 0 < width < np.inf:
                raise ConfigError(f"{kind} DOS needs a finite width > 0, "
                                  f"got {width!r}")
            self.width = float(width)

    def density(self, omega):
        x = np.asarray(omega, dtype=float) - self.center
        w = self.width
        if self.kind == "lorentzian":
            out = (w / (2.0 * np.pi)) / (x * x + (w / 2.0) ** 2)
        elif self.kind == "flat2d":
            out = np.where(np.abs(x) <= w / 2.0, 1.0 / w, 0.0)
        elif self.kind == "vanhove1d":
            u = 2.0 * x / w
            inside = np.abs(u) < 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(inside, 2.0 / (np.pi * w * np.sqrt(1.0 - u * u)), 0.0)
        else:
            out = np.interp(x + self.center, self.omegas, self.densities,
                            left=0.0, right=0.0)
        return out if out.shape else float(out)

    @property
    def support(self):
        """Hard support, or the infinite flag for the Lorentzian tail."""
        if self.kind == "lorentzian":
            return None
        if self.kind == "tabulated":
            return (float(self.omegas[0]), float(self.omegas[-1]))
        return (self.center - self.width / 2.0, self.center + self.width / 2.0)


@dataclass(frozen=True)
class BandDiscretization:
    """Finite stand-in for a band: level energies, per-level optical
    couplings (amplitudes), per-level shelving decays (amplitudes)."""

    levels: np.ndarray
    couplings: np.ndarray
    decays: np.ndarray

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        cp = np.asarray(self.couplings, dtype=float)
        dc = np.asarray(self.decays, dtype=float)
        if not (lv.shape == cp.shape == dc.shape) or lv.ndim != 1:
            raise ConfigError("levels, couplings, decays must be matching 1d arrays")
        if np.any(np.diff(lv) < 0):
            raise ConfigError("levels must be sorted")
        for arr in (lv, cp, dc):
            arr.setflags(write=False)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "couplings", cp)
        object.__setattr__(self, "decays", dc)

    @property
    def total_coupling(self):
        return float(np.sum(self.couplings ** 2))


def discretize_dos(dos, n_b, total_coupling, Gamma, span=8.0):
    """Sample a DOS onto n_b uniformly spaced levels.

    Levels sit at the midpoints of n_b equal cells covering the band
    support (for the Lorentzian, `span` half-widths around the center on
    each side). Couplings follow gamma_l^2 proportional to rho(omega_l),
    rescaled so they sum exactly to total_coupling (a rate). The van
    Hove edge divergence is clipped at half the level spacing. All
    levels decay at the same Gamma.
    """
    check_count(n_b=n_b)
    n_b = int(n_b)
    if n_b < 1:
        raise ConfigError(f"n_b must be >= 1, got {n_b}")
    if not 0 < total_coupling < np.inf:
        raise ConfigError(f"total coupling must be positive and finite, "
                          f"got {total_coupling}")
    sup = dos.support
    if sup is None:
        half = span * dos.width / 2.0
        sup = (dos.center - half, dos.center + half)
    lo, hi = sup
    h = (hi - lo) / n_b
    levels = lo + h * (np.arange(n_b) + 0.5)
    weights = np.atleast_1d(np.asarray(dos.density(levels), dtype=float))
    if dos.kind == "vanhove1d":
        # the integrable edge divergence would put all weight on the two
        # outermost levels; cap the density at half a cell from the edge
        edge = dos.center + dos.width / 2.0 - h / 2.0
        weights = np.minimum(weights, dos.density(edge))
    total_weight = weights.sum()
    if total_weight <= 0:
        raise ConfigError("the band has zero density over the sampled range")
    couplings = np.sqrt(total_coupling * weights / total_weight)
    decays = np.full(n_b, float(Gamma))
    return BandDiscretization(levels, couplings, decays)


def cw_single_photon_efficiency(disc, delta_omega=0.0):
    """Long-pulse single-photon registration probability of a band element.

    Steady-state single-excitation response: with drive detuning delta,
    the excitation amplitudes solve
        [diag(i(eps_l - delta) + Gamma_l^2/2) + g g^T / 2] psi = g,
    g_l being the couplings, and the registered fraction is
    sum_l Gamma_l^2 |psi_l|^2. Exact in the limit where the pulse is much
    longer than every internal rate.
    """
    g = disc.couplings.astype(complex)
    m = np.diag(1j * (disc.levels - delta_omega) + disc.decays ** 2 / 2.0)
    m = m + 0.5 * np.outer(g, g)
    psi = np.linalg.solve(m, g)
    return float(np.sum(disc.decays ** 2 * np.abs(psi) ** 2))


def ideal_total_coupling(dos, n_b, Gamma, span=8.0):
    """Total coupling rate that makes the band element unit-efficient at
    the band center in the long-pulse limit (impedance matching).

    Scales the couplings so the center-frequency response function
    A(0) = sum_l gamma_l^2 / (i eps_l + Gamma^2/2) has real part 2; for a
    symmetric level grid A(0) is real and the matched response gives
    unit registered fraction.
    """
    disc = discretize_dos(dos, n_b, 1.0, Gamma, span=span)
    a0 = np.sum(disc.couplings ** 2 / (1j * (disc.levels - dos.center)
                                       + Gamma ** 2 / 2.0))
    re = float(np.real(a0))
    if re <= 0:
        raise ConfigError("band response has no absorptive part at the center")
    return 2.0 / re


class ArchitectureSpec:
    """A built detector architecture.

    kind: single | band | array | pnr | pnr-symmetric.
    `liouvillian()` returns the assembled generator (tensor encodings
    yield a Liouvillian, the symmetric reduction a SymmetricLiouvillian);
    `counting(max_count, tags=None)` returns its engine view with the jumps
    of `tags` (default: the registration channels) resolved into
    max_count + 1 count sectors, ready for `integrate_hierarchy`.
    `params` holds exactly the builder arguments, so `with_params`
    rebuilds the architecture with selected values replaced. A run config
    builds one through `RunConfig.build_architecture`, which hands its
    `architecture.params` to `build_architecture(kind, **params)`.
    `discretization` holds the element's optical levels (one for `single`),
    or None for the array and the symmetric reduction.
    """

    def __init__(self, kind, params, liou, registration_tags, space=None,
                 discretization=None):
        self.kind = kind
        self.params = dict(params)
        self._liou = liou
        self.registration_tags = tuple(registration_tags)
        self.space = space
        self.discretization = discretization

    def liouvillian(self):
        return self._liou

    def counting(self, max_count, tags=None):
        return counting_resolve(
            self._liou, self.registration_tags if tags is None else tags, max_count)

    @property
    def dim(self):
        return self.space.dim if self.space is not None else None

    def with_params(self, **updates):
        params = dict(self.params)
        unknown = set(updates) - set(params)
        if unknown:
            raise ConfigError(f"{self.kind} has no parameters {sorted(unknown)}; "
                              f"have {sorted(params)}")
        params.update(updates)
        return build_architecture(self.kind, **params)


# The check of each builder argument, by name (see the module docstring)
_RATES = ("gamma", "gamma_eff", "Gamma", "k_A", "Delta", "k")
_AMPLITUDES = ("gamma", "gamma_eff", "Gamma", "k_A", "chi")
_FINITE = ("chi", "delta_omega", "span")
_COUNTS = ("n_D", "n_A", "n_b", "max_dim", "exc_cap")
_REAL = (int, float, np.integer, np.floating)


def _checked(kind, params):
    """The builder arguments `params` of `kind`, each checked as the tables
    above say, with counts made ints. Every checked value is a real number
    and not a bool; `dos` is a DosModel (or None for `pnr`)."""
    out, big = dict(params), []
    for name, val in params.items():
        if name == "dos":
            if not (isinstance(val, DosModel) or val is None and kind == "pnr"):
                raise ConfigError(f"dos must be a DosModel, got {val!r}")
            continue
        if name in _COUNTS:
            check_count(**{name: val})
            out[name] = int(val)
            continue
        if not isinstance(val, _REAL) or isinstance(val, bool):
            raise ConfigError(f"{name} must be a real number, got {val!r}")
        try:
            x = float(val)
        except OverflowError:  # an int beyond the range of a double
            x = math.inf if val > 0 else -math.inf
        if name in _RATES and not 0 <= x < math.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {val}")
        if name in _FINITE and not math.isfinite(x):
            raise ConfigError(f"{name} must be finite, got {val}")
        if name in _AMPLITUDES and abs(x) > _MAX_AMPLITUDE:
            big.append(f"{name} = {val:g}")
    if big:
        raise ConfigError(
            f"{', '.join(big)}: amplitudes enter the generator squared, as "
            f"rates, and those squares overflow above {_MAX_AMPLITUDE:.4g}; "
            f"rescale the time unit")
    return out


def _build_tensor(kind, params):
    """Check `params` and build the tensor model `kind` of the family.

    Naming: an element is subsystem `element`, or `d{i}` when the builder
    takes n_D; its optical level is `1`, or `1_{l}` when it takes n_b; its
    shelf is `C`, and register stage j is `a{j}` with states A0, A1. A
    channel tag joins the indices it has with ':', so shelving is SHELVE,
    SHELVE{l}, SHELVE{i} or SHELVE{i}:{l}, and transfer TRANSFER{i}:{j}.
    With registers, the resets (rate Delta, only when Delta > 0) and the
    amplifier monitors AMP act on the registers, and the transfers
    register; without them, they act on the shelves, and the shelvings
    register. Element i's level l sits at energy
    epsilon_l - center - delta_omega (center: the DOS centre, 0 without a
    DOS).
    """
    p = _checked(kind, params)
    n_D, n_A, n_b = p.get("n_D", 1), p.get("n_A", 0), p.get("n_b", 1)
    for name in ("n_D", "n_A"):
        if p.get(name, 1) < 1:
            raise ConfigError(f"need {name} >= 1, got {p[name]}")
    max_dim = p.get("max_dim")
    # the dimension is at least 2**(n_D + n_A): a huge n_D is refused
    # before its power is formed
    if max_dim is not None and (
            n_D + n_A >= max(max_dim, 1).bit_length()
            or (n_b + 2) ** n_D * 2 ** n_A > max_dim):
        raise ResourceLimitError(
            f"{kind} tensor space has dimension {n_b + 2}**{n_D} * 2**{n_A} "
            f"> guard {max_dim}; "
            f"use build_symmetric_reduced (exact for identical elements) or "
            f"raise max_dim (limits.max_dim in a run config)")
    if "dos" in p:
        if p["dos"] is None:
            if n_b != 1:
                raise ConfigError("banded elements need an explicit DOS")
            p["dos"] = DosModel("flat2d", width=1.0)
        disc = discretize_dos(p["dos"], n_b, n_b * p["gamma"] ** 2, p["Gamma"],
                              span=p["span"])
        center = p["dos"].center
    else:
        disc = BandDiscretization(np.zeros(1), np.array([p["gamma"]]),
                                  np.array([p["Gamma"]]))
        center = 0.0

    # (subsystem label or state name, index in the tags)
    elements = ([(f"d{i}", str(i)) for i in range(n_D)] if "n_D" in p
                else [("element", "")])
    levels = ([(f"1_{l}", str(l)) for l in range(n_b)] if "n_b" in p
              else [("1", "")])
    registers = [(f"a{j}", str(j)) for j in range(n_A)]

    def tag(base, *indices):
        return base + ":".join(i for i in indices if i)

    states = ("0",) + tuple(name for name, _ in levels) + ("C",)
    space = build_space([(label, states) for label, _ in elements]
                        + [(label, ("A0", "A1")) for label, _ in registers])
    level_diag = CSR.diags(np.concatenate(
        [[0.0], disc.levels - center - p["delta_omega"], [0.0]]))
    h = Operator(space, sum(embed(level_diag, label, space).matrix
                            for label, _ in elements), name="H", hermitian=True)
    absorb = Operator(space, sum(
        transition(space, label, "0", level, disc.couplings[l]).matrix
        for label, _ in elements for l, (level, _) in enumerate(levels)))
    shelves = [(tag("SHELVE", i, il),
                transition(space, label, "C", level, disc.decays[l]))
               for label, i in elements for l, (level, il) in enumerate(levels)]
    transfers = [(tag("TRANSFER", i, j), Operator(
        space, transition(space, label, "0", "C", p["k_A"]).matrix
        @ transition(space, reg, "A1", "A0", 1.0).matrix))
        for label, i in elements for reg, j in registers]
    # (label, index, reset target, monitored state) of each reset/monitor site
    sites = ([(reg, j, "A0", "A1") for reg, j in registers]
             or [(label, i, "0", "C") for label, i in elements])
    resets = [(tag("RESET", i), transition(space, label, low, high,
                                           np.sqrt(p["Delta"])))
              for label, i, low, high in sites if p["Delta"] > 0]
    amps = [AmpChannel(tag("AMP", i), p["chi"] * projector(space, label, high),
                       p["k"], p["chi"])
            for label, i, _, high in sites]
    liou = assemble_liouvillian(h, shelves + transfers + resets,
                                ("ABSORB", absorb), amps)
    return ArchitectureSpec(
        kind, p, liou, [t for t, _ in transfers or shelves], space=space,
        discretization=None if kind == "array" else disc)


def build_single_element(gamma, Gamma, Delta=0.0, chi=1.0, k=0.0, delta_omega=0.0):
    """Three-level absorbing element: ground, optically coupled excited
    state, monitored shelf. Channels: ABSORB (the optical coupling),
    SHELVE (registration), RESET (shelf reset at rate Delta, present only
    when Delta > 0), AMP (continuous shelf monitor)."""
    return _build_tensor("single", locals())


def build_band_element(dos, n_b, gamma, Gamma, Delta=0.0, chi=1.0, k=0.0,
                       delta_omega=0.0, span=8.0):
    """Absorbing element whose excited state is a band of n_b levels
    sampled from the DOS, every level shelving to a common shelf.

    gamma is the per-level coupling scale: the sampled couplings satisfy
    sum gamma_l^2 = n_b gamma^2. With n_b = 1 this reduces exactly to the
    single element."""
    return _build_tensor("band", locals())


_DEFAULT_MAX_DIM = 4096


def build_array(n_D, gamma, Gamma, Delta=0.0, chi=1.0, k=0.0,
                delta_omega=0.0, max_dim=_DEFAULT_MAX_DIM):
    """n_D identical single elements jointly coupled to the mode, with no
    energy transfer: the photon-number response degrades as elements
    shelve. Registration counts shelf entries across all elements."""
    return _build_tensor("array", locals())


def build_pnr(n_D, n_A, dos=None, n_b=1, gamma=1.0, Gamma=1.0, k_A=1.0,
              Delta=0.0, chi=1.0, k=0.0, delta_omega=0.0, span=8.0,
              max_dim=_DEFAULT_MAX_DIM):
    """Full tensor build of the photon-number-resolving architecture:
    n_D absorbing elements (optionally banded) and n_A two-level register
    stages. Every element's shelf can hand its energy to every register
    stage (uniform all-to-all transfer amplitude k_A); registration
    counts transfer jumps. Refuses to build spaces larger than max_dim;
    use the symmetric reduction beyond that."""
    return _build_tensor("pnr", locals())


def build_symmetric_reduced(n_D, n_A, gamma_eff, Gamma, k_A=0.0, Delta=0.0,
                            delta_omega=0.0, exc_cap=1):
    """Permutation-symmetric build with idealized elements: each element's
    band is collapsed to one effective level with coupling gamma_eff
    (gamma_eff^2 standing in for n_b gamma^2) at energy -delta_omega, as
    in the tensor builders. Exact for identical elements and symmetric
    initial states; scales polynomially in n_D and n_A. n_A = 0 gives the
    no-transfer array, registered by shelf entry instead of register
    transfer."""
    p = _checked("pnr-symmetric", locals())
    sym = SymmetricLiouvillian(p["n_D"], p["n_A"], gamma_eff, Gamma,
                               k_transfer=k_A, Delta=Delta,
                               delta_omega=delta_omega, exc_cap=p["exc_cap"])
    registration = ("TRANSFER",) if (n_A > 0 and k_A > 0) else ("SHELVE",)
    return ArchitectureSpec("pnr-symmetric", p, sym, registration)


_BUILDERS = {
    "single": build_single_element,
    "band": build_band_element,
    "array": build_array,
    "pnr": build_pnr,
    "pnr-symmetric": build_symmetric_reduced,
}


def build_architecture(kind, **params):
    if kind not in _BUILDERS:
        raise ConfigError(f"unknown architecture kind {kind!r}; "
                          f"choose from {sorted(_BUILDERS)}")
    return _BUILDERS[kind](**params)
