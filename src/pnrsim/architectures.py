"""Detector architecture builders.

Each builder returns an ArchitectureSpec bundling the labeled space, the
assembled generator with tagged channels, the registration channel(s)
whose jumps mean "a photon got registered", and the builder arguments
that rebuild the architecture with modified parameters.

Conventions: gamma, Gamma, zeta, k_A, chi are amplitudes whose squares
are rates; Delta is itself a rate (the register reset). delta_omega is
the input carrier detuning from the band center; the rotating frame puts
level l at energy (epsilon_l - delta_omega).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .csr import CSR
from .errors import ConfigError, ResourceLimitError
from .liouville import AmpChannel, assemble_liouvillian, check_count, counting_resolve
from .spaces import Operator, Subsystem, build_space, embed, projector, transition
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
        if kind == "tabulated":
            w = np.asarray(omegas, dtype=float)
            d = np.asarray(densities, dtype=float)
            if w.ndim != 1 or w.size < 2 or d.shape != w.shape:
                raise ConfigError("tabulated DOS needs matching 1d omegas/densities")
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
            if width is None or width <= 0:
                raise ConfigError(f"{kind} DOS needs width > 0")
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


def _check_rates(**rates):
    for name, val in rates.items():
        if not (0 <= val < np.inf):
            raise ConfigError(f"{name} must be finite and >= 0, got {val}")


def _check_finite(**values):
    for name, val in values.items():
        if not np.isfinite(val):
            raise ConfigError(f"{name} must be finite, got {val}")


def _check_amplitudes(**amplitudes):
    """The generator holds the squares of the (finite) amplitudes as
    rates; an amplitude whose square overflows would leave it non-finite."""
    big = [f"{name} = {val:g}" for name, val in amplitudes.items()
           if abs(val) > _MAX_AMPLITUDE]
    if big:
        raise ConfigError(
            f"{', '.join(big)}: amplitudes enter the generator squared, as "
            f"rates, and those squares overflow above {_MAX_AMPLITUDE:.4g}; "
            f"rescale the time unit")


def build_single_element(gamma, Gamma, Delta=0.0, chi=1.0, k=0.0, delta_omega=0.0):
    """Three-level absorbing element: ground, optically coupled excited
    state, monitored shelf. Channels: ABSORB (the optical coupling),
    SHELVE (registration), RESET (shelf reset at rate Delta, present only
    when Delta > 0), AMP (continuous shelf monitor)."""
    _check_rates(gamma=gamma, Gamma=Gamma, Delta=Delta, k=k)
    _check_finite(chi=chi, delta_omega=delta_omega)
    _check_amplitudes(gamma=gamma, Gamma=Gamma, chi=chi)
    space = build_space([("element", ("0", "1", "C"))])
    h = Operator(space, -delta_omega * projector(space, "element", "1").matrix,
                 name="H", hermitian=True)
    absorb = transition(space, "element", "0", "1", gamma)
    shelve = transition(space, "element", "C", "1", Gamma)
    baths = [("SHELVE", shelve)]
    if Delta > 0:
        baths.append(("RESET", transition(space, "element", "0", "C", np.sqrt(Delta))))
    amps = [AmpChannel("AMP", chi * projector(space, "element", "C"), k, chi)]
    liou = assemble_liouvillian(h, baths, ("ABSORB", absorb), amps)
    return ArchitectureSpec(
        "single",
        dict(gamma=gamma, Gamma=Gamma, Delta=Delta, chi=chi, k=k,
             delta_omega=delta_omega),
        liou, ("SHELVE",), space=space,
        discretization=BandDiscretization(np.zeros(1), np.array([gamma]),
                                          np.array([Gamma])),
    )


def build_band_element(dos, n_b, gamma, Gamma, Delta=0.0, chi=1.0, k=0.0,
                       delta_omega=0.0, span=8.0):
    """Absorbing element whose excited state is a band of n_b levels
    sampled from the DOS, every level shelving to a common shelf.

    gamma is the per-level coupling scale: the sampled couplings satisfy
    sum gamma_l^2 = n_b gamma^2. With n_b = 1 this reduces exactly to the
    single element."""
    _check_rates(gamma=gamma, Gamma=Gamma, Delta=Delta, k=k)
    _check_finite(chi=chi, delta_omega=delta_omega, span=span)
    _check_amplitudes(gamma=gamma, Gamma=Gamma, chi=chi)
    check_count(n_b=n_b)
    n_b = int(n_b)
    disc = discretize_dos(dos, n_b, n_b * gamma ** 2, Gamma, span=span)
    states = ("0",) + tuple(f"1_{l}" for l in range(n_b)) + ("C",)
    space = build_space([("element", states)])
    h_mat = CSR.diags(
        np.concatenate([[0.0], disc.levels - dos.center - delta_omega, [0.0]]))
    h = Operator(space, h_mat, name="H", hermitian=True)
    absorb_mat = sum(
        transition(space, "element", "0", f"1_{l}", disc.couplings[l]).matrix
        for l in range(n_b))
    absorb = Operator(space, absorb_mat)
    baths = [(f"SHELVE{l}",
              transition(space, "element", "C", f"1_{l}", disc.decays[l]))
             for l in range(n_b)]
    if Delta > 0:
        baths.append(("RESET", transition(space, "element", "0", "C", np.sqrt(Delta))))
    amps = [AmpChannel("AMP", chi * projector(space, "element", "C"), k, chi)]
    liou = assemble_liouvillian(h, baths, ("ABSORB", absorb), amps)
    return ArchitectureSpec(
        "band",
        dict(dos=dos, n_b=n_b, gamma=gamma, Gamma=Gamma, Delta=Delta,
             chi=chi, k=k, delta_omega=delta_omega, span=span),
        liou, tuple(f"SHELVE{l}" for l in range(n_b)), space=space,
        discretization=disc,
    )


_DEFAULT_MAX_DIM = 4096


def build_array(n_D, gamma, Gamma, Delta=0.0, chi=1.0, k=0.0,
                delta_omega=0.0, max_dim=_DEFAULT_MAX_DIM):
    """n_D identical single elements jointly coupled to the mode, with no
    energy transfer: the photon-number response degrades as elements
    shelve. Registration counts shelf entries across all elements."""
    _check_rates(gamma=gamma, Gamma=Gamma, Delta=Delta, k=k)
    _check_finite(chi=chi, delta_omega=delta_omega)
    _check_amplitudes(gamma=gamma, Gamma=Gamma, chi=chi)
    check_count(n_D=n_D, max_dim=max_dim)
    n_D = int(n_D)
    if n_D < 1:
        raise ConfigError(f"need n_D >= 1, got {n_D}")
    dim = 3 ** n_D
    if dim > max_dim:
        raise ResourceLimitError(
            f"array tensor space has dimension {dim} > guard {max_dim}; "
            f"use build_symmetric_reduced(n_D, 0, ...) or raise max_dim "
            f"(limits.max_dim in a run config)")
    space = build_space([(f"d{i}", ("0", "1", "C")) for i in range(n_D)])
    h_mat = sum((-delta_omega) * projector(space, f"d{i}", "1").matrix
                for i in range(n_D))
    h = Operator(space, h_mat, hermitian=True)
    absorb = Operator(space, sum(
        transition(space, f"d{i}", "0", "1", gamma).matrix for i in range(n_D)))
    baths = [(f"SHELVE{i}", transition(space, f"d{i}", "C", "1", Gamma))
             for i in range(n_D)]
    if Delta > 0:
        baths += [(f"RESET{i}", transition(space, f"d{i}", "0", "C", np.sqrt(Delta)))
                  for i in range(n_D)]
    amps = [AmpChannel(f"AMP{i}", chi * projector(space, f"d{i}", "C"), k, chi)
            for i in range(n_D)]
    liou = assemble_liouvillian(h, baths, ("ABSORB", absorb), amps)
    return ArchitectureSpec(
        "array",
        dict(n_D=n_D, gamma=gamma, Gamma=Gamma, Delta=Delta, chi=chi, k=k,
             delta_omega=delta_omega, max_dim=max_dim),
        liou, tuple(f"SHELVE{i}" for i in range(n_D)), space=space,
    )


def build_pnr(n_D, n_A, dos=None, n_b=1, gamma=1.0, Gamma=1.0, k_A=1.0,
              Delta=0.0, chi=1.0, k=0.0, delta_omega=0.0, span=8.0,
              max_dim=_DEFAULT_MAX_DIM):
    """Full tensor build of the photon-number-resolving architecture:
    n_D absorbing elements (optionally banded) and n_A two-level register
    stages. Every element's shelf can hand its energy to every register
    stage (uniform all-to-all transfer amplitude k_A); registration
    counts transfer jumps. Refuses to build spaces larger than max_dim;
    use the symmetric reduction beyond that."""
    _check_rates(gamma=gamma, Gamma=Gamma, k_A=k_A, Delta=Delta, k=k)
    _check_finite(chi=chi, delta_omega=delta_omega, span=span)
    _check_amplitudes(gamma=gamma, Gamma=Gamma, k_A=k_A, chi=chi)
    check_count(n_D=n_D, n_A=n_A, n_b=n_b, max_dim=max_dim)
    n_D, n_A, n_b = int(n_D), int(n_A), int(n_b)
    if n_D < 1 or n_A < 1:
        raise ConfigError(f"need n_D >= 1 and n_A >= 1, got {n_D}, {n_A}")
    dim = (n_b + 2) ** n_D * 2 ** n_A
    if dim > max_dim:
        raise ResourceLimitError(
            f"pnr tensor space has dimension {dim} > guard {max_dim}; use "
            f"build_symmetric_reduced (exact for identical elements) or "
            f"raise max_dim (limits.max_dim in a run config)")
    if dos is None:
        dos = DosModel("flat2d", width=1.0)
        if n_b != 1:
            raise ConfigError("banded elements need an explicit DOS")
    disc = discretize_dos(dos, n_b, n_b * gamma ** 2, Gamma, span=span)
    donor_states = ("0",) + tuple(f"1_{l}" for l in range(n_b)) + ("C",)
    subs = [(f"d{i}", donor_states) for i in range(n_D)]
    subs += [(f"a{j}", ("A0", "A1")) for j in range(n_A)]
    space = build_space(subs)

    level_diag = np.concatenate([[0.0], disc.levels - dos.center - delta_omega, [0.0]])
    h_mat = sum(embed(CSR.diags(level_diag), f"d{i}", space).matrix
                for i in range(n_D))
    h = Operator(space, h_mat, hermitian=True)
    absorb = Operator(space, sum(
        transition(space, f"d{i}", "0", f"1_{l}", disc.couplings[l]).matrix
        for i in range(n_D) for l in range(n_b)))
    baths = [(f"SHELVE{i}:{l}",
              transition(space, f"d{i}", "C", f"1_{l}", disc.decays[l]))
             for i in range(n_D) for l in range(n_b)]
    transfer_tags = []
    for i in range(n_D):
        for j in range(n_A):
            op = Operator(space,
                          (transition(space, f"d{i}", "0", "C", k_A).matrix
                           @ transition(space, f"a{j}", "A1", "A0", 1.0).matrix))
            tag = f"TRANSFER{i}:{j}"
            transfer_tags.append(tag)
            baths.append((tag, op))
    if Delta > 0:
        baths += [(f"RESET{j}",
                   transition(space, f"a{j}", "A0", "A1", np.sqrt(Delta)))
                  for j in range(n_A)]
    amps = [AmpChannel(f"AMP{j}", chi * projector(space, f"a{j}", "A1"), k, chi)
            for j in range(n_A)]
    liou = assemble_liouvillian(h, baths, ("ABSORB", absorb), amps)
    return ArchitectureSpec(
        "pnr",
        dict(n_D=n_D, n_A=n_A, dos=dos, n_b=n_b, gamma=gamma, Gamma=Gamma,
             k_A=k_A, Delta=Delta, chi=chi, k=k, delta_omega=delta_omega,
             span=span, max_dim=max_dim),
        liou, tuple(transfer_tags), space=space, discretization=disc,
    )


def build_symmetric_reduced(n_D, n_A, gamma_eff, Gamma, k_A=0.0, Delta=0.0,
                            delta_omega=0.0, exc_cap=1):
    """Permutation-symmetric build with idealized elements: each element's
    band is collapsed to one effective level with coupling gamma_eff
    (gamma_eff^2 standing in for n_b gamma^2) at energy -delta_omega, as
    in the tensor builders. Exact for identical elements and symmetric
    initial states; scales polynomially in n_D and n_A. n_A = 0 gives the
    no-transfer array, registered by shelf entry instead of register
    transfer."""
    _check_rates(gamma_eff=gamma_eff, Gamma=Gamma, k_A=k_A, Delta=Delta)
    _check_finite(delta_omega=delta_omega)
    _check_amplitudes(gamma_eff=gamma_eff, Gamma=Gamma, k_A=k_A)
    check_count(n_D=n_D, n_A=n_A, exc_cap=exc_cap)
    sym = SymmetricLiouvillian(int(n_D), int(n_A), gamma_eff, Gamma,
                               k_transfer=k_A, Delta=Delta,
                               delta_omega=delta_omega, exc_cap=int(exc_cap))
    registration = ("TRANSFER",) if (n_A > 0 and k_A > 0) else ("SHELVE",)
    return ArchitectureSpec(
        "pnr-symmetric",
        dict(n_D=int(n_D), n_A=int(n_A), gamma_eff=gamma_eff, Gamma=Gamma,
             k_A=k_A, Delta=Delta, delta_omega=delta_omega,
             exc_cap=int(exc_cap)),
        sym, registration, space=None,
    )


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
