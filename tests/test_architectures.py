"""Architecture builders, band discretization, and their limiting cases."""

import numpy as np
import pytest

from pnrsim.architectures import (ArchitectureSpec, DosModel, build_architecture,
                                  build_array, build_band_element, build_pnr,
                                  build_single_element, build_symmetric_reduced,
                                  cw_single_photon_efficiency, discretize_dos,
                                  ideal_total_coupling)
from pnrsim.errors import ConfigError, ResourceLimitError
from pnrsim.hierarchy import IntegratorOptions, integrate_hierarchy
from pnrsim.metrics import detection_probabilities, efficiency
from pnrsim.pulses import fock_input, gaussian_envelope


def one_photon_efficiency(arch, sigma0, *, rtol=1e-8, drain=10.0, tags=None):
    env = gaussian_envelope(sigma0)
    lo, hi = env.support
    opts = IntegratorOptions(rtol=rtol, atol=rtol * 1e-2, n_points=101,
                             store_states=False)
    run = integrate_hierarchy(arch.counting(1, tags), fock_input(1, env),
                              (lo, hi + drain), opts)
    return efficiency(detection_probabilities(run, 0.0, 0.0))


# --- DOS models and discretization -------------------------------------------

def test_dos_models_normalized():
    w, c = 1.3, 0.4
    # lorentzian: finite-window mass has a closed form
    dos = DosModel("lorentzian", width=w, center=c)
    L = 60.0 * w
    x = np.linspace(c - L, c + L, 400001)
    mass = np.trapezoid(dos.density(x), x)
    assert mass == pytest.approx((2.0 / np.pi) * np.arctan(2.0 * L / w), abs=1e-6)
    # flat: exact box
    dos = DosModel("flat2d", width=w, center=c)
    lo, hi = dos.support
    assert dos.density(c) == pytest.approx(1.0 / w, rel=1e-12)
    assert (hi - lo) * dos.density(c) == pytest.approx(1.0, rel=1e-12)
    assert dos.density(hi + 1e-9) == 0.0
    # van Hove: integrate through the edge singularities by substitution
    dos = DosModel("vanhove1d", width=w, center=c)
    theta = np.linspace(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, 200001)
    xs = c + (w / 2.0) * np.sin(theta)
    mass = np.trapezoid(dos.density(xs) * (w / 2.0) * np.cos(theta), theta)
    assert mass == pytest.approx(1.0, abs=1e-5)


def test_lorentzian_width_is_fwhm():
    dos = DosModel("lorentzian", width=2.0, center=1.0)
    peak = dos.density(1.0)
    assert dos.density(2.0) == pytest.approx(peak / 2.0, rel=1e-12)
    assert dos.density(0.0) == pytest.approx(peak / 2.0, rel=1e-12)


def test_flat_discretization_equal_couplings():
    disc = discretize_dos(DosModel("flat2d", width=2.0), 4, 1.6, 1.0)
    assert np.allclose(disc.couplings, disc.couplings[0])
    assert disc.total_coupling == pytest.approx(1.6, abs=1e-12)
    # midpoint grid over the box
    assert np.allclose(np.diff(disc.levels), 0.5)
    assert disc.levels[0] == pytest.approx(-1.0 + 0.25)


def test_lorentzian_discretization_center_to_halfwidth_ratio():
    # this grid puts levels exactly at the center and at half a width out,
    # where the density is down by exactly 2
    disc = discretize_dos(DosModel("lorentzian", width=1.0), 25, 2.0, 1.0, span=6.25)
    assert disc.levels[12] == pytest.approx(0.0, abs=1e-12)
    assert disc.levels[14] == pytest.approx(0.5, abs=1e-12)
    g2 = disc.couplings ** 2
    assert g2[12] / g2[14] == pytest.approx(2.0, rel=1e-12)
    assert g2.sum() == pytest.approx(2.0, abs=1e-9)


def test_vanhove_discretization_clipped_and_normalized():
    disc = discretize_dos(DosModel("vanhove1d", width=2.0), 24, 3.0, 1.0)
    g2 = disc.couplings ** 2
    assert np.all(np.isfinite(g2)) and g2.min() > 0
    assert g2.sum() == pytest.approx(3.0, abs=1e-9)
    # edge singularities dominate the band center
    assert g2[0] > 2.0 * g2[12]
    assert g2[-1] == pytest.approx(g2[0], rel=1e-12)


def test_tabulated_dos_round_trip():
    x = np.linspace(-1.0, 1.0, 401)
    dos = DosModel("tabulated", omegas=x, densities=1.0 + 0.5 * np.cos(np.pi * x))
    disc = discretize_dos(dos, 8, 1.0, 1.0)
    assert disc.total_coupling == pytest.approx(1.0, abs=1e-12)
    d2 = DosModel.from_dict(dos.to_dict())
    probe = np.linspace(-0.9, 0.9, 17)
    assert np.allclose(d2.density(probe), dos.density(probe))


# --- continuous-wave scattering route -----------------------------------------

def test_cw_efficiency_single_level_closed_form():
    # one level at resonance: P = gamma^2 Gamma^2 / (delta^2 + ((gamma^2+Gamma^2)/2)^2)
    disc = discretize_dos(DosModel("flat2d", width=1e-6), 1, 1.0, 1.0)
    for delta in (0.0, 0.7, 2.0):
        p = cw_single_photon_efficiency(disc, delta)
        assert p == pytest.approx(1.0 / (1.0 + delta ** 2), rel=1e-9)


def test_ideal_total_coupling_gives_unit_peak():
    dos = DosModel("lorentzian", width=1.0)
    total = ideal_total_coupling(dos, 96, 1.0)
    disc = discretize_dos(dos, 96, total, 1.0)
    # matching is exact on the sampled comb
    assert cw_single_photon_efficiency(disc, 0.0) == pytest.approx(1.0, abs=1e-12)
    # and the matched total approaches Gamma^2 + zeta^2 = 2 as the sampled
    # band widens
    wider = ideal_total_coupling(dos, 192, 1.0, span=16.0)
    assert total < wider < 2.0
    assert wider == pytest.approx(2.0, abs=0.1)


# --- builders -----------------------------------------------------------------

def test_dispatcher_and_dims():
    assert build_architecture("single", gamma=1.0, Gamma=1.0).dim == 3
    assert build_architecture("array", n_D=2, gamma=1.0, Gamma=1.0).dim == 9
    assert build_architecture("pnr", n_D=2, n_A=1, gamma=1.0, Gamma=1.0).dim == 18
    band = build_architecture("band", dos=DosModel("flat2d", width=1.0),
                              n_b=4, gamma=0.5, Gamma=1.0)
    assert band.dim == 6
    with pytest.raises(ConfigError):
        build_architecture("hexagonal", n_D=2)


def test_single_element_ideal_flag():
    assert build_single_element(1.0, 1.0).ideal
    assert not build_single_element(1.0, 2.0).ideal
    assert not build_single_element(1.0, 1.0, Delta=0.1).ideal


def test_rate_validation():
    with pytest.raises(ConfigError):
        build_single_element(-1.0, 1.0)
    with pytest.raises(ConfigError):
        build_array(2, 1.0, 1.0, Delta=-0.2)
    with pytest.raises(ConfigError):
        build_pnr(0, 1)


def test_rates_must_be_finite():
    # a NaN rate slips past a plain "< 0" test and stalls the solver
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_single_element(bad, 1.0)
        with pytest.raises(ConfigError, match="finite"):
            build_symmetric_reduced(2, 1, 1.0, bad)


def test_counts_must_be_integers():
    # int("abc") used to escape as a bare ValueError, and 2.7 elements
    # silently built 2
    for bad in ("abc", 2.7, True, np.nan):
        with pytest.raises(ConfigError, match="n_D must be an integer"):
            build_pnr(bad, 1)
        with pytest.raises(ConfigError, match="n_D must be an integer"):
            build_symmetric_reduced(bad, 1, 1.0, 1.0)
    with pytest.raises(ConfigError, match="n_A must be an integer"):
        build_pnr(1, "1")
    with pytest.raises(ConfigError, match="n_b must be an integer"):
        build_pnr(1, 1, n_b="x")
    with pytest.raises(ConfigError, match="max_dim must be an integer"):
        build_pnr(1, 1, max_dim=4096.5)
    with pytest.raises(ConfigError, match="exc_cap must be an integer"):
        build_symmetric_reduced(2, 1, 1.0, 1.0, exc_cap=1.5)
    # a float with no fractional part is a count
    assert build_pnr(1.0, np.int64(1)).params["n_D"] == 1
    assert build_symmetric_reduced(2.0, 0, 1.0, 1.0).params["n_D"] == 2


def test_non_rate_parameters_must_be_finite():
    # detunings, record amplitudes and DOS spans are checked like rates:
    # a NaN detuning used to build and then stall the solver
    dos = DosModel("flat2d", width=1.0)
    builds = {
        "single": lambda **kw: build_single_element(1.0, 1.0, **kw),
        "band": lambda **kw: build_band_element(dos, 2, 1.0, 1.0, **kw),
        "array": lambda **kw: build_array(2, 1.0, 1.0, **kw),
        "pnr": lambda **kw: build_pnr(1, 1, **kw),
    }
    cases = [(kind, name) for kind in builds for name in ("delta_omega", "chi")]
    cases += [("band", "span"), ("pnr", "span")]
    for kind, name in cases:
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match=name):
                builds[kind](**{name: bad})
    for bad in (np.nan, -np.inf):
        with pytest.raises(ConfigError, match="detuning"):
            build_symmetric_reduced(2, 1, 1.0, 1.0, detuning=bad)


def test_band_with_one_level_reduces_to_single_element():
    dos = DosModel("flat2d", width=1.0)
    band = build_band_element(dos, 1, 0.8, 1.1, delta_omega=0.3)
    single = build_single_element(0.8, 1.1, delta_omega=0.3)
    diff = band.liouvillian().generator - single.liouvillian().generator
    assert np.abs(diff.toarray()).max() < 1e-12


def test_fast_transfer_approaches_band_element():
    e_band = one_photon_efficiency(build_single_element(1.0, 1.0), 4.0,
                                   rtol=1e-9, drain=12.0)
    e_pnr = one_photon_efficiency(build_pnr(1, 1, gamma=1.0, Gamma=1.0, k_A=5.0),
                                  4.0, rtol=1e-9, drain=12.0)
    assert e_band > 0.98
    assert abs(e_pnr - e_band) < 1e-2


def test_zero_transfer_never_registers():
    arch = build_pnr(1, 1, gamma=1.0, Gamma=1.0, k_A=0.0)
    env = gaussian_envelope(1.0)
    lo, hi = env.support
    run = integrate_hierarchy(arch.counting(1), fock_input(1, env), (lo, hi + 8.0),
                              IntegratorOptions(rtol=1e-9, n_points=41))
    probs = run.count_probabilities()
    assert probs[1].max() < 1e-12
    assert probs[0].min() > 1.0 - 1e-9


def test_collective_coupling_split_invariance():
    # fixed total n_D gamma^2: the jointly coupled mode sees one bright state
    total = 0.36
    effs = []
    for n_D in (1, 2, 4):
        arch = build_array(n_D, np.sqrt(total / n_D), 1.0)
        counting = arch.counting(1)
        env = gaussian_envelope(3.0)
        lo, hi = env.support
        run = integrate_hierarchy(counting, fock_input(1, env), (lo, hi + 12.0),
                                  IntegratorOptions(rtol=1e-10, atol=1e-12,
                                                    n_points=31))
        effs.append(run.count_probabilities()[1, -1])
    assert abs(effs[1] - effs[0]) < 1e-8
    assert abs(effs[2] - effs[0]) < 1e-8


def test_band_refinement_converged():
    dos = DosModel("lorentzian", width=1.0)
    e16 = one_photon_efficiency(
        build_band_element(dos, 16, np.sqrt(2.0 / 16), 1.0), 25.0)
    e32 = one_photon_efficiency(
        build_band_element(dos, 32, np.sqrt(2.0 / 32), 1.0), 25.0)
    assert abs(e16 - e32) < 1e-3


def test_size_guards():
    with pytest.raises(ResourceLimitError):
        build_array(8, 1.0, 1.0)
    with pytest.raises(ResourceLimitError):
        build_pnr(6, 4, gamma=1.0, Gamma=1.0)
    build_array(8, 1.0, 1.0, max_dim=10000)  # explicit opt-in


def test_with_params_rebuilds():
    arch = build_single_element(1.0, 1.0)
    moved = arch.with_params(delta_omega=0.5)
    assert moved.params["delta_omega"] == 0.5
    assert arch.params["delta_omega"] == 0.0
    diff = moved.liouvillian().generator - arch.liouvillian().generator
    assert np.abs(diff.toarray()).max() > 0.1


def test_spec_serialization_round_trip():
    dos = DosModel("lorentzian", width=1.2, center=0.3)
    arch = build_band_element(dos, 4, 0.5, 1.0, Delta=0.2, k=0.1)
    clone = ArchitectureSpec.from_dict(arch.to_dict())
    assert clone.kind == arch.kind
    diff = clone.liouvillian().generator - arch.liouvillian().generator
    assert np.abs(diff.toarray()).max() < 1e-12
    again = ArchitectureSpec.from_dict(arch.to_dict())
    assert again.to_json() == arch.to_json()


def test_counting_tag_override():
    arch = build_array(2, 0.8, 1.0)
    default = arch.counting(1)
    only_first = arch.counting(1, ("SHELVE0",))
    assert default.jump.nnz > only_first.jump.nnz
    with pytest.raises(ConfigError):
        arch.counting(1, ("SHELVE9",))
