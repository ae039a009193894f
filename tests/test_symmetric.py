"""Permutation-symmetric reduction against the full tensor models."""

from itertools import product

import numpy as np
import pytest

from pnrsim.architectures import (build_pnr, build_single_element,
                                  build_symmetric_reduced)
from pnrsim.errors import ConfigError
from pnrsim.hierarchy import IntegratorOptions, integrate_hierarchy
from pnrsim.pulses import fock_input, gaussian_envelope
from pnrsim.spaces import Operator, projector
from pnrsim.symmetric import SymmetricLiouvillian, enumerate_classes


def brute_classes(n_elements, n_registers, exc_cap):
    """Collapse explicit per-site assignments to type-occupation classes."""
    # site types: ground, ket-excited, bra-excited, both-excited, shelved
    seen = set()
    for sites in product(range(5), repeat=n_elements):
        nk = sites.count(1)
        nb = sites.count(2)
        ne = sites.count(3)
        nc = sites.count(4)
        for a in range(n_registers + 1):
            ket = nk + ne + nc + a
            bra = nb + ne + nc + a
            if ket <= exc_cap and bra <= exc_cap:
                seen.add((nk, nb, ne, nc, a))
    return seen


@pytest.mark.parametrize("n_el,n_reg,cap", [(1, 0, 1), (2, 1, 2), (3, 2, 2), (4, 2, 3)])
def test_class_enumeration_matches_brute_force(n_el, n_reg, cap):
    table = enumerate_classes(n_el, n_reg, cap)
    assert set(table) == brute_classes(n_el, n_reg, cap)
    assert sorted(table.values()) == list(range(len(table)))


def test_constructor_validation():
    with pytest.raises(ConfigError):
        SymmetricLiouvillian(0, 0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        SymmetricLiouvillian(2, -1, 1.0, 1.0)
    with pytest.raises(ConfigError):
        SymmetricLiouvillian(2, 1, 1.0, 1.0, exc_cap=0)
    with pytest.raises(ConfigError):
        SymmetricLiouvillian(2, 0, 1.0, 1.0, k_transfer=0.5)


def test_observable_row_names():
    sym = SymmetricLiouvillian(2, 1, 1.0, 1.0, k_transfer=0.5, exc_cap=2)
    for name in ("population", "ground", "excited", "shelved", "registered"):
        row = sym.observable_row(name)
        assert row.shape == (sym.dim,)
    with pytest.raises(ConfigError):
        sym.observable_row("charm")


def full_single_run(gamma, Gamma, n, env, delta_omega=0.0):
    arch = build_single_element(gamma, Gamma, delta_omega=delta_omega)
    lo, hi = env.support
    span = (lo, hi + 6.0 / Gamma ** 2)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-12, n_points=41)
    obs = {"excited": projector(arch.space, "element", "1"),
           "shelved": projector(arch.space, "element", "C")}
    return integrate_hierarchy(arch.counting(n), fock_input(n, env), span, opts,
                               observables=obs)


def sym_single_run(gamma, Gamma, n, env, delta_omega=0.0):
    arch = build_symmetric_reduced(1, 0, gamma, Gamma, delta_omega=delta_omega,
                                   exc_cap=n)
    lo, hi = env.support
    span = (lo, hi + 6.0 / Gamma ** 2)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-12, n_points=41)
    sym = arch.liouvillian()
    obs = {"excited": sym.observable_row("excited"),
           "shelved": sym.observable_row("shelved")}
    return integrate_hierarchy(arch.counting(n), fock_input(n, env), span, opts,
                               observables=obs)


@pytest.mark.parametrize("n", [1, 2])
def test_single_element_reduction_is_exact(n):
    env = gaussian_envelope(1.5)
    full = full_single_run(0.9, 1.1, n, env, delta_omega=0.3)
    sym = sym_single_run(0.9, 1.1, n, env, delta_omega=0.3)
    assert np.abs(full.count_probabilities() - sym.count_probabilities()).max() < 1e-8
    for name in ("excited", "shelved"):
        assert np.abs(np.real(full.observable(name))
                      - np.real(sym.observable(name))).max() < 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_symmetric_detuning_has_the_tensor_sign(n):
    # a detuned carrier tells the sign of delta_omega apart: with the
    # opposite sign the two models differ by up to 0.25 in count probability
    env = gaussian_envelope(1.5, detuning=0.5)
    full = full_single_run(0.9, 1.1, n, env, delta_omega=0.3)
    sym = sym_single_run(0.9, 1.1, n, env, delta_omega=0.3)
    assert np.abs(full.count_probabilities() - sym.count_probabilities()).max() < 1e-8


def test_pnr_reduction_matches_full_tensor():
    # three donors, two registers, two photons: classes vs the 432-dim tensor
    n_D, n_A, n = 3, 2, 2
    gamma, Gamma, k_A = 0.8, 1.0, 0.7
    env = gaussian_envelope(1.0)
    lo, hi = env.support
    span = (lo, hi + 8.0)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-12, n_points=33)

    full_arch = build_pnr(n_D, n_A, gamma=gamma, Gamma=Gamma, k_A=k_A)
    space = full_arch.space
    obs_full = {
        "excited": Operator(space, sum(
            projector(space, f"d{i}", "1_0").matrix for i in range(n_D)),
            hermitian=True),
        "shelved": Operator(space, sum(
            projector(space, f"d{i}", "C").matrix for i in range(n_D)),
            hermitian=True),
        "registered": Operator(space, sum(
            projector(space, f"a{j}", "A1").matrix for j in range(n_A)),
            hermitian=True),
    }
    full = integrate_hierarchy(full_arch.counting(n), fock_input(n, env), span,
                               opts, observables=obs_full)

    sym_arch = build_symmetric_reduced(n_D, n_A, gamma, Gamma, k_A=k_A, exc_cap=n)
    sym = sym_arch.liouvillian()
    obs_sym = {name: sym.observable_row(name)
               for name in ("excited", "shelved", "registered")}
    red = integrate_hierarchy(sym_arch.counting(n), fock_input(n, env), span,
                              opts, observables=obs_sym)

    assert sym.dim < full_arch.dim
    assert np.abs(full.count_probabilities() - red.count_probabilities()).max() < 1e-8
    for name in obs_sym:
        assert np.abs(np.real(full.observable(name))
                      - np.real(red.observable(name))).max() < 1e-8


def test_reduction_with_reset_stays_normalized():
    arch = build_symmetric_reduced(4, 3, 0.7, 1.0, k_A=0.5, Delta=0.3, exc_cap=2)
    env = gaussian_envelope(1.0)
    lo, hi = env.support
    run = integrate_hierarchy(arch.counting(2), fock_input(2, env), (lo, hi + 10.0),
                              IntegratorOptions(rtol=1e-9, atol=1e-11, n_points=21))
    totals = run.count_probabilities().sum(axis=0)
    assert np.abs(totals - 1.0).max() < 1e-8


def test_class_count_scales_polynomially():
    # the whole point of the reduction: dim grows slowly with n_D
    dims = [SymmetricLiouvillian(n, 4, 1.0, 1.0, k_transfer=1.0, exc_cap=2).dim
            for n in (8, 16, 32)]
    assert dims[0] == dims[1] == dims[2]  # caps bind before element count
    big = SymmetricLiouvillian(64, 8, 1.0, 1.0, k_transfer=1.0, exc_cap=3)
    assert big.dim < 200
