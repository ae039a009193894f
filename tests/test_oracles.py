"""Closed-form oracles and the structural unit-efficiency check."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from pnrsim.architectures import (ArchitectureSpec, DosModel,
                                  build_band_element, build_single_element,
                                  build_symmetric_reduced)
from pnrsim.errors import ConfigError, NumericsError
from pnrsim.liouville import assemble_liouvillian
from pnrsim.oracles import (OracleResult, band_efficiency,
                            check_ideal_conditions, evaluate, jitter_model,
                            pnr_rate_relations, single_element_count_rate)
from pnrsim.spaces import Operator, build_space, transition


def test_band_efficiency_pins():
    # matched collective absorption, zero detuning: exactly unity
    assert band_efficiency(16, 0.25, 1.0, 0.0) == 1.0
    # matched total rate of 2: detuning 1 sits at half maximum
    assert band_efficiency(1, 1.0, 1.0, 0.0, 1.0) == 0.5
    # mismatch penalty 4 g2 r2 / (g2 + r2)^2
    assert band_efficiency(4, 1.0, 1.0, 1.0) == pytest.approx(8.0 / 9.0,
                                                              rel=1e-15)
    assert band_efficiency(1, 1.0, 1.0, 0.0, 1e9) < 1e-15


def test_band_efficiency_is_lorentzian_in_detuning():
    dws = np.linspace(-3.0, 3.0, 13)
    got = np.array([band_efficiency(1, 1.0, 1.0, 0.0, d) for d in dws])
    assert np.allclose(got, 1.0 / (1.0 + dws ** 2), rtol=1e-14)


def test_band_efficiency_validation():
    with pytest.raises(ConfigError):
        band_efficiency(1, -1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        band_efficiency(0, 0.0, 0.0, 0.0)


def test_count_rate_limits():
    assert single_element_count_rate(0.0, 1.0, 0.5) == 0.0
    # t_MIN = 0 and a 1/e loss budget: the rate is exactly the reset rate
    assert single_element_count_rate(0.7, 0.0, math.exp(-1)) == pytest.approx(
        0.7, rel=1e-14)


def test_count_rate_branches_agree_at_small_loss():
    exact = single_element_count_rate(1.0, 1e-3, 0.01)
    approx = single_element_count_rate(1.0, 1e-3, 0.01, approximate=True)
    rel = abs(exact - approx) / exact
    assert 1e-3 < rel < 0.05


def test_count_rate_validation():
    with pytest.raises(ConfigError):
        single_element_count_rate(1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        single_element_count_rate(1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        single_element_count_rate(-1.0, 1.0, 0.5)
    # (1 - eff_loss) e^(Delta t_MIN) = 2 puts the log argument on the
    # unit circle
    with pytest.raises(NumericsError):
        single_element_count_rate(math.log(4.0), 1.0, 0.5)


def test_rate_relations_fields():
    r = pnr_rate_relations(2, Delta=0.3, t_MIN=1.0, snr0=2.0)
    assert r.r_C == pytest.approx(0.6, rel=1e-15)
    assert r.r_DC == pytest.approx(2.0 * erfc(2.0 / math.sqrt(2)), rel=1e-14)
    assert r.ratio * r.r_C == pytest.approx(r.r_DC, rel=1e-14)
    assert r.eff_loss == pytest.approx(1.0 - math.exp(-0.6), rel=1e-14)
    assert r.r_C_approx == pytest.approx(2.0 * r.eff_loss, rel=1e-14)


def test_rate_relations_limits():
    r = pnr_rate_relations(12, Delta=2.0, t_MIN=0.5)
    assert r.r_DC == 0.0 and r.ratio == 0.0
    stopped = pnr_rate_relations(3, Delta=0.0, t_MIN=1.0, snr0=2.0)
    assert stopped.r_C == 0.0 and math.isinf(stopped.ratio)
    silent = pnr_rate_relations(3, Delta=0.0, t_MIN=1.0)
    assert silent.ratio == 0.0


def test_rate_relations_loss_round_trip():
    a = pnr_rate_relations(3, Delta=0.4, t_MIN=0.2, snr0=3.0)
    b = pnr_rate_relations(3, eff_loss=a.eff_loss, t_MIN=0.2, snr0=3.0)
    assert b.Delta == pytest.approx(0.4, rel=1e-12)
    assert b.r_C == pytest.approx(a.r_C, rel=1e-12)


def test_rate_relations_first_order():
    r = pnr_rate_relations(5, Delta=1e-6, t_MIN=1e-3, snr0=4.0)
    assert r.r_C == pytest.approx(5e-6, rel=1e-15)
    assert r.eff_loss == pytest.approx(5 * 1e-6 * 1e-3, rel=1e-8)


def test_rate_relations_validation():
    with pytest.raises(ConfigError):
        pnr_rate_relations(0, Delta=1.0, t_MIN=1.0)
    with pytest.raises(ConfigError):
        pnr_rate_relations(1, Delta=1.0, t_MIN=0.0)
    with pytest.raises(ConfigError):
        pnr_rate_relations(1, t_MIN=1.0)
    with pytest.raises(ConfigError):
        pnr_rate_relations(1, eff_loss=1.0, t_MIN=1.0)
    with pytest.raises(ConfigError):
        pnr_rate_relations(1, Delta=-0.1, t_MIN=1.0)


def test_jitter_model():
    assert jitter_model(2.0, 6, 0.5, 3) == pytest.approx(1.0, rel=1e-15)
    # fully loaded register: no headroom left, slowest response
    assert jitter_model(1.0, 4, 2.0, 4) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ConfigError):
        jitter_model(1.0, 3, 1.0, 4)
    with pytest.raises(ConfigError):
        jitter_model(1.0, 3, 1.0, 0)
    with pytest.raises(ConfigError):
        jitter_model(0.0, 3, 1.0, 1)
    with pytest.raises(ConfigError):
        jitter_model(1.0, 3, 0.0, 1)


def custom_arch(cross=False, feed=False):
    space = build_space([("element", ("0", "a", "b", "d", "C"))])
    absorb = Operator(space,
                      transition(space, "element", "0", "a", 1.0).matrix
                      + transition(space, "element", "0", "b", 0.8).matrix)
    baths = [("SHELVEA", transition(space, "element", "C", "a", 1.0)),
             ("SHELVEB", transition(space, "element", "C", "b", 1.0))]
    if cross:
        baths.append(("CROSS", transition(space, "element", "b", "a", 0.3)))
    if feed:
        baths.append(("FEED", transition(space, "element", "a", "d", 0.3)))
    liou = assemble_liouvillian(None, baths, ("ABSORB", absorb))
    return ArchitectureSpec("custom", {}, liou, ("SHELVEA", "SHELVEB"),
                            space=space)


def test_ideal_conditions_pass_on_builders():
    # the check targets one absorbing element's level structure
    for arch in (build_single_element(1.0, 1.0, Delta=0.5),
                 build_band_element(DosModel("lorentzian", width=1.0), 8,
                                    0.5, 1.0),
                 build_band_element(DosModel("flat2d", width=2.0), 6,
                                    0.5, 1.0, Delta=0.3)):
        report = check_ideal_conditions(arch)
        assert report["all_pass"], report


def test_ideal_conditions_classify_states():
    report = check_ideal_conditions(build_single_element(1.0, 1.0))
    assert report["bright_states"] == ["1"]
    assert report["dark_states"] == ["C"]


def test_ideal_conditions_flag_bright_to_bright():
    report = check_ideal_conditions(custom_arch(cross=True))
    assert not report["no_bright_to_bright"]
    assert not report["all_pass"]
    assert report["violations"]["bright_to_bright"] == [("CROSS", "a", "b")]
    assert report["no_dark_to_bright"]


def test_ideal_conditions_flag_dark_to_bright():
    report = check_ideal_conditions(custom_arch(feed=True))
    assert not report["no_dark_to_bright"]
    assert report["violations"]["dark_to_bright"] == [("FEED", "d", "a")]
    assert report["no_bright_to_bright"]


def test_ideal_conditions_flag_asymmetric_band():
    om = np.linspace(-1.0, 1.0, 201)
    dos = DosModel("tabulated", omegas=om, densities=1.0 + 0.8 * om)
    report = check_ideal_conditions(build_band_element(dos, 8, 0.5, 1.0))
    assert not report["symmetric_intensity"]
    assert report["intensity_asymmetry"] > 0.1
    assert not report["all_pass"]


def test_ideal_conditions_need_tensor_architecture():
    with pytest.raises(ConfigError):
        check_ideal_conditions(build_symmetric_reduced(4, 2, 1.0, 1.0,
                                                       k_A=0.5))
    space = build_space([("element", ("0", "1"))])
    bare = assemble_liouvillian(
        None, [("DECAY", transition(space, "element", "0", "1", 1.0))])
    with pytest.raises(ConfigError):
        check_ideal_conditions(ArchitectureSpec("custom", {}, bare,
                                                ("DECAY",), space=space))


def test_evaluate_registry():
    res = evaluate("band-eff", n_b=16, gamma=0.25, Gamma=1.0, zeta=0.0)
    assert isinstance(res, OracleResult)
    assert res.value == 1.0
    rates = evaluate("rates", N=2, Delta=0.3, t_MIN=1.0, snr0=2.0)
    assert rates.value.r_C == pytest.approx(0.6)
    assert set(rates.value._fields) == {"r_C", "r_DC", "ratio", "eff_loss",
                                        "Delta", "r_C_approx"}
    with pytest.raises(ConfigError):
        evaluate("mystery")
