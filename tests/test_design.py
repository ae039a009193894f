"""Physical-realization calculators and the rate trade-off sweep."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from pnrsim.design import (TRADEOFF_CSV_COLUMNS,
                           effective_coupling, film_thickness,
                           required_absorbers, snr0_transport,
                           tradeoff_curve, tradeoff_family,
                           transport_amplifier)
from pnrsim.errors import ConfigError
from pnrsim.oracles import pnr_rate_relations

AMP = transport_amplifier(0.1, 10e-6)


def test_scalar_calculator_pins():
    assert snr0_transport(0.1, 10e-6, 1e-9) == pytest.approx(
        17.665657466481065, rel=1e-12)
    assert effective_coupling(1.55e-6, 1e-12, 1e5, 1.0) == pytest.approx(
        57355.46261674178, rel=1e-12)
    assert film_thickness(2e7) == pytest.approx(2.0 / (3.0 * 2e7), rel=1e-15)
    assert required_absorbers(1e-12, 1e-18) == 666667
    assert required_absorbers(3e-18, 2e-18) == 1


def test_scalar_calculator_validation():
    with pytest.raises(ConfigError):
        snr0_transport(0.0, 1e-6, 1e-9)
    with pytest.raises(ConfigError):
        snr0_transport(1.5, 1e-6, 1e-9)
    with pytest.raises(ConfigError):
        snr0_transport(0.1, -1e-6, 1e-9)
    with pytest.raises(ConfigError):
        effective_coupling(1.55e-6, 0.0, 1e5, 1.0)
    with pytest.raises(ConfigError):
        film_thickness(0.0)
    with pytest.raises(ConfigError):
        required_absorbers(1e-12, 0.0)
    with pytest.raises(ConfigError):
        transport_amplifier(0.0, 1e-6)


def test_overflowing_results_are_config_errors():
    # finite inputs whose result leaves a double's range: required_absorbers
    # raised OverflowError and effective_coupling returned inf
    for call in (lambda: required_absorbers(1e308, 1e-300),
                 lambda: effective_coupling(1e200, 1e-200, 1.0, 1.0),
                 lambda: film_thickness(1e-320),
                 lambda: snr0_transport(1.0, 1e300, 1e300),
                 lambda: tradeoff_curve(2, 4, 0.05, AMP, t_min_grid=[1e-320])):
        with pytest.raises(ConfigError, match="overflows"):
            call()


def test_monotonicities():
    # thicker film for weaker absorption
    assert film_thickness(1e6) > film_thickness(1e7)
    curve = tradeoff_curve(12, 24, 0.01, AMP)
    t = np.array([p.t_MIN for p in curve])
    delta = np.array([p.Delta for p in curve])
    r_c = np.array([p.r_C for p in curve])
    r_dc = np.array([p.r_DC for p in curve])
    snr = np.array([p.snr0 for p in curve])
    assert np.all(np.diff(t) > 0)
    assert np.all(np.diff(delta) < 0)
    assert np.all(np.diff(r_c) < 0)
    assert np.all(np.diff(snr) > 0)
    assert np.all(np.diff(r_dc)[r_dc[:-1] > 0] < 0)
    # r_C tracks Delta linearly along the sweep
    assert np.allclose(r_c, 0.5 * 24 * delta, rtol=1e-14)


def test_baseline_array_reduces_to_rate_relations():
    # n_A = 2N: per-window time equals the dwell time and the curve
    # reproduces the closed-form rate relations exactly
    curve = tradeoff_curve(12, 24, 0.01, AMP)
    for p in list(curve)[::30]:
        ref = pnr_rate_relations(12, eff_loss=0.01, t_MIN=p.t_MIN,
                                 snr0=p.snr0)
        assert p.Delta == pytest.approx(ref.Delta, rel=1e-14)
        assert p.r_C == pytest.approx(ref.r_C, rel=1e-14)
        assert p.r_DC == pytest.approx(ref.r_DC, rel=1e-14)
        assert p.snr0 == pytest.approx(snr0_transport(0.1, 10e-6, p.t_MIN),
                                       rel=1e-14)


def test_boundary_point_hits_rate_target():
    curve = tradeoff_curve(12, 25, 0.01, AMP)
    b = curve.boundary_point(5e7)
    assert b.r_C == pytest.approx(5e7, rel=1e-12)
    # and it is the darkest point at that rate
    faster = curve.point_at(b.t_MIN * 0.9)
    assert faster.r_C > b.r_C and faster.r_DC > b.r_DC


def test_feasibility_frontier():
    # 12-photon design at a 1% loss budget: 24 channels cannot reach
    # 5e7 counts/s at 1.2e-5 darks/s, 25 can
    dark = tradeoff_curve(12, 24, 0.01, AMP)
    assert dark.boundary_point(5e7).r_DC == pytest.approx(1.415867e-4,
                                                          rel=1e-5)
    assert not dark.contains(5e7, 1.2e-5)
    ok = tradeoff_curve(12, 25, 0.01, AMP)
    assert ok.boundary_point(5e7).r_DC == pytest.approx(9.063543e-6, rel=1e-5)
    assert ok.contains(5e7, 1.2e-5)
    with pytest.raises(ConfigError):
        tradeoff_curve(12, 24, 0.01, AMP, target=(5e7, 1.2e-5))
    assert len(tradeoff_curve(12, 25, 0.01, AMP, target=(5e7, 1.2e-5))) == 121


def test_best_rate_grows_with_array_size():
    rates = [tradeoff_curve(12, n, 0.01, AMP).best_r_c(1.2e-5).r_C
             for n in (24, 25, 26, 28, 30, 32)]
    assert rates[0] == pytest.approx(4.650078e7, rel=1e-5)
    assert all(b > a for a, b in zip(rates, rates[1:]))
    for n, r in zip((24, 25, 26, 28, 30, 32), rates):
        assert tradeoff_curve(12, n, 0.01, AMP).best_r_c(1.2e-5).r_DC \
            <= 1.2e-5


def test_best_rate_infeasible_raises():
    grid = np.geomspace(1e-12, 1e-11, 11)   # windows too short to go dark
    curve = tradeoff_curve(12, 24, 0.01, AMP, t_min_grid=grid)
    with pytest.raises(ConfigError):
        curve.best_r_c(1e-20)
    with pytest.raises(ConfigError):
        curve.best_r_c(-1.0)


def test_contains_grid_fallback_for_nonmonotone_snr():
    # an amplifier that dies for long windows defeats the boundary
    # shortcut; the grid scan still finds the feasible short-window points
    fickle = lambda t_m: 10.0 if t_m < 1e-9 else 0.0
    grid = np.geomspace(1e-12, 1e-6, 61)
    curve = tradeoff_curve(12, 24, 0.01, fickle, t_min_grid=grid)
    assert curve.boundary_point(1e6).r_DC > 1.0
    assert curve.contains(1e6, 1e-3)


def test_tradeoff_validation():
    with pytest.raises(ConfigError):
        tradeoff_curve(0, 24, 0.01, AMP)
    with pytest.raises(ConfigError):
        tradeoff_curve(12, 11, 0.01, AMP)
    with pytest.raises(ConfigError):
        tradeoff_curve(12, 24, 1.0, AMP)
    with pytest.raises(ConfigError):
        tradeoff_curve(12, 24, 0.01, 3.0)
    with pytest.raises(ConfigError):
        tradeoff_curve(12, 24, 0.01, AMP, t_min_grid=[1e-9, 1e-10])
    with pytest.raises(ConfigError):
        tradeoff_curve(12, 24, 0.01, AMP, t_min_grid=[-1e-9, 1e-10])
    curve = tradeoff_curve(12, 24, 0.01, AMP)
    with pytest.raises(ConfigError):
        curve.point_at(0.0)
    with pytest.raises(ConfigError):
        curve.boundary_point(0.0)


def test_family_and_csv_shape():
    fam = tradeoff_family(2, [4, 5, 6], 0.05, AMP,
                          t_min_grid=np.geomspace(1e-10, 1e-7, 16))
    assert [c.n_A for c in fam] == [4, 5, 6]
    rows = fam[0].csv_rows()
    assert len(rows) == 16
    assert all(len(r) == len(TRADEOFF_CSV_COLUMNS) for r in rows)
    assert rows[0][5] == 4
    # dark rate at fixed t_MIN improves with array size
    darks = [c.points[5].r_DC for c in fam]
    assert darks[0] > darks[1] > darks[2] or darks[2] == 0.0


def test_dark_rate_formula_traceable():
    # spot check one point against the erfc expression it documents
    curve = tradeoff_curve(3, 9, 0.02, AMP,
                           t_min_grid=np.array([2e-9]))
    p = curve.points[0]
    t_m = 0.5 * 9 * 2e-9 / 3
    s = snr0_transport(0.1, 10e-6, t_m)
    assert p.snr0 == pytest.approx(s, rel=1e-14)
    assert p.r_DC == pytest.approx(0.5 * 9 / t_m * erfc(s / math.sqrt(2)),
                                   rel=1e-13)
    assert p.Delta == pytest.approx(-math.log1p(-0.02) / (3 * 2e-9),
                                    rel=1e-14)
