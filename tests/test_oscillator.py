"""Finite-difference oscillator kernels and the cylinder table."""

import sys

import pytest

from kbranch.oscillator import (GridSpec, GridError, InconclusiveKernelError,
                                cylinder_sl2, cylinder_table, oscillator_1d,
                                oscillator_nd)
from kbranch.sl2_oracles import SL2Series, oracle_match

GRID = GridSpec(8.0, 0.05)
TOL = 1e-6


def test_grid_validation(monkeypatch):
    with pytest.raises(GridError):
        GridSpec(8.0, 9.0)  # step >= halfwidth
    with pytest.raises(GridError):
        GridSpec(-1.0, 0.1)
    with monkeypatch.context() as m:
        # 2001 points: refused before numpy builds any array
        m.setitem(sys.modules, "numpy", None)  # importing it would raise
        with pytest.raises(GridError, match="2001 points; at most 2000"):
            GridSpec(8.0, 16 / 2000)
    with pytest.raises(GridError):
        GridSpec(8.0, 0.0512)  # point count not odd/symmetric
    assert GRID.npoints == 321
    assert GRID.npoints % 2 == 1


def test_oscillator_kernel_dimensions():
    rep = oscillator_1d(GRID, TOL)
    assert rep.kernel_dim_even == 1
    assert rep.kernel_dim_odd == 0
    assert not rep.inconclusive
    assert rep.gaussian_l2_error < 1e-3
    assert rep.even_singular_values == sorted(rep.even_singular_values)


def test_second_singular_value_gap():
    rep = oscillator_1d(GRID, TOL)
    assert rep.even_singular_values[1] > 0.5


def test_growing_solution_rejected_for_all_desk_scales():
    for L in (6.0, 8.0):
        rep = oscillator_1d(GridSpec(L, 0.05), TOL)
        assert rep.kernel_dim_odd == 0
        assert min(rep.odd_singular_values) > 1.0


def test_grid_refinement_monotonicity():
    coarse = oscillator_1d(GridSpec(8.0, 0.1), TOL)
    fine = oscillator_1d(GridSpec(8.0, 0.05), TOL)
    assert (coarse.kernel_dim_even, coarse.kernel_dim_odd) == (
        fine.kernel_dim_even, fine.kernel_dim_odd)
    assert fine.gaussian_l2_error < coarse.gaussian_l2_error


def test_potential_scaling_invariance():
    for f in (1.0, 2.0, 4.0):
        rep = oscillator_1d(GRID, TOL, potential_scale=f)
        assert (rep.kernel_dim_even, rep.kernel_dim_odd) == (1, 0)


def test_inconclusive_band_flags_instead_of_claiming():
    # with the tolerance placed at the spectral gap, values land in the band
    rep = oscillator_1d(GRID, 0.5)
    assert rep.inconclusive
    assert rep.kernel_dim_even is None and rep.kernel_dim_odd is None
    with pytest.raises(InconclusiveKernelError):
        cylinder_sl2("even", 4, GRID, 0.5)
    with pytest.raises(InconclusiveKernelError):
        cylinder_table(rep, "even", 4)


def test_cylinder_table_reads_one_report():
    rep = oscillator_1d(GRID, TOL)
    for parity in ("even", "odd"):
        for window in (0, 20):
            assert (cylinder_table(rep, parity, window)
                    == cylinder_sl2(parity, window, GRID, TOL))


def test_nd_reduces_and_tensors():
    # only n = 2 has an explicit check; n = 1 is oscillator_1d
    for n in (1, 3, 4):
        with pytest.raises(ValueError):
            oscillator_nd(n, GRID, TOL)


def test_nd_explicit_2d_confirmation():
    rep2 = oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)
    assert (rep2.kernel_dim_even, rep2.kernel_dim_odd) == (1, 0)
    assert rep2.gaussian_l2_error < 5e-3
    # reproducible to the last digit: ARPACK starts from a fixed vector
    assert oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5) == rep2


def test_cylinder_tables_match_oracles():
    for parity, kind in (("even", "principal_spherical"),
                         ("odd", "principal_nonspherical")):
        t = cylinder_sl2(parity, 6, GRID, TOL)
        assert oracle_match(t, SL2Series(kind)).ok
        assert t.sign == 1


def test_cylinder_window_zero_odd_empty():
    t = cylinder_sl2("odd", 0, GRID, TOL)
    assert t.entries == {}
    t0 = cylinder_sl2("even", 0, GRID, TOL)
    assert t0.entries == {(0,): 1}


def test_gaussian_vector_really_is_the_gaussian():
    # the minimal singular vector reproduces exp(-x^2/2) pointwise
    rep = oscillator_1d(GRID, TOL)
    assert rep.gaussian_l2_error == pytest.approx(0, abs=5e-4)
