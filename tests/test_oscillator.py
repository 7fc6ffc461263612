"""Finite-difference oscillator kernels and the cylinder table."""

import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kbranch
from kbranch import oscillator, verify
from kbranch.branching import TableSizeError
from kbranch.oscillator import (GridSpec, GridError, InconclusiveKernelError,
                                KernelReport, _component_stencils,
                                _component_eigs, _count_bound, _dense,
                                _parity_halves, _ritz_step, cylinder_sl2,
                                cylinder_table, oscillator_1d, oscillator_nd)
from kbranch.sl2_oracles import SL2Series, oracle_match

GRID = GridSpec(8.0, 0.05)
TOL = 1e-6


def _component_matrices(grid, f):
    """The even and odd component matrices, dense, from their diagonals."""
    return tuple(_dense(*s) for s in _component_stencils(grid, f))


def _dense_2d(grid, f):
    """The 2-D even block A, dense, from the Kronecker products of the 1-D
    component matrices: columns degree 0, then degree 2."""
    m = grid.npoints
    P, M = _component_matrices(grid, f)
    E, I1 = np.eye(m)[:, 1:-1], np.eye(m - 1)
    return np.block([[np.kron(P, E), -np.kron(I1, M)],
                     [np.kron(E, P), np.kron(M, I1)]])


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


def test_nd_grid_cap(monkeypatch):
    big = GridSpec(12.1, 0.1)  # 243 points per axis; 1-D allows it
    msg = "243 points per axis; at most 241 are allowed"
    with monkeypatch.context() as m:
        # refused before any numerical module is imported
        for mod in ("numpy", "scipy", "scipy.sparse", "scipy.sparse.linalg"):
            m.setitem(sys.modules, mod, None)
        with pytest.raises(GridError, match=msg):
            oscillator_nd(2, big, 1e-5)


def test_component_matrices_match_stencil_loops():
    # reference: the stencils entry by entry, as Python loops
    for grid in (GridSpec(8.0, 0.05), GridSpec(1.0, 0.5)):
        for f in (0.0, 1.0, 0.37):
            n, h, x = grid.npoints, grid.step, grid.nodes()
            mid = (x[:-1] + x[1:]) / 2
            even, odd = np.zeros((n - 1, n - 2)), np.zeros((n, n - 1))
            for i in range(n - 1):
                if i >= 1:
                    even[i, i - 1] = -1.0 / h + f * mid[i] / 2
                if i <= n - 3:
                    even[i, i] = 1.0 / h + f * mid[i] / 2
            for i in range(n):
                if i >= 1:
                    odd[i, i - 1] = 1.0 / h + f * x[i] / 2
                if i <= n - 2:
                    odd[i, i] = -1.0 / h + f * x[i] / 2
            got = _component_matrices(grid, f)
            assert np.array_equal(got[0], even) and np.array_equal(got[1], odd)


def _parity_bases(m):
    """Orthonormal bases of the even and odd vectors of R^m under reversal,
    as the columns of two matrices."""
    k = m // 2
    i = np.arange(k)
    even, odd = np.zeros((m, m - k)), np.zeros((m, k))
    even[i, i] = even[m - 1 - i, i] = odd[i, i] = 2 ** -0.5
    odd[m - 1 - i, i] = -2 ** -0.5
    if m % 2:
        even[k, k] = 1.0  # the centre
    return even, odd


@pytest.mark.parametrize("grid", [GridSpec(8.0, 0.05), GridSpec(6.0, 0.1),
                                  GridSpec(1.0, 0.5), GridSpec(12.0, 0.02)])
def test_parity_halves_split_the_component_matrices(grid):
    eps = np.finfo(float).eps
    for f in (0.0, 0.37, 1.0, 2.0, 4.0):
        for a, halves in zip(_component_matrices(grid, f),
                             _parity_halves(grid, f)):
            # both stencils anticommute with the reflection x -> -x
            a_max = np.abs(a).max()
            assert np.abs(a[::-1, ::-1] + a).max() <= 4 * eps * a_max
            # the halves are the matrix folded onto the parity bases
            (re, ro), (ce, co) = map(_parity_bases, a.shape)
            folds = {b.shape: b for b in (ro.T @ a @ ce, re.T @ a @ co)}
            assert len(folds) == len(halves) == 2
            for b in halves:
                assert np.abs(folds[b.shape] - b).max() <= 4 * eps * a_max
            # so their singular values are the matrix's; the whole SVD's
            # own rounding error grows with the order, in the middle of the
            # spectrum, to 8.3 eps s_max on 1,201 points
            whole = np.linalg.svd(a, compute_uv=False)[::-1]
            union = np.sort(np.concatenate(
                [np.linalg.svd(b, compute_uv=False) for b in halves]))
            tol = 4 * eps * whole[-1]
            assert np.abs(union - whole)[:3].max() <= tol
            assert (np.abs(union - whole).max()
                    <= tol * max(1.0, grid.npoints / 321))


@pytest.mark.parametrize("grid", [GridSpec(1.0, 0.25), GridSpec(2.0, 0.2)])
def test_component_eigs_unfold_the_parity_halves(grid):
    # the preconditioner's vectors, from eigh of the parity halves' Gram
    # matrices, are those of the whole component matrices; the dense SVD
    # is the reference
    for f in (0.37, 1.0, 2.0):
        for a, (s, vt) in zip(_component_matrices(grid, f),
                              _component_eigs(grid, f)):
            n = a.shape[1]
            assert vt.shape == (n, n) and (np.diff(s) <= 0).all()
            assert np.abs(vt @ vt.T - np.eye(n)).max() <= 1e-13
            ata = a.T @ a
            gram = vt @ ata @ vt.T
            scale = np.abs(ata).max()
            assert np.abs(gram - np.diag(s ** 2)).max() <= 1e-13 * scale
            want = np.linalg.svd(a, compute_uv=False) ** 2
            assert s ** 2 == pytest.approx(want, rel=1e-12)


def test_1d_sweep_always_reports():
    # the Gaussian's inverse iteration must not meet a singular pivot
    for L in (2.0, 4.0, 8.0, 12.0):
        for h in (0.1, 0.05, 0.025):
            for f in (0.5, 1.0, 2.0, 4.0, 8.0):
                rep = oscillator_1d(GridSpec(L, h), TOL, potential_scale=f)
                assert isinstance(rep, KernelReport)
                assert np.isfinite(rep.gaussian_l2_error)


def _dense_gaussian_error(grid, f):
    """The Gaussian error of two dense inverse-iteration steps with the whole
    even matrix: the reference for the O(n) solve in `oscillator_1d`."""
    even = _component_matrices(grid, f)[0]
    ata = even.T @ even
    v = np.linalg.solve(ata, np.linalg.solve(ata, np.ones(len(ata))))
    v /= np.linalg.norm(v)
    xi = grid.nodes()[1:-1]
    gauss = np.exp(-f * xi ** 2 / 2)
    gauss /= np.linalg.norm(gauss)
    return min(np.linalg.norm(v - gauss), np.linalg.norm(v + gauss))


def test_1d_gaussian_matches_dense_normal_solve():
    for L in (2.0, 4.0, 8.0, 12.0):
        for h in (0.1, 0.05, 0.025):
            for f in (0.5, 1.0, 2.0, 4.0, 8.0):
                grid = GridSpec(L, h)
                rep = oscillator_1d(grid, TOL, potential_scale=f)
                assert rep.gaussian_l2_error == pytest.approx(
                    _dense_gaussian_error(grid, f), abs=1e-12)


def test_1d_makes_no_dense_solve_and_no_n_square_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve")

    real_dense, orders = oscillator._dense, []

    def dense(d, l):
        orders.append(len(d))
        return real_dense(d, l)

    grid = GridSpec(12.0, 0.025)  # 961 points
    n = grid.npoints - 2  # the order of the even normal matrix
    oscillator_1d(grid, TOL)  # warm: first-call allocations are not the solve
    oscillator._spectra.cache_clear()  # so that the measured call solves
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", refuse)
        m.setattr(oscillator, "_dense", dense)
        tracemalloc.start()
        try:
            rep = oscillator_1d(grid, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (rep.kernel_dim_even, rep.kernel_dim_odd) == (1, 0)
    assert orders == [grid.npoints // 2] * 2  # the parity halves only
    # the two parity halves of order n/2 take half of one n x n matrix;
    # even.T @ even with its LU factor would take two
    assert peak < 0.75 * n * n * 8


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
    # ev + 1 residuals: the truncation error at L = 6, then the gap
    s1 = rep2.even_singular_values
    assert len(s1) == 2
    assert s1[0] == pytest.approx(5.94e-8, rel=1e-2)
    assert s1[1] > 1.4
    # reproducible to the last digit: the Ritz step starts from a fixed block
    assert oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5) == rep2


@pytest.mark.parametrize("svd_tol, message", [
    # the 1-D smallest value, 4.2e-8, in the band [1e-8, 1e-6]
    (1e-7, "1-D oscillator report is inconclusive; cannot tensor"),
    # 4.2e-8 below [5e-8, 5e-6], the 2-D value 5.94e-8 inside it
    (5e-7, "explicit 2-D singular values fall in the tolerance band"),
])
def test_nd_band_values_are_inconclusive(svd_tol, message):
    with pytest.raises(InconclusiveKernelError) as e:
        oscillator_nd(2, GridSpec(6.0, 0.1), svd_tol)
    assert str(e.value) == message


def test_nd_singular_values_are_residuals():
    # ||A v|| / ||v|| of the Ritz vector, not sqrt of its eigenvalue of
    # A^T A, which stops near 7.7e-8 at scale 2
    rep = oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5, potential_scale=2.0)
    assert rep.even_singular_values[0] < 1e-12


def _sparse_reference(grid, svd_tol, f):
    """The 2-D check as assembled before the matrix-free solver: A as a
    sparse block matrix, A^T A factored once, and shift-invert ARPACK from
    a fixed start for ev + 1 = 2 pairs.  Returns (kernel dim, the residual
    singular values, the Gaussian error)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    m = grid.npoints
    even1, odd1 = _component_matrices(grid, f)
    P, M = sp.csr_matrix(even1), sp.csr_matrix(odd1)
    E = sp.csr_matrix((np.ones(m - 2), (np.arange(1, m - 1),
                                        np.arange(m - 2))), shape=(m, m - 2))
    I1 = sp.identity(m - 1)
    A = sp.bmat([[sp.kron(P, E), -sp.kron(I1, M)],
                 [sp.kron(E, P), sp.kron(M, I1)]], format="csc")
    ata = (A.T @ A).tocsc()
    lu = spla.splu(ata, permc_spec="MMD_AT_PLUS_A")
    opinv = spla.LinearOperator(ata.shape, lu.solve, dtype=ata.dtype)
    v0 = np.random.default_rng(0).standard_normal(ata.shape[0])
    vals, vecs = spla.eigsh(ata, k=2, sigma=0, v0=v0, OPinv=opinv)
    svals = np.sort(np.linalg.norm(A @ vecs, axis=0)
                    / np.linalg.norm(vecs, axis=0))
    v = vecs[:, np.argsort(np.abs(vals))[0]]
    xi = grid.nodes()[1:-1]
    g2 = np.exp(-f * (xi[:, None] ** 2 + xi[None, :] ** 2) / 2)
    g2 = g2.ravel() / np.linalg.norm(g2)
    u0 = v[:(m - 2) ** 2] / np.linalg.norm(v)
    err = min(np.linalg.norm(u0 - g2), np.linalg.norm(u0 + g2))
    return int((svals < svd_tol).sum()), svals, err


@pytest.mark.parametrize("grid, svd_tol, f", [
    (GridSpec(6.0, 0.1), 1e-5, 1.0), (GridSpec(6.0, 0.1), 1e-5, 2.0),
    (GridSpec(6.0, 0.1), 1e-5, 4.0),
    # at L = 4 the truncation error is 1.3e-3 at scale 1, so the band
    # [5e-3, 0.5] of svd_tol 0.05 sits between it and the gap at 1.41
    (GridSpec(4.0, 0.1), 0.05, 1.0), (GridSpec(4.0, 0.1), 0.05, 2.0),
    # the kernel sits at the rounding floor, where the clamp matters
    (GridSpec(6.0, 0.2), 1e-5, 3.0)])
def test_nd_matches_sparse_reference(grid, svd_tol, f):
    rep = oscillator_nd(2, grid, svd_tol, potential_scale=f)
    dim, svals, err = _sparse_reference(grid, svd_tol, f)
    got = rep.even_singular_values
    assert (rep.kernel_dim_even, rep.kernel_dim_odd) == (dim, 0)
    assert len(got) == len(svals)
    assert got[1] == pytest.approx(svals[1], rel=1e-10)
    if svals[0] > 1e-12:
        assert got[0] == pytest.approx(svals[0], rel=1e-10)
    else:  # both at the rounding floor of A, whose digits are noise
        assert got[0] < 1e-12
    assert rep.gaussian_l2_error == pytest.approx(err, abs=1e-13)


@pytest.mark.parametrize("grid", [GridSpec(1.0, 0.25), GridSpec(2.0, 0.2)])
@pytest.mark.parametrize("f", [0.37, 1.0, 2.0, 5.0])
def test_count_bound_holds_on_the_dense_normal_matrix(grid, f):
    # A^T A = [[T0, C], [C^T, T2]], dense: the diagonal blocks are the
    # preconditioner's Kronecker sums, C^T = D (x) P - P (x) D with D =
    # (s h / 4) Delta, C C^T <= 2 ||D||^2 T0, and the proof's count is at
    # least the count of eigenvalues below delta
    m, h = grid.npoints, grid.step
    n0 = (m - 2) ** 2
    P, M = _component_matrices(grid, f)
    E, I0, I1 = np.eye(m)[:, 1:-1], np.eye(m - 2), np.eye(m - 1)
    a = _dense_2d(grid, f)
    ata = a.T @ a
    t0, ct, t2 = ata[:n0, :n0], ata[n0:, :n0], ata[n0:, n0:]
    atol = 1e-14 * np.abs(ata).max()
    assert np.abs(t0 - np.kron(P.T @ P, I0) - np.kron(I0, P.T @ P)).max() \
        <= atol
    assert np.abs(t2 - np.kron(M.T @ M, I1) - np.kron(I1, M.T @ M)).max() \
        <= atol
    delta_ = np.eye(m - 1, m - 2) - np.eye(m - 1, m - 2, -1)  # +1 on, -1 below
    D = M.T @ E - P
    assert np.abs(D - f * h / 4 * delta_).max() <= 1e-14 * np.abs(P).max()
    assert np.abs(ct - np.kron(D, P) + np.kron(P, D)).max() <= atol
    gap = 2 * np.linalg.norm(D, 2) ** 2 * t0 - ct.T @ ct
    assert np.linalg.eigvalsh(gap)[0] >= -1e-12 * np.linalg.norm(t0, 2)
    values, eigs = np.linalg.eigvalsh(ata), _component_eigs(grid, f)
    proven = 0
    for delta in np.logspace(-12, 2, 29):
        bound = _count_bound(eigs, f * h, delta)
        assert bound >= (values < delta).sum()
        proven += bound < math.inf
    assert proven >= 20  # the proof's count is finite on most of the grid


def test_nd_coupling_bound_refuses_a_coarse_grid():
    # 5 points per axis at scale 8: alpha = 0.75 leaves (1 - alpha)
    # lambda_1(T0) = 0.71 below delta = 1, so no count is proven, though the
    # 1-D report is conclusive and the Ritz step finds no kernel vector
    grid = GridSpec(2.0, 1.0)
    rep1 = oscillator_1d(grid, 0.1, 8.0)
    assert (rep1.kernel_dim_even, rep1.kernel_dim_odd) == (0, 0)
    with pytest.raises(InconclusiveKernelError) as e:
        oscillator_nd(2, grid, 0.1, potential_scale=8.0)
    assert str(e.value) == ("the coupling bound cannot prove that at most 0 "
                            "explicit 2-D singular values lie below 1")


def test_nd_smallest_value_tensors_the_1d_one():
    # the 2-D kernel vector is near the tensor square of the 1-D one, so its
    # residual is sqrt(2) times the 1-D residual
    grid = GridSpec(6.0, 0.1)
    s1 = oscillator_1d(grid, 1e-5).even_singular_values[0]
    s2 = oscillator_nd(2, grid, 1e-5).even_singular_values[0]
    assert s2 == pytest.approx(np.sqrt(2) * s1, rel=1e-6)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("grid", [GridSpec(1.0, 0.25), GridSpec(2.0, 0.2)])
def test_nd_stencil_operator_matches_dense_kronecker(monkeypatch, grid):
    # A and A^T as oscillator_nd hands them to _ritz_step, against A assembled
    # densely from the Kronecker products of the 1-D component matrices
    ops = {}

    def capture(op, adj, *args):
        ops.update(op=op, adj=adj)
        raise _Captured

    monkeypatch.setattr(oscillator, "oscillator_1d",
                        lambda *a: KernelReport(1, 0, 0.0))
    monkeypatch.setattr(oscillator, "_ritz_step", capture)
    rng = np.random.default_rng(1)
    for f in (0.0, 0.37, 1.0, 2.0):
        with pytest.raises(_Captured):
            oscillator_nd(2, grid, 1e-5, potential_scale=f)
        A = _dense_2d(grid, f)
        x = rng.standard_normal((4, A.shape[1]))
        y = rng.standard_normal((4, A.shape[0]))
        ax, aty = ops["op"](x), ops["adj"](y)
        atol = 1e-14 * np.abs(A).max()
        assert np.abs(ax - x @ A.T).max() <= atol * np.abs(x).max()
        assert np.abs(aty - y @ A).max() <= atol * np.abs(y).max()
        for u, v, au, atv in zip(x, y, ax, aty):
            assert au @ v == pytest.approx(u @ atv, rel=1e-13)


def _counting(monkeypatch):
    """Counts of the applications of A, A^T and the preconditioner that
    `oscillator_nd` hands to `_ritz_step`, filled as it runs."""
    step, count = oscillator._ritz_step, {"op": 0, "adj": 0, "prec": 0}

    def counted(name, fn):
        def apply(v):
            count[name] += 1
            return fn(v)
        return apply

    def counting(op, adj, prec, *args):
        return step(counted("op", op), counted("adj", adj),
                    counted("prec", prec), *args)

    monkeypatch.setattr(oscillator, "_ritz_step", counting)
    return count


@pytest.mark.parametrize("f", [1.0, 2.0, 4.0])
def test_nd_ritz_step_budget(monkeypatch, f):
    # a work budget of the `verify dirac` 2-D check: the coupling-corrected
    # tensor vectors are within their residual bound, so A images them once,
    # A^T takes their residuals once, and nothing is preconditioned
    count = _counting(monkeypatch)
    oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5, potential_scale=f)
    assert count == {"op": 1, "adj": 1, "prec": 0}


@pytest.mark.parametrize("grid, svd_tol, f", [
    (GridSpec(4.0, 0.1), 0.05, 1.0), (GridSpec(6.0, 0.2), 1e-5, 3.0)])
def test_nd_correction_budget(monkeypatch, grid, svd_tol, f):
    # the two sparse-reference cases with a start row off its bound: one
    # preconditioned correction, imaged once, and no second residual
    count = _counting(monkeypatch)
    oscillator_nd(2, grid, svd_tol, potential_scale=f)
    assert count["op"] <= 2 and count["adj"] == 1 and count["prec"] == 1


def test_nd_makes_no_svd_with_vectors(monkeypatch):
    # a cold 2-D check: the 1-D spectra take the values of the four parity
    # halves, and the preconditioner's vectors come from eigh, not an SVD
    svd, calls = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    oscillator._spectra.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", counted)
    oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)
    assert calls == [False] * 4


@pytest.mark.parametrize("grid, svd_tol, f", [
    *(pytest.param(GridSpec(6.0, 0.1), 1e-5, f, id=str(f))
      for f in (1.0, 2.0, 4.0)),
    pytest.param(GridSpec(4.0, 0.1), 0.05, 1.0, id="L4-1.0"),
    pytest.param(GridSpec(4.0, 0.1), 0.05, 2.0, id="L4-2.0"),
    pytest.param(GridSpec(6.0, 0.2), 1e-5, 3.0, id="h0.2-3.0")])
def test_nd_reports_the_returned_blocks_own_images(monkeypatch, grid,
                                                   svd_tol, f):
    # the images _ritz_step returns are combinations of A's images, equal
    # to A of the unit vectors it returns to 1e-12 relative above the
    # rounding floor eps * s_max, and they give the reported values
    step, seen = oscillator._ritz_step, {}

    def capture(op, *args):
        seen["op"] = op
        seen["x"], seen["ax"] = step(op, *args)
        return seen["x"], seen["ax"]

    monkeypatch.setattr(oscillator, "_ritz_step", capture)
    rep = oscillator_nd(2, grid, svd_tol, potential_scale=f)
    x, ax = seen["x"], seen["ax"]
    norms = np.linalg.norm(ax, axis=1)
    eigs = _component_eigs(grid, f)
    floor = np.finfo(float).eps * max(s[0] for s, _ in eigs)
    assert np.abs(x @ x.T - np.eye(len(x))).max() < 1e-14
    assert (np.linalg.norm(seen["op"](x) - ax, axis=1)
            <= 1e-12 * norms + floor).all()
    assert rep.even_singular_values == sorted(norms.tolist())


def _parity_sectors(x, m):
    """The components of the rows of x in the 8 sectors of the degree-0 and
    degree-2 blocks under x -> -x and y -> -y (both blocks' grids are
    symmetric through 0, so the reflections reverse an axis)."""
    n0 = (m - 2) ** 2
    for u in (x[:, :n0].reshape(-1, m - 2, m - 2),
              x[:, n0:].reshape(-1, m - 1, m - 1)):
        for sx in (1, -1):
            for sy in (1, -1):
                v = (u + sx * u[:, ::-1]) / 2
                yield (v + sy * v[:, :, ::-1]) / 2


def _tensor_parts(x, grid, f):
    """For each row of x, its largest component on a tensor eigenvector
    vt[i] (x) vt[j] of the preconditioner: (the eigenvalue s_i^2 + s_j^2,
    that vector as a row)."""
    m = grid.npoints
    out = []
    for row in x:
        best = (-1.0,)
        for (s, vt), lo, w in zip(_component_eigs(grid, f), (0, (m - 2) ** 2),
                                  (m - 2, m - 1)):
            c = vt @ row[lo:lo + w * w].reshape(w, w) @ vt.T
            i, j = np.unravel_index(np.abs(c).argmax(), c.shape)
            if abs(c[i, j]) > best[0]:
                t = np.zeros_like(row)
                t[lo:lo + w * w] = np.outer(vt[i], vt[j]).ravel()
                best = (abs(c[i, j]), s[i] ** 2 + s[j] ** 2, t)
        out.append(best[1:])
    return out


def _start_block(monkeypatch, grid, f, rep1):
    """The start block, A and A^T that `oscillator_nd` hands to `_ritz_step`
    when the 1-D report is rep1."""
    got = {}

    def capture(op, adj, prec, x, *args):
        got.update(op=op, adj=adj, x=x)
        raise _Captured

    monkeypatch.setattr(oscillator, "oscillator_1d", lambda *a: rep1)
    monkeypatch.setattr(oscillator, "_ritz_step", capture)
    with pytest.raises(_Captured):
        oscillator_nd(2, grid, 1e-5, potential_scale=f)
    return got


@pytest.mark.parametrize("f", [1.0, 2.0])
def test_nd_start_is_the_coupling_corrected_tensor_vectors(monkeypatch, f):
    # each start row is a tensor eigenvector u0 of the preconditioner, the
    # ev + 1 lowest, exactly in degree 0, plus the first-order effect of the
    # coupling, -(D2 - theta)^-1 C^T u0, in degree 2, against A^T A from
    # the dense Kronecker A; the start is those ev + 1 rows, none with a draw
    grid = GridSpec(2.0, 0.2)
    n0 = (grid.npoints - 2) ** 2
    x = _start_block(monkeypatch, grid, f, KernelReport(1, 0, 0.0))["x"]
    assert len(x) == 2  # ev + 1 at ev = 1
    parts = _tensor_parts(x, grid, f)
    lowest = np.sort(np.concatenate([np.add.outer(s ** 2, s ** 2).ravel()
                                     for s, _ in _component_eigs(grid, f)]))
    assert [p[0] for p in parts] == pytest.approx(lowest[:2], abs=1e-12)
    a = _dense_2d(grid, f)
    ata = a.T @ a
    d2 = ata[n0:, n0:]
    # no entry comes near the margin that leaves the term out
    assert np.linalg.eigvalsh(d2)[0] > 1.5 * lowest[1]
    for row, (theta, u0) in zip(x, parts):
        assert not u0[n0:].any()  # the desk grids pick no degree-2 row
        c = (ata @ u0)[n0:]
        want = u0 - np.r_[np.zeros(n0), np.linalg.solve(
            d2 - theta * np.eye(len(d2)), c)]
        assert np.linalg.norm(want[n0:]) > 1e-5  # the coupling is seen
        assert np.array_equal(row[:n0], want[:n0])
        assert np.linalg.norm(row - want) <= (
            1e-12 * np.linalg.norm(want[n0:]) + 1e-16)  # rounding of a row


def test_nd_start_leaves_a_near_degenerate_coupling_to_the_ritz_step(
        monkeypatch):
    # 1-D dims (2, 2): ev = 8, nine rows up to theta = 5.97 at f = 1, one of
    # them degree 2's lowest (4.0).  An entry of the other degree where D -
    # theta is not above theta / 2 gets no term, and is left to the
    # Rayleigh-Ritz step; every other entry gets the first-order one, with
    # C^T u0 (or C u2) from A^T A as `_ritz_step` gets it
    grid = GridSpec(6.0, 0.1)
    m = grid.npoints
    n0 = (m - 2) ** 2
    got = _start_block(monkeypatch, grid, 1.0, KernelReport(2, 2, 0.0))
    x, op, adj = got["x"], got["op"], got["adj"]
    assert len(x) == 9

    def degree(v, b):  # v's degree-0 block (b = 0) or degree-2 block (b = 1)
        return (v[:n0].reshape(m - 2, m - 2) if b == 0
                else v[n0:].reshape(m - 1, m - 1))

    eigs, left_out, seen = _component_eigs(grid, 1.0), [], set()
    for row, (theta, u) in zip(x, _tensor_parts(x, grid, 1.0)):
        b = 1 - u[:n0].any()  # 0 for a degree-0 row, 1 for a degree-2 row
        seen.add(b)
        s, vt = eigs[1 - b]
        c = vt @ degree(adj(op(u[None]))[0], 1 - b) @ vt.T
        gap = s[:, None] ** 2 + s ** 2 - theta
        keep = gap > theta / 2
        want = np.where(keep, -c / np.where(keep, gap, 1.0), 0.0)
        have = vt @ degree(row, 1 - b) @ vt.T
        assert np.array_equal(degree(row, b), degree(u, b))
        assert np.abs(have - want).max() <= (1e-12 * np.abs(want).max()
                                             + 1e-16)
        left_out.append(np.abs(c[~keep]).max(initial=0.0))
    assert seen == {0, 1}
    assert max(left_out) > 1e-7  # a coupling the margin left out


@pytest.mark.parametrize("f", [1.0, 2.0])
def test_nd_start_hiding_a_sector_ends_in_an_error(monkeypatch, f):
    # the Gaussian's sector (even-even on the degree 0 block) taken out of
    # every start row, with 1e-4 of a draw outside it, lest the Gaussian's
    # row vanish.  A^T A and the preconditioner keep to the sectors, so the
    # Ritz step cannot find the Gaussian; the check ends in an error, never
    # in a count
    grid = GridSpec(6.0, 0.1)
    m, n0 = grid.npoints, (grid.npoints - 2) ** 2
    step, shares = oscillator._ritz_step, []

    def gauss_sector(x):
        v = np.zeros_like(x)
        v[:, :n0] = next(_parity_sectors(x, m)).reshape(len(x), -1)
        return v

    def hide(op, adj, prec, x, *args):  # shares of the start's norm
        d = np.random.default_rng(1).random(x.shape) - 0.5
        x += 1e-4 / np.linalg.norm(d, axis=1, keepdims=True) * d
        norm = np.linalg.norm(x)
        x -= gauss_sector(x)
        shares.append(np.linalg.norm(gauss_sector(x), axis=1) / norm)
        return step(op, adj, prec, x, *args)

    monkeypatch.setattr(oscillator, "_ritz_step", hide)
    with pytest.raises(ArithmeticError, match="dimension 0 contradicts "
                                              "the tensor rule 1"):
        oscillator_nd(2, grid, 1e-5, potential_scale=f)
    # 1-D dims (0, 0), so ev = 0: no kernel vector is found, and the count
    # of none is not proven, as T0 has the Gaussian's value near 0
    monkeypatch.setattr(oscillator, "oscillator_1d",
                        lambda *a: KernelReport(0, 0, 0.0))
    with pytest.raises(InconclusiveKernelError,
                       match="cannot prove that at most 0 explicit"):
        oscillator_nd(2, grid, 1e-5, potential_scale=f)
    assert [len(share) for share in shares] == [2, 1]
    for share in shares:
        assert (share < 1e-15).all()


@pytest.mark.parametrize("rows, rank", [(2, 1), (3, 2)])
def test_ritz_step_refuses_a_start_of_deficient_rank(rows, rank):
    # diag(1..20) has no kernel; rows spanning fewer directions than there
    # are rows are refused, as a block filled out past its span would
    # return rounding (a Ritz vector of norm 3e-17) whose image reads as a
    # kernel value
    d = np.arange(1.0, 21.0)
    x = np.ones((rows, 20))
    x[2:] = d
    with pytest.raises(InconclusiveKernelError,
                       match=f"the Rayleigh-Ritz start's {rows} rows have "
                             f"rank {rank}"):
        _ritz_step(lambda v: v * d, lambda v: v * d, lambda r: r / d ** 2, x,
                   1e-12)


def test_nd_start_in_too_few_directions_is_inconclusive(monkeypatch):
    # P's two lowest right singular vectors made one: the two tensor
    # vectors of the start coincide, their corrections nearly so (about
    # 1e-12, as that vector is the Gaussian), and the rows span 1 direction
    eigs = oscillator._component_eigs

    def repeated(*args):
        (s, vt), odd = eigs(*args)
        vt = vt.copy()
        vt[-2] = vt[-1]
        return [(s, vt), odd]

    monkeypatch.setattr(oscillator, "_component_eigs", repeated)
    with pytest.raises(InconclusiveKernelError,
                       match="the Rayleigh-Ritz start's 2 rows have rank 1"):
        oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)


def test_ritz_step_returns_exact_eigenvectors_unpreconditioned():
    # exact eigenvectors of diag(1..20) pass the residual bound at once, so
    # the Ritz step preconditions nothing and returns them
    d = np.arange(1.0, 21.0)
    calls = []

    def prec(r):
        calls.append(len(r))
        return r / d ** 2

    x = np.eye(20)[:3]
    got, images = _ritz_step(lambda v: v * d, lambda v: v * d, prec, x, 1e-12)
    assert calls == []
    assert np.abs(np.abs(got) - x).max() < 1e-12
    assert np.abs(np.abs(images) - x * d).max() < 1e-12


def test_ritz_step_corrects_a_start_off_its_bound_once():
    # diag(1..20) from a draw, preconditioned by the identity: the start is
    # off its bound, so its residuals get exactly one correction, imaged
    # once, and a second Rayleigh-Ritz step with no further residual; the
    # images returned equal op of the returned vectors up to rounding
    d = np.arange(1.0, 21.0)
    calls = []

    def counted(name, fn):
        def apply(v):
            calls.append((name, len(v)))
            return fn(v)
        return apply

    x = np.random.default_rng(3).random((3, 20))
    op = counted("op", lambda v: v * d)
    got, images = _ritz_step(op, counted("adj", lambda v: v * d),
                             counted("prec", lambda r: r.copy()), x, 1e-12)
    assert calls == [("op", 3), ("adj", 3), ("prec", 3), ("op", 3)]
    assert got.shape == images.shape == (3, 20)
    assert np.abs(got @ got.T - np.eye(3)).max() < 1e-14
    assert np.abs(got * d - images).max() < 1e-12 * np.abs(images).max()


def test_ritz_step_block_is_the_span_of_its_start():
    # two rows spanning e_0 and e_1: the block is e_0 and e_1, the lowest
    # pairs of its span, exact, so nothing is corrected
    d = np.arange(1.0, 21.0)
    x = np.zeros((2, 20))
    x[:, :2] = [[1.0, 1.0], [1.0, 2.0]]
    got, images = _ritz_step(lambda v: v * d, lambda v: v * d, None, x,
                             1e-12)
    assert got.shape == images.shape == (2, 20)
    assert np.abs(np.abs(got) - np.eye(20)[:2]).max() < 1e-12
    assert np.linalg.norm(images, axis=1) == pytest.approx([1.0, 2.0])


def test_nd_finds_the_gaussian_the_tensor_rule_denies(monkeypatch):
    # 1-D dims (0, 0) predict ev = 0; the 2-D solve still finds the Gaussian
    monkeypatch.setattr(oscillator, "oscillator_1d",
                        lambda *a: KernelReport(0, 0, 0.0))
    with pytest.raises(ArithmeticError, match="dimension 1 contradicts "
                                              "the tensor rule 0"):
        oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)


def test_nd_contradicting_the_tensor_rule_raises(monkeypatch):
    # 1-D dims (2, 0) predict ev = 4; the 2-D solve finds one kernel vector
    monkeypatch.setattr(oscillator, "oscillator_1d",
                        lambda *a: KernelReport(2, 0, 0.0))
    with pytest.raises(ArithmeticError, match="dimension 1 contradicts "
                                              "the tensor rule 4"):
        oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)


def test_nd_block_cap_raises_before_the_start_block(monkeypatch):
    # 1-D dims (4, 0) predict ev = 16: a start block of 17 vectors
    monkeypatch.setattr(oscillator, "oscillator_1d",
                        lambda *a: KernelReport(4, 0, 0.0))
    # calling it fails: no stencil, so no vector, is built
    monkeypatch.setattr(oscillator, "_component_stencils", None)
    with pytest.raises(ValueError, match="dimension 16: the Rayleigh-Ritz "
                                         "step takes at most 14"):
        oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)


@pytest.mark.parametrize("svd_tol", [math.nan, math.inf, -math.inf, 0.0,
                                     -1.0])
def test_svd_tol_must_be_positive_and_finite(monkeypatch, svd_tol):
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "numpy", None)  # checked before numpy loads
        for solve in (lambda: oscillator_1d(GRID, svd_tol),
                      lambda: oscillator_nd(2, GridSpec(6.0, 0.1), svd_tol)):
            with pytest.raises(ValueError, match="positive and finite"):
                solve()


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
def test_potential_scale_must_be_finite(monkeypatch, scale):
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "numpy", None)  # checked before numpy loads
        for solve in (
                lambda: oscillator_1d(GRID, TOL, scale),
                lambda: oscillator_nd(2, GridSpec(6.0, 0.1), TOL, scale),
                lambda: cylinder_sl2("even", 4, GRID, TOL, scale)):
            with pytest.raises(ValueError, match="potential_scale"):
                solve()


@pytest.mark.parametrize("parity, window, error, message", [
    pytest.param(parity, window, error, message, id=f"{parity}-{window}")
    for parity, window, error, message in [
        ("diagonal", 4, ValueError, "parity must be 'even' or 'odd'"),
        ("even", -1, ValueError, "window must be a nonnegative int, not -1"),
        ("odd", 2.0, ValueError, "window must be a nonnegative int, not 2.0"),
        ("even", True, ValueError,
         "window must be a nonnegative int, not True"),
        ("even", "4", ValueError, "window must be a nonnegative int, not '4'"),
        # the engine's cap: no cylinder table outgrows its SL(2,R) oracle
        ("even", 65, TableSizeError, "window 65 is above the cap of 64")]])
def test_cylinder_arguments_checked_before_the_solve(monkeypatch, parity,
                                                     window, error, message):
    def refuse(*args):
        raise AssertionError("solved before checking the arguments")

    monkeypatch.setattr(oscillator, "oscillator_1d", refuse)
    for build in (lambda: cylinder_sl2(parity, window, GRID, TOL),
                  lambda: cylinder_table(KernelReport(1, 0, 0.0), parity,
                                         window)):
        with pytest.raises(ValueError) as e:
            build()
        assert type(e.value) is error and str(e.value) == message


def test_1d_values_stop_at_the_rounding_floor():
    # values-only SVDs report driver noise below eps * s_max: 7.35e-23 at
    # scale 2, where the full SVD gives 1.23e-14
    eps = np.finfo(float).eps
    for f in (1.0, 2.0, 4.0):
        rep = oscillator_1d(GRID, TOL, potential_scale=f)
        for a, svals in zip(_component_matrices(GRID, f),
                            (rep.even_singular_values,
                             rep.odd_singular_values)):
            s_max = np.linalg.svd(a, compute_uv=False)[0]
            assert min(svals) >= eps * s_max
        assert (rep.kernel_dim_even, rep.kernel_dim_odd) == (1, 0)


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


def test_1d_gaussian_matches_full_svd(monkeypatch):
    real_svd = np.linalg.svd
    calls = []

    def svd_values_only(a, *args, **kwargs):
        assert kwargs.get("compute_uv") is False, "asked for U/V"
        calls.append(a.shape)
        return real_svd(a, *args, **kwargs)

    for grid in (GridSpec(8.0, 0.05), GridSpec(6.0, 0.1)):
        xi = grid.nodes()[1:-1]
        for f in (1.0, 2.0, 4.0):
            oscillator._spectra.cache_clear()  # each call solves
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", svd_values_only)
                rep = oscillator_1d(grid, TOL, potential_scale=f)
            v = real_svd(_component_matrices(grid, f)[0])[2][-1]
            v *= np.sign(v.sum())
            gauss = np.exp(-f * xi ** 2 / 2)
            want = np.linalg.norm(v - gauss / np.linalg.norm(gauss))
            # unit vectors within 1e-12 of each other give errors within
            # 1e-12 of each other (triangle inequality)
            assert rep.gaussian_l2_error == pytest.approx(want, abs=1e-12)
    assert len(calls) == 24  # four parity halves, six grids and scales


def test_1d_repeat_is_a_memo_hit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved again")

    oscillator._spectra.cache_clear()
    cold = oscillator_1d(GRID, TOL, 2.0)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", refuse)
        m.setattr(oscillator, "_gaussian", refuse)
        assert oscillator_1d(GRID, TOL, 2.0) == cold
        assert (cylinder_sl2("odd", 20, GRID, TOL, 2.0)
                == cylinder_table(cold, "odd", 20))


def test_1d_memo_applies_each_calls_svd_tol():
    # 1e-6 is conclusive, 0.5 lies at the spectral gap (inconclusive)
    cold = {}
    for tol in (TOL, 0.5):
        oscillator._spectra.cache_clear()
        cold[tol] = oscillator_1d(GRID, tol)
    oscillator._spectra.cache_clear()
    warm = [oscillator_1d(GRID, tol) for tol in (TOL, 0.5, TOL)]
    assert oscillator._spectra.cache_info().hits == 2
    assert warm == [cold[TOL], cold[0.5], cold[TOL]]
    assert (warm[0].kernel_dim_even, warm[0].kernel_dim_odd) == (1, 0)
    assert warm[1].inconclusive and warm[1].kernel_dim_even is None


def test_1d_reports_are_fresh_and_the_memo_read_only():
    oscillator._spectra.cache_clear()
    first = oscillator_1d(GRID, TOL)
    want = copy.deepcopy(first)
    first.even_singular_values[0] = -1.0
    first.odd_singular_values.clear()
    with pytest.raises(AttributeError):  # a report's fields are read-only
        first.kernel_dim_even = 7
    assert oscillator_1d(GRID, TOL) == want
    for s in oscillator._spectra(GRID, 1.0)[:2]:
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 0.0


def test_1d_memo_holds_eight_keys():
    oscillator._spectra.cache_clear()
    grid = GridSpec(4.0, 0.1)
    scales = [0.5 * i for i in range(1, 10)]
    for f in scales:
        oscillator_1d(grid, TOL, f)
    info = oscillator._spectra.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (8, 8, 9)
    oscillator_1d(grid, TOL, scales[0])  # evicted by the ninth key
    assert oscillator._spectra.cache_info().misses == 10


def test_1d_solve_budget():
    # a work budget: 1-D kernel solves (misses of the spectra memo) from a
    # cold memo
    oscillator._spectra.cache_clear()
    assert all(c.passed for c in verify.suite_dirac())
    # scales 1, 2, 4 and one inside the 2-D check
    assert oscillator._spectra.cache_info().misses == 4
    oscillator._spectra.cache_clear()
    for i in range(16):  # the 1-D requests of one oracle-mix round
        f = (1.0, 2.0, 4.0)[i % 3]
        if i % 2:
            cylinder_sl2("even", 20, GRID, TOL, f)
        else:
            oscillator_1d(GRID, TOL, f)
    assert oscillator._spectra.cache_info().misses == 3


def test_1d_and_cylinder_leave_scipy_unloaded():
    script = ("import sys\n"
              "from kbranch.oscillator import GridSpec, cylinder_sl2, "
              "oscillator_1d\n"
              "grid = GridSpec(8.0, 0.05)\n"
              "assert oscillator_1d(grid, 1e-6).kernel_dim_even == 1\n"
              "assert cylinder_sl2('even', 4, grid, 1e-6).entries\n"
              "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
              "assert not loaded, loaded\n")
    src = str(Path(kbranch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_2d_and_verify_dirac_run_without_scipy():
    # importing scipy or numpy.random raises here, so any kbranch path that
    # needs either fails
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "sys.modules['numpy.random'] = None\n"
              "from kbranch import verify\n"
              "from kbranch.oscillator import GridSpec, oscillator_nd\n"
              "rep = oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)\n"
              "assert (rep.kernel_dim_even, rep.kernel_dim_odd) == (1, 0)\n"
              "assert all(c.passed for c in verify.suite_dirac())\n"
              "loaded = [m for m in sys.modules if m.startswith('scipy')\n"
              "          and sys.modules[m] is not None]\n"
              "assert not loaded, loaded\n")
    src = str(Path(kbranch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
