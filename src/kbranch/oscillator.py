"""Desk-scale numerical kernels of the deformed oscillator operators.

The model operator is the off-diagonal pair (d/dx + x, -d/dx + x) acting on
even/odd spinor components.  Its L2 kernel is one-dimensional in even
degree (the Gaussian) and zero in odd degree.  The discretisation must
reproduce that asymmetry honestly: a plain square centered stencil fails,
because the two component matrices are transposes of each other and share
singular values (the leapfrog parasitic mode fakes an odd kernel).  We use
the staggered centered scheme instead - even component on grid nodes, odd
component on midpoints - which is second-order accurate and, with Dirichlet
handled by removing boundary degrees of freedom, makes each component
matrix overdetermined by one.  Kernel dimensions are then plain counts of
small singular values, auditable against an explicit inconclusive band;
both stencils anticommute with x -> -x, so the values come from each
matrix's two blocks of order n/2 on the parity halves (`_parity_halves`).
Every matrix is read from the stencil diagonals, and the 1-D Gaussian comes
from inverse iteration with the tridiagonal A^T A in O(n), and both are
kept per (grid, scale) in a memo of 8 entries (`_spectra`), so that a repeat
only applies its own svd_tol to them and builds a new report.  A cylinder
table is read from one such 1-D report (`cylinder_table`).  The 2-D check is
matrix-free and does not iterate: one Rayleigh-Ritz step on the
preconditioner's tensor vectors, corrected for the coupling of degrees 0
and 2, gives its values (`_ritz_step`), and a bound on that coupling proves
its count (`_count_bound`).  numpy loads where it computes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .branching import KTypeTable, _check_window

MAX_GRID_POINTS = 2000  # 1-D: n/2-square SVDs; the Gaussian costs O(n)
MAX_GRID_POINTS_2D = 241  # oscillator_nd: A O(m^2), preconditioner O(m^3)
MAX_START_ROWS = 15  # oscillator_nd: ev + 1 vectors, 2 on desk kernels


class GridError(ValueError):
    pass


class InconclusiveKernelError(RuntimeError):
    """A singular value fell inside the tolerance band; no dimension claimed."""


class _GridSpecFields(NamedTuple):
    halfwidth: float
    step: float


class GridSpec(_GridSpecFields):
    """Symmetric 1-D grid on [-L, L] with an odd point count."""

    __slots__ = ()

    def __new__(cls, halfwidth, step):
        self = tuple.__new__(cls, (halfwidth, step))
        self.__post_init__()
        return self

    def __post_init__(self):
        if self.halfwidth <= 0:
            raise GridError("halfwidth must be positive")
        if not (0 < self.step < self.halfwidth):
            raise GridError("need 0 < step < halfwidth")
        ratio = 2 * self.halfwidth / self.step
        if ratio + 1 > MAX_GRID_POINTS:
            raise GridError(f"the grid would have {ratio + 1:.6g} points; at "
                            f"most {MAX_GRID_POINTS} are allowed")
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) % 2 != 0:
            raise GridError("grid must have an odd point count symmetric "
                            "through 0")

    @property
    def npoints(self) -> int:
        return int(round(2 * self.halfwidth / self.step)) + 1

    def nodes(self):
        import numpy as np
        return np.linspace(-self.halfwidth, self.halfwidth, self.npoints)


class KernelReport(NamedTuple):
    """Kernel dimensions with the singular values that justify them.

    Dimensions are None when the singular values fall inside the
    inconclusive band around the tolerance, and read as eps * s_max below
    that rounding floor.  From `oscillator_nd` the even values are the
    residuals ||A v|| / ||v|| of its ev + 1 lowest Ritz vectors.
    """

    kernel_dim_even: Optional[int]
    kernel_dim_odd: Optional[int]
    gaussian_l2_error: float
    even_singular_values: Sequence[float] = ()
    odd_singular_values: Sequence[float] = ()
    inconclusive: bool = False


def _component_stencils(grid: GridSpec, scale: float):
    """Staggered matrices for (d/dx + s*x) and (-d/dx + s*x) as diagonals
    (d, l): column j holds d[j] in row j and l[j] in row j + 1.  Even
    component: columns are interior nodes, rows are midpoints.  Odd
    component: columns are midpoints, rows are all nodes (stencil values
    beyond the boundary are Dirichlet zeros).  Both are rows = cols + 1."""
    x, h = grid.nodes(), grid.step
    return tuple((sign / h + scale * p[:-1] / 2, -sign / h + scale * p[1:] / 2)
                 for p, sign in (((x[:-1] + x[1:]) / 2, 1), (x, -1)))


def _dense(d, l):
    """The (len(d) + 1) x len(d) lower bidiagonal with diagonals d and l."""
    import numpy as np
    a, j = np.zeros((len(d) + 1, len(d))), np.arange(len(d))
    a[j, j], a[j + 1, j] = d, l
    return a


def _parity_halves(grid: GridSpec, scale: float):
    """Each component matrix a, with a[::-1, ::-1] == -a, as its blocks from
    even columns to odd rows and from odd to even, in the bases e_0 and
    (e_i +- e_-i)/sqrt(2): top-left blocks of a, built from the diagonals up
    to 0, with sqrt(2) on the centre column (even) or row (odd)."""
    k = grid.npoints // 2
    even, odd = (_dense(d[:k], l[:k])
                 for d, l in _component_stencils(grid, scale))
    even[:, -1] *= 2 ** 0.5
    odd[-1] *= 2 ** 0.5
    return (even[:-1], even[:-1, :-1]), (odd, odd[:-1])


def _component_eigs(grid: GridSpec, scale: float):
    """(s, vt) of each component matrix, s falling, the rows of vt its right
    singular vectors, from `eigh` of b^T b for each parity half b: s =
    sqrt(max(w, 0)), exact but at the floor eps * s_max^2 that the
    preconditioner's clamp replaces.  Each half's basis, e_0 or (e_j + sign
    e_-j)/sqrt(2) with sign + on even columns (P's first half, M's second),
    is unfolded to grid coordinates by slicing."""
    import numpy as np
    out = []
    for halves, signs in zip(_parity_halves(grid, scale), ((1, -1), (-1, 1))):
        n = sum(b.shape[1] for b in halves)  # the matrix's columns
        ss, vts = [], []
        for b, sign in zip(halves, signs):
            w, v = np.linalg.eigh(b.T @ b)
            c, j = b.shape[1], np.arange(b.shape[1])
            v = v.T / np.where(j == n - 1 - j, 2, 2 ** 0.5)  # 2: the centre
            vt = np.pad(v, ((0, 0), (0, n - c)))
            vt[:, n - c:] += sign * v[:, ::-1]
            ss.append(np.sqrt(np.maximum(w, 0)))
            vts.append(vt)
        s = np.concatenate(ss)
        order = np.argsort(-s, kind="stable")
        out.append((s[order], np.concatenate(vts)[order]))
    return out


def _band_count(svals, tol: float):
    """(count below tol, inside-band flag) for the ambiguity band
    [tol/10, 10*tol]."""
    inside = ((svals >= tol / 10) & (svals <= tol * 10)).any()
    return int((svals < tol).sum()), bool(inside)


def _gaussian(grid: GridSpec, scale: float):
    """The unit kernel vector of the even component A: two inverse-iteration
    steps from ones with A^T A + mu I, tridiagonal, mu = eps * max(diag),
    factored once as L D L^T in O(n).  D_k = l_k^2 + e_k, e_k = mu + d_k^2
    e_(k-1) / D_(k-1), avoids the textbook form's cancellation (README)."""
    import numpy as np
    d, l = (c.tolist() for c in _component_stencils(grid, scale)[0])
    mu = np.finfo(float).eps * max(a * a + b * b for a, b in zip(d, l))
    e, piv = mu + d[0] ** 2, []
    for dk, lk in zip(d[1:] + [0.0], l):
        piv.append(e + lk * lk)
        e = mu + dk * dk * e / piv[-1]
    mul = [a * b / p for a, b, p in zip(l, d[1:], piv)]  # L below its diagonal
    v = [1.0] * len(d)
    for _ in range(2):
        for j, c in enumerate(mul):
            v[j + 1] -= c * v[j]
        v = [x / p for x, p in zip(v, piv)]
        for j in range(len(mul) - 1, -1, -1):
            v[j] -= mul[j] * v[j + 1]
    return np.array(v) / math.hypot(*v)


@lru_cache(maxsize=8)
def _spectra(grid: GridSpec, scale: float):
    """The tolerance-free part of `oscillator_1d`: its even and odd spectra,
    read-only, and its Gaussian error, solved once per (grid, scale)."""
    import numpy as np
    # each spectrum: its halves' union, ascending, floored at eps * s_max
    spectra = tuple(np.maximum(s, np.finfo(float).eps * s[-1]) for s in (
        np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False)
                                for b in halves]))
        for halves in _parity_halves(grid, scale)))
    for s in spectra:
        s.flags.writeable = False
    v = _gaussian(grid, scale)
    xi = grid.nodes()[1:-1]
    gauss = np.exp(-scale * xi ** 2 / 2)
    gauss /= np.linalg.norm(gauss)
    err = min(np.linalg.norm(v - gauss), np.linalg.norm(v + gauss))
    return *spectra, float(err)


def oscillator_1d(grid: GridSpec, svd_tol: float,
                  potential_scale: float = 1.0) -> KernelReport:
    """Kernel dimensions of the two oscillator components on a grid.

    The even component should report a one-dimensional kernel spanned by
    the grid Gaussian; the odd component's formal solution grows like
    exp(+x^2/2) and is rejected by the boundary, so its kernel is empty.
    The spectra and the Gaussian error come from `_spectra`, a memo keyed
    on (grid, potential_scale) that holds 8 entries; `svd_tol` is applied
    on every call, and every call returns a new report with new lists.
    """
    if not (math.isfinite(svd_tol) and svd_tol > 0):
        raise ValueError("svd_tol must be positive and finite")
    if not math.isfinite(potential_scale):
        raise ValueError("potential_scale must be finite")
    s_even, s_odd, err = _spectra(grid, potential_scale)
    dim_even, amb_even = _band_count(s_even, svd_tol)
    dim_odd, amb_odd = _band_count(s_odd, svd_tol)
    ambiguous = amb_even or amb_odd
    return KernelReport(
        kernel_dim_even=None if ambiguous else dim_even,
        kernel_dim_odd=None if ambiguous else dim_odd,
        gaussian_l2_error=err,
        even_singular_values=s_even[:3].tolist(),
        odd_singular_values=s_odd[:3].tolist(),
        inconclusive=ambiguous,
    )


def _ritz_step(op, adj, prec, x, tol: float):
    """The len(x) lowest Ritz pairs of op^T op on the span of the rows of x,
    unit vectors lowest first, and images equal to op of them up to rounding:
    one Rayleigh-Ritz step, then one on [x; w], w the preconditioned residuals
    above tol + 1e-6 theta.  A start of lower rank than its rows is refused."""
    import numpy as np
    k = len(x)
    def ritz(v, av):  # on the orthonormal basis of v's span from its Gram
        g, z = np.linalg.eigh(v @ v.T)
        keep = g > 1e-10 * g[-1]
        c = (z[:, keep] / np.sqrt(g[keep])).T
        theta, y = np.linalg.eigh((c @ av) @ (c @ av).T)
        c = y[:, :k].T @ c
        return theta[:k], c @ v, c @ av
    theta, x, ax = ritz(x, op(x))
    if len(x) < k:
        raise InconclusiveKernelError(
            f"the Rayleigh-Ritz start's {k} rows have rank {len(x)}")
    r = adj(ax) - theta[:, None] * x
    far = np.linalg.norm(r, axis=1) > tol + 1e-6 * theta
    if not far.any():
        return x, ax
    w = prec(r[far])
    w -= (w @ x.T) @ x
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return ritz(np.vstack([x, w]), np.vstack([ax, op(w)]))[1:]


def _count_bound(eigs, sh: float, delta: float) -> float:
    """At least the count of eigenvalues of A^T A below delta, or inf, from
    the values of eigs = `_component_eigs` and sh = s h: the count of (1 -
    alpha) lambda_i(T0) <= delta where alpha = (s h)^2 / (2 (lambda_min(T2)
    - delta)) < 1 (README, "Numerical notes")."""
    (s0, _), (s2, _) = eigs
    room = 2 * s2[-1] ** 2 - delta  # lambda_min(T2) = 2 s_min(M)^2
    alpha = sh * sh / 2 / room if room > 0 else 1.0
    t0 = s0[:, None] ** 2 + s0 ** 2
    return int(((1 - alpha) * t0 <= delta).sum()) if alpha < 1 else math.inf


def oscillator_nd(n: int, grid: GridSpec, svd_tol: float,
                  potential_scale: float = 1.0) -> KernelReport:
    """Kernel of the n = 2 operator: the graded tensor rule on the 1-D dims
    (e, o), even = e^2 + o^2 and odd = 2eo, confirmed by a direct 2-D
    discretisation of the even spinor block, which supplies the reported
    singular values and Gaussian error.  Any other n raises ValueError.

    The even block couples degrees 0 and 2 through the two odd components;
    staggering per axis matches the 1-D scheme.  `_ritz_step` gives ev + 1
    Ritz pairs of A^T A from the preconditioner's lowest eigenvectors,
    corrected for that coupling, and `_count_bound` proves that at most ev
    values lie below the band, or the check is inconclusive (README).
    """
    if n != 2:
        raise ValueError("desk scale covers n = 2 only")
    if grid.npoints > MAX_GRID_POINTS_2D:
        raise GridError(f"the 2-D grid would have {grid.npoints} points per "
                        f"axis; at most {MAX_GRID_POINTS_2D} are allowed")
    rep1 = oscillator_1d(grid, svd_tol, potential_scale)  # checks both
    if rep1.inconclusive:
        raise InconclusiveKernelError(
            "1-D oscillator report is inconclusive; cannot tensor")
    e, o = rep1.kernel_dim_even, rep1.kernel_dim_odd
    ev, od = e * e + o * o, 2 * e * o
    if ev + 1 > MAX_START_ROWS:
        raise ValueError(f"2-D kernel dimension {ev}: the Rayleigh-Ritz "
                         f"step takes at most {MAX_START_ROWS - 1}")
    import numpy as np

    m = grid.npoints
    (dp, lp), (dm, lm) = _component_stencils(grid, potential_scale)
    dpc, lpc, dmc, lmc = (c[:, None] for c in (dp, lp, dm, lm))  # on axis -2
    n0 = (m - 2) ** 2
    # columns: degree 0 on (interior x interior), degree 2 on (mid x mid);
    # rows: odd components v1 on (mid x node), v2 on (node x mid)
    def split(x, s0, s1):  # views of the two blocks of the rows of x
        a = s0[0] * s0[1]
        return x[:, :a].reshape(-1, *s0), x[:, a:].reshape(-1, *s1)
    def op(x):  # v1 = P u0 E^T - u2 M^T, v2 = E u0 P^T + M u2
        u0, u2 = split(x, (m - 2, m - 2), (m - 1, m - 1))
        y = np.empty((len(x), 2 * m * (m - 1)))
        v1, v2 = split(y, (m - 1, m), (m, m - 1))
        # a bidiagonal (d, l) puts d[j] u[j] into j and l[j] u[j] into j + 1
        np.multiply(u2, -dm, out=v1[:, :, :-1])
        v1[:, :, -1] = 0
        v1[:, :, 1:] -= u2 * lm
        np.multiply(u2, dmc, out=v2[:, :-1])
        v2[:, -1] = 0
        v2[:, 1:] += u2 * lmc
        v1[:, :-1, 1:-1] += u0 * dpc  # E: interior nodes into all
        v1[:, 1:, 1:-1] += u0 * lpc
        v2[:, 1:-1, :-1] += u0 * dp
        v2[:, 1:-1, 1:] += u0 * lp
        return y
    def adj(y):  # u0 = P^T v1 E + E^T v2 P, u2 = M^T v2 - v1 M
        v1, v2 = split(y, (m - 1, m), (m, m - 1))
        x = np.empty((len(y), n0 + (m - 1) ** 2))
        u0, u2 = split(x, (m - 2, m - 2), (m - 1, m - 1))
        # its transpose puts d[j] u[j] + l[j] u[j + 1] into j
        np.multiply(v1[:, :-1, 1:-1], dpc, out=u0)
        u0 += v1[:, 1:, 1:-1] * lpc
        u0 += v2[:, 1:-1, :-1] * dp
        u0 += v2[:, 1:-1, 1:] * lp
        np.multiply(v2[:, :-1], dmc, out=u2)
        u2 += v2[:, 1:] * lmc
        u2 -= v1[:, :, :-1] * dm
        u2 -= v1[:, :, 1:] * lm
        return x
    # precondition by the inverse of the diagonal blocks P^T P (+) P^T P and
    # M^T M (+) M^T M of A^T A by fast diagonalisation (Lynch, Rice, Thomas
    # 1964), clamped at the rounding floor lest rounding pose as a kernel
    eigs = _component_eigs(grid, potential_scale)
    floor = 2 * np.finfo(float).eps * max(s[0] for s, _ in eigs) ** 2
    fd = [(vt, np.maximum(s[:, None] ** 2 + s ** 2, floor)) for s, vt in eigs]
    def prec(r):
        return np.hstack([
            (vt.T @ (vt @ u @ vt.T / den) @ vt).reshape(len(r), -1)
            for u, (vt, den) in zip(split(r, (m - 2, m - 2), (m - 1, m - 1)),
                                    fd)])

    # start: the ev + 1 lowest eigenvectors u = vt[i] (x) vt[j] of prec (s
    # falls, so den's lowest are in its last rows and columns), each plus
    # its first-order coupling -(D - theta)^-1 C^T u into the other degree,
    # as A^T A u = theta u + C^T u (E^T E = I) and D is that degree's block
    # of prec^-1.  For u = a c^T, C^T u = (F a)(G c)^T - (G a)(F c)^T, with
    # (F, G) = (M^T E, P) from degree 0 and (E^T M, P^T) from degree 2.
    # First order needs D - theta well above 0: an entry not above theta / 2
    # is left to the Rayleigh-Ritz step
    def fg(v, b):  # (F v, G v) from the stencil diagonals
        if b == 0:
            w = np.r_[0, v, 0]
            return (dm * w[:-1] + lm * w[1:],
                    np.r_[dp, 0] * w[1:] + np.r_[0, lp] * w[:-1])
        return dm[1:] * v[1:] + lm[:-1] * v[:-1], dp * v[:-1] + lp * v[1:]
    k = ev + 1
    low = sorted((den[i, j], b, i, j) for b, (_, den) in enumerate(fd)
                 for i in range(max(len(den) - k, 0), len(den))
                 for j in range(max(len(den) - k, 0), len(den)))[:k]
    x0 = np.zeros((k, n0 + (m - 1) ** 2))
    blocks = split(x0, (m - 2, m - 2), (m - 1, m - 1))
    for row, (theta, b, i, j) in enumerate(low):
        (vt, _), (wt, den) = fd[b], fd[1 - b]
        blocks[b][row] = np.outer(vt[i], vt[j])
        fa, ga, fc, gc = (wt @ np.transpose(fg(vt[i], b) + fg(vt[j], b))).T
        t = np.outer(fa, gc) - np.outer(ga, fc)
        t /= np.where(den - theta > theta / 2, den - theta, np.inf)
        blocks[1 - b][row] = -(wt.T @ t @ wt)
    x, ax = _ritz_step(op, adj, prec, x0, 10 * floor)
    # residuals, as sqrt(theta) stops at the rounding floor of A^T A
    svals = np.linalg.norm(ax, axis=1)  # the rows of x are unit
    dim, ambiguous = _band_count(svals, svd_tol)
    if ambiguous:
        raise InconclusiveKernelError(
            "explicit 2-D singular values fall in the tolerance band")
    if dim != ev:
        raise ArithmeticError(
            f"explicit 2-D kernel dimension {dim} contradicts the "
            f"tensor rule {ev}")
    if _count_bound(eigs, potential_scale * grid.step,
                    (10 * svd_tol) ** 2) > ev:
        raise InconclusiveKernelError(
            f"the coupling bound cannot prove that at most {ev} explicit "
            f"2-D singular values lie below {10 * svd_tol:g}")

    xi = grid.nodes()[1:-1]
    g2 = np.exp(-potential_scale * (xi[:, None] ** 2 + xi[None, :] ** 2) / 2)
    g2 = g2.ravel() / np.linalg.norm(g2)
    u0 = x[0, :n0] / np.linalg.norm(x[0])
    err = min(np.linalg.norm(u0 - g2), np.linalg.norm(u0 + g2))
    return KernelReport(ev, od, float(err),
                        even_singular_values=sorted(svals.tolist()))


def _check_cylinder(parity: str, weight_window: int):
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    _check_window(weight_window)


def cylinder_table(rep: KernelReport, parity: str,
                   weight_window: int) -> KTypeTable:
    """K-type table of the cylinder operator, assembled mode by mode from
    `rep`, the 1-D report of the transverse oscillator.

    Fourier modes along the compact direction carry even K-weights for the
    trivial component character and odd K-weights for the sign character
    (sections of the twisted line bundle are antiperiodic).  Each admissible
    mode contributes the transverse oscillator kernel: one even-degree
    dimension, none in odd degree.
    """
    _check_cylinder(parity, weight_window)
    if rep.inconclusive:
        raise InconclusiveKernelError(
            "oscillator report inconclusive; cylinder table not assembled")
    per_mode = rep.kernel_dim_even - rep.kernel_dim_odd
    want = 0 if parity == "even" else 1
    entries = {(k,): per_mode
               for k in range(-weight_window, weight_window + 1)
               if abs(k) % 2 == want and per_mode != 0}
    return KTypeTable(entries, weight_window, sign=1)


def cylinder_sl2(parity: str, weight_window: int, grid: GridSpec,
                 svd_tol: float, potential_scale: float = 1.0) -> KTypeTable:
    """`oscillator_1d` then `cylinder_table`, the arguments checked first."""
    _check_cylinder(parity, weight_window)
    return cylinder_table(oscillator_1d(grid, svd_tol, potential_scale),
                          parity, weight_window)
