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
small singular values, auditable against an explicit inconclusive band.
A cylinder table is read from one such 1-D report (`cylinder_table`).
numpy and scipy load inside the functions that compute, not on import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .branching import KTypeTable

MAX_GRID_POINTS = 2000  # the dense SVDs take O(n^2) memory


class GridError(ValueError):
    pass


class InconclusiveKernelError(RuntimeError):
    """A singular value fell inside the tolerance band; no dimension claimed."""


@dataclass(frozen=True)
class GridSpec:
    """Symmetric 1-D grid on [-L, L] with an odd point count."""

    halfwidth: float
    step: float

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


@dataclass
class KernelReport:
    """Kernel dimensions with the singular values that justify them.

    Dimensions are None when the singular values fall inside the
    inconclusive band around the tolerance.
    """

    kernel_dim_even: Optional[int]
    kernel_dim_odd: Optional[int]
    gaussian_l2_error: float
    even_singular_values: list[float] = field(default_factory=list)
    odd_singular_values: list[float] = field(default_factory=list)
    inconclusive: bool = False


def _component_matrices(grid: GridSpec, scale: float):
    """Staggered matrices for (d/dx + s*x) and (-d/dx + s*x).

    Even component: columns are interior nodes, rows are midpoints.
    Odd component: columns are midpoints, rows are all nodes (stencil values
    beyond the boundary are Dirichlet zeros).  Both are rows = cols + 1.
    """
    import numpy as np
    n = grid.npoints
    h = grid.step
    x = grid.nodes()
    mid = (x[:-1] + x[1:]) / 2

    even = np.zeros((n - 1, n - 2))
    for i in range(n - 1):
        for node, coef in ((i, -1.0 / h + scale * mid[i] / 2),
                           (i + 1, 1.0 / h + scale * mid[i] / 2)):
            if 1 <= node <= n - 2:
                even[i, node - 1] += coef

    odd = np.zeros((n, n - 1))
    for i in range(n):
        if i - 1 >= 0:
            odd[i, i - 1] = 1.0 / h + scale * x[i] / 2
        if i <= n - 2:
            odd[i, i] = -1.0 / h + scale * x[i] / 2
    return even, odd


def _band_count(svals, tol: float):
    """(count below tol, inside-band flag) for the ambiguity band
    [tol/10, 10*tol]."""
    inside = ((svals >= tol / 10) & (svals <= tol * 10)).any()
    return int((svals < tol).sum()), bool(inside)


def oscillator_1d(grid: GridSpec, svd_tol: float,
                  potential_scale: float = 1.0) -> KernelReport:
    """Kernel dimensions of the two oscillator components on a grid.

    The even component should report a one-dimensional kernel spanned by
    the grid Gaussian; the odd component's formal solution grows like
    exp(+x^2/2) and is rejected by the boundary, so its kernel is empty.
    """
    import numpy as np
    if svd_tol <= 0:
        raise ValueError("svd_tol must be positive")
    even, odd = _component_matrices(grid, potential_scale)

    u, s_even, vt = np.linalg.svd(even)
    s_odd = np.linalg.svd(odd, compute_uv=False)
    dim_even, amb_even = _band_count(s_even, svd_tol)
    dim_odd, amb_odd = _band_count(s_odd, svd_tol)

    xi = grid.nodes()[1:-1]
    gauss = np.exp(-potential_scale * xi ** 2 / 2)
    gauss /= np.linalg.norm(gauss)
    v = vt[-1]
    err = min(np.linalg.norm(v - gauss), np.linalg.norm(v + gauss))

    ambiguous = amb_even or amb_odd
    return KernelReport(
        kernel_dim_even=None if ambiguous else dim_even,
        kernel_dim_odd=None if ambiguous else dim_odd,
        gaussian_l2_error=float(err),
        even_singular_values=sorted(s_even[-3:].tolist()),
        odd_singular_values=sorted(s_odd[-3:].tolist()),
        inconclusive=ambiguous,
    )


def oscillator_nd(n: int, grid: GridSpec, svd_tol: float,
                  potential_scale: float = 1.0) -> KernelReport:
    """Kernel of the n = 2 operator: the graded tensor rule on the 1-D dims
    (e, o), even = e^2 + o^2 and odd = 2eo, confirmed by a direct 2-D
    discretisation of the even spinor block, which supplies the reported
    singular values and Gaussian error.  Any other n raises ValueError.

    The even block couples degrees 0 and 2 through the two odd components;
    staggering per axis matches the 1-D scheme.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if n != 2:
        raise ValueError("desk scale covers n = 2 only")
    rep1 = oscillator_1d(grid, svd_tol, potential_scale)
    if rep1.inconclusive:
        raise InconclusiveKernelError(
            "1-D oscillator report is inconclusive; cannot tensor")
    e, o = rep1.kernel_dim_even, rep1.kernel_dim_odd
    ev, od = e * e + o * o, 2 * e * o

    m = grid.npoints
    even1, odd1 = _component_matrices(grid, potential_scale)
    P = sp.csr_matrix(even1)          # nodes-interior -> midpoints
    M = sp.csr_matrix(odd1)           # midpoints -> nodes
    E = sp.csr_matrix((np.ones(m - 2), (np.arange(1, m - 1), np.arange(m - 2))),
                      shape=(m, m - 2))
    I1 = sp.identity(m - 1)
    # rows: odd components v1 on (mid x node), v2 on (node x mid);
    # cols: degree 0 on (interior x interior), degree 2 on (mid x mid)
    A = sp.bmat([[sp.kron(P, E), -sp.kron(I1, M)],
                 [sp.kron(E, P), sp.kron(M, I1)]], format="csc")
    ata = (A.T @ A).tocsc()
    # a fixed start vector makes ARPACK, and so the report, reproducible
    v0 = np.random.default_rng(0).standard_normal(ata.shape[0])
    vals, vecs = spla.eigsh(ata, k=4, sigma=0, which="LM", v0=v0)
    svals = np.sqrt(np.abs(np.sort(vals)))
    dim, ambiguous = _band_count(svals, svd_tol)
    if ambiguous:
        raise InconclusiveKernelError(
            "explicit 2-D singular values fall in the tolerance band")
    if dim != ev:
        raise ArithmeticError(
            f"explicit 2-D kernel dimension {dim} contradicts the "
            f"tensor rule {ev}")

    v = vecs[:, np.argsort(np.abs(vals))[0]]
    xi = grid.nodes()[1:-1]
    g2 = np.exp(-potential_scale * (xi[:, None] ** 2 + xi[None, :] ** 2) / 2)
    g2 = g2.ravel() / np.linalg.norm(g2)
    u0 = v[:(m - 2) * (m - 2)] / np.linalg.norm(v)
    err = min(np.linalg.norm(u0 - g2), np.linalg.norm(u0 + g2))
    return KernelReport(ev, od, float(err),
                        even_singular_values=sorted(svals.tolist()))


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
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if weight_window < 0:
        raise ValueError("weight window must be nonnegative")
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
    """`oscillator_1d` followed by `cylinder_table`."""
    return cylinder_table(oscillator_1d(grid, svd_tol, potential_scale),
                          parity, weight_window)
