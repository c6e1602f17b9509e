"""Independent reference values: closed forms and a periodic cell solver.

Three families of ground truth for validating the embedded solver chain:

* the single spherical inclusion with isotropic phases (Eshelby's problem),
  where the corrector and all energies are elementary closed forms;
* 1D, where the corrected flux is constant and everything reduces to the
  harmonic mean of the coefficient over the ball;
* the classical periodic cell problem on Q = (-1/2, 1/2)^d, solved by FEM
  with periodic identification, whose averaged-flux matrix is the standard
  homogenized coefficient the embedded estimators should approach for
  large rescaling factors.
"""

import numpy as np

from .errors import GeometryError, InvalidCoefficientError
from .fem import (assemble_stiffness, box_mesh, reduce_coefficient,
                  scatter_plan, scatter_vector, sparse_lu)
from .fields import rescale

# ---------------------------------------------------------------------------
# Eshelby closed forms (isotropic phases alpha inside the ball, gamma outside)
# ---------------------------------------------------------------------------


def eshelby_gradient_factor(alpha, gamma, d):
    """Interior gradient factor C: grad w = C p inside the ball.

    C = (gamma - alpha) / ((d - 1) gamma + alpha).
    """
    return (gamma - alpha) / ((d - 1) * gamma + alpha)


def eshelby_corrector(alpha, gamma, p, x, d=None):
    """Exact corrector (value, gradient) for isotropic phases, any d in 1..3.

    w(x) = C p.x inside the ball and C p.x / |x|^d outside; the gradient is
    C p inside and the dipole field outside.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    p = np.asarray(p, dtype=float)
    if d is None:
        d = pts.shape[1]
    C = eshelby_gradient_factor(alpha, gamma, d)
    r2 = np.einsum("nd,nd->n", pts, pts)
    px = pts @ p
    inside = r2 <= 1.0
    rd = np.where(inside, 1.0, r2 ** (0.5 * d))
    value = C * px / rd
    grad = np.broadcast_to(C * p, pts.shape).copy()
    out = ~inside
    grad[out] = C * (p[None, :] / rd[out, None]
                     - d * (px[out] / (rd[out] * r2[out]))[:, None] * pts[out])
    if single:
        return value[0], grad[0]
    return value, grad


def eshelby_trace_g(alpha, gamma, d):
    """((1/d) Tr G, fixed-point gap f) for field alpha*I, exterior gamma*I.

    (1/d) Tr G = alpha + (alpha - gamma) C(alpha, gamma); subtracting gamma
    gives f(gamma) = (alpha - gamma) d gamma / ((d - 1) gamma + alpha), the
    scalar fixed-point function whose only positive root is gamma = alpha.
    """
    C = eshelby_gradient_factor(alpha, gamma, d)
    trace_over_d = alpha + (alpha - gamma) * C
    return trace_over_d, trace_over_d - gamma


# ---------------------------------------------------------------------------
# 1D closed forms
# ---------------------------------------------------------------------------


def piecewise_values_1d(field, lo=-1.0, hi=1.0):
    """(lengths, values) of the constant pieces of a 1D field on (lo, hi)."""
    if field.dim != 1:
        raise InvalidCoefficientError("piecewise decomposition needs a 1D field")
    bps = np.asarray(field.breakpoints_1d(lo, hi), dtype=float)
    edges = np.concatenate([[lo], bps, [hi]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = field.evaluate(mids.reshape(-1, 1))[:, 0, 0]
    return np.diff(edges), vals


def harmonic_mean_1d(field, lo=-1.0, hi=1.0):
    """Exact harmonic mean of a piecewise-constant 1D field over (lo, hi)."""
    lengths, vals = piecewise_values_1d(field, lo, hi)
    return float(lengths.sum() / np.sum(lengths / vals))


def arithmetic_mean_1d(field, lo=-1.0, hi=1.0):
    lengths, vals = piecewise_values_1d(field, lo, hi)
    return float(np.sum(lengths * vals) / lengths.sum())


def analytic_j_1d(field, exterior):
    """Exact 1D corrector energy 2A - A^2/H at exterior value A.

    H is the harmonic mean of the field over the ball (-1, 1); the corrected
    flux is the constant A, which gives the quadratic dependence.
    """
    a = float(np.asarray(exterior).reshape(-1)[0])
    h_mean = harmonic_mean_1d(field)
    return 2.0 * a - a * a / h_mean


class Harmonic1DModel:
    """Closed-form energy backend for 1D fields, for the estimator loops.

    Exposes the same surface the discretized problem does (trace objective
    with gradient and Hessian, energy matrix with Jacobian, mean
    coefficient), so the ascent and both fixed-point iterations run
    unchanged on exact energies.
    """

    def __init__(self, field, lo=-1.0, hi=1.0):
        self.field = field
        self.bounds = field.bounds
        self.disc = None
        self.h_mean = harmonic_mean_1d(field, lo, hi)
        self._mean = arithmetic_mean_1d(field, lo, hi)
        self.max_rel1_seen = 0.0

    @property
    def dim(self):
        return 1

    def trace_objective(self, exterior):
        a = float(np.asarray(exterior).reshape(-1)[0])
        value = 2.0 * a - a * a / self.h_mean
        grad = np.array([[2.0 - 2.0 * a / self.h_mean]])
        return value, grad

    def trace_hessian(self, exterior):
        return np.array([[-2.0 / self.h_mean]])

    def energy_matrix(self, exterior):
        value, _ = self.trace_objective(exterior)
        return np.array([[value]]), []

    def energy_jacobian(self, exterior):
        a = float(np.asarray(exterior).reshape(-1)[0])
        return np.array([[[2.0 - 2.0 * a / self.h_mean]]])

    def flux_average(self, exterior):
        # constant 1D flux: the ball average is the exterior value itself
        return np.asarray(exterior, dtype=float).reshape(1, 1).copy()

    def mean_coefficient(self):
        return np.array([[self._mean]])


# ---------------------------------------------------------------------------
# periodic cell reference
# ---------------------------------------------------------------------------


def periodic_effective(field, R=1.0, divisions=64, quad_order=1):
    """Homogenized matrix of x -> field(R x) from the periodic cell problem.

    Solves, for each unit slope, the corrector on Q = (-1/2, 1/2)^d with
    periodic boundary conditions (P1 elements, one pinned vertex), and
    returns the averaged corrected flux by columns. The default centroid
    rule keeps quadrature points off the element edges, so microstructures
    whose interfaces lie on mesh lines (laminates, checkerboards with
    divisions a multiple of R) are reduced exactly; aligned laminates then
    reproduce the harmonic/arithmetic diagonal to solver precision. This is
    the reference the embedded estimators are compared against at matching R.
    """
    if field.dim not in (1, 2):
        raise GeometryError("periodic reference supports dim 1 or 2")
    n = int(divisions)
    if n < 2:
        raise GeometryError(f"divisions must be >= 2, got {divisions}")
    mesh = box_mesh(field.dim, np.linspace(-0.5, 0.5, n + 1), quad_order)
    coeff = rescale(field, R) if R != 1.0 else field
    reduced = reduce_coefficient(mesh, coeff.evaluate)

    # periodic identification: vertex (i, j) -> cell vertex (i mod n, j mod n);
    # cell vertex 0 is pinned to fix the constant, and its dof is dropped (-1)
    if field.dim == 1:
        cell_vertex = np.arange(n + 1) % n
        n_dofs = n - 1
    else:
        iv, jv = np.divmod(np.arange((n + 1) ** 2), n + 1)
        cell_vertex = (iv % n) * n + (jv % n)
        n_dofs = n * n - 1
    dof_map = cell_vertex - 1
    dofs = dof_map[mesh.elements]
    lu = sparse_lu(assemble_stiffness(
        mesh, reduced, scatter_plan(mesh.elements, dof_map, n_dofs)))

    d = field.dim
    out = np.empty((d, d))
    total = reduced.sum(axis=0)          # int_Q A(Rx) dx, |Q| = 1
    for k in range(d):
        cell_loads = -np.einsum("eld,ed->el", mesh.grads, reduced[:, :, k])
        x = lu.solve(scatter_vector(dofs, n_dofs, cell_loads))
        w = np.append(x, 0.0)[dofs]     # dof -1 reads the pinned zero
        grad_w = np.einsum("eld,el->ed", mesh.grads, w)
        out[:, k] = total[:, k] + np.einsum("eab,eb->a", reduced, grad_w)
    return out
