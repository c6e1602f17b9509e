"""Structured P1 finite elements on a truncated box, sparse assembly, solvers.

The computational domain is the box [-L, L]^d (d = 1 or 2) with homogeneous
Dirichlet data on its outer boundary; the unit ball carries the heterogeneous
coefficient, so L >= 2 keeps it strictly interior. 2D cells are split into
two triangles with alternating diagonals to avoid directional mesh bias.
Coefficients are sampled per quadrature point (edge-midpoint rule by default),
which resolves the ball indicator to O(h) without any interface fitting.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, GeometryError, InvalidCoefficientError

# "auto" solver policy: sparse LU below this many unknowns, CG above.
DIRECT_DOF_CAP = 300_000


@dataclass(frozen=True)
class Discretization:
    """Mesh and solver parameters for the truncated problem."""

    dim: int
    L: float = 5.0
    h: float = 0.05
    quad_order: int = 2
    cg_tol: float = 1e-10
    cg_max_iter: int | None = None
    solver: str = "auto"  # auto | cg | direct
    max_vertices: int = 4_000_000

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GeometryError(f"FEM path supports dim 1 or 2, got {self.dim}")
        if self.L < 2.0:
            raise GeometryError(
                f"L={self.L}: need L >= 2 so the unit ball is strictly interior"
            )
        if not 0.0 < self.h <= self.L:
            raise GeometryError(f"mesh spacing h={self.h} must be in (0, L]")
        if self.quad_order < 1 or (self.dim == 2 and self.quad_order > 2):
            raise GeometryError(
                f"quad_order={self.quad_order} unsupported "
                f"(2D rules: 1=centroid, 2=edge midpoints)"
            )
        if not 0.0 < self.cg_tol < 1.0:
            raise GeometryError(f"cg_tol must be in (0, 1), got {self.cg_tol}")
        if self.solver not in ("auto", "cg", "direct"):
            raise GeometryError(f"unknown solver {self.solver!r}")


@dataclass
class Mesh:
    """Structured simplicial mesh with precomputed P1 data.

    grads[e, i] is the (constant) gradient of local basis function i on
    element e; quad_w already includes the element measure, so plain sums
    against quad_w integrate over the box.
    """

    dim: int
    L: float
    n: int                      # divisions per side
    vertices: np.ndarray        # (nv, dim)
    elements: np.ndarray        # (ne, dim+1) vertex indices
    boundary: np.ndarray        # (nv,) bool
    grads: np.ndarray           # (ne, dim+1, dim)
    volumes: np.ndarray         # (ne,)
    quad_x: np.ndarray          # (ne, nq, dim)
    quad_w: np.ndarray          # (ne, nq)
    phi_q: np.ndarray           # (nq, dim+1) basis values at quad points
    in_ball: np.ndarray = field(init=False)   # (ne, nq) |x_q| <= 1
    interior_idx: np.ndarray = field(init=False)
    interior_pos: np.ndarray = field(init=False)  # vertex -> interior dof or -1

    def __post_init__(self):
        r2 = np.einsum("eqd,eqd->eq", self.quad_x, self.quad_x)
        self.in_ball = r2 <= 1.0
        self.interior_idx = np.flatnonzero(~self.boundary)
        self.interior_pos = np.full(len(self.vertices), -1, dtype=np.int64)
        self.interior_pos[self.interior_idx] = np.arange(len(self.interior_idx))

    @cached_property
    def plan(self):
        """Interior-dof ScatterPlan (Dirichlet vertices eliminated)."""
        return scatter_plan(self.elements, self.interior_pos, self.n_dofs)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_dofs(self):
        return len(self.interior_idx)

    def expand(self, x_interior):
        """Zero-pad an interior dof vector to all vertices."""
        w = np.zeros(self.n_vertices)
        w[self.interior_idx] = x_interior
        return w

    def element_gradients(self, w):
        """Constant per-element gradient of the P1 function w (vertex values)."""
        return np.einsum("eld,el->ed", self.grads, w[self.elements])


def _gauss_rule_1d(order):
    npts = (order + 2) // 2
    if npts > 5:
        raise GeometryError(f"1D quadrature capped at 5 Gauss points (order {order})")
    x, w = np.polynomial.legendre.leggauss(npts)
    # map from [-1, 1] to the unit reference interval [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


def build_mesh(disc):
    """Build the structured mesh for a Discretization.

    Vertices lie on a uniform grid of spacing 2L/ceil(2L/h) <= h; the total
    mesh measure is exactly (2L)^d.
    """
    n = int(np.ceil(2.0 * disc.L / disc.h))
    nv = (n + 1) ** disc.dim
    if nv > disc.max_vertices:
        raise GeometryError(
            f"mesh would have {nv} vertices, above the cap "
            f"{disc.max_vertices}; coarsen h or lower L"
        )
    return box_mesh(disc.dim, disc.L, n, disc.quad_order)


def box_mesh(dim, half_width, n, quad_order):
    """Uniform simplicial mesh of [-half_width, half_width]^dim, n per side."""
    ticks = np.linspace(-half_width, half_width, n + 1)
    if dim == 1:
        vertices = ticks.reshape(-1, 1)
        elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
        boundary = np.zeros(n + 1, dtype=bool)
        boundary[[0, -1]] = True
        le = np.diff(ticks).reshape(-1, 1, 1)        # (ne, 1, 1)
        grads = np.concatenate([-1.0 / le, 1.0 / le], axis=1)
        volumes = le[:, 0, 0]
        xi, wref = _gauss_rule_1d(quad_order)
        quad_x = (ticks[:-1, None] + np.outer(volumes, xi))[:, :, None]
        quad_w = np.outer(volumes, wref)
        phi_q = np.stack([1.0 - xi, xi], axis=1)
        return Mesh(1, half_width, n, vertices, elements, boundary,
                    grads, volumes, quad_x, quad_w, phi_q)

    xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
    vertices = np.stack([xx.ravel(), yy.ravel()], axis=1)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    vid = lambda a, b: a * (n + 1) + b
    v00, v10 = vid(ii, jj), vid(ii + 1, jj)
    v01, v11 = vid(ii, jj + 1), vid(ii + 1, jj + 1)
    tris = np.empty((n * n, 2, 3), dtype=np.int64)
    even = ((ii + jj) % 2) == 0
    # even cells use the (v00, v11) diagonal, odd cells the (v10, v01) one
    tris[even, 0] = np.stack([v00, v10, v11], axis=1)[even]
    tris[even, 1] = np.stack([v00, v11, v01], axis=1)[even]
    tris[~even, 0] = np.stack([v00, v10, v01], axis=1)[~even]
    tris[~even, 1] = np.stack([v10, v11, v01], axis=1)[~even]
    elements = tris.reshape(-1, 3)

    boundary = np.zeros(len(vertices), dtype=bool)
    gi = np.arange(n + 1)
    boundary[vid(gi, 0)] = boundary[vid(gi, n)] = True
    boundary[vid(0, gi)] = boundary[vid(n, gi)] = True

    p0 = vertices[elements[:, 0]]
    e1 = vertices[elements[:, 1]] - p0
    e2 = vertices[elements[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]   # = 2 * area, > 0 (ccw)
    volumes = 0.5 * det
    # inverse of the affine map B = [e1 e2]; physical gradients are B^-T dref
    binv = np.empty((len(elements), 2, 2))
    binv[:, 0, 0] = e2[:, 1] / det
    binv[:, 0, 1] = -e2[:, 0] / det
    binv[:, 1, 0] = -e1[:, 1] / det
    binv[:, 1, 1] = e1[:, 0] / det
    dref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])   # (nloc, refdim)
    grads = np.einsum("la,ead->eld", dref, binv)

    if quad_order == 1:
        ref = np.array([[1 / 3, 1 / 3]])
        wref = np.array([1.0])
    else:
        ref = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        wref = np.full(3, 1.0 / 3.0)
    quad_x = p0[:, None, :] + np.einsum("qa,eda->eqd", ref,
                                        np.stack([e1, e2], axis=2))
    quad_w = np.outer(volumes, wref)
    phi_q = np.stack([1.0 - ref.sum(axis=1), ref[:, 0], ref[:, 1]], axis=1)
    return Mesh(2, half_width, n, vertices, elements, boundary,
                grads, volumes, quad_x, quad_w, phi_q)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _validate_spd_pointwise(values, where):
    """Cheap SPD check for (n, d, d) stacks, d <= 2."""
    d = values.shape[-1]
    if not np.array_equal(values, values.swapaxes(-1, -2)):
        raise InvalidCoefficientError(f"{where}: non-symmetric coefficient value")
    if d == 1:
        ok = values[:, 0, 0] > 0
    else:
        tr = values[:, 0, 0] + values[:, 1, 1]
        det = values[:, 0, 0] * values[:, 1, 1] - values[:, 0, 1] * values[:, 1, 0]
        ok = (tr > 0) & (det > 0)
    if not ok.all():
        raise InvalidCoefficientError(
            f"{where}: coefficient not SPD at {int((~ok).sum())} quadrature points"
        )


def reduce_coefficient(mesh, coeff_fn, mask=None, validate=False, chunk=131072):
    """Per-element weighted coefficient integral sum_q w_q [mask] A(x_q).

    coeff_fn maps (n, dim) points to (n, dim, dim) matrices; mask (ne, nq)
    restricts the quadrature (e.g. to the unit ball). Evaluation is chunked
    over elements to bound peak memory.
    """
    ne, nq, d = mesh.quad_x.shape
    weights = mesh.quad_w if mask is None else mesh.quad_w * mask
    out = np.empty((ne, d, d))
    for lo in range(0, ne, chunk):
        hi = min(lo + chunk, ne)
        pts = mesh.quad_x[lo:hi].reshape(-1, d)
        vals = coeff_fn(pts)
        if validate:
            _validate_spd_pointwise(vals, "reduce_coefficient")
        vals = vals.reshape(hi - lo, nq, d, d)
        out[lo:hi] = np.einsum("eq,eqab->eab", weights[lo:hi], vals)
    return out


def element_stiffness(mesh, coeff_reduced):
    """Element matrices grad_i . Abar_e . grad_j, symmetrized bitwise."""
    ke = np.einsum("eia,eab,ejb->eij", mesh.grads, coeff_reduced, mesh.grads)
    return 0.5 * (ke + ke.swapaxes(1, 2))


@dataclass(frozen=True)
class ScatterPlan:
    """Fixed CSR pattern for summing element matrices into global dofs.

    slot holds the CSR slot of each entry of a flattened (ne, nloc, nloc)
    stack of element matrices, or nnz (a discard bin) where the entry's row
    or column is eliminated. Entries are summed in element order, so a stack
    of symmetric element matrices gives a bitwise-symmetric matrix.
    """

    n_dofs: int
    indptr: np.ndarray          # (n_dofs + 1,)
    indices: np.ndarray         # (nnz,)
    slot: np.ndarray            # (ne * nloc * nloc,)

    def matrix_data(self, ke):
        """CSR data of an (ne, nloc, nloc) stack of element matrices."""
        nnz = len(self.indices)
        return np.bincount(self.slot, weights=ke.ravel(),
                           minlength=nnz + 1)[:nnz]

    def matrix(self, data):
        """CSR matrix with this pattern and the given data array."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n_dofs, self.n_dofs))


def scatter_plan(elements, dof_map, n_dofs):
    """ScatterPlan of the element matrices under a vertex -> dof map.

    dof_map[v] is the dof of vertex v, or -1 where v is eliminated (a
    Dirichlet vertex, or a pinned one). The plan comes from one sort of the
    entry keys row * n + col; the steps reuse buffers where they can, since
    at 10^5 dofs each entry-sized array is ~15 MiB.
    """
    n = n_dofs
    dofs = dof_map[elements]
    # an eliminated row or column lifts the key to >= n^2, past every kept one
    row_key = np.where(dofs >= 0, dofs * n, n * n)[:, :, None]
    col_key = np.where(dofs >= 0, dofs, n * n)[:, None, :]
    keys = (row_key + col_key).ravel()
    order = np.argsort(keys)
    ordered = keys[order]
    del keys
    first = np.empty(len(ordered), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    pattern = ordered[first]
    pattern = pattern[pattern < n * n]
    rank = np.cumsum(first, out=ordered)      # reuses the sorted keys' memory
    rank -= 1
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = rank
    np.minimum(slot, len(pattern), out=slot)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(pattern // n, minlength=n), out=indptr[1:])
    return ScatterPlan(n, indptr, (pattern % n).astype(np.int32), slot)


def assemble_stiffness(mesh, coeff_reduced, plan=None):
    """Assemble the stiffness CSR from reduced coefficients.

    The default plan is the mesh's interior-dof one: homogeneous Dirichlet
    rows and columns are eliminated, leaving an SPD system that is exactly
    symmetric.
    """
    plan = mesh.plan if plan is None else plan
    return plan.matrix(plan.matrix_data(element_stiffness(mesh, coeff_reduced)))


def scatter_vector(dofs, n_dofs, cell_values):
    """Sum (ne, nloc, ...) element data into (n_dofs, ...); dof -1 drops."""
    idx = dofs.ravel()
    idx = np.where(idx >= 0, idx, n_dofs)
    flat = cell_values.reshape(len(idx), -1)
    out = np.stack([np.bincount(idx, weights=col, minlength=n_dofs + 1)[:-1]
                    for col in flat.T], axis=1)
    return out.reshape((n_dofs,) + cell_values.shape[2:])


def assemble_vector(mesh, cell_values):
    """Scatter per-element local data (ne, nloc, ...) to interior dofs."""
    return scatter_vector(mesh.interior_pos[mesh.elements], mesh.n_dofs,
                          cell_values)


def assemble_system(mesh, coeff_fn, validate=True):
    """Stiffness matrix for an arbitrary pointwise coefficient (spec surface).

    Validates SPD-ness at every quadrature point unless disabled.
    """
    reduced = reduce_coefficient(mesh, coeff_fn, validate=validate)
    return assemble_stiffness(mesh, reduced)


def assemble_load(mesh, field, exterior, p):
    """Load vector F_i = -int_B grad(phi_i) . (A(x) - A_ext) p dx.

    This is the volume form of the interface forcing: the surface pairing of
    the exterior flux A_ext p . n over the ball boundary equals
    int_B A_ext p . grad(v) by the divergence theorem (A_ext constant), so
    only the coefficient contrast inside the ball loads the system.
    """
    p = np.asarray(p, dtype=float)
    contrast = reduce_coefficient(
        mesh, lambda pts: field.evaluate(pts) - exterior, mask=mesh.in_ball
    )
    cell_loads = -np.einsum("eld,edc,c->el", mesh.grads, contrast, p)
    return assemble_vector(mesh, cell_loads)


def integrate(mesh, values, region="ball"):
    """Integrate per-quadrature values over a region of the box.

    values: (ne, nq) per quadrature point, (ne,) per element, or scalar.
    region: "ball" (|x| <= 1), "exterior" (box minus ball), or "all".
    """
    if region == "ball":
        w = mesh.quad_w * mesh.in_ball
    elif region == "exterior":
        w = mesh.quad_w * ~mesh.in_ball
    elif region == "all":
        w = mesh.quad_w
    else:
        raise ValueError(f"unknown region {region!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return float(np.sum(w * values))


# ---------------------------------------------------------------------------
# linear solvers
# ---------------------------------------------------------------------------


@dataclass
class SolveStats:
    method: str
    iterations: int
    residual: float


def solve_cg(K, F, tol=1e-10, max_iter=None, x0=None):
    """Jacobi-preconditioned conjugate gradients to relative residual <= tol.

    Returns (x, SolveStats); raises ConvergenceError (with the final residual
    attached) if the iteration cap is hit first. A zero load short-circuits
    to the zero solution.
    """
    n = K.shape[0]
    norm_f = np.linalg.norm(F)
    if norm_f == 0.0:
        return np.zeros(n), SolveStats("cg", 0, 0.0)
    if max_iter is None:
        max_iter = int(20 * np.sqrt(n)) + 1000
    diag = K.diagonal()
    if (diag <= 0).any():
        raise InvalidCoefficientError("system diagonal not positive; matrix not SPD")
    M = sp.diags(1.0 / diag)
    count = [0]

    def _tick(_):
        count[0] += 1

    x, _ = spla.cg(K, F, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter,
                   M=M, callback=_tick)
    residual = float(np.linalg.norm(F - K @ x) / norm_f)
    if residual > tol:
        raise ConvergenceError(
            f"CG did not reach tol={tol:g} within {max_iter} iterations "
            f"(relative residual {residual:.3e})",
            residual=residual, iterations=count[0],
        )
    return x, SolveStats("cg", count[0], residual)


def sparse_lu(K):
    """SuperLU factorization with a symmetric fill-reducing ordering.

    The stiffness matrices here are SPD with a symmetric pattern, so a
    minimum-degree ordering of A^T + A suits them; SuperLU's default
    (COLAMD, meant for unsymmetric matrices) gives two to three times the
    fill on the 2D box meshes.
    """
    return spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A")


class LinearSolver:
    """Reusable solver for one stiffness matrix and many loads.

    method "direct" factorizes once (sparse LU, see sparse_lu) and
    back-substitutes per load; "cg" runs Jacobi-preconditioned conjugate
    gradients per load.
    """

    def __init__(self, K, disc):
        self.K = K
        self.disc = disc
        n = K.shape[0]
        if disc.solver == "direct" or (disc.solver == "auto" and n <= DIRECT_DOF_CAP):
            self.method = "direct"
            self._lu = sparse_lu(K)
        else:
            self.method = "cg"
            self._lu = None

    def solve(self, F, x0=None):
        norm_f = np.linalg.norm(F)
        if norm_f == 0.0:
            return np.zeros(self.K.shape[0]), SolveStats(self.method, 0, 0.0)
        if self.method == "direct":
            x = self._lu.solve(F)
            residual = float(np.linalg.norm(F - self.K @ x) / norm_f)
            return x, SolveStats("direct", 1, residual)
        return solve_cg(self.K, F, tol=self.disc.cg_tol,
                        max_iter=self.disc.cg_max_iter, x0=x0)
