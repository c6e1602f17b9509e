"""Corrector problems for a heterogeneous coefficient embedded in a constant one.

The whole-space problem: given a coefficient field A(x) inside the unit ball B
and a constant admissible matrix A_ext outside, find the potential correction
w with -div( A_composite (p + grad w) ) = 0 for a unit slope p. Here it is
discretized on [-L, L]^d with zero Dirichlet data (the correction decays like
a dipole, so truncation costs O(L^-d) in energies) and P1 elements.

Two equivalent evaluations of the energy per unit ball measure are kept:

    energy     = ( int_B p.A(x)(p + grad w) - int_B A_ext p . grad w ) / |B|
    energy_alt = ( int_B p.A(x)p - int_B grad w.A(x) grad w
                   - int_ext grad w.A_ext grad w ) / |B|

They agree exactly at the discrete minimizer; their drift, normalized as
|J2 - J3| / (1 + |J2|), is a free residual check on every solve. |B| is the
centroid-rule measure of the ball indicator, not pi^(d/2)/gamma(...), so
constant-field identities hold exactly at the discrete level.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidCoefficientError
from .fem import (LinearSolver, assemble_vector, build_mesh, element_stiffness,
                  reduce_coefficient, scatter_vector)
from .matrices import check_admissible, symmetric_basis

log = logging.getLogger(__name__)

REL1_DEFAULT_THRESHOLD = 1e-6


@dataclass
class CorrectorSolution:
    """One corrector solve: slope p, exterior matrix, and diagnostics.

    The solve itself imposes no mean constraint (the Dirichlet outer
    boundary already pins the additive constant); w stores the mean-zero
    representative, shifted after the fact by ball_mean. All energies are
    invariant under that shift. energy is the primary evaluation, energy_alt
    the independent one; residual_rel1 their normalized drift.
    """

    p: np.ndarray
    exterior: np.ndarray
    w: np.ndarray               # vertex values, zero mean over the ball
    energy: float
    energy_alt: float
    residual_rel1: float
    stats: object
    ball_mean: float = 0.0      # ball average of the raw Dirichlet solution
    flags: tuple = ()


class EmbeddedProblem:
    """Precomputed discretization of the embedded corrector problem.

    Holding the field-dependent reductions fixed, the stiffness
    matrix and load are cheap functions of the exterior matrix, which is what
    estimator loops vary: K(A) = K_ball + sum_{a<=b} A_ab K_ab on one CSR
    pattern. Those 1 + d(d+1)/2 parts are built once per problem, at the
    first system() call (not in the constructor, so a problem that never
    assembles pays nothing for them). The last assembled system is cached so
    the handful of solves at one exterior matrix share a factorization, and
    the last unit-slope solutions are kept for every later evaluation at the
    same matrix (energies, flux average and derivatives), which then solves
    nothing. factorization_count and solve_count count the work.
    """

    def __init__(self, field, disc, rel1_threshold=REL1_DEFAULT_THRESHOLD,
                 mesh=None):
        if field.dim != disc.dim:
            raise InvalidCoefficientError(
                f"field dim {field.dim} != discretization dim {disc.dim}"
            )
        self.field = field
        self.disc = disc
        self.bounds = field.bounds
        self.rel1_threshold = rel1_threshold
        self.mesh = build_mesh(disc) if mesh is None else mesh
        mesh = self.mesh

        # field-dependent reductions, computed once
        self.coeff_ball = reduce_coefficient(mesh, field.evaluate,
                                             mask=mesh.in_ball)
        self.vol_ball = mesh.volumes * mesh.in_ball
        self.vol_ext = mesh.volumes * ~mesh.in_ball
        self.ball_measure = float(self.vol_ball.sum())
        self.coeff_ball_total = self.coeff_ball.sum(axis=0)   # int_B A(x) dx

        # load ingredients: int_B A(x) grad(phi_i) and int_B grad(phi_i)
        self.flux_basis = assemble_vector(
            mesh, np.einsum("eab,elb->ela", self.coeff_ball, mesh.grads))
        self.geom_basis = assemble_vector(
            mesh, self.vol_ball[:, None, None] * mesh.grads)
        # int_B phi_i dx, on all vertices, for the mean-zero shift: each
        # basis function is 1/(d+1) at the centroid
        mass = np.repeat(self.vol_ball[:, None] / (self.dim + 1),
                         self.dim + 1, axis=1)
        self.ball_mass = scatter_vector(mesh.elements, mesh.n_vertices, mass)

        self._pattern = self._parts = None
        self._system_cache = (None, None)
        self._units = (None, None)
        self.max_rel1_seen = 0.0
        self.solve_count = 0
        self.factorization_count = 0

    # -- system pieces -----------------------------------------------------

    def _stiffness_parts(self):
        """The interior CSR pattern (indices, indptr), and the CSR data of
        K_ball and of K_ab for each a <= b on it.

        K_ab is the exterior stiffness for the symmetric unit direction
        e_a e_b^T + e_b e_a^T (e_a e_a^T on the diagonal); its element
        matrices vol_ext g_a (x) g_b are formed in closed form and are
        bitwise symmetric, so every combination of the parts is too. The
        scatter plan's per-entry slots are dropped once the parts are built.
        """
        mesh = self.mesh
        plan = mesh.interior_plan()
        parts = [plan.matrix_data(element_stiffness(mesh, self.coeff_ball))]
        g = mesh.grads
        for a, b in zip(*np.triu_indices(self.dim)):
            ke = self.vol_ext[:, None, None] * (g[:, :, a, None]
                                                * g[:, None, :, b])
            if a != b:
                ke = ke + ke.swapaxes(1, 2)
            parts.append(plan.matrix_data(ke))
        return (plan.indices, plan.indptr), parts

    def system(self, exterior):
        """LinearSolver for the composite coefficient with this exterior matrix.

        The stiffness is K_ball + sum_{a<=b} A_ab K_ab: d(d+1)/2 axpys on the
        parts' data arrays, which are built once per problem, at the first
        call, and never rebuilt.
        """
        exterior = check_admissible(np.asarray(exterior, dtype=float),
                                    self.bounds, what="exterior matrix")
        key = exterior.tobytes()
        if self._system_cache[0] == key:
            return self._system_cache[1]
        # release the factorization held before building the next one
        self._system_cache = (None, None)
        if self._parts is None:
            self._pattern, self._parts = self._stiffness_parts()
        sym = 0.5 * (exterior + exterior.T)
        data = self._parts[0].copy()
        for part, coef in zip(self._parts[1:], sym[np.triu_indices(self.dim)]):
            data += coef * part
        n = self.mesh.n_dofs
        K = sp.csr_matrix((data, *self._pattern), shape=(n, n))
        solver = LinearSolver(K, self.disc)
        self._system_cache = (key, solver)
        self.factorization_count += 1
        return solver

    def load(self, exterior, p):
        """Interior load F_i = -int_B grad(phi_i) . (A(x) - A_ext) p dx.

        This is the volume form of the interface forcing: the surface pairing
        of the exterior flux A_ext p . n over the ball boundary equals
        int_B A_ext p . grad(v) by the divergence theorem (A_ext constant),
        so only the coefficient contrast inside the ball loads the system.
        """
        return -self.flux_basis @ p + self.geom_basis @ (exterior @ p)

    # -- solving and energies ----------------------------------------------

    def solve(self, exterior, p, solver=None):
        """Solve one corrector problem; returns a CorrectorSolution."""
        p = np.asarray(p, dtype=float)
        exterior = np.asarray(exterior, dtype=float)
        if solver is None:
            solver = self.system(exterior)
        x, stats = solver.solve(self.load(exterior, p))
        w = self.mesh.expand(x)
        sol = self._finish(p, exterior, w, stats)
        self.solve_count += 1
        self.max_rel1_seen = max(self.max_rel1_seen, sol.residual_rel1)
        return sol

    def energies(self, exterior, p, w):
        """(energy, energy_alt, rel1) of any vertex vector w.

        energy is the contrast form (1/|B|)[int_B p.A(p + grad w) -
        int_B A_ext p . grad w]; energy_alt subtracts the full gradient
        quadratic forms instead. Both see w only through its gradient, so
        they are invariant under adding a constant to w.
        """
        p = np.asarray(p, dtype=float)
        exterior = np.asarray(exterior, dtype=float)
        grad_w = self.mesh.element_gradients(w)
        flux_ball = np.einsum("eab,eb->a", self.coeff_ball, grad_w)
        mean_grad = self.vol_ball @ grad_w
        pAp = p @ self.coeff_ball_total @ p
        j2 = (pAp + p @ flux_ball - (exterior @ p) @ mean_grad) / self.ball_measure
        ball_q = np.einsum("ea,eab,eb->", grad_w, self.coeff_ball, grad_w)
        ext_q = np.einsum("e,ea,ab,eb->", self.vol_ext, grad_w, exterior, grad_w)
        j3 = (pAp - ball_q - ext_q) / self.ball_measure
        rel1 = abs(j2 - j3) / (1.0 + abs(j2))
        return float(j2), float(j3), float(rel1)

    def _finish(self, p, exterior, w, stats):
        j2, j3, rel1 = self.energies(exterior, p, w)
        flags = ()
        if rel1 > self.rel1_threshold:
            flags = ("energy_identity",)
            log.warning("energy identity drift %.3e above threshold %.1e",
                        rel1, self.rel1_threshold)
        ball_mean = float(self.ball_mass @ w) / self.ball_measure
        return CorrectorSolution(p=p, exterior=exterior, w=w - ball_mean,
                                 energy=j2, energy_alt=j3, residual_rel1=rel1,
                                 stats=stats, ball_mean=ball_mean, flags=flags)

    @property
    def dim(self):
        return self.disc.dim

    def _unit_solves(self, exterior):
        """(solution, element gradients of w) for each unit slope e_i, in
        order, on one system. The last exterior matrix's are held, so a
        second call at it solves nothing."""
        exterior = np.asarray(exterior, dtype=float)
        key = exterior.tobytes()
        if self._units[0] != key:
            solver = self.system(exterior)
            out = []
            for p in np.eye(self.dim):
                sol = self.solve(exterior, p, solver=solver)
                out.append((sol, self.mesh.element_gradients(sol.w)))
            self._units = (key, out)
        return self._units[1]

    def _raw_units(self, exterior):
        """Columns x_i = K^-1 F_i (interior dofs, before the mean shift) of
        the unit slopes at this exterior matrix."""
        idx = self.mesh.interior_idx
        return np.stack([sol.w[idx] + sol.ball_mean
                         for sol, _ in self._unit_solves(exterior)], axis=1)

    def _exterior_parts(self):
        """K_k, the exterior stiffness of each symmetric_basis direction."""
        n = self.mesh.n_dofs
        return [sp.csr_matrix((part, *self._pattern), shape=(n, n))
                for part in self._parts[1:]]

    def _sensitivity_solve(self, solver, R):
        """K^-1 R, counted in solve_count: one back-substitution with every
        column on the direct path, one CG solve a column otherwise."""
        if solver.method == "direct":
            self.solve_count += 1
            return solver.solve(R)[0]
        out = []
        for r in R.T:
            out.append(solver.solve(r)[0])
            self.solve_count += 1
        return np.stack(out, axis=1)

    def trace_hessian(self, exterior):
        """Hessian of Tr G in the coordinates theta of A = sum theta_k U_k
        (U_k from symmetric_basis), an (m, m) matrix.

        K(A) x_i = F_i(A) moves by K_k x_i + K dx_i = dF_i/dtheta_k, so the
        corrector of slope e_i moves by K^-1 r_ki with r_ki = dF_i/dtheta_k
        - K_k x_i, and differentiating the envelope gradient once more gives
        H_kl = -(2/|B|) sum_i r_ki . K^-1 r_li. That is one back-substitution
        with m right-hand sides per unit slope on the factorization held at
        A; the unit solves themselves are reused from the last evaluation
        at A.
        """
        exterior = np.asarray(exterior, dtype=float)
        X = self._raw_units(exterior)
        solver = self.system(exterior)
        basis = symmetric_basis(self.dim)
        parts = self._exterior_parts()
        H = np.zeros((len(basis), len(basis)))
        for i in range(self.dim):
            R = np.stack([self.geom_basis @ U[:, i] - K @ X[:, i]
                          for U, K in zip(basis, parts)], axis=1)
            H -= R.T @ self._sensitivity_solve(solver, R)
        return (H + H.T) / self.ball_measure

    def energy_jacobian(self, exterior):
        """dG/dtheta_k for each coordinate of trace_hessian, (m, d, d).

        No solve: the energy is stationary in the corrector (envelope
        theorem), so dG_ij/dtheta_k = (x_i . K_k x_j - dF_i/dtheta_k . x_j
        - dF_j/dtheta_k . x_i) / |B|, with dF_i/dtheta_k = geom_basis U_k e_i.
        """
        X = self._raw_units(exterior)
        GX = self.geom_basis.T @ X          # [a, j] = sum_n geom_na x_jn
        out = []
        for U, K in zip(symmetric_basis(self.dim), self._exterior_parts()):
            M = U @ GX                      # [i, j] = dF_i/dtheta_k . x_j
            out.append(X.T @ (K @ X) - M - M.T)
        return np.array(out) / self.ball_measure

    def energy_matrix(self, exterior):
        """Symmetric matrix G with p.G(A)p = corrector energy at slope p.

        The corrector of slope p is sum_j p_j w_j, and the energy is bilinear
        in (slope, corrector), so p.G q = p.B q with
        B = (A_tot + int_B A(x) grad W - A_ext^T int_B grad W) / |B|, where
        column j of grad W is grad w_j. B is symmetric at the exact discrete
        solution; G keeps the unit-slope energies on its diagonal and takes
        (B + B^T)/2 off it. d solves on one system.
        """
        exterior = np.asarray(exterior, dtype=float)
        units = self._unit_solves(exterior)
        grad_W = np.stack([grad_w for _, grad_w in units], axis=-1)
        B = (self.coeff_ball_total
             + np.einsum("eab,ebj->aj", self.coeff_ball, grad_W)
             - exterior.T @ np.einsum("e,eaj->aj", self.vol_ball, grad_W)
             ) / self.ball_measure
        G = 0.5 * (B + B.T)
        sols = [sol for sol, _ in units]
        G[np.diag_indices(self.dim)] = [sol.energy for sol in sols]
        return G, sols

    def trace_objective(self, exterior):
        """Sum of unit-slope energies and its exact ascent direction.

        The derivative in a symmetric direction E, by the envelope theorem
        (the minimizer w is stationary), is
        ( int_ext grad w_i . E grad w_i - 2 int_B E e_i . grad w_i ) / |B|
        summed over unit slopes; the returned symmetric matrix represents
        that linear form under the Frobenius pairing.
        """
        d = self.dim
        value = 0.0
        grad = np.zeros((d, d))
        for i, (sol, grad_w) in enumerate(self._unit_solves(exterior)):
            value += sol.energy
            grad += np.einsum("e,ea,eb->ab", self.vol_ext, grad_w, grad_w)
            mean_grad = self.vol_ball @ grad_w
            outer = np.outer(np.eye(d)[i], mean_grad)
            grad -= outer + outer.T
        return value, grad / self.ball_measure

    def flux_average(self, exterior):
        """Ball average of the corrected flux A(x)(e_i + grad w_i), by columns.

        Not symmetric in general; that asymmetry is the point of keeping it.
        """
        d = self.dim
        out = np.empty((d, d))
        for i, (_, grad_w) in enumerate(self._unit_solves(exterior)):
            flux = self.coeff_ball_total[:, i] + np.einsum(
                "eab,eb->a", self.coeff_ball, grad_w)
            out[:, i] = flux / self.ball_measure
        return out

    def mean_coefficient(self):
        """Arithmetic mean of the field over the ball (centroid-rule measure)."""
        return self.coeff_ball_total / self.ball_measure
