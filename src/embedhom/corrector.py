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
    ball_mean: float = 0.0      # ball average of the raw Dirichlet solution
    flags: tuple = ()


class EmbeddedProblem:
    """Precomputed discretization of the embedded corrector problem.

    Holding the field-dependent reductions fixed, the stiffness
    matrix and load are cheap functions of the exterior matrix, which is what
    estimator loops vary: K(A) = K_ball + sum_{a<=b} A_ab K_ab on one CSR
    pattern. Those 1 + d(d+1)/2 parts are built once per problem, at the
    first system() call (not in the constructor, so a problem that never
    assembles pays nothing for them). One exterior matrix's state is held:
    its system, so the solves there share a factorization, and, once asked
    for, its d unit-slope correctors, solved as one load block and kept for
    every later evaluation at that matrix (energies, flux average and
    derivatives), which then solves nothing. factorization_count and
    solve_count (one per LinearSolver.solve call) count the work.
    """

    def __init__(self, field, disc, rel1_threshold=REL1_DEFAULT_THRESHOLD):
        if field.dim != disc.dim:
            raise InvalidCoefficientError(
                f"field dim {field.dim} != discretization dim {disc.dim}"
            )
        self.field = field
        self.disc = disc
        self.bounds = field.bounds
        self.rel1_threshold = rel1_threshold
        self.mesh = mesh = build_mesh(disc)

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

        self._parts = None
        self._held = (None, None, None)     # (key, solver, units or None)
        self.max_rel1_seen = 0.0
        self.solve_count = 0
        self.factorization_count = 0

    # -- system pieces -----------------------------------------------------

    def _stiffness_parts(self):
        """K_ball, then K_ab for each a <= b, as CSR matrices on one pattern.

        K_ab is the exterior stiffness for the symmetric unit direction
        e_a e_b^T + e_b e_a^T (e_a e_a^T on the diagonal), which is the
        symmetric_basis direction of the same index. Its element matrices
        vol_ext g_a (x) g_b are formed in closed form and are bitwise
        symmetric, so every combination of the parts is too. The scatter
        plan's per-entry slots are dropped once the parts are built.
        """
        mesh = self.mesh
        plan = mesh.interior_plan()
        parts = [plan.matrix(plan.matrix_data(
            element_stiffness(mesh, self.coeff_ball)))]
        g = mesh.grads
        for a, b in zip(*np.triu_indices(self.dim)):
            ke = self.vol_ext[:, None, None] * (g[:, :, a, None]
                                                * g[:, None, :, b])
            if a != b:
                ke = ke + ke.swapaxes(1, 2)
            parts.append(plan.matrix(plan.matrix_data(ke)))
        return parts

    def system(self, exterior):
        """LinearSolver for the composite coefficient with this exterior matrix.

        The stiffness is K_ball + sum_{a<=b} A_ab K_ab: d(d+1)/2 axpys on the
        parts' data arrays, which are built once per problem, at the first
        call, and never rebuilt. A new exterior matrix drops the state held
        for the last one.
        """
        exterior = check_admissible(np.asarray(exterior, dtype=float),
                                    self.bounds, what="exterior matrix")
        key = exterior.tobytes()
        if self._held[0] == key:
            return self._held[1]
        # release the factorization held before building the next one
        self._held = (None, None, None)
        if self._parts is None:
            self._parts = self._stiffness_parts()
        sym = 0.5 * (exterior + exterior.T)
        ball = self._parts[0]
        data = ball.data.copy()
        for part, coef in zip(self._parts[1:], sym[np.triu_indices(self.dim)]):
            data += coef * part.data
        K = sp.csr_matrix((data, ball.indices, ball.indptr), shape=ball.shape)
        solver = LinearSolver(K, self.disc)
        self._held = (key, solver, None)
        self.factorization_count += 1
        return solver

    def load(self, exterior, p):
        """Interior load F_i = -int_B grad(phi_i) . (A(x) - A_ext) p dx.

        This is the volume form of the interface forcing: the surface pairing
        of the exterior flux A_ext p . n over the ball boundary equals
        int_B A_ext p . grad(v) by the divergence theorem (A_ext constant),
        so only the coefficient contrast inside the ball loads the system.
        A (d, k) block of slopes gives the (n, k) block of their loads.
        """
        return -self.flux_basis @ p + self.geom_basis @ (exterior @ p)

    # -- solving and energies ----------------------------------------------

    def _solve(self, solver, F):
        """solver's solution of a load vector or block: one counted solve."""
        self.solve_count += 1
        return solver.solve(F)[0]

    def solve(self, exterior, p):
        """Solve one corrector problem; returns a CorrectorSolution."""
        p = np.asarray(p, dtype=float)
        exterior = np.asarray(exterior, dtype=float)
        x = self._solve(self.system(exterior), self.load(exterior, p))
        return self._finish(p, exterior, self.mesh.expand(x))

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

    def _finish(self, p, exterior, w):
        """CorrectorSolution of the raw solution w (vertex values), with its
        energy-identity check recorded in max_rel1_seen."""
        j2, j3, rel1 = self.energies(exterior, p, w)
        self.max_rel1_seen = max(self.max_rel1_seen, rel1)
        flags = ()
        if rel1 > self.rel1_threshold:
            flags = ("energy_identity",)
            log.warning("energy identity drift %.3e above threshold %.1e",
                        rel1, self.rel1_threshold)
        ball_mean = float(self.ball_mass @ w) / self.ball_measure
        return CorrectorSolution(p=p, exterior=exterior, w=w - ball_mean,
                                 energy=j2, energy_alt=j3, residual_rel1=rel1,
                                 ball_mean=ball_mean, flags=flags)

    @property
    def dim(self):
        return self.disc.dim

    def _unit_solves(self, exterior):
        """(X, sols, grad_W) of the unit slopes e_j at this exterior matrix:
        the raw interior solutions X (n, d), one CorrectorSolution a slope,
        and grad_W (ne, d, d) with grad_W[:, :, j] the element gradients of
        w_j. One solve of the (n, d) load block; held with the system, so a
        second call at the same matrix solves nothing."""
        exterior = np.asarray(exterior, dtype=float)
        solver = self.system(exterior)
        key, _, units = self._held
        if units is None:
            eye = np.eye(self.dim)
            X = self._solve(solver, self.load(exterior, eye))
            sols = [self._finish(p, exterior, self.mesh.expand(x))
                    for p, x in zip(eye, X.T)]
            grad_W = np.stack([self.mesh.element_gradients(sol.w)
                               for sol in sols], axis=-1)
            units = (X, sols, grad_W)
            self._held = (key, solver, units)
        return units

    def trace_hessian(self, exterior):
        """Hessian of Tr G in the coordinates theta of A = sum theta_k U_k
        (U_k from symmetric_basis), an (m, m) matrix.

        K(A) x_i = F_i(A) moves by K_k x_i + K dx_i = dF_i/dtheta_k, so the
        corrector of slope e_i moves by K^-1 r_ki with r_ki = dF_i/dtheta_k
        - K_k x_i, and differentiating the envelope gradient once more gives
        H_kl = -(2/|B|) sum_i r_ki . K^-1 r_li. All d*m residual columns
        make one load block, solved once on the system held at A; the unit
        solves themselves are reused from the last evaluation at A.
        """
        X, _, _ = self._unit_solves(exterior)
        R = np.stack([self.geom_basis @ U - K @ X for U, K in
                      zip(symmetric_basis(self.dim), self._parts[1:])],
                     axis=2)                # [n, i, k] = r_ki
        S = self._solve(self.system(exterior),
                        R.reshape(len(R), -1)).reshape(R.shape)
        H = -np.einsum("nik,nil->kl", R, S)
        return (H + H.T) / self.ball_measure

    def energy_jacobian(self, exterior):
        """dG/dtheta_k for each coordinate of trace_hessian, (m, d, d).

        No solve: the energy is stationary in the corrector (envelope
        theorem), so dG_ij/dtheta_k = (x_i . K_k x_j - dF_i/dtheta_k . x_j
        - dF_j/dtheta_k . x_i) / |B|, with dF_i/dtheta_k = geom_basis U_k e_i.
        """
        X, _, _ = self._unit_solves(exterior)
        GX = self.geom_basis.T @ X          # [a, j] = sum_n geom_na x_jn
        out = []
        for U, K in zip(symmetric_basis(self.dim), self._parts[1:]):
            M = U @ GX                      # [i, j] = dF_i/dtheta_k . x_j
            out.append(X.T @ (K @ X) - M - M.T)
        return np.array(out) / self.ball_measure

    def energy_matrix(self, exterior):
        """Symmetric matrix G with p.G(A)p = corrector energy at slope p,
        and the unit-slope CorrectorSolutions.

        The corrector of slope p is sum_j p_j w_j, and the energy is bilinear
        in (slope, corrector), so p.G q = p.B q with
        B = flux_average - A_ext^T int_B grad W / |B|, where column j of
        grad W is grad w_j. B is symmetric at the exact discrete solution; G
        keeps the unit-slope energies on its diagonal and takes (B + B^T)/2
        off it. One block solve of the d unit slopes on one system.
        """
        exterior = np.asarray(exterior, dtype=float)
        _, sols, grad_W = self._unit_solves(exterior)
        mean = np.einsum("e,eaj->aj", self.vol_ball, grad_W)
        B = self.flux_average(exterior) - exterior.T @ mean / self.ball_measure
        G = 0.5 * (B + B.T)
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
        _, sols, grad_W = self._unit_solves(exterior)
        mean = np.einsum("e,eaj->aj", self.vol_ball, grad_W)   # int_B grad W
        grad = np.einsum("e,eai,ebi->ab", self.vol_ext, grad_W, grad_W) \
            - mean - mean.T
        return sum(sol.energy for sol in sols), grad / self.ball_measure

    def flux_average(self, exterior):
        """Ball average of the corrected flux A(x)(e_i + grad w_i), by columns.

        Not symmetric in general; that asymmetry is the point of keeping it.
        """
        _, _, grad_W = self._unit_solves(exterior)
        return (self.coeff_ball_total
                + np.einsum("eab,ebj->aj", self.coeff_ball, grad_W)
                ) / self.ball_measure

    def mean_coefficient(self):
        """Arithmetic mean of the field over the ball (centroid-rule measure)."""
        return self.coeff_ball_total / self.ball_measure
