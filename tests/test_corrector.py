"""Embedded corrector solves: exact identities, analytic pins, invariants."""

import numpy as np
import pytest

from embedhom.corrector import EmbeddedProblem
from embedhom.errors import InvalidCoefficientError
from embedhom.fem import Discretization, assemble_stiffness
from embedhom.fields import make_checkerboard, make_constant, make_one_dim_piecewise
from embedhom.matrices import EllipticityBounds

BOUNDS = EllipticityBounds(0.25, 8.0)
DISC_2D = Discretization(dim=2, L=2.0, h=0.1)
DISC_1D = Discretization(dim=1, L=4.0, h=0.05)


def checkerboard_problem(seed=0, disc=DISC_2D):
    field = make_checkerboard([1.0, 4.0], [0.5, 0.5], seed=seed, bounds=BOUNDS)
    return EmbeddedProblem(field, disc)


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------


def test_homogeneous_corrector_is_zero():
    # field == exterior: the contrast load vanishes identically, so w = 0
    A = np.array([[1.5, 0.4], [0.4, 2.5]])
    field = make_constant(A, BOUNDS)
    prob = EmbeddedProblem(field, DISC_2D)
    p = np.array([1.0, 2.0])
    sol = prob.solve(A, p)
    assert np.abs(sol.w).max() < 1e-12
    assert np.isclose(sol.energy, p @ A @ p, atol=1e-12)
    assert sol.residual_rel1 < 1e-15
    assert sol.flags == ()


def test_homogeneous_energy_matrix_and_flux():
    A = np.array([[2.0, 0.5], [0.5, 3.0]])
    field = make_constant(A, BOUNDS)
    prob = EmbeddedProblem(field, DISC_2D)
    G, sols = prob.energy_matrix(A)
    assert np.allclose(G, A, atol=1e-12)
    assert len(sols) == 2      # the two unit slopes; no polarization slope
    assert np.allclose(prob.flux_average(A), A, atol=1e-12)
    assert np.allclose(prob.mean_coefficient(), A, atol=1e-12)


def test_1d_matched_exterior_decays_exactly():
    # phases 1 and 4 split at the origin; the exterior equal to the harmonic
    # mean makes the truncated solution coincide with the whole-space one:
    # w' = H/a - 1 per piece inside, exactly zero outside, energy H.
    field = make_one_dim_piecewise([0.0], [1.0, 4.0], BOUNDS)
    prob = EmbeddedProblem(field, DISC_1D)
    sol = prob.solve([[1.6]], [1.0])
    grads = prob.mesh.element_gradients(sol.w)[:, 0]
    mids = prob.mesh.quad_x.mean(axis=1)[:, 0]
    assert np.allclose(grads[(mids > -1) & (mids < 0)], 0.6, atol=1e-10)
    assert np.allclose(grads[(mids > 0) & (mids < 1)], -0.6, atol=1e-10)
    assert np.allclose(grads[np.abs(mids) > 1], 0.0, atol=1e-10)
    assert np.isclose(sol.energy, 1.6, atol=1e-12)
    assert np.isclose(sol.energy_alt, 1.6, atol=1e-12)


def test_1d_truncated_flux_pin():
    # ball coefficient 1, exterior 2, L = 4: the exact truncated solution is
    # piecewise linear with flux sigma = 2L / int(1/A) = 1.6, hence
    # w' = 0.6 inside, -0.2 outside, and energy 0.4. P1 on an aligned mesh
    # reproduces it to machine precision.
    field = make_constant(1.0, BOUNDS, dim=1)
    prob = EmbeddedProblem(field, DISC_1D)
    sol = prob.solve([[2.0]], [1.0])
    grads = prob.mesh.element_gradients(sol.w)[:, 0]
    mids = prob.mesh.quad_x.mean(axis=1)[:, 0]
    assert np.allclose(grads[np.abs(mids) < 1], 0.6, atol=1e-10)
    assert np.allclose(grads[np.abs(mids) > 1], -0.2, atol=1e-10)
    assert np.isclose(sol.energy, 0.4, atol=1e-12)
    assert sol.residual_rel1 < 1e-14


def test_stored_corrector_has_zero_ball_mean():
    prob = checkerboard_problem(seed=2)
    sol = prob.solve(2.0 * np.eye(2), np.array([1.0, 0.0]))
    assert abs(prob.ball_mass @ sol.w) / prob.ball_measure < 1e-12
    # the shift is recorded so the raw Dirichlet solution can be recovered
    raw = sol.w + sol.ball_mean
    assert np.allclose(prob.ball_mass @ raw / prob.ball_measure, sol.ball_mean)


def test_energies_shift_invariant():
    prob = checkerboard_problem(seed=3)
    p = np.array([1.0, -1.0])
    ext = np.array([[2.0, 0.0], [0.0, 2.0]])
    sol = prob.solve(ext, p)
    base = prob.energies(ext, p, sol.w)
    shifted = prob.energies(ext, p, sol.w + 17.3)
    assert np.allclose(base[:2], shifted[:2], rtol=1e-12, atol=1e-12)


def test_solution_linear_and_energy_quadratic_in_p():
    prob = checkerboard_problem(seed=5)
    ext = 2.0 * np.eye(2)
    p1, p2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    s1, s2 = prob.solve(ext, p1), prob.solve(ext, p2)
    s12 = prob.solve(ext, p1 + p2)
    assert np.allclose(s12.w, s1.w + s2.w, atol=1e-9)
    s_scaled = prob.solve(ext, 2.0 * p1)
    assert np.isclose(s_scaled.energy, 4.0 * s1.energy, rtol=1e-10)


def test_energy_below_arithmetic_mean():
    # w = 0 is admissible in the minimization, so the ball average of the
    # coefficient bounds every corrector energy from above
    prob = checkerboard_problem(seed=7)
    mean = prob.mean_coefficient()
    for p in (np.array([1.0, 0.0]), np.array([0.3, -0.9])):
        sol = prob.solve(3.0 * np.eye(2), p)
        assert sol.energy <= p @ mean @ p + 1e-12


def test_energy_concave_in_exterior_spot():
    prob = checkerboard_problem(seed=11)
    p = np.array([1.0, 0.0])
    A0, A1 = 1.0 * np.eye(2), 4.0 * np.eye(2)
    j0 = prob.solve(A0, p).energy
    j1 = prob.solve(A1, p).energy
    for t in (0.25, 0.5, 0.75):
        jt = prob.solve((1 - t) * A0 + t * A1, p).energy
        assert jt >= (1 - t) * j0 + t * j1 - 1e-10


# ---------------------------------------------------------------------------
# analytic pin: isotropic ball in an isotropic exterior
# ---------------------------------------------------------------------------


def test_isotropic_contrast_matches_closed_form():
    # phases (1, 2) in 2D: interior gradient C p with C = 1/3 and unit-slope
    # energy 1 - C = 2/3 in the infinite limit; modest truncation and mesh
    # error are expected at L = 4, h = 0.05
    field = make_constant(1.0, BOUNDS, dim=2)
    prob = EmbeddedProblem(field, Discretization(dim=2, L=4.0, h=0.05))
    sol = prob.solve(2.0 * np.eye(2), np.array([1.0, 0.0]))
    assert abs(sol.energy - 2.0 / 3.0) < 0.05
    grads = prob.mesh.element_gradients(sol.w)
    centers = prob.mesh.quad_x.mean(axis=1)
    deep = (centers ** 2).sum(axis=1) < 0.25
    mean_deep = grads[deep].mean(axis=0)
    assert abs(mean_deep[0] - 1.0 / 3.0) < 0.04
    assert abs(mean_deep[1]) < 1e-9


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def test_dimension_mismatch_rejected():
    field = make_constant(1.0, BOUNDS, dim=1)
    with pytest.raises(InvalidCoefficientError):
        EmbeddedProblem(field, DISC_2D)


def test_exterior_outside_bounds_rejected():
    prob = checkerboard_problem()
    with pytest.raises(InvalidCoefficientError):
        prob.system(100.0 * np.eye(2))


def test_system_cache_and_solve_count():
    prob = checkerboard_problem(seed=1)
    ext = 2.0 * np.eye(2)
    assert prob.system(ext) is prob.system(ext.copy())
    before = prob.solve_count
    prob.energy_matrix(ext)
    assert prob.solve_count - before == 2


def test_energy_matrix_off_diagonal_is_polarization():
    # the bilinear form of the unit correctors must give what a solve at the
    # slope e1 + e2 gives by polarization, with the diagonal bitwise equal
    prob = checkerboard_problem(seed=5)
    ext = np.array([[2.0, 0.7], [0.7, 1.2]])
    G, _ = prob.energy_matrix(ext)
    energies = [prob.solve(ext, p).energy
                for p in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])]
    assert G[0, 0] == energies[0] and G[1, 1] == energies[1]
    polar = 0.5 * (energies[2] - energies[0] - energies[1])
    assert G[0, 1] == G[1, 0]
    assert abs(G[0, 1] - polar) <= 1e-12 * np.abs(G).max()
    assert abs(polar) > 1e-4


@pytest.mark.parametrize("dim, exterior", [
    (2, np.diag([1.5, 3.0])),
    (2, np.array([[2.0, 0.7], [0.7, 1.2]])),
    (1, np.array([[2.5]])),
])
def test_system_matches_direct_assembly(dim, exterior):
    # K(A) = K_ball + sum A_ab K_ab must reproduce the stiffness assembled
    # from the composite coefficient, stay bitwise symmetric, and solve
    if dim == 2:
        prob = checkerboard_problem(seed=6)
    else:
        field = make_one_dim_piecewise([-0.4, 0.3], [1.0, 4.0, 2.0], BOUNDS)
        prob = EmbeddedProblem(field, DISC_1D)
    solver = prob.system(exterior)
    K = solver.K
    direct = assemble_stiffness(
        prob.mesh, prob.coeff_ball + prob.vol_ext[:, None, None] * exterior)
    assert abs(K - direct).max() <= 1e-12 * abs(direct).max()
    assert abs(K - K.T).max() == 0
    assert solver.method == "direct"
    _, stats = solver.solve(prob.load(exterior, np.eye(dim)[0]))
    assert stats.residual <= 1e-12


def test_rel1_flag_and_tracking():
    prob = checkerboard_problem(seed=4)
    sol = prob.solve(2.0 * np.eye(2), np.array([1.0, 0.0]))
    assert sol.residual_rel1 <= 1e-12
    assert prob.max_rel1_seen >= sol.residual_rel1
    strict = EmbeddedProblem(prob.field, DISC_2D, rel1_threshold=-1.0)
    flagged = strict.solve(2.0 * np.eye(2), np.array([1.0, 0.0]))
    assert "energy_identity" in flagged.flags


def test_solve_embedded_one_shot():
    field = make_constant(np.diag([2.0, 2.0]), BOUNDS)
    sol = EmbeddedProblem(field, DISC_2D).solve(2.0 * np.eye(2),
                                                np.array([0.0, 1.0]))
    assert np.isclose(sol.energy, 2.0, atol=1e-12)
