"""Estimator behavior: exact homogeneous identities, iteration mechanics, flags."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from embedhom import METHODS
from embedhom.corrector import EmbeddedProblem
from embedhom.errors import BracketError
from embedhom.estimators import (
    BisectOptions,
    FixedPointOptions,
    OptimizerOptions,
    estimate_averaged,
    estimate_energy_min,
    estimate_naive,
    estimate_periodic_ref,
    estimate_self_consistent,
    estimate_self_consistent_scalar,
    fd_gradient_check,
    initial_matrix,
)
from embedhom.fem import Discretization
from embedhom.fields import (
    make_checkerboard,
    make_constant,
    make_laminate,
    make_one_dim_piecewise,
    rescale,
)
from embedhom.matrices import EllipticityBounds
from embedhom.reference import Harmonic1DModel

BOUNDS = EllipticityBounds(1.0, 4.0)
DISC = Discretization(dim=2, L=2.0, h=0.2)


def constant_problem(matrix=None):
    A = np.diag([1.5, 3.0]) if matrix is None else np.asarray(matrix, dtype=float)
    return EmbeddedProblem(make_constant(A, BOUNDS), DISC), A


def checkerboard_problem(seed=0):
    field = make_checkerboard([1.0, 4.0], [0.5, 0.5], seed=seed, bounds=BOUNDS)
    return EmbeddedProblem(field, DISC)


# ---------------------------------------------------------------------------
# homogeneous fields: every estimator must return the field matrix
# ---------------------------------------------------------------------------


def test_energy_min_exact_on_homogeneous():
    prob, A = constant_problem()
    rep = estimate_energy_min(problem=prob)
    assert rep.converged
    assert np.allclose(rep.matrix, A, atol=1e-8)
    assert rep.flags == ()
    assert np.isclose(rep.objective, np.trace(A), atol=1e-10)


def test_averaged_and_fixed_point_exact_on_homogeneous():
    prob, A = constant_problem()
    a1 = estimate_energy_min(problem=prob)
    a2 = estimate_averaged(problem=prob, anchor=a1)
    a3 = estimate_self_consistent(problem=prob)
    assert np.allclose(a2.matrix, A, atol=1e-8)
    assert np.allclose(a3.matrix, A, atol=1e-7)
    assert a3.converged
    assert a3.residual <= 1e-7


def test_scalar_bisection_exact_on_homogeneous():
    prob, A = constant_problem(2.0 * np.eye(2))
    rep = estimate_self_consistent_scalar(
        problem=prob, options=BisectOptions(tol=1e-9)
    )
    assert rep.converged
    assert np.allclose(rep.matrix, A, atol=5e-9)
    assert rep.iterations <= 40


def test_naive_exact_on_matched_homogeneous():
    prob, A = constant_problem()
    rep = estimate_naive(problem=prob)      # default exterior = field mean = A
    assert np.allclose(rep.matrix, A, atol=1e-10)
    assert rep.flags == ()
    assert np.allclose(rep.metadata["exterior"], A, atol=1e-12)


# ---------------------------------------------------------------------------
# 1D closed-form backend: both iterative estimators hit the harmonic mean
# ---------------------------------------------------------------------------


def one_dim_model():
    field = make_one_dim_piecewise([-0.5, 0.3], [1.0, 4.0, 2.0], BOUNDS)
    return Harmonic1DModel(field), field


def test_one_dim_model_energy_min_hits_harmonic_mean():
    model, _ = one_dim_model()
    rep = estimate_energy_min(
        problem=model, options=OptimizerOptions(grad_tol=1e-12)
    )
    assert rep.converged
    assert abs(rep.matrix[0, 0] - model.h_mean) < 1e-10
    assert abs(rep.objective - model.h_mean) < 1e-12


def test_one_dim_model_fixed_points_hit_harmonic_mean():
    model, _ = one_dim_model()
    a3 = estimate_self_consistent(
        problem=model, options=FixedPointOptions(tol=1e-12, max_iters=400)
    )
    assert abs(a3.matrix[0, 0] - model.h_mean) < 1e-9
    scalar = estimate_self_consistent_scalar(
        problem=model, options=BisectOptions(tol=1e-10)
    )
    assert abs(scalar.matrix[0, 0] - model.h_mean) < 1e-9


def test_one_dim_model_derivatives_closed_form():
    # Tr G(a) = 2a - a^2/H: Hessian -2/H and dG/da = 2 - 2a/H, also against
    # central differences of the model's own energies
    model, _ = one_dim_model()
    H, a, eps = model.h_mean, 1.7, 1e-4
    hess, jac = model.trace_hessian([[a]]), model.energy_jacobian([[a]])
    assert hess.tolist() == [[-2.0 / H]]
    assert jac.tolist() == [[[2.0 - 2.0 * a / H]]]
    dgrad = (model.trace_objective([[a + eps]])[1]
             - model.trace_objective([[a - eps]])[1])
    assert np.allclose(hess, dgrad / (2 * eps), atol=1e-10)
    dG = model.energy_matrix([[a + eps]])[0] - model.energy_matrix([[a - eps]])[0]
    assert np.allclose(jac[0], dG / (2 * eps), atol=1e-10)


def test_one_dim_fem_matches_model_on_aligned_field():
    # interfaces on mesh points: the P1 solution is exact, so the FEM route
    # must agree with the closed form to solver precision
    field = make_one_dim_piecewise([0.0], [1.0, 4.0], BOUNDS)
    prob = EmbeddedProblem(field, Discretization(dim=1, L=4.0, h=0.05))
    rep = estimate_energy_min(
        problem=prob, options=OptimizerOptions(grad_tol=1e-10)
    )
    # the ascent compares energies, so sqrt(eps) is its accuracy floor here
    assert abs(rep.matrix[0, 0] - 1.6) < 1e-6
    assert abs(rep.objective - 1.6) < 1e-10


# ---------------------------------------------------------------------------
# iteration mechanics
# ---------------------------------------------------------------------------


def test_ascent_monotone_and_converged():
    prob = checkerboard_problem(seed=1)
    rep = estimate_energy_min(problem=prob, options=OptimizerOptions(grad_tol=1e-4))
    assert rep.converged
    assert rep.iterations == len(rep.trace) - 1
    diffs = np.diff(rep.trace)
    assert (diffs >= -1e-12).all()
    assert rep.max_rel1 <= 1e-6
    assert rep.objective == rep.trace[-1]


@pytest.mark.parametrize("seed", [0, 1])
def test_second_order_iterations_factorization_counts(seed):
    # one factorization per exterior matrix is the cost unit; the Newton
    # iterations need a handful where first-order ones needed 20 to 40
    prob = checkerboard_problem(seed=seed)
    caps = ((estimate_energy_min, 8), (estimate_self_consistent, 10),
            (estimate_self_consistent_scalar, 12))
    for estimate, cap in caps:
        before = prob.solve_count
        rep = estimate(problem=prob)
        method = rep.method
        assert rep.converged, method
        work = rep.metadata["work"]
        assert 1 <= work["factorizations"] <= cap, (method, work)
        assert work["solves"] == prob.solve_count - before, method
    assert rep.residual <= BisectOptions().tol


def test_newton_ascent_to_cone_boundary_maximizer():
    # a constant 1 I field with bounds [1, 4]: the maximizer 1 I sits on the
    # cone's edge, so the Newton point from inside lies past it and is
    # projected back; initial_matrix reads initial_guess off any options
    field = make_constant(1.0, EllipticityBounds(1.0, 4.0), dim=2)
    prob = EmbeddedProblem(field, Discretization(dim=2, L=2.0, h=0.1))
    for start in (2.5 * np.eye(2), np.array([[3.0, 0.5], [0.5, 1.5]])):
        opts = SimpleNamespace(**vars(OptimizerOptions()), initial_guess=start)
        rep = estimate_energy_min(problem=prob, options=opts)
        assert rep.converged
        assert np.allclose(rep.matrix, np.eye(2), atol=1e-10)
        assert np.isclose(rep.objective, 2.0, atol=1e-12)
        assert (np.diff(rep.trace) > 0).all()
        assert rep.metadata["work"]["factorizations"] <= 3


def test_ascent_stops_where_rounding_hides_the_increase():
    # grad_tol below rounding cannot be met; once no step can show an
    # increase, the search must stop instead of factorizing down to min_step
    prob = checkerboard_problem(seed=0)
    rep = estimate_energy_min(problem=prob,
                              options=OptimizerOptions(grad_tol=1e-30))
    assert not rep.converged
    assert rep.metadata["work"]["factorizations"] <= 8
    assert (np.diff(rep.trace) >= 0).all()


def test_scalar_reports_gap_at_returned_value():
    # the residual is the gap at the value returned, an evaluated end of
    # the final bracket, not at some other point of the search
    prob = checkerboard_problem(seed=1)
    rep = estimate_self_consistent_scalar(problem=prob)
    a = rep.matrix[0, 0]
    gap = prob.trace_objective(a * np.eye(2))[0] / 2.0 - a
    assert rep.residual == abs(gap) == abs(rep.trace[-1])
    assert rep.iterations == len(rep.trace) - 2


def test_fd_gradient_check_small():
    prob = checkerboard_problem(seed=2)
    err = fd_gradient_check(prob, 2.0 * np.eye(2), n_directions=3, eps=1e-5, seed=0)
    assert err < 1e-4


def test_fd_check_at_cone_boundary_start():
    # the start matrix 1 I sits on the lower edge of [1, 4]; the gradient
    # check must probe from inside the cone instead of raising
    field = make_constant(1.0, EllipticityBounds(1.0, 4.0), dim=2)
    rep = estimate_energy_min(field, Discretization(dim=2, L=2.0, h=0.1),
                              OptimizerOptions(fd_check=True))
    assert rep.metadata["fd_check_rel_err"] < 1e-4
    assert "fd_gradient_mismatch" not in rep.flags
    # a one-point cone (alpha = beta) has no interior to probe from
    point = make_constant(2.0, EllipticityBounds(2.0, 2.0), dim=2)
    rep = estimate_energy_min(point, Discretization(dim=2, L=2.0, h=0.2),
                              OptimizerOptions(fd_check=True))
    assert np.isnan(rep.metadata["fd_check_rel_err"])


def test_anchor_reuse_skips_ascent():
    prob = checkerboard_problem(seed=3)
    opts = OptimizerOptions(grad_tol=1e-4)
    anchor = estimate_energy_min(problem=prob, options=opts)
    before = prob.solve_count, prob.factorization_count
    reused = estimate_averaged(problem=prob, anchor=anchor)
    # one energy-matrix evaluation at the ascent's last matrix: no ascent,
    # no factorization, and at most the d = 2 unit-slope solves
    assert prob.factorization_count == before[1]
    assert prob.solve_count - before[0] <= 2
    direct = estimate_averaged(problem=prob, options=opts)
    assert np.array_equal(reused.matrix, direct.matrix)
    assert reused.metadata["anchor_objective"] == anchor.objective


def test_not_converged_flags():
    prob = checkerboard_problem(seed=4)
    a1 = estimate_energy_min(
        problem=prob, options=OptimizerOptions(max_iters=1, grad_tol=1e-30)
    )
    assert not a1.converged
    assert "not_converged" in a1.flags
    a3 = estimate_self_consistent(
        problem=prob, options=FixedPointOptions(max_iters=1, tol=1e-30)
    )
    assert not a3.converged
    assert "not_converged" in a3.flags
    scalar = estimate_self_consistent_scalar(
        problem=prob, options=BisectOptions(tol=1e-13, max_iters=3)
    )
    assert not scalar.converged
    assert "not_converged" in scalar.flags


def test_initial_matrix_projection_and_validation():
    prob = checkerboard_problem(seed=5)
    default = initial_matrix(prob)
    assert np.allclose(default, prob.mean_coefficient(), atol=1e-12)
    clamped = initial_matrix(
        prob, FixedPointOptions(initial_guess=100.0 * np.eye(2))
    )
    assert np.allclose(clamped, BOUNDS.beta * np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        initial_matrix(prob, FixedPointOptions(initial_guess="zeros"))


def test_fixed_point_options_validate_damping():
    with pytest.raises(ValueError):
        FixedPointOptions(damping=0.0)
    with pytest.raises(ValueError):
        FixedPointOptions(damping=1.5)


def test_bracket_violation_raises():
    class BadModel:
        dim = 1
        bounds = BOUNDS
        max_rel1_seen = 0.0

        def trace_objective(self, exterior):
            # gap f(gamma) = 1 everywhere: cannot bracket a root
            gamma = float(np.asarray(exterior).reshape(-1)[0])
            return gamma + 1.0, np.array([[1.0]])

    with pytest.raises(BracketError) as exc:
        estimate_self_consistent_scalar(problem=BadModel())
    assert "bracket" in str(exc.value)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_reports_serialize_to_json():
    prob = checkerboard_problem(seed=6)
    reps = [
        estimate_naive(problem=prob, exterior=2.0 * np.eye(2)),
        estimate_energy_min(problem=prob, options=OptimizerOptions(grad_tol=1e-3)),
    ]
    for rep in reps:
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["method"] in METHODS
        assert np.asarray(back["matrix"]).shape == (2, 2)
        assert isinstance(back["flags"], list)
        assert back["metadata"]["backend"] == "EmbeddedProblem"
        disc = back["metadata"]["discretization"]
        assert disc["h"] == DISC.h
        assert disc["dofs"] == prob.mesh.n_dofs > 0


def test_fd_check_option_records_metadata():
    prob = checkerboard_problem(seed=7)
    rep = estimate_energy_min(
        problem=prob, options=OptimizerOptions(grad_tol=1e-3, fd_check=True)
    )
    assert rep.metadata["fd_check_rel_err"] < 1e-4
    assert "fd_gradient_mismatch" not in rep.flags
    # a one-point cone (alpha = beta) has no interior to probe from
    point = make_constant(2.0, EllipticityBounds(2.0, 2.0), dim=2)
    rep = estimate_energy_min(point, Discretization(dim=2, L=2.0, h=0.2),
                              OptimizerOptions(fd_check=True))
    assert np.isnan(rep.metadata["fd_check_rel_err"])


def test_periodic_ref_report():
    field = make_laminate(1.0, 4.0, axis=0, period=0.5, bounds=BOUNDS)
    rep = estimate_periodic_ref(field, r=1.0, divisions=8)
    assert rep.method == "periodic_ref"
    assert rep.converged
    assert rep.metadata == {"backend": "periodic_cell", "divisions": 8, "R": 1.0}
    # aligned laminate: harmonic mean across, arithmetic along
    assert np.allclose(rep.matrix, np.diag([1.6, 2.5]), atol=1e-10)


def test_aligned_laminate_unbiased_under_mesh_refinement():
    # a laminate {1, 4} at R = 2 has its interfaces on mesh lines; sampling
    # the coefficient on element edges would hand those points to one phase
    # and bias the estimate by O(h). Centroid sampling leaves an error that
    # does not depend on h (finite R and L), against A* = diag(1.6, 2.5).
    field = rescale(make_laminate(1.0, 4.0, axis=0, period=1.0,
                                  bounds=BOUNDS), 2.0)
    errors = []
    for h in (1.0 / 16.0, 1.0 / 32.0):
        rep = estimate_self_consistent(field, Discretization(dim=2, L=8.0,
                                                             h=h))
        assert rep.converged
        errors.append(np.linalg.norm(rep.matrix - np.diag([1.6, 2.5])))
    assert max(errors) <= 0.07
    assert abs(errors[0] - errors[1]) <= 0.005
