"""Mesh construction, assembly, and linear solver tests."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from embedhom.corrector import EmbeddedProblem
from embedhom.errors import ConvergenceError, GeometryError, InvalidCoefficientError
from embedhom.fem import (
    CG_TOL,
    DIRECT_DOF_CAP,
    GRADING,
    Discretization,
    LinearSolver,
    assemble_stiffness,
    assemble_vector,
    axis_ticks,
    box_mesh,
    build_mesh,
    reduce_coefficient,
    solve_cg,
)
from embedhom.fields import make_checkerboard, make_constant
from embedhom.matrices import EllipticityBounds

BOUNDS = EllipticityBounds(0.5, 8.0)


def mesh_2d(L=2.0, h=0.5):
    return build_mesh(Discretization(dim=2, L=L, h=h))


def divisions(mesh):
    """Cells per side of a tensor-grid mesh."""
    return len(np.unique(mesh.vertices[:, 0])) - 1


# ---------------------------------------------------------------------------
# mesh geometry
# ---------------------------------------------------------------------------


def test_mesh_counts_1d():
    mesh = build_mesh(Discretization(dim=1, L=2.0, h=1.0))
    assert divisions(mesh) == 4
    assert mesh.n_vertices == 5
    assert len(mesh.elements) == 4
    assert mesh.boundary.sum() == 2
    assert mesh.boundary[0] and mesh.boundary[-1]
    assert mesh.n_dofs == 3


def test_mesh_counts_2d():
    mesh = mesh_2d(L=2.0, h=1.0)
    assert divisions(mesh) == 4
    assert mesh.n_vertices == 25
    assert len(mesh.elements) == 32
    # 16 boundary vertices on the outer ring of a 5x5 grid
    assert mesh.boundary.sum() == 16
    assert mesh.n_dofs == 9


def test_mesh_spacing_rounds_down():
    # a box with less than one core cell (c = h * ceil(1.25 / h) = 1.4)
    # outside the core is meshed uniformly: h that does not divide 2L gets
    # shrunk, never stretched
    mesh = build_mesh(Discretization(dim=2, L=2.0, h=0.7))
    assert divisions(mesh) == int(np.ceil(4.0 / 0.7))
    widths = np.diff(np.unique(mesh.vertices[:, 0]))
    assert widths.max() <= 0.7 + 1e-12


def test_triangles_positive_and_cover_box():
    mesh = mesh_2d(h=0.25)
    assert (mesh.volumes > 0).all()
    assert np.isclose(mesh.volumes.sum(), 16.0, rtol=0, atol=1e-12)


def test_ball_area_near_pi():
    mesh = mesh_2d(L=2.0, h=0.02)
    area = (mesh.volumes * mesh.in_ball).sum()
    assert abs(area - np.pi) < 4 * 0.02
    # complement is exact by construction
    ext = (mesh.volumes * ~mesh.in_ball).sum()
    assert np.isclose(area + ext, 16.0, atol=1e-12)


def test_linear_function_gradients_exact():
    # P1 reproduces linears: the element gradient map must return the slope
    a = np.array([0.7, -1.3])
    mesh = mesh_2d(h=0.5)
    w = mesh.vertices @ a + 2.0
    grads = mesh.element_gradients(w)
    assert np.allclose(grads, a, atol=1e-13)

    mesh1 = build_mesh(Discretization(dim=1, L=2.0, h=0.4))
    w1 = 3.0 * mesh1.vertices[:, 0] - 1.0
    assert np.allclose(mesh1.element_gradients(w1), [3.0], atol=1e-13)


def test_expand_roundtrip():
    mesh = mesh_2d(h=1.0)
    x = np.arange(mesh.n_dofs, dtype=float) + 1.0
    w = mesh.expand(x)
    assert np.allclose(w[mesh.interior_idx], x)
    assert (w[mesh.boundary] == 0.0).all()


def test_discretization_validation():
    with pytest.raises(GeometryError):
        Discretization(dim=3, L=4.0, h=0.1)
    with pytest.raises(GeometryError):
        Discretization(dim=2, L=1.5, h=0.1)
    with pytest.raises(GeometryError):
        Discretization(dim=2, L=4.0, h=0.0)
    with pytest.raises(GeometryError):
        Discretization(dim=2, L=4.0, h=0.1, solver="gauss")


def test_vertex_cap():
    with pytest.raises(GeometryError):
        build_mesh(Discretization(dim=2, L=4.0, h=0.01, max_vertices=1000))


def test_vertex_cap_counts_graded_ticks():
    # 199^2 graded vertices, where the uniform mesh would have 801^2
    disc = Discretization(dim=2, L=8.0, h=0.02)
    nv = len(axis_ticks(disc.L, disc.h, 2, 10**6)) ** 2
    assert nv < 801 ** 2
    assert build_mesh(replace(disc, max_vertices=nv)).n_vertices == nv
    with pytest.raises(GeometryError, match=f"{nv} vertices, above the cap"):
        build_mesh(replace(disc, max_vertices=nv - 1))


@pytest.mark.parametrize("dim, L", [(1, 1e9), (2, 1e9), (2, 2.0)])
def test_vertex_cap_stops_the_ticks_early(dim, L):
    # billions of core ticks per axis: rejected before any tick array is built
    disc = Discretization(dim=dim, L=L, h=1e-9, max_vertices=1000)
    with pytest.raises(GeometryError, match="vertices, above the cap 1000"):
        build_mesh(disc)


# ---------------------------------------------------------------------------
# graded tick vector
# ---------------------------------------------------------------------------

TICK_CASES = [(2.0, 0.2), (4.0, 0.03125), (8.0, 0.05), (512.0, 0.05),
              (5.0, 0.1), (3.0, 0.07), (4.0, 0.3), (2.0, 0.5)]


def _core(ticks, h):
    """Number k of core cells per side, and the core ticks."""
    k = int(np.ceil(1.25 / h))
    mid = len(ticks) // 2
    return k, ticks[mid - k: mid + k + 1]


@pytest.mark.parametrize("L, h", TICK_CASES)
def test_core_ticks_are_multiples_of_h(L, h):
    ticks = axis_ticks(L, h, 1, 10**6)
    k, core = _core(ticks, h)
    assert np.array_equal(core, h * np.arange(-k, k + 1))
    assert core[-1] >= 1.25


@pytest.mark.parametrize("L, h", TICK_CASES)
def test_ticks_symmetric_and_end_at_L(L, h):
    ticks = axis_ticks(L, h, 1, 10**6)
    assert np.array_equal(ticks, -ticks[::-1])
    assert ticks[-1] == L
    assert (np.diff(ticks) > 0).all()


@pytest.mark.parametrize("L, h", TICK_CASES)
def test_outer_spacings_grow_by_at_most_the_grading(L, h):
    ticks = axis_ticks(L, h, 1, 10**6)
    k, _ = _core(ticks, h)
    # the outer cells, from the last core cell outward
    widths = np.diff(ticks[len(ticks) // 2 + k - 1:])
    assert len(widths) >= 2
    ratios = widths[1:] / widths[:-1]
    assert (ratios >= 1.0 - 1e-12).all()
    # every cell but the closing one grows by at most the grading
    assert (ratios[:-1] <= GRADING * (1.0 + 1e-12)).all()


# less than one core cell between the core (c = h * ceil(1.25 / h)) and L:
# the uniform ticks
@pytest.mark.parametrize("L, h", [(2.0, 1.0), (2.0, 0.7), (2.5, 0.9)])
def test_small_boxes_keep_the_uniform_ticks(L, h):
    uniform = np.linspace(-L, L, int(np.ceil(2.0 * L / h)) + 1)
    assert np.array_equal(axis_ticks(L, h, 1, 10**6), uniform)
    mesh = build_mesh(Discretization(dim=2, L=L, h=h))
    assert np.array_equal(np.unique(mesh.vertices[:, 0]), uniform)


def test_graded_mesh_covers_box():
    mesh = build_mesh(Discretization(dim=2, L=8.0, h=0.1))
    assert (mesh.volumes > 0).all()
    assert np.isclose(mesh.volumes.sum(), 256.0, rtol=1e-13)
    a = np.array([0.7, -1.3])
    assert np.allclose(mesh.element_gradients(mesh.vertices @ a), a,
                       atol=1e-12)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_1d_constant_stencil():
    # unit coefficient on spacing h gives the classic (-1, 2, -1)/h stencil
    disc = Discretization(dim=1, L=2.0, h=0.5)
    mesh = build_mesh(disc)
    field = make_constant(1.0, BOUNDS, dim=1)
    K = assemble_stiffness(
        mesh, reduce_coefficient(mesh, field.evaluate, validate=True)).toarray()
    n = mesh.n_dofs
    expect = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
              + np.diag(np.full(n - 1, -1.0), -1)) / 0.5
    assert np.allclose(K, expect, atol=1e-12)


def test_stiffness_exactly_symmetric():
    mesh = mesh_2d(L=2.0, h=0.1)
    field = make_checkerboard([1.0, 4.0], [0.5, 0.5], seed=7, bounds=BOUNDS)
    K = assemble_stiffness(
        mesh, reduce_coefficient(mesh, field.evaluate, validate=True))
    assert (K - K.T).nnz == 0


def test_reduce_coefficient_constant():
    mesh = mesh_2d(h=0.5)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    red = reduce_coefficient(mesh, lambda pts: np.broadcast_to(A, (len(pts), 2, 2)))
    assert np.allclose(red, mesh.volumes[:, None, None] * A, atol=1e-13)


def test_reduce_coefficient_chunking_matches():
    mesh = mesh_2d(h=0.25)
    field = make_checkerboard([1.0, 4.0], [0.5, 0.5], seed=3, bounds=BOUNDS)
    full = reduce_coefficient(mesh, field.evaluate)
    small = reduce_coefficient(mesh, field.evaluate, chunk=17)
    assert np.array_equal(full, small)


def test_spd_validation_rejects_bad_coefficients():
    mesh = mesh_2d(h=1.0)

    def nonsym(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = 1.0
        out[:, 0, 1] = 0.3
        return out

    with pytest.raises(InvalidCoefficientError):
        reduce_coefficient(mesh, nonsym, validate=True)

    def indefinite(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = -1.0
        return out

    with pytest.raises(InvalidCoefficientError):
        reduce_coefficient(mesh, indefinite, validate=True)


def test_load_vanishes_without_contrast():
    # exterior constant equal to the field: interface forcing cancels exactly
    A = np.array([[2.0, 0.3], [0.3, 1.5]])
    field = make_constant(A, BOUNDS)
    problem = EmbeddedProblem(field, Discretization(dim=2, L=2.0, h=0.5))
    F = problem.load(A, np.array([1.0, 0.0]))
    assert np.allclose(F, 0.0, atol=1e-14)


def test_assemble_vector_scatter():
    mesh = build_mesh(Discretization(dim=1, L=2.0, h=1.0))
    loads = np.ones((len(mesh.elements), 2))
    out = assemble_vector(mesh, loads)
    # interior vertices receive one contribution from each adjacent segment
    assert np.allclose(out, [2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# manufactured solution (pins the physical-gradient map)
# ---------------------------------------------------------------------------


def poisson_error(n):
    """Max vertex error for -div(grad u) = f, u = sin(pi x/4) sin(pi y/4),
    on the uniform n x n mesh (the P1 rate is that of a uniform grid)."""
    L = 4.0
    disc = Discretization(dim=2, L=L, h=2.0 * L / n)
    mesh = box_mesh(2, np.linspace(-L, L, n + 1))
    k = np.pi / 4.0

    def exact(pts):
        return np.sin(k * pts[:, 0]) * np.sin(k * pts[:, 1])

    field = make_constant(1.0, BOUNDS, dim=2)
    K = assemble_stiffness(mesh, reduce_coefficient(mesh, field.evaluate))
    # centroid rule: each of the three basis functions is 1/3 there
    f_c = 2.0 * k * k * exact(mesh.centroids)
    cell_loads = np.repeat((mesh.volumes * f_c / 3.0)[:, None], 3, axis=1)
    F = assemble_vector(mesh, cell_loads)
    u, _ = LinearSolver(K, disc).solve(F)
    return np.abs(mesh.expand(u) - exact(mesh.vertices)).max()


def test_poisson_manufactured_accuracy():
    err = poisson_error(80)
    assert err < 5e-3


def test_poisson_second_order_convergence():
    e1, e2 = poisson_error(40), poisson_error(80)
    assert e2 < 0.35 * e1


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def small_system():
    disc = Discretization(dim=2, L=2.0, h=0.2)
    mesh = build_mesh(disc)
    field = make_checkerboard([1.0, 4.0], [0.5, 0.5], seed=1, bounds=BOUNDS)
    K = assemble_stiffness(
        mesh, reduce_coefficient(mesh, field.evaluate, validate=True))
    rng = np.random.default_rng(0)
    F = rng.standard_normal(K.shape[0])
    return disc, K, F


def test_cg_matches_direct():
    disc, K, F = small_system()
    x_cg, stats = solve_cg(K, F, tol=1e-12)
    direct = LinearSolver(K, disc)
    assert direct.method == "direct"
    x_lu, lu_stats = direct.solve(F)
    assert lu_stats.method == "direct"
    assert stats.method == "cg"
    assert stats.iterations > 0
    assert np.allclose(x_cg, x_lu, atol=1e-9)


def test_solver_policy_respects_override():
    disc, K, F = small_system()
    forced = LinearSolver(K, Discretization(dim=2, L=2.0, h=0.2, solver="cg"))
    assert forced.method == "cg"
    x, stats = forced.solve(F)
    assert stats.method == "cg"
    assert np.linalg.norm(F - K @ x) <= CG_TOL * np.linalg.norm(F)
    assert K.shape[0] < DIRECT_DOF_CAP  # sanity: auto picked direct above
    # an (n, k) block runs CG once per column, a zero column included
    block = np.stack([F, np.zeros_like(F), -2.0 * F + 1.0], axis=1)
    X, block_stats = forced.solve(block)
    X_lu, _ = LinearSolver(K, disc).solve(block)
    assert X.shape == block.shape
    assert np.allclose(X, X_lu, rtol=0.0, atol=1e-8 * np.abs(X_lu).max())
    runs = [solve_cg(K, f)[1] for f in block.T]
    assert block_stats.method == "cg"
    assert block_stats.iterations == sum(s.iterations for s in runs) > 0
    assert block_stats.residual == max(s.residual for s in runs)


def test_zero_load_short_circuits():
    _, K, _ = small_system()
    x, stats = solve_cg(K, np.zeros(K.shape[0]))
    assert not x.any()
    assert stats.iterations == 0


def test_cg_iteration_cap_raises():
    _, K, F = small_system()
    with pytest.raises(ConvergenceError) as exc:
        solve_cg(K, F, tol=1e-12, max_iter=2)
    assert exc.value.residual > 0.0
    assert exc.value.iterations <= 2


def test_cg_rejects_nonpositive_diagonal():
    K = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InvalidCoefficientError):
        solve_cg(K, np.array([1.0, 1.0]))
