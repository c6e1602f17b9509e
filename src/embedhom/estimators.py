"""Effective-matrix estimators built on corrector energies.

Five estimators of the homogenized matrix from a (rescaled) coefficient
field, all driven by the same corrector problem:

* naive: ball average of the corrected flux at a user-chosen exterior
  matrix. Cheap, asymmetric, and does not converge to the right limit;
  kept as the cautionary baseline.
* energy_min: the exterior matrix maximizing the trace of the energy
  matrix over the admissible cone (the energy is concave in the exterior
  matrix, so a monotone projected Newton ascent with Armijo backtracking
  and a gradient fallback finds the max).
* averaged: the energy matrix evaluated at the energy_min point.
* self_consistent: fixed point of A -> G(A) by Newton's method, with the
  damped iteration as fallback.
* self_consistent_scalar: isotropic fixed point (1/d) Tr G(a I) = a by
  bracketed Newton, bracketed by the constant-phase sandwich.

One sparse factorization per exterior matrix is the unit of cost, so the
iterations take second-order steps: the trace Hessian and the Jacobian of G
come from the factorization already held (EmbeddedProblem.trace_hessian,
energy_jacobian), and each report's metadata["work"] counts the
factorizations and solves its estimate made.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .corrector import EmbeddedProblem
from .errors import BracketError
from .matrices import project_to_admissible, symmetric_basis
from .reference import periodic_effective

log = logging.getLogger(__name__)


@dataclass
class OptimizerOptions:
    """Ascent controls for the energy_min estimator; initial_step is the
    first step of the projected-gradient fallback (Newton steps start at
    1)."""

    max_iters: int = 200
    grad_tol: float = 1e-6
    initial_step: float = 0.5
    backtrack: float = 0.5
    sufficient_increase: float = 1e-4
    min_step: float = 1e-14
    fd_check: bool = False


@dataclass
class FixedPointOptions:
    """Controls for the self_consistent estimator; damping is the step of
    the fallback taken where a Newton step does not lower the residual."""

    damping: float = 0.5
    max_iters: int = 100
    tol: float = 1e-8
    initial_guess: object = "field_mean"   # "field_mean" or an explicit matrix

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")


@dataclass
class BisectOptions:
    """Bracketed-Newton controls for the scalar self-consistent estimator;
    tol is the width of the final bracket."""

    tol: float = 1e-6
    max_iters: int = 60
    bracket_tol: float = 1e-3


@dataclass
class EffectiveMatrixReport:
    """Outcome of one estimator run, JSON-able via to_dict()."""

    method: str
    matrix: np.ndarray
    converged: bool
    iterations: int
    trace: list                  # objective values or residuals per iteration
    objective: float = None      # final objective (energy-based methods)
    residual: float = None       # final fixed-point / bisection residual
    max_rel1: float = 0.0
    flags: tuple = ()
    wall_ms: float = 0.0
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "method": self.method,
            "matrix": np.asarray(self.matrix).tolist(),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "trace": [float(t) for t in self.trace],
            "objective": None if self.objective is None else float(self.objective),
            "residual": None if self.residual is None else float(self.residual),
            "max_rel1": float(self.max_rel1),
            "flags": list(self.flags),
            "wall_ms": float(self.wall_ms),
            "metadata": self.metadata,
        }


def _resolve_problem(field_obj, disc, problem):
    if problem is not None:
        return problem
    return EmbeddedProblem(field_obj, disc)


def _spectrum_flags(matrix, bounds, slack=1e-8):
    """Diagnostic flags on an estimator output (never an error)."""
    matrix = np.asarray(matrix, dtype=float)
    flags = []
    if np.abs(matrix - matrix.T).max() > 1e-10 * max(1.0, np.abs(matrix).max()):
        flags.append("asymmetric")
    else:
        eigs = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
        if eigs[0] < bounds.alpha - slack or eigs[-1] > bounds.beta + slack:
            flags.append("spectrum_outside_bounds")
    return tuple(flags)


def _base_metadata(problem):
    meta = {"backend": type(problem).__name__}
    disc = getattr(problem, "disc", None)
    if disc is not None:
        meta["discretization"] = {
            "dim": disc.dim, "L": disc.L, "h": disc.h,
            "quad_order": disc.quad_order, "cg_tol": disc.cg_tol,
            "solver": disc.solver, "dofs": problem.mesh.n_dofs,
        }
    return meta


def _work(problem):
    """(factorizations, solves) counted by the problem so far; a closed-form
    backend counts none."""
    return (getattr(problem, "factorization_count", 0),
            getattr(problem, "solve_count", 0))


def _begin(problem=None):
    """The start of one estimate: the clock and the problem's work counts."""
    return time.perf_counter(), _work(problem)


def _report(method, start, matrix, bounds, *, problem=None, converged=True,
            iterations=0, trace=(), flags=(), meta=None, **fields):
    """The report of one estimate begun at `start` (from _begin).

    Flags are the spectrum check of `matrix`, then `flags`, then
    not_converged. With a `problem`, max_rel1 is its worst residual, its
    backend and discretization lead the metadata, ahead of `meta`, and
    metadata["work"] closes it: the factorizations and solves the estimate
    added to the problem's counts.
    """
    t0, work0 = start
    flags = _spectrum_flags(matrix, bounds) + tuple(flags)
    if not converged:
        flags += ("not_converged",)
    metadata = {} if problem is None else _base_metadata(problem)
    metadata.update(meta or {})
    if problem is not None:
        factorizations, solves = np.subtract(_work(problem), work0).tolist()
        metadata["work"] = {"factorizations": factorizations, "solves": solves}
        log.debug("%s: %d factorizations, %d solves", method,
                  factorizations, solves)
    return EffectiveMatrixReport(
        method=method, matrix=matrix, converged=converged,
        iterations=iterations, trace=list(trace), flags=flags,
        max_rel1=0.0 if problem is None else problem.max_rel1_seen,
        wall_ms=1e3 * (time.perf_counter() - t0), metadata=metadata,
        **fields)


# ---------------------------------------------------------------------------
# core iterations
# ---------------------------------------------------------------------------


def initial_matrix(problem, options=None):
    """Default starting point: field mean over the ball, projected."""
    guess = getattr(options, "initial_guess", "field_mean")
    if isinstance(guess, str):
        if guess != "field_mean":
            raise ValueError(f"unknown initial guess {guess!r}")
        return project_to_admissible(problem.mean_coefficient(), problem.bounds)
    return project_to_admissible(np.asarray(guess, dtype=float), problem.bounds)


def _resolvable(gain, value):
    """Whether an objective increase `gain` at `value` can show through
    rounding: below 16 machine epsilons of the value, a comparison of two
    energies is a coin toss, and so it is for any shorter step."""
    return gain > 16.0 * np.finfo(float).eps * max(1.0, abs(value))


def _newton_direction(problem, A, grad, basis):
    """Step from A to the projected Newton point Proj(A + sum_k s_k U_k), s
    solving H s = -g for the trace Hessian H and the gradient g in the
    coordinates of `basis`; None when that step is not an ascent direction."""
    g = np.einsum("kab,ab->k", basis, grad)
    try:
        s = np.linalg.solve(problem.trace_hessian(A), -g)
    except np.linalg.LinAlgError:
        return None
    direction = project_to_admissible(A + np.einsum("k,kab->ab", s, basis),
                                      problem.bounds) - A
    return direction if np.sum(grad * direction) > 0.0 else None


def maximize_trace(problem, options):
    """Projected Newton ascent on A -> Tr G(A) over the cone.

    Each iteration first searches the segment from A to the projected Newton
    point (see _newton_direction) from t = 1; when that point is no ascent
    direction it searches the projected gradient arc Proj(A + t grad) from
    t = initial_step (doubling the last accepted gradient step) instead.
    Both backtrack under the Armijo test, so the ascent is monotone, and
    give up once the predicted increase is below rounding. Stops when the
    projected full gradient step moves less than grad_tol in Frobenius norm.
    Returns (A, objective trace, converged, gradient at A).
    """
    bounds = problem.bounds
    basis = symmetric_basis(problem.dim)
    A = initial_matrix(problem, options)
    value, grad = problem.trace_objective(A)
    trace = [value]
    converged = False
    step = options.initial_step
    while True:
        move = project_to_admissible(A + grad, bounds) - A
        if np.linalg.norm(move) <= options.grad_tol:
            converged = True
            break
        if len(trace) > options.max_iters:
            break
        direction = _newton_direction(problem, A, grad, basis)
        t = 1.0 if direction is not None \
            else min(options.initial_step, 2.0 * step)
        accepted = False
        while t > options.min_step:
            if direction is not None:
                A_try = A + t * direction
            else:
                A_try = project_to_admissible(A + t * grad, bounds)
            delta = A_try - A
            gain = np.sum(grad * delta)
            if not _resolvable(gain, value):
                break
            value_try, grad_try = problem.trace_objective(A_try)
            if value_try >= value + options.sufficient_increase * gain:
                accepted = True
                break
            t *= options.backtrack
        if not accepted:
            # no step survives backtracking: numerically stationary
            converged = np.linalg.norm(move) <= 10 * options.grad_tol
            break
        if direction is None:
            step = t
        A, value, grad = A_try, value_try, grad_try
        trace.append(value)
    return A, trace, converged, grad


def fd_gradient_check(problem, A, n_directions=3, eps=1e-5, seed=0):
    """Max relative error of the ascent direction against central differences.

    Probes random symmetric directions E (unit Frobenius norm, so A +- eps E
    moves each eigenvalue by at most eps). The check tests the gradient
    formula, which any interior point does, so A's eigenvalues are first
    clamped to [alpha + 2 eps, beta - 2 eps]; a start matrix on the cone
    boundary then still has admissible probes. Returns NaN when the cone is
    too thin (beta - alpha < 4 eps) to probe.
    """
    bounds = problem.bounds
    if bounds.beta - bounds.alpha < 4.0 * eps:
        return float("nan")
    eigs, vecs = np.linalg.eigh(0.5 * (A + A.T))
    inner = np.clip(eigs, bounds.alpha + 2.0 * eps, bounds.beta - 2.0 * eps)
    if (inner != eigs).any():
        A = (vecs * inner) @ vecs.T
    rng = np.random.default_rng(seed)
    _, grad = problem.trace_objective(A)
    d = A.shape[0]
    worst = 0.0
    for _ in range(n_directions):
        E = rng.standard_normal((d, d))
        E = 0.5 * (E + E.T)
        E /= np.linalg.norm(E)
        vp, _ = problem.trace_objective(A + eps * E)
        vm, _ = problem.trace_objective(A - eps * E)
        fd = (vp - vm) / (2.0 * eps)
        exact = float(np.sum(grad * E))
        worst = max(worst, abs(fd - exact) / max(1.0, abs(fd)))
    return worst


def damped_fixed_point(problem, options):
    """Newton iteration on G(A) - A = 0, with the damped step as fallback.

    Each iteration tries the projected Newton point Proj(A + sum_k s_k U_k),
    s solving (dG/dtheta - I) s = -(G(A) - A) in the coordinates of
    symmetric_basis (the Jacobian is problem.energy_jacobian, which costs no
    solve). Where ||G - A||_F does not drop there, it takes the damped step
    (1 - damping) A + damping Proj(G(A)) instead. Stops when the residual is
    at most tol, or when an update moves A by at most tol (the damped
    iteration stalls there when the cone holds G(A) outside it).

    Returns (A, residual trace ||G(A_k) - A_k||_F over the iterates, first
    and last included, converged, final residual). Convergence is not
    guaranteed for anisotropic fields; the caller reports the flag instead
    of raising.
    """
    bounds = problem.bounds
    basis = symmetric_basis(problem.dim)
    upper = np.triu_indices(problem.dim)
    A = initial_matrix(problem, options)

    def evaluate(A):
        G, _ = problem.energy_matrix(A)
        return G, float(np.linalg.norm(G - A))

    G, residual = evaluate(A)
    residuals = [residual]
    stalled = False
    while residual > options.tol and len(residuals) <= options.max_iters:
        jac = problem.energy_jacobian(A)[:, upper[0], upper[1]].T
        try:
            s = np.linalg.solve(jac - np.eye(len(basis)), -(G - A)[upper])
            A_next = project_to_admissible(
                A + np.einsum("k,kab->ab", s, basis), bounds)
            G_next, residual_next = evaluate(A_next)
        except np.linalg.LinAlgError:
            residual_next = np.inf
        if not residual_next < residual:
            A_next = (1.0 - options.damping) * A \
                + options.damping * project_to_admissible(G, bounds)
            G_next, residual_next = evaluate(A_next)
        stalled = np.linalg.norm(A_next - A) <= options.tol
        A, G, residual = A_next, G_next, residual_next
        residuals.append(residual)
        if stalled:
            break
    return A, residuals, stalled or residual <= options.tol, residual


def scalar_fixed_point(problem, options):
    """Bracketed Newton for (1/d) Tr G(a I) = a on [alpha, beta].

    The constant-phase comparison fields squeeze the trace map between two
    closed forms whose roots are alpha and beta, so the gap function
    f(a) = (1/d) Tr G(a I) - a is >= 0 at alpha and <= 0 at beta; a
    violation beyond bracket_tol means the discretization is broken and
    raises BracketError. trace_objective's gradient gives f'(a) =
    tr(grad)/d - 1 at no extra cost. Each step is Newton's from the last
    point evaluated (first from the end with the smaller gap), or the
    bracket midpoint where Newton leaves the bracket or does not halve the
    step before last (Numerical Recipes' rtsafe). Newton's error is of the
    order of the step squared, so a step shorter than tol/2 is doubled (and
    lengthened by at least tol/100): it then lands just past the root and
    closes the bracket to within tol.

    Returns (a, gap trace, converged, iterations): a is the last point
    evaluated, an end of the final bracket; the trace holds the gap at
    alpha, at beta and at each later point, so its last entry is f(a);
    iterations counts the points after the two ends; converged means the
    bracket is at most tol wide.
    """
    alpha, beta = problem.bounds.alpha, problem.bounds.beta
    d = problem.dim
    eye = np.eye(d)

    def gap(gamma):
        value, grad = problem.trace_objective(gamma * eye)
        return value / d - gamma, np.trace(grad) / d - 1.0

    (f_lo, df_lo), (f_hi, df_hi) = gap(alpha), gap(beta)
    if f_lo < -options.bracket_tol or f_hi > options.bracket_tol:
        raise BracketError(
            "scalar fixed-point bracket violated: the constant-phase "
            "sandwich requires f(alpha) >= 0 >= f(beta) up to discretization "
            f"error, got f({alpha:g}) = {f_lo:.3e}, f({beta:g}) = {f_hi:.3e}"
        )
    trace = [f_lo, f_hi]
    lo, hi = alpha, beta
    x, f, df = (alpha, f_lo, df_lo) if abs(f_lo) < abs(f_hi) \
        else (beta, f_hi, df_hi)
    step_before = hi - lo
    while hi - lo > options.tol and len(trace) - 2 < options.max_iters:
        step = -f / df if df != 0.0 else np.inf
        if not lo < x + step < hi or abs(step) > 0.5 * abs(step_before):
            x_new = 0.5 * (lo + hi)
        elif abs(step) < 0.5 * options.tol:
            x_new = x + step + np.copysign(max(abs(step), 0.01 * options.tol),
                                           step)
        else:
            x_new = x + step
        step_before, x = x_new - x, x_new
        f, df = gap(x)
        trace.append(f)
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        else:
            lo = hi = x
    value = x if len(trace) > 2 else beta
    return value, trace, bool(hi - lo <= options.tol), len(trace) - 2


# ---------------------------------------------------------------------------
# estimator entry points
# ---------------------------------------------------------------------------


def estimate_energy_min(field_obj=None, disc=None, options=None, problem=None):
    """Estimator maximizing the energy trace over admissible exterior matrices."""
    problem = _resolve_problem(field_obj, disc, problem)
    options = options or OptimizerOptions()
    start = _begin(problem)
    A, trace, converged, grad = maximize_trace(problem, options)
    meta = {"optimizer": {"grad_tol": options.grad_tol,
                          "max_iters": options.max_iters}}
    flags = ()
    if options.fd_check:
        err = fd_gradient_check(problem, initial_matrix(problem, options))
        meta["fd_check_rel_err"] = err
        if err > 1e-4:
            flags = ("fd_gradient_mismatch",)
    if not converged:
        log.warning("energy_min ascent stopped after %d iterations without "
                    "reaching grad_tol", len(trace) - 1)
    return _report("energy_min", start, A, problem.bounds, problem=problem,
                   converged=converged, iterations=len(trace) - 1,
                   trace=trace, flags=flags, meta=meta, objective=trace[-1])


def estimate_averaged(field_obj=None, disc=None, options=None, problem=None,
                      anchor=None):
    """Energy matrix evaluated at the energy_min point.

    Pass an energy_min report as `anchor` to reuse its maximizer instead of
    re-running the ascent (the runner does this when both are requested).
    """
    problem = _resolve_problem(field_obj, disc, problem)
    start = _begin(problem)
    inner = anchor if anchor is not None \
        else estimate_energy_min(problem=problem, options=options)
    G, _ = problem.energy_matrix(inner.matrix)
    return _report("averaged", start, G, problem.bounds, problem=problem,
                   converged=inner.converged, iterations=inner.iterations,
                   trace=inner.trace, objective=inner.objective,
                   meta={"anchor_objective": inner.objective})


def estimate_self_consistent(field_obj=None, disc=None, options=None,
                             problem=None):
    """Fixed point of the energy matrix map, by Newton with a damped
    fallback."""
    problem = _resolve_problem(field_obj, disc, problem)
    options = options or FixedPointOptions()
    start = _begin(problem)
    A, residuals, converged, final_residual = damped_fixed_point(problem, options)
    if not converged:
        log.warning("self-consistent iteration did not reach tol=%.1e "
                    "(final residual %.3e)", options.tol, final_residual)
    return _report("self_consistent", start, A, problem.bounds,
                   problem=problem, converged=converged,
                   iterations=len(residuals) - 1, trace=residuals,
                   residual=final_residual,
                   meta={"fixed_point": {"damping": options.damping,
                                         "tol": options.tol,
                                         "max_iters": options.max_iters}})


def estimate_self_consistent_scalar(field_obj=None, disc=None, options=None,
                                    problem=None):
    """Isotropic self-consistent value by bracketed Newton."""
    problem = _resolve_problem(field_obj, disc, problem)
    options = options or BisectOptions()
    start = _begin(problem)
    value, trace, converged, iterations = scalar_fixed_point(problem, options)
    return _report("self_consistent_scalar", start,
                   value * np.eye(problem.dim), problem.bounds,
                   problem=problem, converged=converged,
                   iterations=iterations, trace=trace,
                   residual=abs(trace[-1]),
                   meta={"bisection": {"tol": options.tol,
                                       "max_iters": options.max_iters,
                                       "bracket_tol": options.bracket_tol}})


def estimate_periodic_ref(field_obj, r=1.0, divisions=64, quad_order=1):
    """Periodic-cell reference matrix for x -> field(r x), as a report."""
    start = _begin()
    matrix = periodic_effective(field_obj, R=r, divisions=divisions,
                                quad_order=quad_order)
    return _report("periodic_ref", start, matrix, field_obj.bounds,
                   meta={"backend": "periodic_cell",
                         "divisions": int(divisions), "R": float(r)})


def estimate_naive(field_obj=None, exterior=None, disc=None, problem=None):
    """Ball average of the corrected flux at a fixed exterior matrix."""
    problem = _resolve_problem(field_obj, disc, problem)
    if exterior is None:
        exterior = initial_matrix(problem)
    start = _begin(problem)
    matrix = problem.flux_average(np.asarray(exterior, dtype=float))
    return _report("naive", start, matrix, problem.bounds, problem=problem,
                   meta={"exterior": np.asarray(exterior).tolist()})
