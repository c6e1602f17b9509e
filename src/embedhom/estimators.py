"""Effective-matrix estimators built on corrector energies.

Five estimators of the homogenized matrix from a (rescaled) coefficient
field, all driven by the same corrector problem:

* naive: ball average of the corrected flux at a user-chosen exterior
  matrix. Cheap, asymmetric, and does not converge to the right limit;
  kept as the cautionary baseline.
* energy_min: the exterior matrix maximizing the trace of the energy
  matrix over the admissible cone (the energy is concave in the exterior
  matrix, so projected gradient ascent with backtracking finds the max).
* averaged: the energy matrix evaluated at the energy_min point.
* self_consistent: fixed point of A -> G(A) by damped iteration.
* self_consistent_scalar: isotropic fixed point (1/d) Tr G(a I) = a by
  bisection, bracketed by the constant-phase sandwich.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .corrector import EmbeddedProblem
from .errors import BracketError
from .matrices import project_to_admissible
from .reference import periodic_effective

log = logging.getLogger(__name__)


@dataclass
class OptimizerOptions:
    """Projected-ascent controls for the energy_min estimator."""

    max_iters: int = 200
    grad_tol: float = 1e-6
    initial_step: float = 0.5
    backtrack: float = 0.5
    sufficient_increase: float = 1e-4
    min_step: float = 1e-14
    fd_check: bool = False


@dataclass
class FixedPointOptions:
    """Damped-iteration controls for the self_consistent estimator."""

    damping: float = 0.5
    max_iters: int = 100
    tol: float = 1e-8
    initial_guess: object = "field_mean"   # "field_mean" or an explicit matrix

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")


@dataclass
class BisectOptions:
    """Bisection controls for the scalar self-consistent estimator."""

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
            "solver": disc.solver,
        }
    return meta


def _report(method, start, matrix, bounds, *, problem=None, converged=True,
            iterations=0, trace=(), flags=(), meta=None, **fields):
    """The report of one estimate begun at perf_counter() time `start`.

    Flags are the spectrum check of `matrix`, then `flags`, then
    not_converged. With a `problem`, max_rel1 is its worst residual and its
    backend and discretization lead the metadata, ahead of `meta`.
    """
    flags = _spectrum_flags(matrix, bounds) + tuple(flags)
    if not converged:
        flags += ("not_converged",)
    metadata = {} if problem is None else _base_metadata(problem)
    metadata.update(meta or {})
    return EffectiveMatrixReport(
        method=method, matrix=matrix, converged=converged,
        iterations=iterations, trace=list(trace), flags=flags,
        max_rel1=0.0 if problem is None else problem.max_rel1_seen,
        wall_ms=1e3 * (time.perf_counter() - start), metadata=metadata,
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


def maximize_trace(problem, options):
    """Projected supergradient ascent on A -> Tr G(A) over the cone.

    Monotone by construction (Armijo backtracking along the projection arc);
    stops when the projected full step moves less than grad_tol in Frobenius
    norm. Returns (A, objective trace, converged, gradient at A).
    """
    bounds = problem.bounds
    A = initial_matrix(problem, options)
    value, grad = problem.trace_objective(A)
    trace = [value]
    converged = False
    step = options.initial_step
    for _ in range(options.max_iters):
        move = project_to_admissible(A + grad, bounds) - A
        if np.linalg.norm(move) <= options.grad_tol:
            converged = True
            break
        t = min(options.initial_step, 2.0 * step)
        accepted = False
        while t > options.min_step:
            A_try = project_to_admissible(A + t * grad, bounds)
            delta = A_try - A
            value_try, grad_try = problem.trace_objective(A_try)
            if value_try >= value + options.sufficient_increase * np.sum(grad * delta):
                accepted = True
                break
            t *= options.backtrack
        if not accepted:
            # no step survives backtracking: numerically stationary
            converged = np.linalg.norm(move) <= 10 * options.grad_tol
            break
        if np.linalg.norm(delta) == 0.0:
            # projection pins A against the cone boundary in this direction
            converged = True
            break
        A, value, grad, step = A_try, value_try, grad_try, t
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
    """A <- (1 - theta) A + theta Proj(G(A)) until the update stalls.

    Returns (A, residual trace ||G(A_k) - A_k||_F, converged, final residual).
    Convergence is not guaranteed for anisotropic fields; the caller reports
    the flag instead of raising.
    """
    bounds = problem.bounds
    A = initial_matrix(problem, options)
    residuals = []
    converged = False
    for _ in range(options.max_iters):
        G, _ = problem.energy_matrix(A)
        residuals.append(float(np.linalg.norm(G - A)))
        A_next = (1.0 - options.damping) * A \
            + options.damping * project_to_admissible(G, bounds)
        done = np.linalg.norm(A_next - A) <= options.tol
        A = A_next
        if done:
            converged = True
            break
    G, _ = problem.energy_matrix(A)
    final_residual = float(np.linalg.norm(G - A))
    return A, residuals, converged, final_residual


def scalar_fixed_point(problem, options):
    """Bisection for (1/d) Tr G(a I) = a on [alpha, beta].

    The constant-phase comparison fields squeeze the trace map between two
    closed forms whose roots are alpha and beta, so the gap function is >= 0
    at alpha and <= 0 at beta; a violation beyond bracket_tol means the
    discretization is broken and raises BracketError.
    """
    alpha, beta = problem.bounds.alpha, problem.bounds.beta
    d = problem.dim
    eye = np.eye(d)

    def gap(gamma):
        value, _ = problem.trace_objective(gamma * eye)
        return value / d - gamma

    f_lo, f_hi = gap(alpha), gap(beta)
    if f_lo < -options.bracket_tol or f_hi > options.bracket_tol:
        raise BracketError(
            "scalar fixed-point bracket violated: the constant-phase "
            "sandwich requires f(alpha) >= 0 >= f(beta) up to discretization "
            f"error, got f({alpha:g}) = {f_lo:.3e}, f({beta:g}) = {f_hi:.3e}"
        )
    lo, hi = alpha, beta
    trace = []
    iterations = 0
    while hi - lo > options.tol and iterations < options.max_iters:
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        trace.append(f_mid)
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    value = 0.5 * (lo + hi)
    return value, trace, (hi - lo) <= options.tol, iterations


# ---------------------------------------------------------------------------
# estimator entry points
# ---------------------------------------------------------------------------


def estimate_energy_min(field_obj=None, disc=None, options=None, problem=None):
    """Estimator maximizing the energy trace over admissible exterior matrices."""
    problem = _resolve_problem(field_obj, disc, problem)
    options = options or OptimizerOptions()
    start = time.perf_counter()
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
    start = time.perf_counter()
    inner = anchor if anchor is not None \
        else estimate_energy_min(problem=problem, options=options)
    G, _ = problem.energy_matrix(inner.matrix)
    return _report("averaged", start, G, problem.bounds, problem=problem,
                   converged=inner.converged, iterations=inner.iterations,
                   trace=inner.trace, objective=inner.objective,
                   meta={"anchor_objective": inner.objective})


def estimate_self_consistent(field_obj=None, disc=None, options=None,
                             problem=None):
    """Damped fixed point of the energy matrix map."""
    problem = _resolve_problem(field_obj, disc, problem)
    options = options or FixedPointOptions()
    start = time.perf_counter()
    A, residuals, converged, final_residual = damped_fixed_point(problem, options)
    if not converged:
        log.warning("self-consistent iteration did not reach tol=%.1e "
                    "(final residual %.3e)", options.tol, final_residual)
    return _report("self_consistent", start, A, problem.bounds,
                   problem=problem, converged=converged,
                   iterations=len(residuals), trace=residuals,
                   residual=final_residual,
                   meta={"fixed_point": {"damping": options.damping,
                                         "tol": options.tol,
                                         "max_iters": options.max_iters}})


def estimate_self_consistent_scalar(field_obj=None, disc=None, options=None,
                                    problem=None):
    """Isotropic self-consistent value by bisection."""
    problem = _resolve_problem(field_obj, disc, problem)
    options = options or BisectOptions()
    start = time.perf_counter()
    value, trace, converged, iterations = scalar_fixed_point(problem, options)
    return _report("self_consistent_scalar", start,
                   value * np.eye(problem.dim), problem.bounds,
                   problem=problem, converged=converged,
                   iterations=iterations, trace=trace,
                   residual=abs(trace[-1]) if trace else 0.0,
                   meta={"bisection": {"tol": options.tol,
                                       "max_iters": options.max_iters,
                                       "bracket_tol": options.bracket_tol}})


def estimate_periodic_ref(field_obj, r=1.0, divisions=64, quad_order=1):
    """Periodic-cell reference matrix for x -> field(r x), as a report."""
    start = time.perf_counter()
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
    start = time.perf_counter()
    matrix = problem.flux_average(np.asarray(exterior, dtype=float))
    return _report("naive", start, matrix, problem.bounds, problem=problem,
                   meta={"exterior": np.asarray(exterior).tolist()})
