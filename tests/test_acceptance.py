"""Acceptance suite: one test per shipped guarantee.

Every test prints a single verdict line, ``ACCEPTANCE <n>: PASS/FAIL (...)``,
on the real stdout so the verdicts stay visible in captured pytest runs, and
then asserts. Criteria 1-5 register every FEM problem they build so the
energy-identity audit (criterion 6) can sweep all of their solves.
"""

import functools
import time

import numpy as np
import pytest

from embedhom.cli import main as cli_main
from embedhom.corrector import EmbeddedProblem
from embedhom.estimators import (
    BisectOptions,
    FixedPointOptions,
    OptimizerOptions,
    estimate_averaged,
    estimate_energy_min,
    estimate_naive,
    estimate_self_consistent,
    estimate_self_consistent_scalar,
)
from embedhom.fem import Discretization
from embedhom.fields import make_checkerboard, make_constant, make_one_dim_piecewise
from embedhom.matrices import EllipticityBounds
from embedhom.reference import Harmonic1DModel, harmonic_mean_1d

# FEM problems built by criteria 1-5; criterion 6 audits every solve on them.
_TRACKED = []


def _line(capsys, num, ok, detail):
    text = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():   # verdicts stay visible under capture
        print(f"\n{text}", flush=True)
    return text


def _criterion(num):
    """Body returns (ok, detail); the wrapper prints the verdict and asserts.

    Every wrapped test declares the capsys fixture so the wrapper can lift
    the verdict line past pytest's output capture.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            capsys = kwargs["capsys"]
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as exc:
                _line(capsys, num, False,
                      f"crashed: {type(exc).__name__}: {exc}")
                raise
            text = _line(capsys, num, ok, detail)
            assert ok, text

        return run

    return wrap


def _random_spd(rng, lo, hi):
    theta = rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    q = np.array([[c, -s], [s, c]])
    return (q * rng.uniform(lo, hi, size=2)) @ q.T


@_criterion(1)
def test_criterion_01_homogeneous_recovery(capsys):
    # constant diag(1.5, 3.0) medium: every estimator must return the medium
    t0 = time.perf_counter()
    target = np.diag([1.5, 3.0])
    bounds = EllipticityBounds(1.0, 4.0)
    field = make_constant(target, bounds, dim=2)
    problem = EmbeddedProblem(field, Discretization(dim=2, L=5.0, h=0.05))
    _TRACKED.append(("homogeneous", problem))
    r1 = estimate_energy_min(field, problem=problem)
    r2 = estimate_averaged(field, problem=problem, anchor=r1)
    r3 = estimate_self_consistent(field, problem=problem)
    r0 = estimate_naive(field, problem=problem, exterior=target)
    worst = max(
        float(np.linalg.norm(rep.matrix - target)) for rep in (r1, r2, r3, r0)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    return ok, (
        f"homogeneous medium recovered by all four estimators, worst "
        f"Frobenius error {worst:.1e} <= 1e-6, {elapsed:.1f}s <= 60s"
    )


@_criterion(2)
def test_criterion_02_one_dimensional_equality(capsys):
    # in 1D all routes must agree with the ball harmonic mean: to 1e-8 on the
    # closed-form backend, to 1e-4 through the h = 1e-3 FEM discretization
    rng = np.random.default_rng(2026)
    bounds = EllipticityBounds(1.0, 4.0)
    disc = Discretization(dim=1, L=2.0, h=1e-3)
    tight_opt = OptimizerOptions(grad_tol=1e-12, max_iters=500)
    tight_fp = FixedPointOptions(tol=1e-12, max_iters=500)
    worst_exact = worst_fem = slowest = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        # eight constant pieces; breakpoints land on the h grid so the
        # discrete field is exact and the error measures the estimators
        while True:
            bps = np.round(np.sort(rng.uniform(-0.95, 0.95, size=7)), 3)
            if np.all(np.diff(bps) >= 0.01):
                break
        values = rng.uniform(1.05, 3.95, size=8)
        field = make_one_dim_piecewise(bps.tolist(), values.tolist(), bounds)
        h_exact = harmonic_mean_1d(field)

        model = Harmonic1DModel(field)
        exact = (
            estimate_energy_min(field, problem=model, options=tight_opt),
            estimate_averaged(field, problem=model, options=tight_opt),
            estimate_self_consistent(field, problem=model, options=tight_fp),
        )
        worst_exact = max(
            worst_exact,
            *(abs(float(r.matrix[0, 0]) - h_exact) for r in exact),
        )

        problem = EmbeddedProblem(field, disc)
        _TRACKED.append(("one-dim", problem))
        fem = (
            estimate_energy_min(field, problem=problem),
            estimate_averaged(field, problem=problem),
            estimate_self_consistent(field, problem=problem),
        )
        worst_fem = max(
            worst_fem, *(abs(float(r.matrix[0, 0]) - h_exact) for r in fem)
        )
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst_exact <= 1e-8 and worst_fem <= 1e-4 and slowest <= 10.0
    return ok, (
        f"three estimators vs ball harmonic mean on 3 random 8-piece fields: "
        f"closed form {worst_exact:.1e} <= 1e-8, FEM {worst_fem:.1e} <= 1e-4, "
        f"slowest field {slowest:.1f}s <= 10s"
    )


@_criterion(3)
def test_criterion_03_isotropic_contrast_oracle(capsys):
    # unit-coefficient ball inside a 2I exterior: the e1 energy has the
    # closed-form value 2/3; refining h and enlarging L must both help
    t0 = time.perf_counter()
    bounds = EllipticityBounds(1.0, 2.0)
    field = make_constant(1.0, bounds, dim=2)
    exterior = 2.0 * np.eye(2)
    e1 = np.array([1.0, 0.0])
    errs = {}
    for L in (4.0, 8.0):
        for h in (0.04, 0.02):
            problem = EmbeddedProblem(field, Discretization(dim=2, L=L, h=h))
            _TRACKED.append((f"contrast L={L} h={h}", problem))
            sol = problem.solve(exterior, e1)
            errs[(L, h)] = abs(sol.energy - 2.0 / 3.0)
    elapsed = time.perf_counter() - t0
    finest = errs[(8.0, 0.02)]
    monotone = (
        errs[(4.0, 0.04)] > errs[(4.0, 0.02)] > errs[(8.0, 0.02)]
        and errs[(4.0, 0.04)] > errs[(8.0, 0.04)] > errs[(8.0, 0.02)]
    )
    ok = finest <= 2e-2 and monotone and elapsed <= 120.0
    grid = ", ".join(f"({L:g},{h:g})={e:.4f}" for (L, h), e in errs.items())
    return ok, (
        f"energy vs 2/3 closed form: finest error {finest:.4f} <= 2e-2, "
        f"monotone over {grid}, {elapsed:.0f}s <= 120s"
    )


@_criterion(4)
def test_criterion_04_naive_average_bias(capsys):
    # mismatched exterior: the plain flux average must sit at (4/3) I, far
    # from the medium I, showing the fixed exterior does not self-correct
    t0 = time.perf_counter()
    bounds = EllipticityBounds(1.0, 2.0)
    field = make_constant(1.0, bounds, dim=2)
    problem = EmbeddedProblem(field, Discretization(dim=2, L=8.0, h=0.025))
    _TRACKED.append(("naive-bias", problem))
    rep = estimate_naive(field, problem=problem, exterior=2.0 * np.eye(2))
    err = float(np.linalg.norm(rep.matrix - (4.0 / 3.0) * np.eye(2)))
    bias = float(np.linalg.norm(rep.matrix - np.eye(2)))
    elapsed = time.perf_counter() - t0
    ok = err <= 2e-2 and bias >= 0.3
    return ok, (
        f"flux average at exterior 2I: within {err:.4f} <= 2e-2 of (4/3)I, "
        f"{bias:.3f} >= 0.3 away from the medium, {elapsed:.0f}s"
    )


def test_far_field_limit_on_graded_boxes():
    # unit-coefficient ball in a 2I exterior: the energy matrix has the
    # closed form (2/3) I in the infinite exterior. On the graded mesh a box
    # of L = 512 costs a few times the dofs of L = 8; the truncation error
    # must fall from L = 8 to 64, after which the core h's error remains.
    # Jacobi CG must also converge on the L = 512 mesh, whose outer band
    # cells have aspect ratios up to ~L/h, and match the direct solve
    bounds = EllipticityBounds(1.0, 2.0)
    field = make_constant(1.0, bounds, dim=2)
    errs = {}
    for L in (8.0, 64.0, 512.0):
        problem = EmbeddedProblem(field, Discretization(dim=2, L=L, h=0.05))
        G = problem.energy_matrix(2.0 * np.eye(2))[0]
        errs[L] = float(np.abs(G - (2.0 / 3.0) * np.eye(2)).max())
        assert problem.mesh.n_dofs < 40_000
        assert problem.max_rel1_seen <= 1e-6
    assert errs[64.0] < errs[8.0] and errs[512.0] <= errs[64.0], errs
    cg = EmbeddedProblem(
        field, Discretization(dim=2, L=512.0, h=0.05, solver="cg"))
    assert np.abs(cg.energy_matrix(2.0 * np.eye(2))[0] - G).max() < 1e-8


@_criterion(5)
def test_criterion_05_trace_concavity(capsys):
    # the trace objective is concave in the exterior matrix: random chords
    # on a fixed checkerboard may dip below the graph only by solver noise
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    bounds = EllipticityBounds(1.0, 4.0)
    field = make_checkerboard([1.0, 4.0], [0.5, 0.5], 7, bounds)
    problem = EmbeddedProblem(field, Discretization(dim=2, L=2.0, h=0.1))
    _TRACKED.append(("concavity", problem))
    worst = np.inf
    for _ in range(50):
        a1 = _random_spd(rng, 1.2, 3.8)
        a2 = _random_spd(rng, 1.2, 3.8)
        lam = rng.uniform(0.0, 1.0)
        t_mid = problem.trace_objective(lam * a1 + (1.0 - lam) * a2)[0]
        chord = lam * problem.trace_objective(a1)[0] \
            + (1.0 - lam) * problem.trace_objective(a2)[0]
        worst = min(worst, t_mid - chord)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-8
    return ok, (
        f"50 random chords of the trace objective: worst concavity slack "
        f"{worst:.2e} >= -1e-8, {elapsed:.0f}s"
    )


@_criterion(6)
def test_criterion_06_energy_identity_everywhere(capsys):
    # both energy forms must agree on every solve the suites above performed
    if not _TRACKED:
        pytest.skip("audits the solves of criteria 1-5; run the full module")
    solves = sum(p.solve_count for _, p in _TRACKED)
    worst = max(p.max_rel1_seen for _, p in _TRACKED)
    ok = solves > 0 and worst <= 1e-6
    return ok, (
        f"energy identity residual on all {solves} solves of criteria 1-5: "
        f"worst {worst:.1e} <= 1e-6"
    )


@_criterion(7)
def test_criterion_07_envelope_gradient(capsys):
    # the closed-form ascent gradient must match central differences of the
    # trace objective on random (field, matrix, direction) triples
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    bounds = EllipticityBounds(1.0, 4.0)
    eps = 1e-5
    worst = 0.0
    for case in range(10):
        values = [float(rng.uniform(1.1, 2.0)), float(rng.uniform(2.5, 3.9))]
        field = make_checkerboard(values, [0.5, 0.5], 100 + case, bounds)
        problem = EmbeddedProblem(field, Discretization(dim=2, L=2.0, h=0.1))
        a = _random_spd(rng, 1.3, 3.7)
        _, grad = problem.trace_objective(a)
        scale = float(np.linalg.norm(grad))
        while True:
            # keep the direction away from the gradient's null directions so
            # the relative comparison is well conditioned
            d = rng.standard_normal((2, 2))
            d = d + d.T
            d /= np.linalg.norm(d)
            if abs(float(np.sum(grad * d))) >= 0.1 * scale:
                break
        derivative = float(np.sum(grad * d))
        fd = (
            problem.trace_objective(a + eps * d)[0]
            - problem.trace_objective(a - eps * d)[0]
        ) / (2.0 * eps)
        worst = max(worst, abs(derivative - fd) / abs(fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4
    return ok, (
        f"ascent gradient vs central differences on 10 random cases: worst "
        f"relative error {worst:.1e} <= 1e-4, {elapsed:.0f}s"
    )


@_criterion(8)
def test_criterion_08_scalar_bracket(capsys):
    # the scalar self-consistent gap must bracket a root between the
    # ellipticity bounds and bisect it to width 1e-6 within 40 iterations
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    bounds = EllipticityBounds(1.0, 4.0)
    opts = BisectOptions(tol=1e-6, max_iters=40)
    eye = np.eye(2)
    worst_lo, worst_hi, worst_iters = np.inf, -np.inf, 0
    all_converged = True
    for case in range(10):
        values = [float(rng.uniform(1.1, 2.4)), float(rng.uniform(2.6, 3.9))]
        field = make_checkerboard(values, [0.5, 0.5], 300 + case, bounds)
        problem = EmbeddedProblem(field, Discretization(dim=2, L=2.0, h=0.1))
        f_lo = problem.trace_objective(1.0 * eye)[0] / 2.0 - 1.0
        f_hi = problem.trace_objective(4.0 * eye)[0] / 2.0 - 4.0
        worst_lo = min(worst_lo, f_lo)
        worst_hi = max(worst_hi, f_hi)
        rep = estimate_self_consistent_scalar(field, problem=problem,
                                              options=opts)
        all_converged = all_converged and rep.converged
        worst_iters = max(worst_iters, rep.iterations)
    elapsed = time.perf_counter() - t0
    ok = (worst_lo >= -1e-3 and worst_hi <= 1e-3 and all_converged
          and worst_iters <= 40)
    return ok, (
        f"10 random two-phase boards: gap({bounds.alpha:g}) >= {worst_lo:.2e} "
        f">= -1e-3, gap({bounds.beta:g}) <= {worst_hi:.2e} <= 1e-3, bisection "
        f"width 1e-6 within {worst_iters} <= 40 iterations, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# criteria 9 and 10 run through the command line, as a user would
# ---------------------------------------------------------------------------

R_SWEEP_CONFIG = """\
name: rconv-R{R}
dim: 2
bounds: {{alpha: 1.0, beta: 4.0}}
field:
  kind: checkerboard
  values: [1.0, 4.0]
  probabilities: [0.5, 0.5]
  seed: 11
method: [energy_min, periodic_ref]
rescale: {R}
discretization: {{L: 4.0, h: 0.03125}}
periodic: {{divisions: 64}}
optimizer: {{grad_tol: 1e-3}}
sweep:
  parameter: seed
  values: [11, 12, 13, 14, 15]
"""

RADII = (2, 4, 8)


def _run_sweeps(root):
    csvs, codes = {}, {}
    for r in RADII:
        cfg = root / f"rconv_R{r}.yaml"
        cfg.write_text(R_SWEEP_CONFIG.format(R=r))
        out = root / f"R{r}"
        codes[r] = cli_main(["run", str(cfg), "--out-dir", str(out)])
        csvs[r] = out / "results.csv"
    return csvs, codes


def _half_traces(path):
    """Per-method list of (a_00 + a_11)/2, in sweep order."""
    by_method = {}
    _, *rows = path.read_text().strip().split("\n")
    for row in rows:
        cells = row.split(",")
        half = 0.5 * (float(cells[2]) + float(cells[5]))
        by_method.setdefault(cells[1], []).append(half)
    return by_method


def _csv_without_wall(path):
    lines = path.read_text().strip().split("\n")
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


@pytest.fixture(scope="module")
def r_sweep_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("rconv")
    t0 = time.perf_counter()
    csvs, codes = _run_sweeps(root)
    return {"csvs": csvs, "codes": codes,
            "elapsed": time.perf_counter() - t0}


@pytest.mark.slow
@_criterion(9)
def test_criterion_09_ball_radius_convergence(capsys, r_sweep_run):
    # growing the heterogeneity radius R must shrink the seed-to-seed spread
    # of the energy estimator and pull its ensemble mean onto the periodic
    # reference computed from the same fields
    if any(code != 0 for code in r_sweep_run["codes"].values()):
        return False, f"runner exit codes {r_sweep_run['codes']}"
    spreads, means = {}, {}
    for r, path in r_sweep_run["csvs"].items():
        traces = _half_traces(path)
        spreads[r] = max(traces["energy_min"]) - min(traces["energy_min"])
        means[r] = {m: float(np.mean(v)) for m, v in traces.items()}
    gap = abs(means[8]["energy_min"] - means[8]["periodic_ref"])
    elapsed = r_sweep_run["elapsed"]
    ok = (spreads[2] > spreads[4] > spreads[8] and gap <= 0.15
          and elapsed <= 900.0)
    return ok, (
        f"5-seed half-trace spread {spreads[2]:.3f} > {spreads[4]:.3f} > "
        f"{spreads[8]:.3f} over R=2,4,8; mean gap to periodic reference at "
        f"R=8 {gap:.3f} <= 0.15; {elapsed:.0f}s <= 900s"
    )


@pytest.mark.slow
@_criterion(10)
def test_criterion_10_rerun_determinism(capsys, r_sweep_run, tmp_path_factory):
    # identical configs must reproduce every CSV byte-for-byte outside the
    # wall-clock column
    if any(code != 0 for code in r_sweep_run["codes"].values()):
        return False, f"first runner pass exit codes {r_sweep_run['codes']}"
    root = tmp_path_factory.mktemp("rconv-again")
    csvs, codes = _run_sweeps(root)
    if any(code != 0 for code in codes.values()):
        return False, f"second runner pass exit codes {codes}"
    same = all(
        _csv_without_wall(r_sweep_run["csvs"][r]) == _csv_without_wall(csvs[r])
        for r in RADII
    )
    return same, (
        "rerun CSV numeric content byte-identical for R=2,4,8 "
        "(wall-clock column excluded)"
    )
