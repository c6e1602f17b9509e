"""Fast self-test of the benchmark on tiny sizes (a few seconds).

    python3 perfbench/selftest.py        # from the repository root

Each workload runs in this process on tiny inputs. The checks must hold on
the program's real outputs, and each check must fail when it is fed a wrong
answer: a perturbed matrix, a reversed ascent trace, a broken closed form. A
traced tiny run must pass the solve-count cross-check, and fail it when one
counter is off by one. Exits 1 if any of this does not happen.
"""

import copy
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "rconv_point": dict(R=8.0, L=2.0, h=0.0625, divisions=32, grad_tol=1e-3),
    "fixed_points": dict(R=2.0, L=2.0, h=0.1, divisions=16),
    "far_field_oracle": dict(meshes=[[2.0, 0.05, "direct"], [3.0, 0.05, "cg"]]),
}


def _set(path, value):
    """Mutation that replaces ev[path[0]][path[1]]... with value(old)."""
    def mutate(ev):
        node = ev
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
    return mutate


def _flipped_eshelby(alpha, gamma, d):
    return (alpha - gamma) / ((d - 1) * gamma + alpha)


MUTATIONS = {
    "far_field_oracle": [
        ("G off the closed form", _set([0, "G"], lambda G: G + 0.3 * np.eye(2)), "|G -"),
        ("flux off the closed form", _set([1, "flux"], lambda F: F - 0.2 * np.eye(2)), "|flux -"),
        ("G00 != G11", _set([1, "G"], lambda G: G * np.diag([1.0, 1.0 + 1e-6])), "G00 != G11"),
        ("energy identity broken", _set([0, "max_rel1"], lambda _: 1e-3), "energy-identity"),
        ("error grows with L", lambda ev: ev.reverse(), "does not fall"),
    ],
    "rconv_point": [
        ("run failed", _set(["exit"], lambda _: 3), "exited"),
        ("not converged", _set(["reports", "energy_min", "converged"], lambda _: False),
         "did not converge"),
        ("spectrum outside bounds",
         _set(["reports", "energy_min", "matrix"], lambda A: (3.0 * np.asarray(A)).tolist()),
         "spectrum"),
        ("ascent trace reversed", _set(["reports", "energy_min", "trace"], lambda t: t[::-1]),
         "decreases"),
        ("objective above the w=0 bound",
         _set(["reports", "energy_min", "objective"], lambda o: o + 10.0), "Tr(ball mean)"),
        ("periodic_ref below Reuss", lambda ev: ev["reports"]["periodic_ref"].update(
            matrix=(ev["cell"][0] - 0.01 * np.eye(2)).tolist()), "Reuss bound"),
        ("periodic_ref above Voigt", lambda ev: ev["reports"]["periodic_ref"].update(
            matrix=(ev["cell"][1] + 0.01 * np.eye(2)).tolist()), "Voigt bound"),
        ("energy_min above the ball's Voigt mean", lambda ev: ev["reports"]["energy_min"].update(
            matrix=(ev["ball"][1] + 0.05 * np.eye(2)).tolist()), "Reuss-Voigt interval"),
        ("energy_min below the ball's Reuss mean", lambda ev: ev["reports"]["energy_min"].update(
            matrix=(ev["ball"][0] - 0.05 * np.eye(2)).tolist()), "Reuss-Voigt interval"),
    ],
    "fixed_points": [
        ("run failed", _set(["exit"], lambda _: 3), "exited"),
        ("self_consistent answer moved",
         lambda ev: ev.update(sc=(ev["sc"][0] + 1e-3 * np.eye(2), ev["sc"][1])), "|G(A) - A|"),
        ("self_consistent_scalar answer moved",
         lambda ev: ev.update(scalar=(ev["scalar"][0] + 1e-3, ev["scalar"][1])), "Tr G(aI)/d"),
        ("energy_min answer not a maximizer",
         lambda ev: ev.update(maximizer=(ev["maximizer"][0] - 1e-3, ev["maximizer"][1])),
         "perturbation raises"),
    ],
}


def evidence(name, rundir):
    workload = workloads.WORKLOADS[name]
    rundir.mkdir(parents=True)
    workload.prepare(workload.default_seed, rundir, **TINY[name])
    outcome = workload.run(rundir)
    return workload, outcome, workload.evidence(rundir, outcome)


def main():
    root = HERE / "out" / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    problems = []
    try:
        for name, cases in MUTATIONS.items():
            workload, outcome, ev = evidence(name, root / name)
            got = workload.check(ev)
            if outcome["failed"] or got:
                problems.append(f"{name}: real tiny outputs fail: {got}")
            for label, mutate, expect in cases:
                bad = copy.deepcopy(ev)
                mutate(bad)
                if not any(expect in f for f in workload.check(bad)):
                    problems.append(f"{name}: '{label}' passed the checks")
            if name == "far_field_oracle":
                saved = checks.eshelby_factor
                checks.eshelby_factor = _flipped_eshelby
                try:
                    if not workload.check(ev):
                        problems.append("far_field_oracle: a broken closed form passed")
                finally:
                    checks.eshelby_factor = saved

        # last, since wrapping patches the package for the rest of the process
        tracer = tracing.Tracer()
        tracing.install(tracer)
        evidence("fixed_points", root / "traced")
        tracer.enabled = False
        layers = tracing.layer_metrics(tracer, import_s=0.0)
        if tracing.cross_check(tracer, layers):
            problems.append(f"solve counts disagree: {tracing.cross_check(tracer, layers)}")
        for key in ("fem.factorizations", "fem.solves", "corrector.energies_calls",
                    "estimators.self_consistent_iterations", "fem.lu_nnz"):
            if not layers[key] > 0:
                problems.append(f"traced run reports {key} = {layers[key]}")
        tracer.problems[0].solve_count += 1
        if not tracing.cross_check(tracer, layers):
            problems.append("an off-by-one solve count passed the cross-check")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for p in problems:
        print(f"selftest: FAIL {p}")
    n = sum(len(c) for c in MUTATIONS.values()) + 2
    print(f"selftest: {'FAIL' if problems else 'ok'} "
          f"({n} wrong answers fed, {len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
