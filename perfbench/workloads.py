"""The three workloads: inputs made from a seed, the timed body, the checks.

Each workload has four steps:

* `prepare(field_seed, rundir, **sizes)` writes the program's inputs (a
  YAML config, or the mesh list) into rundir. It runs in the benchmark's
  parent process, so the program sees only the generated files.
* `run(rundir)` is the timed part: the `embedhom run` CLI entry point or the
  library API, as a user calls them. It returns the number of operations
  attempted and failed, plus whatever `evidence` needs.
* `evidence(rundir, outcome)` collects what the checks compare, including any
  extra solves; it runs after the timer has stopped.
* `check(evidence)` returns the list of failed checks (see checks.py).

One operation is one estimate (one report), or one energy-matrix evaluation
in far_field_oracle.
"""

import json

import numpy as np

import checks

RCONV_CONFIG = """\
name: rconv-point
dim: 2
bounds: {{alpha: 1.0, beta: 4.0}}
field:
  kind: checkerboard
  values: [1.0, 4.0]
  probabilities: [0.5, 0.5]
  seed: {seed}
method: [energy_min, periodic_ref]
rescale: {R}
discretization: {{L: {L}, h: {h}}}
periodic: {{divisions: {divisions}}}
optimizer: {{grad_tol: {grad_tol}}}
"""

FIXED_CONFIG = """\
name: fixed-points
dim: 2
bounds: {{alpha: 1.0, beta: 5.0}}
field:
  kind: inclusions
  exterior: 1.0
  interior_values: [5.0, [[3.0, 1.0], [1.0, 2.0]]]
  interior_probabilities: [0.5, 0.5]
  r_min: 0.2
  r_max: 0.4
  seed: {seed}
method: all
rescale: {R}
discretization: {{L: {L}, h: {h}}}
periodic: {{divisions: {divisions}}}
"""


def _midpoints(lo, hi, n):
    t = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(t, t, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


class CliWorkload:
    """A single-point config run through `embedhom run`, one report a method."""

    template = None
    methods = ()
    sizes = {}

    def prepare(self, field_seed, rundir, **sizes):
        params = {**self.sizes, **sizes, "seed": int(field_seed)}
        (rundir / "config.yaml").write_text(self.template.format(**params))

    def run(self, rundir):
        from embedhom.cli import main
        code = main(["run", str(rundir / "config.yaml"),
                     "--out-dir", str(rundir / "out")])
        reports = {}
        for m in self.methods:
            path = rundir / "out" / f"{m}.json"
            payload = json.loads(path.read_text()) if path.exists() else {}
            reports[m] = payload.get("report")
        failed = sum(r is None for r in reports.values())
        return {"attempted": len(self.methods), "failed": failed,
                "exit": code, "reports": reports}

    @staticmethod
    def load(rundir):
        """(config, base field, embedded field) rebuilt from the input file."""
        from embedhom.config import load_config
        from embedhom.fields import rescale
        cfg = load_config(rundir / "config.yaml")
        base = cfg.build_field()
        return cfg, base, rescale(base, cfg.rescale)


class RconvPoint(CliWorkload):
    name = "rconv_point"
    # criterion 9's first seed, whatever --seed says: another realization
    # moves the ascent between 22 and 28 steps, a +-12% swing in the work
    default_seed = 11
    seeded = False
    template = RCONV_CONFIG
    methods = ("energy_min", "periodic_ref")
    # criterion 9's R = 8, L = 4 point on a mesh twice as coarse (h = 1/16,
    # 16k dofs): a round takes ~4 s, so a run holds several rounds
    sizes = dict(R=8.0, L=4.0, h=0.0625, divisions=64, grad_tol=1e-3)

    def evidence(self, rundir, outcome):
        cfg, base, field = self.load(rundir)
        ball = _midpoints(-1.0, 1.0, 800)
        ball = ball[np.einsum("nd,nd->n", ball, ball) <= 1.0]
        # the periodic cell is x -> base(R x) on (-1/2, 1/2)^2
        cell = _midpoints(-0.5, 0.5, 256) * cfg.rescale
        return {"exit": outcome["exit"], "reports": outcome["reports"],
                "bounds": (cfg.bounds.alpha, cfg.bounds.beta),
                "ball": checks.reuss_voigt(field.evaluate(ball)),
                "cell": checks.reuss_voigt(base.evaluate(cell))}

    def check(self, ev):
        out = [] if ev["exit"] == 0 else [f"embedhom run exited {ev['exit']}"]
        return out + checks.rconv_point(
            ev["reports"]["energy_min"], ev["reports"]["periodic_ref"],
            ev["bounds"], ev["ball"], ev["cell"])


class FixedPoints(CliWorkload):
    name = "fixed_points"
    default_seed = 5
    seeded = True         # --seed is the field seed
    template = FIXED_CONFIG
    methods = ("naive", "energy_min", "averaged", "self_consistent",
               "self_consistent_scalar", "periodic_ref")
    sizes = dict(R=3.0, L=3.0, h=0.05, divisions=64)
    step = 1e-2   # size of the perturbations of the energy_min answer

    def evidence(self, rundir, outcome):
        from embedhom.corrector import EmbeddedProblem
        from embedhom.matrices import is_admissible
        cfg, _, field = self.load(rundir)
        problem = EmbeddedProblem(field, cfg.disc)
        reports = outcome["reports"]
        ev = {"exit": outcome["exit"], "sc": None, "scalar": None,
              "maximizer": None}
        if reports["self_consistent"] is not None:
            A = np.asarray(reports["self_consistent"]["matrix"])
            ev["sc"] = (A, problem.energy_matrix(A)[0])
        if reports["self_consistent_scalar"] is not None:
            a = reports["self_consistent_scalar"]["matrix"][0][0]
            ev["scalar"] = (a, problem.trace_objective(a * np.eye(2))[0] / 2)
        if reports["energy_min"] is not None:
            A = np.asarray(reports["energy_min"]["matrix"])
            best = problem.trace_objective(A)[0]
            others = []
            for E in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                      np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)):
                for sign in (1.0, -1.0):
                    trial = A + sign * self.step * E
                    if is_admissible(trial, cfg.bounds):
                        others.append(problem.trace_objective(trial)[0])
            ev["maximizer"] = (best, others)
        return ev

    def check(self, ev):
        out = [] if ev["exit"] == 0 else [f"embedhom run exited {ev['exit']}"]
        return out + checks.fixed_points(ev["sc"], ev["scalar"], ev["maximizer"])


class FarFieldOracle:
    """Library calls on a unit ball inside a 2I exterior, on two boxes.

    A mesh is (L, h, solver): the first box (40k dofs) takes the direct
    path, the second (102k dofs) asks for Jacobi CG by name, so both solver
    paths run in a round of ~5 s.
    """

    name = "far_field_oracle"
    default_seed = None   # the inputs are fixed closed-form cases
    seeded = False
    meshes = ((4.0, 0.04, "direct"), (8.0, 0.05, "cg"))
    exterior = 2.0

    def prepare(self, _field_seed, rundir, meshes=None):
        (rundir / "inputs.json").write_text(
            json.dumps({"meshes": meshes or self.meshes}))

    def run(self, rundir):
        from embedhom import (Discretization, EllipticityBounds, EmbedHomError,
                              EmbeddedProblem, estimate_naive, make_constant)
        meshes = json.loads((rundir / "inputs.json").read_text())["meshes"]
        field = make_constant(1.0, EllipticityBounds(1.0, self.exterior), dim=2)
        exterior = self.exterior * np.eye(2)
        records, failed = [], 0
        for L, h, solver in meshes:
            problem = EmbeddedProblem(
                field, Discretization(dim=2, L=L, h=h, solver=solver))
            rec = {"L": L, "h": h}
            try:
                rec["flux"] = estimate_naive(field, problem=problem,
                                             exterior=exterior).matrix
            except EmbedHomError:
                failed += 1
            try:
                rec["G"] = problem.energy_matrix(exterior)[0]
            except EmbedHomError:
                failed += 1
            rec["max_rel1"] = problem.max_rel1_seen
            records.append(rec)
            del problem
        return {"attempted": 2 * len(meshes), "failed": failed,
                "records": records}

    def evidence(self, rundir, outcome):
        return outcome["records"]

    def check(self, ev):
        return checks.far_field(ev, alpha=1.0, gamma=self.exterior)


WORKLOADS = {w.name: w for w in (RconvPoint(), FixedPoints(), FarFieldOracle())}
