"""Correctness checks on the workloads' outputs.

Every check takes plain numbers and returns a list of failure messages; an
empty list means it holds. The reference values are computed here (closed
forms, Reuss-Voigt bounds, perturbation tests), never imported from the
package, and no check compares against a stored copy of earlier output.
Tolerances leave room for a method that gets more accurate.
"""

import numpy as np

# -- closed forms ------------------------------------------------------------


def eshelby_factor(alpha, gamma, d):
    """Interior gradient factor of a ball alpha*I inside gamma*I: grad w = C p."""
    return (gamma - alpha) / ((d - 1) * gamma + alpha)


def eshelby_targets(alpha, gamma, d):
    """(energy matrix, flux average) of that ball problem, as scalars times I.

    Inside the ball the corrected gradient is (1 + C) p, so the flux average
    is alpha (1 + C) and the energy alpha (1 + C) - gamma C.
    """
    c = eshelby_factor(alpha, gamma, d)
    return alpha + (alpha - gamma) * c, alpha * (1.0 + c)


def reuss_voigt(values):
    """Harmonic and arithmetic means of a stack of SPD matrices (n, d, d)."""
    voigt = values.mean(axis=0)
    reuss = np.linalg.inv(np.linalg.inv(values).mean(axis=0))
    return reuss, voigt


def _sym(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _fail_if(cond, message):
    return [message] if cond else []


# -- far_field_oracle --------------------------------------------------------


def far_field(meshes, alpha=1.0, gamma=2.0, rel1_cap=1e-6):
    """Constant alpha ball in a gamma exterior, one record per mesh.

    A record holds L, G (energy matrix at gamma*I), flux (naive flux
    average) and max_rel1. The truncation error of the box decays like
    L^-d, so each mesh must be within L^-d of the closed forms; the error
    must fall from the first mesh to the last unless both are already
    below 1e-3.
    """
    out = []
    d = 2
    g, f = eshelby_targets(alpha, gamma, d)
    errors = []
    for rec in meshes:
        tag = f"L={rec['L']:g}"
        if "G" not in rec or "flux" not in rec:
            continue
        G, F = np.asarray(rec["G"]), np.asarray(rec["flux"])
        err_g = float(np.abs(G - g * np.eye(d)).max())
        err_f = float(np.abs(F - f * np.eye(d)).max())
        errors.append(max(err_g, err_f))
        cap = rec["L"] ** -d
        out += _fail_if(err_g > cap, f"{tag}: |G - {g:.6f} I| = {err_g:.3e} > {cap:.3e}")
        out += _fail_if(err_f > cap, f"{tag}: |flux - {f:.6f} I| = {err_f:.3e} > {cap:.3e}")
        # the alternating-diagonal mesh is symmetric under x <-> y
        for label, M in (("G", G), ("flux", F)):
            asym = abs(M[0, 0] - M[1, 1]) / abs(M[0, 0])
            out += _fail_if(asym > 1e-9, f"{tag}: {label}00 != {label}11 (rel {asym:.2e})")
        out += _fail_if(rec["max_rel1"] > rel1_cap,
                        f"{tag}: energy-identity residual {rec['max_rel1']:.2e} > {rel1_cap:g}")
    if len(errors) >= 2 and errors[-1] >= errors[0] and errors[0] > 1e-3:
        out.append(f"error does not fall with the box: {errors[0]:.3e} -> {errors[-1]:.3e}")
    return out


# -- rconv_point -------------------------------------------------------------


def rconv_point(energy_min, periodic, bounds, ball, cell):
    """energy_min and periodic_ref reports at one criterion-9 sweep point.

    ball and cell are the (Reuss, Voigt) means of the field over the unit
    ball and over the periodic cell, computed by the benchmark from the field
    values. The w = 0 corrector bounds every unit-slope energy by the ball
    mean, so the objective (a trace) is at most Tr(ball Voigt). The periodic
    reference lies between the cell's bounds; the energy_min half-trace lies
    between the ball's (the sample it sees).
    """
    out = []
    lo, hi = bounds
    half = lambda M: 0.5 * float(np.trace(np.asarray(M)))  # noqa: E731
    if energy_min is not None:
        A = np.asarray(energy_min["matrix"])
        eigs = np.linalg.eigvalsh(_sym(A))
        out += _fail_if(not energy_min["converged"], "energy_min did not converge")
        out += _fail_if(eigs[0] < lo - 1e-8 or eigs[-1] > hi + 1e-8,
                        f"energy_min spectrum {eigs} outside [{lo}, {hi}]")
        trace = np.asarray(energy_min["trace"])
        drops = np.flatnonzero(np.diff(trace) < 0)
        out += _fail_if(drops.size > 0, f"ascent trace decreases at steps {drops.tolist()}")
        bound = 2.0 * half(ball[1])
        out += _fail_if(energy_min["objective"] > bound + 1e-2,
                        f"objective {energy_min['objective']:.6f} > Tr(ball mean) {bound:.6f}")
        h, (r, v) = half(A), (half(ball[0]), half(ball[1]))
        out += _fail_if(not r - 1e-2 <= h <= v + 1e-2,
                        f"energy_min half-trace {h:.4f} outside the ball's "
                        f"Reuss-Voigt interval [{r:.4f}, {v:.4f}]")
    if periodic is not None:
        P = _sym(periodic["matrix"])
        below = np.linalg.eigvalsh(P - cell[0])[0]
        above = np.linalg.eigvalsh(cell[1] - P)[0]
        out += _fail_if(below < -1e-9, f"periodic_ref below the Reuss bound ({below:.2e})")
        out += _fail_if(above < -1e-9, f"periodic_ref above the Voigt bound ({above:.2e})")
    return out


# -- fixed_points ------------------------------------------------------------


def fixed_points(sc=None, scalar=None, maximizer=None):
    """Properties of the fixed-point and maximization answers.

    sc: (A, G(A)) at the self_consistent answer; scalar: (a, (1/d) Tr G(aI))
    at the self_consistent_scalar answer; maximizer: (Tr G at the energy_min
    answer, [Tr G at small admissible perturbations of it]).
    """
    out = []
    if sc is not None:
        A, G = (np.asarray(x) for x in sc)
        res = float(np.linalg.norm(G - A))
        out += _fail_if(res > 1e-6, f"self_consistent: |G(A) - A| = {res:.2e} > 1e-6")
    if scalar is not None:
        a, value = scalar
        gap = abs(value - a)
        out += _fail_if(gap > 1e-5, f"self_consistent_scalar: |Tr G(aI)/d - a| = {gap:.2e} > 1e-5")
    if maximizer is not None:
        best, others = maximizer
        worst = max(others) - best
        out += _fail_if(worst > 1e-9 * abs(best),
                        f"energy_min: a perturbation raises Tr G by {worst:.2e}")
    return out
