"""Symmetric matrices with spectrum inside prescribed ellipticity bounds.

The admissible set M consists of symmetric d x d matrices whose eigenvalues
lie in [alpha, beta] with 0 < alpha <= beta. Everything downstream (coefficient
fields, exterior matrices, estimator iterates) lives in or is projected onto
this set.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoefficientError

# Tolerance for "exact" symmetry checks: assembly and projection produce
# matrices symmetric to roundoff, not to zero.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class EllipticityBounds:
    """Spectral bounds 0 < alpha <= beta for admissible matrices."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.beta):
            raise InvalidCoefficientError(
                f"ellipticity bounds need 0 < alpha <= beta, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


def as_spd(value, dim):
    """Coerce a scalar or array-like into a (dim, dim) float matrix.

    Scalars mean multiples of the identity.
    """
    if np.isscalar(value):
        return float(value) * np.eye(dim)
    mat = np.asarray(value, dtype=float)
    if mat.shape != (dim, dim):
        raise InvalidCoefficientError(
            f"expected a {dim}x{dim} matrix, got shape {mat.shape}"
        )
    return mat


def symmetric_basis(dim):
    """The unit directions U_k of symmetric matrices, (m, dim, dim) with
    m = dim (dim + 1) / 2: e_a e_a^T on the diagonal, e_a e_b^T + e_b e_a^T
    off it, for a <= b in np.triu_indices order. A symmetric A is
    sum_k A[triu_k] U_k; these are the coordinates of the estimators'
    second-order steps.
    """
    upper = np.triu_indices(dim)
    basis = np.zeros((len(upper[0]), dim, dim))
    for k, (a, b) in enumerate(zip(*upper)):
        basis[k, a, b] = basis[k, b, a] = 1.0
    return basis


def check_admissible(mat, bounds, tol=1e-10, what="matrix"):
    """Validate symmetry and spectrum in [alpha, beta]; return the matrix.

    `tol` absorbs roundoff in eigenvalues; symmetry is held to SYMMETRY_TOL
    relative to the matrix scale.
    """
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[0]
    if mat.shape != (d, d):
        raise InvalidCoefficientError(f"{what} is not square: shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > SYMMETRY_TOL * scale:
        raise InvalidCoefficientError(f"{what} is not symmetric: {mat.tolist()}")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] < bounds.alpha - tol or eigs[-1] > bounds.beta + tol:
        raise InvalidCoefficientError(
            f"{what} has spectrum [{eigs[0]:.6g}, {eigs[-1]:.6g}] outside "
            f"[{bounds.alpha:.6g}, {bounds.beta:.6g}]"
        )
    return mat


def is_admissible(mat, bounds, tol=1e-10):
    try:
        check_admissible(mat, bounds, tol=tol)
        return True
    except InvalidCoefficientError:
        return False


def project_to_admissible(mat, bounds):
    """Project a matrix onto M: symmetrize, then clamp eigenvalues to [alpha, beta].

    This is the Frobenius-nearest point of M for symmetric input.
    """
    sym = 0.5 * (np.asarray(mat, dtype=float) + np.asarray(mat, dtype=float).T)
    eigs, vecs = np.linalg.eigh(sym)
    clamped = np.clip(eigs, bounds.alpha, bounds.beta)
    return (vecs * clamped) @ vecs.T
