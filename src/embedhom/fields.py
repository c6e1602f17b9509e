"""Matrix-valued coefficient fields on R^d.

A field maps points to symmetric matrices with spectrum in fixed ellipticity
bounds [alpha, beta]. Evaluation is pure and vectorized: random kinds
(checkerboard, inclusions) derive every per-cell draw from a counter-based
hash of (seed, cell index), so results are reproducible across processes and
independent of evaluation order -- there is no global RNG state.

Supported kinds: constant, laminate, checkerboard, inclusions,
one_dim_piecewise, plus rescaling x -> A(R x).
"""

import numpy as np

from .errors import GeometryError, InvalidCoefficientError
from .matrices import as_spd, check_admissible

# ---------------------------------------------------------------------------
# counter-based hashing (splitmix64 finalizer chain)
# ---------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def _mix(z):
    # uint64 wraparound is the point; keep z an array so numpy stays quiet
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_words(seed, words):
    """Hash a sequence of uint64 word arrays into one uint64 array.

    Each word feeds a splitmix64 step, so any change of any word avalanches.
    """
    h0 = (int(seed) + int(_GAMMA)) & _MASK64
    h = _mix(np.full(words[0].shape, h0, dtype=np.uint64))
    for w in words:
        h = _mix(h + _GAMMA + w)
    return h


def cell_uniform(seed, cells, stream):
    """Uniform (0,1) draw per integer cell, keyed by (seed, cell, stream).

    cells: (n, d) int64 array of lattice coordinates. Distinct streams give
    independent draws for the same cell (radius vs jitter vs phase...).
    """
    cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
    words = [np.uint64(stream) * np.ones(cells.shape[0], dtype=np.uint64)]
    for k in range(cells.shape[1]):
        words.append(cells[:, k].astype(np.uint64))
    h = _hash_words(seed, words)
    # top 53 bits, offset by half an ulp: strictly inside (0, 1)
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _pick_from_law(u, cumprobs):
    """Map uniforms to category indices via the cumulative law."""
    return np.minimum(
        np.searchsorted(cumprobs, u, side="right"), len(cumprobs) - 1
    )


def _check_law(values, probabilities, dim, bounds):
    mats = np.stack([check_admissible(as_spd(v, dim), bounds) for v in values])
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (len(mats),):
        raise InvalidCoefficientError(
            f"law needs one probability per value: {len(mats)} values, "
            f"shape {probs.shape} probabilities"
        )
    if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
        raise InvalidCoefficientError(
            f"probabilities must be nonnegative and sum to 1 within 1e-12, "
            f"got sum {probs.sum()!r}"
        )
    return mats, probs


# ---------------------------------------------------------------------------
# field kinds
# ---------------------------------------------------------------------------


class CoefficientField:
    """Base class: a pure map from points to admissible matrices."""

    kind = "abstract"

    def __init__(self, dim, bounds):
        if dim not in (1, 2, 3):
            raise InvalidCoefficientError(f"dim must be 1, 2 or 3, got {dim}")
        self.dim = dim
        self.bounds = bounds

    def evaluate(self, points):
        """Evaluate at points of shape (n, dim); returns (n, dim, dim)."""
        raise NotImplementedError

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.evaluate(x.reshape(1, self.dim))[0]

    def breakpoints_1d(self, lo, hi):
        """Sorted discontinuity locations in (lo, hi); 1D piecewise kinds only."""
        raise NotImplementedError(
            f"field kind {self.kind!r} does not expose 1D breakpoints"
        )

    def describe(self):
        """JSON-able parameter summary for report provenance."""
        return {"kind": self.kind, "dim": self.dim,
                "bounds": [self.bounds.alpha, self.bounds.beta]}


class ConstantField(CoefficientField):
    kind = "constant"

    def __init__(self, matrix, bounds, dim=None):
        matrix = as_spd(matrix, dim) if dim is not None else np.asarray(matrix, float)
        if matrix.ndim != 2:
            raise InvalidCoefficientError("constant field needs a matrix")
        super().__init__(matrix.shape[0], bounds)
        self.matrix = check_admissible(matrix, bounds, what="constant field value")

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(
            self.matrix, (points.shape[0], self.dim, self.dim)
        ).copy()

    def breakpoints_1d(self, lo, hi):
        return np.empty(0)

    def describe(self):
        out = super().describe()
        out["matrix"] = self.matrix.tolist()
        return out


class CheckerboardField(CoefficientField):
    """I.i.d. per-unit-cell draws from a finite law of matrices.

    The value on cell k = floor(x) is values[j] with probability
    probabilities[j], independently across cells.
    """

    kind = "checkerboard"
    _STREAM_VALUE = 11

    def __init__(self, values, probabilities, seed, bounds, dim=2):
        super().__init__(dim, bounds)
        self.values, self.probabilities = _check_law(
            values, probabilities, dim, bounds
        )
        self.cumprobs = np.cumsum(self.probabilities)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def cell_indices(self, cells):
        """Law index per integer cell, shape (n,). Exposed for statistics tests."""
        u = cell_uniform(self.seed, cells, self._STREAM_VALUE)
        return _pick_from_law(u, self.cumprobs)

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        cells = np.floor(points).astype(np.int64)
        return self.values[self.cell_indices(cells)]

    def breakpoints_1d(self, lo, hi):
        if self.dim != 1:
            return super().breakpoints_1d(lo, hi)
        first = np.floor(lo) + 1.0
        return np.arange(first, hi, 1.0)

    def describe(self):
        out = super().describe()
        out.update(values=self.values.tolist(),
                   probabilities=self.probabilities.tolist(), seed=self.seed)
        return out


class InclusionField(CoefficientField):
    """One random ball per unit cell, constant matrix outside the balls.

    Per cell: radius uniform on [r_min, r_max] (a point mass if equal), the
    center jittered uniformly so the ball stays strictly inside its cell
    (hence balls of distinct cells never overlap), and the interior value
    drawn from a finite law. r_max < 1/2 is required for the containment.
    """

    kind = "inclusions"
    _STREAM_RADIUS = 23
    _STREAM_VALUE = 29
    _STREAM_JITTER = 31  # + axis

    def __init__(self, exterior, interior_values, interior_probabilities,
                 r_min, r_max, seed, bounds, dim=2, jitter=True):
        super().__init__(dim, bounds)
        self.exterior = check_admissible(
            as_spd(exterior, dim), bounds, what="exterior value"
        )
        self.interior_values, self.interior_probabilities = _check_law(
            interior_values, interior_probabilities, dim, bounds
        )
        self.cumprobs = np.cumsum(self.interior_probabilities)
        if not (0.0 <= r_min <= r_max):
            raise GeometryError(f"need 0 <= r_min <= r_max, got [{r_min}, {r_max}]")
        if r_max >= 0.5:
            raise GeometryError(
                f"r_max={r_max} >= 1/2: a ball of that radius cannot stay "
                "strictly inside its unit cell"
            )
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        self.jitter = bool(jitter)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def cell_geometry(self, cells):
        """(centers, radii) of the balls for integer cells of shape (n, d)."""
        cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
        u_r = cell_uniform(self.seed, cells, self._STREAM_RADIUS)
        radii = self.r_min + u_r * (self.r_max - self.r_min)
        centers = cells.astype(float) + 0.5
        if self.jitter:
            for ax in range(self.dim):
                u = cell_uniform(self.seed, cells, self._STREAM_JITTER + ax)
                centers[:, ax] = cells[:, ax] + radii + u * (1.0 - 2.0 * radii)
        return centers, radii

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        cells = np.floor(points).astype(np.int64)
        centers, radii = self.cell_geometry(cells)
        inside = np.einsum("nd,nd->n", points - centers, points - centers) < radii**2
        out = np.broadcast_to(
            self.exterior, (points.shape[0], self.dim, self.dim)
        ).copy()
        if inside.any():
            u_v = cell_uniform(self.seed, cells[inside], self._STREAM_VALUE)
            out[inside] = self.interior_values[_pick_from_law(u_v, self.cumprobs)]
        return out

    def breakpoints_1d(self, lo, hi):
        if self.dim != 1:
            return super().breakpoints_1d(lo, hi)
        cells = np.arange(np.floor(lo), np.floor(hi) + 1, dtype=np.int64)
        centers, radii = self.cell_geometry(cells.reshape(-1, 1))
        pts = np.concatenate([centers[:, 0] - radii, centers[:, 0] + radii])
        pts = pts[(pts > lo) & (pts < hi) & (np.repeat(radii, 2) > 0)]
        return np.sort(pts)

    def describe(self):
        out = super().describe()
        out.update(exterior=self.exterior.tolist(),
                   interior_values=self.interior_values.tolist(),
                   interior_probabilities=self.interior_probabilities.tolist(),
                   r_min=self.r_min, r_max=self.r_max,
                   jitter=self.jitter, seed=self.seed)
        return out


class LaminateField(CoefficientField):
    """Periodic equal-width slabs of two phases, normal to one axis."""

    kind = "laminate"

    def __init__(self, a1, a2, axis, period, bounds, dim=2):
        super().__init__(dim, bounds)
        if not 0 <= axis < dim:
            raise GeometryError(f"laminate axis {axis} out of range for dim {dim}")
        if period <= 0:
            raise GeometryError(f"laminate period must be positive, got {period}")
        self.a1 = check_admissible(as_spd(a1, dim), bounds, what="laminate phase 1")
        self.a2 = check_admissible(as_spd(a2, dim), bounds, what="laminate phase 2")
        self.axis = int(axis)
        self.period = float(period)

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        phase = np.floor(points[:, self.axis] / (0.5 * self.period)).astype(np.int64) % 2
        return np.where((phase == 0)[:, None, None], self.a1, self.a2)

    def breakpoints_1d(self, lo, hi):
        if self.dim != 1:
            return super().breakpoints_1d(lo, hi)
        half = 0.5 * self.period
        first = (np.floor(lo / half) + 1.0) * half
        return np.arange(first, hi, half)

    def describe(self):
        out = super().describe()
        out.update(a1=self.a1.tolist(), a2=self.a2.tolist(),
                   axis=self.axis, period=self.period)
        return out


class OneDimPiecewiseField(CoefficientField):
    """Piecewise-constant 1D field on (-1, 1), extended constantly outside.

    values[i] applies between breakpoints[i-1] and breakpoints[i]; the first
    and last values extend to -inf and +inf.
    """

    kind = "one_dim_piecewise"

    def __init__(self, breakpoints, values, bounds):
        super().__init__(1, bounds)
        bp = np.asarray(breakpoints, dtype=float)
        if bp.size and not ((bp > -1.0).all() and (bp < 1.0).all()):
            raise GeometryError(f"breakpoints must lie inside (-1, 1): {bp}")
        if (np.diff(bp) <= 0).any():
            raise GeometryError(f"breakpoints must be strictly increasing: {bp}")
        if len(values) != bp.size + 1:
            raise GeometryError(
                f"{bp.size} breakpoints require {bp.size + 1} values, "
                f"got {len(values)}"
            )
        self.breakpoints = bp
        self.values = np.stack(
            [check_admissible(as_spd(v, 1), bounds) for v in values]
        )

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        idx = np.searchsorted(self.breakpoints, points[:, 0], side="right")
        return self.values[idx]

    def breakpoints_1d(self, lo, hi):
        bp = self.breakpoints
        return bp[(bp > lo) & (bp < hi)]

    def describe(self):
        out = super().describe()
        out.update(breakpoints=self.breakpoints.tolist(),
                   values=self.values[:, 0, 0].tolist())
        return out


class RescaledField(CoefficientField):
    """View of another field under x -> base(factor * x).

    Rescaling a rescaled field multiplies the factors on the original base,
    so nested rescales cost a single multiply per evaluation.
    """

    kind = "rescaled"

    def __init__(self, base, factor):
        if factor <= 0:
            raise GeometryError(f"rescale factor must be positive, got {factor}")
        super().__init__(base.dim, base.bounds)
        if isinstance(base, RescaledField):
            factor = factor * base.factor
            base = base.base
        self.base = base
        self.factor = float(factor)

    def evaluate(self, points):
        return self.base.evaluate(np.asarray(points, dtype=float) * self.factor)

    def breakpoints_1d(self, lo, hi):
        return self.base.breakpoints_1d(lo * self.factor, hi * self.factor) / self.factor

    def describe(self):
        return {"kind": self.kind, "factor": self.factor,
                "base": self.base.describe()}


# ---------------------------------------------------------------------------
# constructors (the public surface used by config parsing and tests)
# ---------------------------------------------------------------------------


def make_constant(matrix, bounds, dim=None):
    return ConstantField(matrix, bounds, dim=dim)


def make_checkerboard(values, probabilities, seed, bounds, dim=2):
    return CheckerboardField(values, probabilities, seed, bounds, dim=dim)


def make_inclusions(exterior, interior_values, interior_probabilities,
                    r_min, r_max, seed, bounds, dim=2, jitter=True):
    return InclusionField(exterior, interior_values, interior_probabilities,
                          r_min, r_max, seed, bounds, dim=dim, jitter=jitter)


def make_laminate(a1, a2, axis, period, bounds, dim=2):
    return LaminateField(a1, a2, axis, period, bounds, dim=dim)


def make_one_dim_piecewise(breakpoints, values, bounds):
    return OneDimPiecewiseField(breakpoints, values, bounds)


def rescale(field, factor):
    """Field x -> field(factor * x); composes by multiplying factors."""
    return RescaledField(field, factor)
