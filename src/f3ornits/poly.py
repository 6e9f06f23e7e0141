"""Low-degree polynomial representation and the three calibration fits.

All coupling quantities travel between subsystems as polynomials of degree at
most three, expressed in a shifted local variable tau = t - t_ref so that the
coefficients stay well conditioned even when the absolute simulation time is
large.  Three calibrations are provided:

* exact interpolation through all calibration points (used for extrapolation),
* least squares constrained to be exact at one point (by default the most
  recent one),
* two-point cubic Hermite matching values and first derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import CalibrationError

#: hard cap on the degree of any exchanged polynomial
MAX_DEGREE = 3

#: two sample times closer than this (relative to max(1, |t|)) are degenerate
_TIME_GAP_REL = 1e-12


@dataclass(frozen=True)
class Polynomial:
    """p(t) = sum_i coeffs[i] * (t - t_ref)**i, degree <= MAX_DEGREE."""

    t_ref: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.coeffs) <= MAX_DEGREE + 1:
            raise ValueError(
                f"polynomial needs 1..{MAX_DEGREE + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )
        if not isfinite(self.t_ref) or not all(isfinite(c) for c in self.coeffs):
            raise ValueError("polynomial coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: float) -> float:
        tau = t - self.t_ref
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * tau + c
        return acc

    def derivative(self) -> "Polynomial":
        if len(self.coeffs) == 1:
            return Polynomial(self.t_ref, (0.0,))
        return Polynomial(
            self.t_ref,
            tuple(i * c for i, c in enumerate(self.coeffs) if i > 0),
        )

    def shifted(self, t_ref: float) -> "Polynomial":
        """Same polynomial re-expressed about a new reference time."""
        return Polynomial(t_ref, shift_coeffs(self.coeffs, t_ref - self.t_ref))


_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))


def shift_coeffs(coeffs: tuple[float, ...], d: float) -> tuple[float, ...]:
    """Coefficients about t_ref re-expressed about t_ref + d, unvalidated.

    Binomial re-expansion; a zero shift returns `coeffs` itself.
    """
    if d == 0.0:
        return coeffs
    out = [0.0] * len(coeffs)
    for i, a in enumerate(coeffs):
        if a == 0.0:
            continue
        dp = 1.0
        for j in range(i, -1, -1):
            out[j] += a * _BINOM[i][j] * dp
            dp *= d
    return tuple(out)


@dataclass(frozen=True)
class CalibrationPoints:
    """Strictly increasing sample times with their values; last is the newest."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) == 0:
            raise CalibrationError("no calibration points")
        if len(self.times) != len(self.values):
            raise CalibrationError(
                f"{len(self.times)} times vs {len(self.values)} values"
            )
        if not all(isfinite(v) for v in self.times + self.values):
            raise CalibrationError("calibration data must be finite")
        for a, b in zip(self.times, self.times[1:]):
            if b - a < _TIME_GAP_REL * max(1.0, abs(b)):
                raise CalibrationError(
                    f"times must be strictly increasing and distinct "
                    f"(got {a!r} then {b!r})"
                )

    def __len__(self) -> int:
        return len(self.times)


def _solve_dense(a: list[list[float]], b: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting for tiny (<= 4x4) systems."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) == 0.0:
            raise CalibrationError("singular calibration system")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            fac = m[r][col] * inv
            if fac != 0.0:
                for c in range(col, n + 1):
                    m[r][c] -= fac * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * x[c]
        x[r] = acc / m[r][r]
    return x


def fit_extrapolation(pts: CalibrationPoints) -> Polynomial:
    """Unique polynomial of degree len(pts) - 1 through every point.

    The reference time is the newest sample, so the local variable is small.
    From two points on, the constant term is back-substituted through the
    oldest row (v0 - a1*x1 - ...), so evaluation at the newest time returns
    its value only to roundoff, not exactly: through (-1000004.0, 0.0,
    1.5e-12) with values (1, 2, 3) the constant term is 2.0.

    The two- and three-point systems are solved by straight-line code that
    performs `_solve_dense`'s floating-point operations on the Vandermonde
    rows in its order, so the coefficients are the same bits.  Column 0 is
    all ones: its pivot is row 0, its inverse and factors are 1.0; the
    `1.0 *` products are kept, and the last division, by that pivot, is
    exact and left out.  The newest row is [1, 0, 0] (tau = 0 there),
    so its eliminated entries are `0.0 - ...`, not negations, which would
    turn a zero into -0.0.
    """
    q = len(pts)
    if q > MAX_DEGREE + 1:
        raise CalibrationError(f"at most {MAX_DEGREE + 1} points, got {q}")
    t_ref = pts.times[-1]
    if q == 1:
        return Polynomial(t_ref, (pts.values[0],))
    if q == 2:
        v0, v1 = pts.values
        a1 = 1.0 * (pts.times[0] - t_ref)
        m11 = 0.0 - 1.0 * a1
        if m11 == 0.0:
            raise CalibrationError("singular calibration system")
        x1 = (v1 - 1.0 * v0) / m11
        return Polynomial(t_ref, (v0 - a1 * x1, x1))
    if q == 3:
        v0, v1, v2 = pts.values
        a = pts.times[0] - t_ref
        b = pts.times[1] - t_ref
        a1 = 1.0 * a
        a2 = a1 * a
        b1 = 1.0 * b
        b2 = b1 * b
        # rows 1 and 2 after column 0; (p1, p2, pz) becomes the pivot row
        p1, p2, pz = b1 - 1.0 * a1, b2 - 1.0 * a2, v1 - 1.0 * v0
        s1, s2, sz = 0.0 - 1.0 * a1, 0.0 - 1.0 * a2, v2 - 1.0 * v0
        # column-1 partial pivot; max() keeps the first row on a tie
        if abs(s1) > abs(p1):
            p1, p2, pz, s1, s2, sz = s1, s2, sz, p1, p2, pz
        if p1 == 0.0:
            raise CalibrationError("singular calibration system")
        fac = s1 * (1.0 / p1)
        if fac != 0.0:
            s2 -= fac * p2
            sz -= fac * pz
        if s2 == 0.0:
            raise CalibrationError("singular calibration system")
        x2 = sz / s2
        x1 = (pz - p2 * x2) / p1
        return Polynomial(t_ref, (v0 - a1 * x1 - a2 * x2, x1, x2))
    taus = [t - t_ref for t in pts.times]
    rows = []
    for tau in taus:
        row, p = [], 1.0
        for _ in range(q):
            row.append(p)
            p *= tau
        rows.append(row)
    coeffs = _solve_dense(rows, list(pts.values))
    return Polynomial(t_ref, tuple(coeffs))


def _fit_constrained(
    times: tuple[float, ...],
    values: tuple[float, ...],
    degree: int,
    constrain_index: int,
) -> Polynomial:
    """Least-squares fit of given degree, exact at one designated point.

    With the reference time placed at the constrained sample the constraint
    reduces to pinning the constant coefficient; the remaining coefficients
    minimize the sum of squared residuals over all points via the normal
    equations (tiny systems, solved directly).
    """
    t_ref = times[constrain_index]
    a0 = values[constrain_index]
    if degree == 0:
        return Polynomial(t_ref, (a0,))
    rows, rhs = [], []
    for t, z in zip(times, values):
        tau = t - t_ref
        row, p = [], tau
        for _ in range(degree):
            row.append(p)
            p *= tau
        rows.append(row)
        rhs.append(z - a0)
    # normal equations  (D^T D) a = D^T r, each sum taken left to right
    # from 0.0: the builtin sum() compensates float rounding from Python
    # 3.12 on, which would move the fit's bits with the interpreter
    nte, ntr = [], []
    for i in range(degree):
        row = []
        for j in range(degree):
            acc = 0.0
            for r in rows:
                acc += r[i] * r[j]
            row.append(acc)
        nte.append(row)
        acc = 0.0
        for r, z in zip(rows, rhs):
            acc += r[i] * z
        ntr.append(acc)
    coeffs = _solve_dense(nte, ntr)
    return Polynomial(t_ref, (a0, *coeffs))


def fit_constrained_least_squares(pts: CalibrationPoints) -> Polynomial:
    """Degree len(pts) - 2 fit, exact at the newest point, least squares overall."""
    q = len(pts)
    if q < 2:
        raise CalibrationError("constrained least squares needs >= 2 points")
    if q - 2 > MAX_DEGREE:
        raise CalibrationError(f"at most {MAX_DEGREE + 2} points, got {q}")
    return _fit_constrained(pts.times, pts.values, q - 2, q - 1)


def fit_hermite(
    t0: float,
    t1: float,
    z0: float,
    z1: float,
    dz0: float,
    dz1: float,
) -> Polynomial:
    """Cubic matching value and first derivative at both window ends."""
    h = t1 - t0
    if h < _TIME_GAP_REL * max(1.0, abs(t1)):
        raise CalibrationError(f"degenerate Hermite window [{t0!r}, {t1!r}]")
    # closed form about t_ref = t0
    a2 = (3.0 * (z1 - z0) - h * (2.0 * dz0 + dz1)) / (h * h)
    a3 = (2.0 * (z0 - z1) + h * (dz0 + dz1)) / (h * h * h)
    return Polynomial(t0, (z0, dz0, a2, a3))
