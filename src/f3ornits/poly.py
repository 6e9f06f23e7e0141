"""Low-degree polynomial representation and two calibration fits.

All coupling quantities travel between subsystems as polynomials of degree at
most three, expressed in a shifted local variable tau = t - t_ref so that the
coefficients stay well conditioned even when the absolute simulation time is
large.  The fits are least squares of degree 0 to MAX_ORDER, exact at one
point (the newest sample, or the window start when capping), and the
two-point cubic Hermite matching values and first derivatives.  The
extrapolation fits nothing: `orders` reads it off `SampleHistory`'s row.

The constrained fits read samples as `push` checked them and solve their 1x1
and 2x2 normal equations in straight-line code, by Gaussian elimination with
partial pivoting in its order of operations; a larger fit is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import CalibrationError

#: hard cap on the degree of any exchanged polynomial
MAX_DEGREE = 3

#: highest polynomial order the method itself proposes (inputs and outputs)
MAX_ORDER = 2

#: two sample times closer than this (relative to max(1, |t|)) are degenerate
TIME_GAP_REL = 1e-12


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


def _solve1(a: float, b: float) -> float:
    """x with a * x = b; a zero a is a singular calibration system."""
    if a == 0.0:
        raise CalibrationError("singular calibration system")
    return b / a


def _solve2(
    a00: float, a01: float, b0: float, a10: float, a11: float, b1: float
) -> tuple[float, float]:
    """(x0, x1) with [[a00, a01], [a10, a11]] x = [b0, b1], partially
    pivoted: the rows swap only when |a10| > |a00|, and a zero factor
    leaves the second row as it is."""
    if abs(a10) > abs(a00):
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
    if a00 == 0.0:
        raise CalibrationError("singular calibration system")
    fac = a10 * (1.0 / a00)
    if fac != 0.0:
        a11 -= fac * a01
        b1 -= fac * b0
    x1 = _solve1(a11, b1)
    return (b0 - a01 * x1) / a00, x1


def fit_constrained(
    times: tuple[float, ...],
    values: tuple[float, ...],
    degree: int,
    constrain_index: int,
) -> Polynomial:
    """Least-squares fit of degree 0..MAX_ORDER, exact at one designated point.

    With the reference time placed at the constrained sample the constraint
    reduces to pinning the constant coefficient; the remaining coefficients
    minimize the sum of squared residuals over all points via the normal
    equations, at most 2x2.  Each of their sums is taken left to right from
    0.0: the builtin sum() compensates float rounding from Python 3.12 on,
    which would move the fit's bits with the interpreter.
    """
    if not 0 <= degree <= MAX_ORDER:
        raise CalibrationError(
            f"constrained fits take degree 0..{MAX_ORDER}, got {degree}"
        )
    t_ref = times[constrain_index]
    a0 = values[constrain_index]
    if degree == 0:
        return Polynomial(t_ref, (a0,))
    # rows (tau, tau^2) against z - a0: s_k = sum tau^k, r_k = sum tau^k (z - a0)
    s2 = s3 = s4 = r1 = r2 = 0.0
    for t, z in zip(times, values):
        tau = t - t_ref
        tau2 = tau * tau
        z -= a0
        s2 += tau * tau
        s3 += tau * tau2
        s4 += tau2 * tau2
        r1 += tau * z
        r2 += tau2 * z
    if degree == 1:
        return Polynomial(t_ref, (a0, _solve1(s2, r1)))
    return Polynomial(t_ref, (a0, *_solve2(s2, s3, r1, s3, s4, r2)))


def fit_constrained_least_squares(
    times: tuple[float, ...], values: tuple[float, ...]
) -> Polynomial:
    """Degree len(times) - 2 fit, exact at the newest point, least squares overall."""
    return fit_constrained(times, values, len(times) - 2, -1)


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
    if h < TIME_GAP_REL * max(1.0, abs(t1)):
        raise CalibrationError(f"degenerate Hermite window [{t0!r}, {t1!r}]")
    # closed form about t_ref = t0
    a2 = (3.0 * (z1 - z0) - h * (2.0 * dz0 + dz1)) / (h * h)
    a3 = (2.0 * (z0 - z1) + h * (dz0 + dz1)) / (h * h * h)
    return Polynomial(t0, (z0, dz0, a2, a3))
