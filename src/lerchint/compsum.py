"""Compensated (Neumaier) accumulation for long complex sums.

Million-term series at 1e-12 absolute targets leave no headroom for plain
left-to-right float addition, so the series summers accumulate through this
helper.  Real and imaginary parts are compensated independently.

``extend`` is the one place the Neumaier step is written.  It runs over an
iterable of terms on local variables, which is what makes a long series
cheap in the interpreter; ``add`` is ``extend`` over one term, so any mix of
the two gives exactly the sum that adding term by term gives.

The sum also holds the rounding floor its callers report, ``floor`` =
4 eps (sum|terms| + extra), and ``check_floor`` raises the one "cannot
reach tol" error once that floor exceeds the tolerance.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .errors import ConvergenceError

EPS = 2.220446049250313e-16  # double-precision machine epsilon, 2^-52


class CompensatedSum:
    """Running compensated sum of complex terms."""

    __slots__ = ("_sr", "_si", "_cr", "_ci", "_abs")

    def __init__(self) -> None:
        self._sr = 0.0
        self._si = 0.0
        self._cr = 0.0
        self._ci = 0.0
        self._abs = 0.0  # plain sum of |term|, for rounding-error estimates

    def add(self, term: complex) -> None:
        self.extend((term,))

    def extend(self, terms: Iterable[complex]) -> None:
        """Add each term in order, with the same rounding as one ``add`` per term."""
        sr, si, cr, ci, total = self._sr, self._si, self._cr, self._ci, self._abs
        for term in terms:
            x = term.real
            t = sr + x
            if abs(sr) >= abs(x):
                cr += (sr - t) + x
            else:
                cr += (x - t) + sr
            sr = t
            x = term.imag
            t = si + x
            if abs(si) >= abs(x):
                ci += (si - t) + x
            else:
                ci += (x - t) + si
            si = t
            total += abs(term)
        self._sr, self._si, self._cr, self._ci, self._abs = sr, si, cr, ci, total

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)

    @property
    def abs_total(self) -> float:
        """Sum of term magnitudes; scales the residual rounding error."""
        return self._abs

    def floor(self, extra: float = 0.0) -> float:
        """4 eps (sum|terms| + extra): the rounding allowance of a result built on this sum.

        ``extra`` is the magnitude of what is added to the sum outside it,
        such as an Euler-Maclaurin tail.
        """
        return 4.0 * EPS * (self._abs + extra)

    def check_floor(
        self, tol: float, n_terms: int, what: Callable[[], str], extra: float = 0.0
    ) -> float:
        """``floor(extra)``, or ConvergenceError naming it when it exceeds ``tol``.

        Callers pass an ``extra`` that no later term can lower, so a floor
        above ``tol`` means the tolerance is out of reach for good.
        ``what()`` names the series in the message; it is only called then.
        """
        floor = self.floor(extra)
        if floor > tol:
            raise ConvergenceError(
                f"{what()} cannot reach tol={tol}: after {n_terms} terms its rounding floor "
                f"is already {floor:.3g}, so the attainable tolerance is at least {floor:.3g}"
            )
        return floor
