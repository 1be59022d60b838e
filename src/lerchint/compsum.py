"""Compensated (Neumaier) accumulation for long complex sums.

Million-term series at 1e-12 absolute targets leave no headroom for plain
left-to-right float addition, so the series summers accumulate through this
helper.  Real and imaginary parts are compensated independently.

``extend`` is the one place the Neumaier step is written.  It runs over an
iterable of terms on local variables, which is what makes a long series
cheap in the interpreter; ``add`` is ``extend`` over one term, so any mix of
the two gives exactly the sum that adding term by term gives.
"""

from __future__ import annotations

from collections.abc import Iterable


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
