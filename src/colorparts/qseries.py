"""Exact truncated power series c_0..c_N, as tuples of Python ints.

:func:`expand` and :func:`fit_exponents` deal only in exponents of (1 - q^j):
a factor (1 + q^j)^e is folded in as (1 - q^(2j))^e (1 - q^j)^-e (see
:meth:`PeriodicProduct.factor_exponents`).  A factor (1 - q^j)^e is applied
in place to a series 1 + O(q^j), as :func:`expand` (j = N down to 1) and
:func:`fit_exponents` (j = 1 up to N) keep it: c_j moves, c_(j+1)..c_(2j-1)
stay, and only c_(2j)..c_N are rewritten, by at most sqrt(N) slice operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul, sub
from typing import Sequence

from .congruence import PeriodicProduct

__all__ = ["ExponentSequence", "expand", "fit_exponents"]


def _apply_unit_factor(coeffs: list[int], j: int, exponent: int) -> None:
    """Multiply ``coeffs`` by (1 - q^j)^exponent in place, truncated.

    Requires c_0 = 1 and c_1..c_(j-1) = 0.  One pass per unit of |exponent|
    (a divide sums down the j residue chains if j^2 <= n, else block by block),
    or, past the measured break-even of 4 + terms/2 passes for (n-1)//j terms,
    one with weights C(exponent, k) (-1)^k.
    """
    n = len(coeffs)
    terms = (n - 1) // j
    if abs(exponent) > 4 + terms // 2:
        b = [1]
        for k in range(1, terms + 1):
            b.append(-b[-1] * (exponent - k + 1) // k)
        for t in range(n - 1, 2 * j - 1, -1):
            coeffs[t] = sum(map(mul, b, coeffs[t::-j]))
        coeffs[j] += b[1]
    elif exponent > 0:
        for _ in range(exponent):
            coeffs[2 * j:] = map(sub, coeffs[2 * j:], coeffs[j:n - j])
            coeffs[j] -= 1
    elif j * j <= n:
        for _ in range(-exponent):
            for r in range(j):
                coeffs[r::j] = accumulate(coeffs[r::j])
    else:
        for _ in range(-exponent):
            coeffs[j] += 1
            for s in range(2 * j, n, j):
                coeffs[s:s + j] = map(add, coeffs[s:s + j], coeffs[s - j:s])


def expand(product: PeriodicProduct, degree: int) -> tuple[int, ...]:
    """Coefficients c_0..c_degree of a periodic product."""
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    coeffs = [1] + [0] * degree
    exponents = product.factor_exponents(degree)
    for j in range(degree, 0, -1):  # descending j keeps coeffs = 1 + O(q^j)
        _apply_unit_factor(coeffs, j, exponents[j - 1])
    return tuple(coeffs)


@dataclass(frozen=True)
class ExponentSequence:
    """Exponents e_1..e_N with prod (1 - q^j)^(-e_j) matching a series.

    ``detected_period`` is the smallest m such that e_j depends only on
    j mod m over the computed range, reported only when N >= 2m gives every
    residue class at least two witnesses.  ``candidate_period`` records the
    smallest consistent m < N even when the evidence is insufficient.
    """

    exponents: tuple[int, ...]
    detected_period: int | None
    candidate_period: int | None

    def class_multiplicities(self, modulus: int) -> tuple[int, ...]:
        """The exponent per residue class, read off the fitted sequence."""
        if modulus < 1 or modulus > len(self.exponents):
            raise ValueError("modulus out of range for the fitted exponents")
        return tuple(self.exponents[(r or modulus) - 1] for r in range(modulus))


def fit_exponents(series: Sequence[int], max_modulus: int = 64) -> ExponentSequence:
    """Fit the unique exponent sequence of coefficients c_0..c_N with c_0 = 1.

    Peels factors in increasing j: the current coefficient of q^j is e_j,
    after which (1 - q^j)^(e_j) is multiplied back in so later coefficients
    are clean.  Every unit series with c_0 = 1 admits exactly one such
    sequence.
    """
    if not series or series[0] != 1:
        raise ValueError("exponent fitting requires constant term 1")
    residual = list(series)
    n = len(residual) - 1
    exponents: list[int] = []
    for j in range(1, n + 1):
        exponents.append(residual[j])
        _apply_unit_factor(residual, j, residual[j])
    detected = candidate = None
    for m in range(1, min(max_modulus + 1, n)):
        if all(exponents[t] == exponents[t - m] for t in range(m, n)):
            candidate = m
            if n >= 2 * m:
                detected = m
            break
    return ExponentSequence(tuple(exponents), detected, candidate)
