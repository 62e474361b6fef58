"""Exact truncated power series c_0..c_N, as tuples of Python ints.

:func:`expand` and :func:`fit_exponents` deal only in exponents of (1 - q^j):
a factor (1 + q^j)^e is folded in as (1 - q^(2j))^e (1 - q^j)^-e (see
:meth:`PeriodicProduct.factor_exponents`).  Each factor is applied by an
in-place sweep rather than generic multiplication, which keeps the expansion
of a periodic product linear in N per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .congruence import PeriodicProduct

__all__ = ["ExponentSequence", "expand", "fit_exponents"]


def _apply_unit_factor(coeffs: list[int], j: int, exponent: int) -> None:
    """Multiply ``coeffs`` by (1 - q^j)^exponent in place, truncated.

    One pass per unit of |exponent|, or, past the measured break-even of
    4 + terms/2 passes for (n-1)//j terms, one with weights C(exponent, k) (-1)^k.
    """
    n = len(coeffs)
    terms = (n - 1) // j
    if abs(exponent) > 4 + terms // 2:
        b = [1]
        for k in range(1, terms + 1):
            b.append(-b[-1] * (exponent - k + 1) // k)
        for t in range(n - 1, j - 1, -1):
            coeffs[t] = sum(map(mul, b, coeffs[t::-j]))
    elif exponent >= 0:
        for _ in range(exponent):
            for t in range(n - 1, j - 1, -1):
                coeffs[t] -= coeffs[t - j]
    else:
        for _ in range(-exponent):
            for t in range(j, n):
                coeffs[t] += coeffs[t - j]


def expand(product: PeriodicProduct, degree: int) -> tuple[int, ...]:
    """Coefficients c_0..c_degree of a periodic product."""
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    coeffs = [1] + [0] * degree
    for j, e in enumerate(product.factor_exponents(degree), start=1):
        if e:
            _apply_unit_factor(coeffs, j, e)
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
        e = residual[j]
        exponents.append(e)
        if e:
            _apply_unit_factor(residual, j, e)
    detected = candidate = None
    for m in range(1, min(max_modulus + 1, n)):
        if all(exponents[t] == exponents[t - m] for t in range(m, n)):
            candidate = m
            if n >= 2 * m:
                detected = m
            break
    return ExponentSequence(tuple(exponents), detected, candidate)
