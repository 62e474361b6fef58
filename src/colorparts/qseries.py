"""Exact truncated power series over Python integers.

A :class:`Series` holds coefficients c_0..c_N of a formal power series taken
modulo q^(N+1).  Coefficients are plain Python ints, so partition counts
never overflow.  Binomial factors (1 +/- q^j)^e are applied by in-place
sweeps rather than generic multiplication, which keeps the expansion of a
periodic product linear in N per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .congruence import PeriodicProduct

__all__ = ["Series", "ExponentSequence", "expand", "fit_exponents"]


def _apply_unit_factor(coeffs: list[int], j: int, exponent: int, sign: int) -> None:
    """Multiply ``coeffs`` by (1 + sign*q^j)^exponent in place, truncated.

    One pass per unit of |exponent|, or, past the measured break-even of
    4 + terms/2 passes for (n-1)//j terms, one with weights C(exponent, k) sign^k.
    """
    n = len(coeffs)
    terms = (n - 1) // j
    if abs(exponent) > 4 + terms // 2:
        b = [1]
        for k in range(1, terms + 1):
            b.append(b[-1] * (exponent - k + 1) * sign // k)
        for t in range(n - 1, j - 1, -1):
            coeffs[t] = sum(map(mul, b, coeffs[t::-j]))
    elif exponent >= 0:
        for _ in range(exponent):
            for t in range(n - 1, j - 1, -1):
                coeffs[t] += sign * coeffs[t - j]
    else:
        for _ in range(-exponent):
            for t in range(j, n):
                coeffs[t] -= sign * coeffs[t - j]


@dataclass(frozen=True)
class Series:
    """Truncated power series with exact integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def truncation_degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def expand(product: PeriodicProduct, degree: int) -> Series:
    """Expand a periodic product to the requested truncation degree."""
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for j in range(1, degree + 1):
        e = product.effective_exponent(j)
        if e:
            _apply_unit_factor(coeffs, j, e, -1)
    for pf in product.plus_factors:
        if not pf.exponent:
            continue
        start = pf.residue if pf.residue else pf.modulus
        for j in range(start, degree + 1, pf.modulus):
            _apply_unit_factor(coeffs, j, pf.exponent, +1)
    return Series(tuple(coeffs))


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
        return tuple(
            self.exponents[(r if r else modulus) - 1] for r in range(modulus)
        )


def _consistent_period(exponents: Sequence[int], m: int) -> bool:
    seen: dict[int, int] = {}
    for j, e in enumerate(exponents, start=1):
        r = j % m
        if r in seen:
            if seen[r] != e:
                return False
        else:
            seen[r] = e
    return True


def fit_exponents(
    series: Series, max_modulus: int = 64, n_terms: int | None = None
) -> ExponentSequence:
    """Fit the unique exponent sequence of a series with constant term 1.

    Peels factors in increasing j: the current coefficient of q^j is e_j,
    after which (1 - q^j)^(e_j) is multiplied back in so later coefficients
    are clean.  Every unit series with c_0 = 1 admits exactly one such
    sequence.
    """
    if series.coeffs[0] != 1:
        raise ValueError("exponent fitting requires constant term 1")
    n = series.truncation_degree
    if n_terms is not None:
        if n_terms < 0 or n_terms > n:
            raise ValueError("n_terms out of range")
        n = n_terms
    residual = list(series.coeffs[: n + 1])
    exponents: list[int] = []
    for j in range(1, n + 1):
        e = residual[j]
        exponents.append(e)
        if e:
            _apply_unit_factor(residual, j, e, -1)
    detected = candidate = None
    for m in range(1, min(max_modulus + 1, n)):
        if _consistent_period(exponents, m):
            candidate = m
            if n >= 2 * m:
                detected = m
            break
    return ExponentSequence(tuple(exponents), detected, candidate)
