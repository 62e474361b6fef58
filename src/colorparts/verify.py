"""Comparing count tables against periodic products.

A verification expands a product to degree N, counts admissible colored
partitions to the same degree, and compares coefficient by coefficient.
Every count goes through :func:`~colorparts.cache.cached_counts`.  Sweeps
verify every weight of a conjecture family in a fixed deterministic order,
counting the uncached weights together in one process; a sweep report's
``runtime_seconds`` covers only expansion and comparison.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

from .cache import CountCache, cached_counts
from .congruence import PeriodicProduct, even_width_product, lepowsky_product
from .counting import CountTable
from .lattice import WeightVector
from .qseries import ExponentSequence, expand, fit_exponents

__all__ = [
    "STATUS_VERIFIED",
    "STATUS_MISMATCH",
    "STATUS_INSUFFICIENT",
    "VerificationReport",
    "conjectured_product",
    "verify_weight",
    "sweep_weights",
    "run_sweep",
    "fit_weight",
]

STATUS_VERIFIED = "verified"
STATUS_MISMATCH = "mismatch"
# Coefficients agree but N is smaller than the product's period (see
# PeriodicProduct.period), so not every factor has shown one full period.
STATUS_INSUFFICIENT = "insufficient-N"

MAX_FAMILY = 10_000  # a sweep holds its weights and every state their trie records


@dataclass(frozen=True)
class VerificationReport:
    bracket: tuple[int, ...]
    sugar: Optional[str]
    n_max: int
    product: PeriodicProduct
    product_source: str
    status: str
    first_mismatch: Optional[tuple[int, int, int]]  # (n, count, coefficient)
    counts: CountTable
    coefficients: tuple[int, ...]  # c_1..c_N
    runtime_seconds: float

    def to_dict(self) -> dict:
        product = self.product
        try:
            net = list(product.net_residue_exponents())
        except ValueError:
            net = None
        return {
            "bracket": list(self.bracket),
            "sugar": self.sugar,
            "n_max": self.n_max,
            "modulus": product.modulus,
            "residue_exponents": list(product.residue_exponents),
            "global_all": product.global_all,
            "global_odd": product.global_odd,
            "plus_factors": [
                [p.residue, p.modulus, p.exponent] for p in product.plus_factors
            ],
            "net_exponents": net,
            "product_source": self.product_source,
            "status": self.status,
            "first_mismatch": list(self.first_mismatch)
            if self.first_mismatch
            else None,
            "counts": list(self.counts.counts),
            "coefficients": list(self.coefficients),
            "runtime_seconds": self.runtime_seconds,
        }


def conjectured_product(wv: WeightVector) -> PeriodicProduct:
    """The product conjectured for a sugar-form weight vector.

    Odd widths >= 5 use the character product, even widths the even-width
    product.  Brackets outside the two families have no conjectured product
    and need an explicit residue spec.
    """
    odd = wv.odd_sugar
    if odd is not None and len(odd) >= 3:
        return lepowsky_product(odd)
    even = wv.even_sugar
    if even is not None:
        return even_width_product(even)
    raise ValueError(
        f"no conjectured product for bracket {list(wv.bracket)}; "
        "pass an explicit residue spec"
    )


def verify_weight(
    wv: WeightVector,
    n_max: int,
    product: Optional[PeriodicProduct] = None,
    product_source: Optional[str] = None,
    cache: Optional[CountCache] = None,
    table: Optional[CountTable] = None,
) -> VerificationReport:
    """Count, expand, compare; report the first mismatch if any.  A
    ``table`` already loaded is compared instead of counting.  A given
    ``product`` is labelled ``product_source``, or "given" if unnamed; with
    none, the conjectured product is labelled "conjecture"."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if table is not None and table.n_max != n_max:
        raise ValueError(f"table holds P(1..{table.n_max}), not P(1..{n_max})")
    started = time.perf_counter()
    if product is None:
        product = conjectured_product(wv)
        product_source = "conjecture"
    elif product_source is None:
        product_source = "given"
    if table is None:
        table = cached_counts([wv], n_max, cache)[0]
    series = expand(product, n_max)
    first_mismatch = None
    for n in range(1, n_max + 1):
        if table[n] != series[n]:
            first_mismatch = (n, table[n], series[n])
            break
    if first_mismatch is not None:
        status = STATUS_MISMATCH
    elif n_max < product.period:
        status = STATUS_INSUFFICIENT
    else:
        status = STATUS_VERIFIED
    return VerificationReport(
        bracket=wv.bracket,
        sugar=wv.sugar_label(),
        n_max=n_max,
        product=product,
        product_source=product_source,
        status=status,
        first_mismatch=first_mismatch,
        counts=table,
        coefficients=series[1:],
        runtime_seconds=time.perf_counter() - started,
    )


def sweep_weights(width: int, k_total: int) -> list[tuple[int, ...]]:
    """Sugar weights of one conjecture family, sorted lexicographically.

    Odd widths keep one representative per reversal pair, since reversed
    weights give isomorphic colored partitions.
    """
    if k_total < 1:
        raise ValueError("k_total must be >= 1")
    if width % 2 and width < 5:
        raise ValueError("odd-width sweeps need width >= 5")
    if width < 2:
        raise ValueError("width must be >= 2")
    rank = width // 2  # C(rank + k, k) > max(rank, k) weights before folding
    if max(rank, k_total) >= MAX_FAMILY or math.comb(rank + k_total, rank) > MAX_FAMILY:
        raise ValueError(f"a family of over {MAX_FAMILY} weights is too large to sweep")
    # rank + 1 = width // 2 + 1 entries summing to k_total: the gaps between
    # rank cuts in 0..k_total, read from 0 to k_total
    weights = [
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (k_total,)))
        for cuts in combinations_with_replacement(range(k_total + 1), rank)
    ]
    if width % 2:
        weights = [ks for ks in weights if ks >= ks[::-1]]
    return sorted(weights)


def run_sweep(
    width: int,
    k_total: int,
    n_max: int,
    cache: Optional[CountCache] = None,
) -> list[VerificationReport]:
    """Verify every weight of the family, in a fixed deterministic order.

    :func:`~colorparts.cache.cached_counts` loads each cached weight's table
    once and counts the uncached ones together, in this process, and stores
    them.  A report's ``runtime_seconds`` covers only expansion and
    comparison.
    """
    sugars = sweep_weights(width, k_total)
    family = WeightVector.from_odd if width % 2 else WeightVector.from_even
    weights = [family(sugar) for sugar in sugars]
    tables = cached_counts(weights, n_max, cache)
    return [verify_weight(wv, n_max, table=table) for wv, table in zip(weights, tables)]


def fit_weight(
    wv: WeightVector,
    n_max: int,
    max_modulus: int = 64,
    cache: Optional[CountCache] = None,
) -> tuple[CountTable, ExponentSequence]:
    """Count, then fit the exponent sequence of the generating function."""
    table = cached_counts([wv], n_max, cache)[0]
    return table, fit_exponents((1,) + table.counts, max_modulus=max_modulus)
