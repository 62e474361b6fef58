"""Comparing count tables against periodic products.

A verification expands a product to degree N, counts admissible colored
partitions to the same degree, and compares coefficient by coefficient.
Sweeps run one verification per weight of a conjecture family, in parallel
when asked, in a fixed deterministic order.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

from .cache import CountCache, cached_count
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
    product_source: str = "conjecture",
    cache: Optional[CountCache] = None,
    table: Optional[CountTable] = None,
) -> VerificationReport:
    """Count, expand, compare; report the first mismatch if any.  A
    ``table`` already loaded is compared instead of counting."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if table is not None and table.n_max != n_max:
        raise ValueError(f"table holds P(1..{table.n_max}), not P(1..{n_max})")
    started = time.perf_counter()
    if product is None:
        product = conjectured_product(wv)
        product_source = "conjecture"
    if table is None:
        table = cached_count(wv, n_max, cache)
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
    # rank + 1 = width // 2 + 1 entries summing to k_total: the gaps between
    # rank cuts in 0..k_total, read from 0 to k_total
    weights = [
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (k_total,)))
        for cuts in combinations_with_replacement(range(k_total + 1), width // 2)
    ]
    if width % 2:
        weights = [ks for ks in weights if ks >= ks[::-1]]
    return sorted(weights)


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(work, run: int) -> tuple[int, int]:
    """Fork a child that pickles work(run), or the error it raised, into a
    pipe; return the child's pid and the pipe's read end."""
    import pickle  # imported here: sweeps that fork no worker never load it

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1  # the child exits 0 only once its whole result is written
    try:  # and never returns into its caller's frames
        os.close(read_fd)
        try:
            result = work(run)
        except Exception as exc:
            result = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(result, pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_fd: int):
    """Read a worker's pipe to EOF, then reap it: its reports or its error."""
    import pickle

    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    if os.waitpid(pid, 0)[1]:
        return RuntimeError(f"sweep worker {pid} exited without a result")
    return pickle.loads(payload)


def run_sweep(
    width: int,
    k_total: int,
    n_max: int,
    jobs: int = 1,
    cache: Optional[CountCache] = None,
) -> list[VerificationReport]:
    """Verify every weight of the family; deterministic order, optional
    process parallelism (verifications are independent).

    Cached weights are verified in the sweeping process.  The uncached ones
    are shared by up to ``jobs`` workers, which are forked children plus the
    sweeping process itself, never more than the uncached weights or the
    usable cores; each takes the next uncached weight when it is done.
    Without ``os.fork`` the sweep runs in one process.
    """
    sugars = sweep_weights(width, k_total)
    family = WeightVector.from_odd if width % 2 else WeightVector.from_even
    weights = [family(sugar) for sugar in sugars]
    # One load per entry: hits are compared against the loaded table, and
    # misses are counted and stored without a second load.  A corrupt entry
    # loads as a miss, so it is recounted and rewritten.
    tables = [cache.load(wv, n_max) if cache else None for wv in weights]
    misses = [i for i, table in enumerate(tables) if table is None]
    chunk = len(misses) // 1024 + 1  # at most 1024 runs of misses
    runs = [misses[start:start + chunk] for start in range(0, len(misses), chunk)]
    workers = max(1, min(jobs, len(runs), _usable_cores()))

    def verify(i: int) -> VerificationReport:
        report = verify_weight(weights[i], n_max, table=tables[i])
        if cache is not None and tables[i] is None:
            cache.store(weights[i], n_max, report.counts)
        return report

    if workers == 1:
        return [verify(i) for i in range(len(weights))]
    # Worker r starts on runs[r].  The other runs wait in a pipe as two-byte
    # indices, and a worker that is done takes the next, so one on a slower
    # core takes fewer.  The queue (at most 2 KiB, which any pipe holds) is
    # filled and closed before the first fork, so an empty one reads as EOF.
    queue, feed = os.pipe()
    os.write(feed, b"".join(run.to_bytes(2, "big") for run in range(workers, len(runs))))
    os.close(feed)

    def work(run: int) -> dict[int, VerificationReport]:
        """Verify ``runs[run]``, then each run read from the queue."""
        done = {i: verify(i) for i in runs[run]}
        while token := os.read(queue, 2):
            done.update((i, verify(i)) for i in runs[int.from_bytes(token, "big")])
        return done

    children = []
    sys.stdout.flush()  # so that a child that writes cannot repeat buffered output
    sys.stderr.flush()
    try:
        for run in range(1, workers):
            children.append(_fork_worker(work, run))
        reports = {i: verify(i) for i, table in enumerate(tables) if table is not None}
        reports.update(work(0))
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        results = [_reap(pid, read_fd) for pid, read_fd in children]
        os.close(queue)
    for result in results:
        if isinstance(result, Exception):
            raise result
        reports.update(result)
    return [reports[i] for i in range(len(weights))]


def fit_weight(
    wv: WeightVector,
    n_max: int,
    max_modulus: int = 64,
    cache: Optional[CountCache] = None,
) -> tuple[CountTable, ExponentSequence]:
    """Count, then fit the exponent sequence of the generating function."""
    table = cached_count(wv, n_max, cache)
    return table, fit_exponents((1,) + table.counts, max_modulus=max_modulus)
