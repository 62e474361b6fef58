"""Command-line verifier and sweep harness.

Exit codes: 0 success (or every comparison verified), 1 when verify or sweep
finds a mismatch or an insufficient-N comparison, 2 usage or parse errors.
The cache directory may also be set through COLORPARTS_CACHE_DIR.
"""

from __future__ import annotations

import sys
from typing import Optional

# The package modules go before click: compiled first, they leave a smaller
# peak RSS.  Each command imports the rest of the package that it runs.
from . import __version__
from .counting import CountTable, dimension
from .lattice import WeightVector

import click

CACHE_ENV_VAR = "COLORPARTS_CACHE_DIR"


def _parse_int_tuple(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"{label} must be a comma-separated integer list")


def _weight_vector(
    odd: Optional[str], even: Optional[str], bracket: Optional[str]
) -> WeightVector:
    given = [x for x in (odd, even, bracket) if x is not None]
    if len(given) != 1:
        raise click.UsageError("pass exactly one of --odd, --even, --bracket")
    try:
        if odd is not None:
            return WeightVector.from_odd(_parse_int_tuple(odd, "--odd"))
        if even is not None:
            return WeightVector.from_even(_parse_int_tuple(even, "--even"))
        return WeightVector(_parse_int_tuple(bracket, "--bracket"))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _cache(cache_dir: Optional[str]):
    """The ``CountCache`` at ``cache_dir``, or None when no directory is set."""
    if not cache_dir:
        return None
    from .cache import CountCache

    try:
        return CountCache(cache_dir)
    except OSError as exc:
        raise click.UsageError(f"--cache-dir is not a usable directory: {exc}")


def weight_options(fn):
    fn = click.option("--bracket", default=None, help="Raw bracket k1,...,kw.")(fn)
    fn = click.option("--even", default=None, help="Even-width sugar k0,...,kl.")(fn)
    return click.option("--odd", default=None, help="Odd-width sugar k0,...,kl.")(fn)


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
)
cache_option = click.option(
    "--cache-dir",
    envvar=CACHE_ENV_VAR,
    default=None,
    help=f"Count-table cache directory (or ${CACHE_ENV_VAR}).",
)


def _bounded_n(ctx, param, value: int) -> int:
    if value < 1:
        raise click.UsageError("-N must be >= 1")
    if value > 10**6:  # the cap on spec numbers, not a bound on a table's memory
        raise click.UsageError("-N must be <= 1000000")
    return value


n_option = click.option(
    "-N", "n_max", type=int, required=True, callback=_bounded_n, help="Top degree."
)


@click.group()
@click.version_option(version=__version__)
def main():
    """Count admissible colored partitions on staircase arrays and check
    them against periodic product formulas."""
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        sys.set_int_max_str_digits(0)  # print counts of any size exactly


def _emit(
    fmt: str, text_lines: list, record, csv_header: list[str], csv_rows: list[list]
) -> None:
    """Print the view of a result that ``--format`` selects.

    Text prints each of ``text_lines`` through ``str`` on its own line; json
    prints ``record`` with sorted keys; csv prints the header, then the rows.
    """
    if fmt == "text":
        out = "\n".join(str(line) for line in text_lines)
    elif fmt == "json":
        import json

        out = json.dumps(record, sort_keys=True)
    else:
        import csv  # imported here: only csv output needs csv and io
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        out = buffer.getvalue().rstrip("\n")
    click.echo(out)


def _weight_views(wv: WeightVector, table: CountTable) -> tuple[list, dict]:
    """The text header and JSON record that ``count`` and ``fit`` share."""
    lines = [
        f"highest_weight = {list(wv.bracket)}",
        f"k = {wv.k_total}  w = {wv.width}",
    ]
    record = {
        "bracket": list(wv.bracket),
        "sugar": wv.sugar_label(),
        "n_max": table.n_max,
        "counts": list(table.counts),
    }
    return lines, record


@main.command()
@weight_options
@n_option
@format_option
@cache_option
def count(odd, even, bracket, n_max, fmt, cache_dir):
    """Print P(n) for 1 <= n <= N."""
    from .cache import cached_counts

    wv = _weight_vector(odd, even, bracket)
    table = cached_counts([wv], n_max, _cache(cache_dir))[0]
    lines, record = _weight_views(wv, table)
    pairs = table.pairs()
    _emit(fmt, lines + [pairs], record, ["n", "count"], pairs)


@main.command()
@weight_options
@n_option
@click.option("--auto", is_flag=True, help="Use the conjectured product.")
@click.option("--spec", "spec_text", default=None, help="Residue-spec text.")
@format_option
@cache_option
@click.pass_context
def verify(ctx, odd, even, bracket, n_max, auto, spec_text, fmt, cache_dir):
    """Compare counts against a product; exit 0 iff verified."""
    from .congruence import parse_residue_spec
    from .verify import STATUS_VERIFIED, verify_weight

    wv = _weight_vector(odd, even, bracket)
    if auto == (spec_text is not None):
        raise click.UsageError("pass exactly one of --auto or --spec")
    product = source = None
    try:  # a bad spec is reported before a bad cache directory
        if spec_text is not None:
            product, source = parse_residue_spec(spec_text), f"spec: {spec_text}"
        report = verify_weight(
            wv, n_max, product=product, product_source=source, cache=_cache(cache_dir)
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    lines = [
        f"bracket = {list(report.bracket)}",
        f"sugar = {report.sugar or '(none)'}",
        f"product = modulus {report.product.modulus}, source {report.product_source}",
        f"status = {report.status}",
    ]
    if report.first_mismatch:
        n, count_value, coefficient = report.first_mismatch
        lines.append(
            f"first mismatch at n = {n}: count {count_value} != coefficient {coefficient}"
        )
    lines.append(f"runtime = {report.runtime_seconds:.3f}s")
    rows = [[n, c, q] for (n, c), q in zip(report.counts.pairs(), report.coefficients)]
    _emit(fmt, lines, report.to_dict(), ["n", "count", "coefficient"], rows)
    if report.status != STATUS_VERIFIED:
        ctx.exit(1)


@main.command()
@click.option("-w", "width", type=int, required=True, help="Array width.")
@click.option("-k", "k_total", type=int, required=True, help="Total level.")
@n_option
@click.option(
    "--jobs",
    type=int,
    default=1,
    show_default=True,
    help="Accepted for compatibility; has no effect.",
)
@format_option
@cache_option
@click.pass_context
def sweep(ctx, width, k_total, n_max, jobs, fmt, cache_dir):
    """Verify every weight of a conjecture family; exit 0 iff all verify."""
    from .verify import STATUS_VERIFIED, run_sweep

    if jobs < 1:
        raise click.UsageError("--jobs must be >= 1")
    cache = _cache(cache_dir)
    try:
        reports = run_sweep(width, k_total, n_max, cache=cache)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    verified = sum(1 for r in reports if r.status == STATUS_VERIFIED)
    lines, rows = [], []
    for r in reports:
        mismatch_n = r.first_mismatch[0] if r.first_mismatch else ""
        line = f"{r.sugar or list(r.bracket)}  mod {r.product.modulus}  {r.status}"
        if r.first_mismatch:
            line += f"  (first mismatch at n = {mismatch_n})"
        lines.append(line)
        weight = r.sugar or ",".join(str(x) for x in r.bracket)
        rows.append([weight, r.product.modulus, r.status, mismatch_n])
    lines.append(f"{verified}/{len(reports)} verified")
    header = ["weight", "modulus", "status", "first_mismatch_n"]
    _emit(fmt, lines, [r.to_dict() for r in reports], header, rows)
    if verified != len(reports):
        ctx.exit(1)


@main.command()
@weight_options
@n_option
@click.option("--max-modulus", type=int, default=64, show_default=True)
@format_option
@cache_option
def fit(odd, even, bracket, n_max, max_modulus, fmt, cache_dir):
    """Fit a product exponent sequence to the count table."""
    from .congruence import residue_class_text
    from .verify import fit_weight

    wv = _weight_vector(odd, even, bracket)
    if max_modulus < 1:
        raise click.UsageError("--max-modulus must be >= 1")
    table, fitted = fit_weight(wv, n_max, max_modulus, cache=_cache(cache_dir))
    classes = None
    if fitted.detected_period is not None:
        multiplicities = fitted.class_multiplicities(fitted.detected_period)
        if all(m >= 0 for m in multiplicities):
            classes = residue_class_text(fitted.detected_period, multiplicities)
    lines, record = _weight_views(wv, table)
    lines.append(f"exponents (j = 1..{n_max}): {list(fitted.exponents)}")
    if fitted.detected_period is not None:
        lines.append(f"period = {fitted.detected_period}")
    elif fitted.candidate_period is not None:
        lines.append(
            f"period = none (period {fitted.candidate_period} consistent "
            f"but insufficient evidence: needs N >= {2 * fitted.candidate_period})"
        )
    else:
        lines.append(f"period = none (no period <= {min(max_modulus, n_max - 1)})")
    if classes is not None:
        lines.append(f"classes = {classes}")
    record.update(
        exponents=list(fitted.exponents),
        detected_period=fitted.detected_period,
        candidate_period=fitted.candidate_period,
        classes=classes,
    )
    rows = [[j, e] for j, e in enumerate(fitted.exponents, start=1)]
    _emit(fmt, lines, record, ["j", "exponent"], rows)


@main.command()
@click.argument("weights")
@format_option
def dim(weights, fmt):
    """Dimension count for finite weights K1,...,KL."""
    values = _parse_int_tuple(weights, "weights")
    try:
        result = dimension(values)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    line = f"dimension {list(values)} = {result}"
    record = {"weights": list(values), "dimension": result}
    row = [",".join(map(str, values)), result]
    _emit(fmt, [line], record, ["weights", "dimension"], [row])


if __name__ == "__main__":
    main()
