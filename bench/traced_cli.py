"""Run one colorparts CLI command in-process with a span around each layer.

    python3 bench/traced_cli.py SPANS_JSON ARG...

ARG... are the CLI arguments (``verify --even 0,1 -N 20 --auto``).  The
public functions of each module are wrapped under every name the package
binds them to, so a call through ``from .qseries import expand`` is traced
too.  Spans (name, start, end, parent, attributes) stay in memory and are
written to SPANS_JSON, with the exit code, after the command returns.

Pool workers forked by ``sweep --jobs N`` inherit the wrappers, but their
spans stay in the worker and are lost; trace a ``--jobs 1`` sweep to see the
work inside the tasks.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _sweep_attrs(args, kwargs, reports):
    jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
    return {"jobs": jobs, "busy_s": sum(r.runtime_seconds for r in reports)}


# (module, attribute, span name, attributes of a finished call).  A module or
# attribute the package no longer has is skipped, so its metrics read 0.
TARGETS = [
    ("colorparts.counting", "count_admissible", "counting.count_admissible",
     lambda a, k, r: {"n_max": _arg(a, k, 1, "n_max")}),
    ("colorparts.counting", "_row_transitions", "counting.row_transitions", None),
    ("colorparts.counting", "dimension", "counting.dimension", None),
    ("colorparts.qseries", "expand", "qseries.expand",
     lambda a, k, r: {"terms": _arg(a, k, 1, "degree") + 1}),
    ("colorparts.qseries", "fit_exponents", "qseries.fit_exponents", None),
    ("colorparts.verify", "conjectured_product", "congruence.product", None),
    ("colorparts.congruence", "parse_residue_spec", "congruence.product", None),
    ("colorparts.cache", "CountCache.load", "cache.load",
     lambda a, k, r: {"hit": r is not None}),
    ("colorparts.cache", "CountCache.store", "cache.store", None),
    ("colorparts.verify", "verify_weight", "verify.verify_weight", None),
    ("colorparts.verify", "fit_weight", "verify.fit_weight", None),
    ("colorparts.verify", "run_sweep", "verify.run_sweep", _sweep_attrs),
]


def install(tracer: Tracer) -> None:
    """Replace each target under every name a colorparts module binds it to."""
    for module_name, attribute, span_name, attrs in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            continue
        wrapper = tracer.wrap(span_name, original, attrs)
        setattr(owner, leaf, wrapper)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "colorparts" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from colorparts.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    command = tracer.wrap("cli.command", cli_main.main)
    try:
        command(cli_args, prog_name="colorparts", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
