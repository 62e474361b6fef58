"""Colored partition counting on staircase arrays, with product-side checks.

The package counts partitions whose parts live on a width-w staircase array
subject to a downward-path difference condition, expands the matching
periodic products as exact q-series, and verifies or rediscovers the product
formulas by comparing the two.

Each top-level name imports its submodule on first use (PEP 562), so a
command that needs only the counting kernel never loads the product side.
"""

__version__ = "0.1.0"

# The submodule that each exported name comes from.
_EXPORTS = {
    "congruence": ("even_width_product", "lepowsky_product", "parse_residue_spec"),
    "counting": ("brute_force_count", "count_admissible", "dimension"),
    "lattice": ("WeightVector",),
    "qseries": ("expand",),
    "verify": ("STATUS_VERIFIED", "fit_weight", "run_sweep", "verify_weight"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    from importlib import import_module

    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = value = getattr(import_module("." + module, __name__), name)
            return value  # stored, so later lookups skip this hook
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
