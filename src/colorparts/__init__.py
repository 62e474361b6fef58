"""Colored partition counting on staircase arrays, with product-side checks.

The package counts partitions whose parts live on a width-w staircase array
subject to a downward-path difference condition, expands the matching
periodic products as exact q-series, and verifies or rediscovers the product
formulas by comparing the two.
"""

from .congruence import even_width_product, lepowsky_product, parse_residue_spec
from .counting import brute_force_count, count_admissible, dimension
from .lattice import WeightVector
from .qseries import expand
from .verify import STATUS_VERIFIED, fit_weight, run_sweep, verify_weight

__version__ = "0.1.0"

__all__ = [
    "STATUS_VERIFIED",
    "WeightVector",
    "brute_force_count",
    "count_admissible",
    "dimension",
    "even_width_product",
    "expand",
    "fit_weight",
    "lepowsky_product",
    "parse_residue_spec",
    "run_sweep",
    "verify_weight",
]
