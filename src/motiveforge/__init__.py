"""Exact computations in the Grothendieck ring generated by a curve's
weight-one class and the Lefschetz class.

The package computes symmetric-power classes of curves, the flip-chain
pipelines for moduli of rank-2 bundles with fixed determinant (odd and even
degree), Betti and Hodge realizations with level bounds, and the isogeny
types of intermediate jacobians.  All arithmetic is exact over Python ints.
"""

from .laurent import (DivisorUnitError, ExactDivisionError, L, LaurentInt,
                      range_sum)
from .motive import (GenusMismatchError, MotiveClass, UnsupportedProductError,
                     lambda_binomial)
from .series import (DegenerateDenominatorError, MotiveSeries,
                     SeriesOrderError, big_f, binomial_series, geometric,
                     projective_series)
from .macdonald import (EnumerationGuardError, curve_ranks, sym_power_curve,
                        sym_power_bruteforce, sym_power_ranks,
                        sym_power_walls)
from .moduli import (PipelineIntegrityError, PipelineReport, Stage, kummer,
                     n0_even, n0_odd, n0_odd_chain, n0_odd_closed,
                     omega_index, pair_moduli, pw_classes, ss_preimage)
from .realize import (BiLaurent, betti, hodge, hodge_closed,
                      hodge_diamond_rows, hn_closed, level_per_weight)
from .jacobians import (DecompositionError, JacobianDecomposition,
                        closed_multiplicities, decompose,
                        factors_from_weight_part)

__version__ = "0.1.0"

__all__ = [
    "BiLaurent", "DecompositionError", "DegenerateDenominatorError",
    "DivisorUnitError", "EnumerationGuardError", "ExactDivisionError",
    "GenusMismatchError", "JacobianDecomposition", "L", "LaurentInt",
    "MotiveClass", "MotiveSeries", "PipelineIntegrityError", "PipelineReport",
    "SeriesOrderError", "Stage", "UnsupportedProductError", "betti", "big_f",
    "binomial_series", "closed_multiplicities", "curve_ranks", "decompose",
    "factors_from_weight_part", "geometric", "hodge", "hodge_closed",
    "hodge_diamond_rows", "hn_closed", "kummer", "lambda_binomial",
    "level_per_weight", "n0_even", "n0_odd", "n0_odd_chain", "n0_odd_closed",
    "omega_index", "pair_moduli", "projective_series", "pw_classes",
    "range_sum", "ss_preimage", "sym_power_bruteforce", "sym_power_curve",
    "sym_power_ranks", "sym_power_walls",
]
