"""The package's export list is its public API: one spelling per concept."""

from types import ModuleType

import pytest

import motiveforge
from motiveforge import laurent, motive, series


def test_all_names_exactly_the_public_bindings():
    public = {name for name, value in vars(motiveforge).items()
              if not name.startswith("_")
              and not isinstance(value, ModuleType)}
    assert len(motiveforge.__all__) == len(set(motiveforge.__all__))
    assert set(motiveforge.__all__) == public


@pytest.mark.parametrize("owner, name", [
    (motiveforge, "lpow"), (laurent, "lpow"),
    (motiveforge, "canonicalize"), (motive, "canonicalize"),
    (motiveforge, "WeightPart"), (motive, "WeightPart"),
    (series.MotiveSeries, "coef_at"),
    (motive.MotiveClass, "min_weight"), (motive.MotiveClass, "max_weight"),
], ids=lambda v: getattr(v, "__name__", v))
def test_retired_spellings_are_gone(owner, name):
    # LaurentInt.monomial, MotiveClass(g, raw), the weight_decomposition
    # dict, series[n] and weights() are the one spelling of each
    assert not hasattr(owner, name)
