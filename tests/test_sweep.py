"""The array-level wild sweep against the object-level sweep it replaced."""

import pytest

from kmboard import verify
from oracles import object_wild_sweep


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_wild_sweep_matches_the_object_sweep(k):
    sweep = verify.wild_sweep(k)
    n_tamed, classes, hits = object_wild_sweep(k)
    assert sweep.n_tamed == n_tamed
    assert list(sweep.classes.items()) == list(classes.items())
    assert list(sweep.hits.items()) == list(hits.items())
