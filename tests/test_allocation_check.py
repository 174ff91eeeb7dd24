"""The allocation check of ``allocation_check.py``, both sides in one process at a tiny size.

The check must pass the tree against itself, two seeds apart, and fail a
side whose Pitman-Yor existing-cluster mass drops its discount.
"""

import math

import allocation_check as check
import pytest

from mixmcmc.mixings import PitYorMixing

PY_CELL = {"Neal2/NNIG/PY": ("Neal2", "NNIG", check.NNIG, "PY",
                             {"fixed_values": {"strength": 1.0, "discount": 0.5}}, 1)}
TINY = {"cells": PY_CELL, "datasets": 1, "chains": 4, "sweeps": 150, "burnin": 50}


@pytest.fixture(scope="module")
def before():
    return check.estimates(0, **TINY)


def test_the_tree_passes_against_itself(before):
    assert check.compare(before, check.estimates(1, **TINY))


def test_a_pitman_yor_mass_without_its_discount_fails(before, monkeypatch):
    monkeypatch.setattr(PitYorMixing, "mass_existing_cluster",
                        lambda self, n, n_h: math.log(n_h))
    assert not check.compare(before, check.estimates(1, **TINY))
