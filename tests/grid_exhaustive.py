"""The exhaustive pair grid: every ordered pair of the 256 matrices over
{-inf,-1,0,1}, 65,536 pairs.

The geometric decisions are held to the residuation oracle on each pair:
the one-sided preorders to ``solves_right``, the J-preorder to a verified
``j_factorization``, and D = J to a connecting matrix whose R- and
L-relations are themselves decided by residuation.

It takes about 8 s (Python 3.11, a shared 2-CPU host), so tier-1 does not
collect it: the file name is outside pytest's ``test_*.py`` pattern.  Run it
with ``PYTHONPATH=src python -m pytest -q tests/grid_exhaustive.py``.
"""

from itertools import product

import pytest

from tropmat.green import (
    GreenRelation,
    d_class_witness,
    j_factorization,
    leq_J,
    leq_L,
    leq_R,
    related,
)
from tropmat.matrix import TropMatrix, solves_right

MATRICES = [
    TropMatrix([[a, b], [c, d]]) for a, b, c, d in product(["-inf", -1, 0, 1], repeat=4)
]


def solves_left(b, a):
    """Whether a = x @ b is solvable, by residuation on the transposes."""
    return solves_right(b.transpose(), a.transpose())


def test_one_sided_preorders_match_residuation_on_every_pair():
    assert len(MATRICES) == 256
    for a, b in product(MATRICES, repeat=2):
        assert leq_R(a, b) == solves_right(b, a), (a, b)
        assert leq_L(a, b) == solves_left(b, a), (a, b)


def test_j_preorder_matches_verified_factorizations_on_every_pair():
    below = 0
    for a, b in product(MATRICES, repeat=2):
        if leq_J(a, b):
            x, y = j_factorization(a, b)
            assert x @ b @ y == a, (a, b)
            below += 1
        else:
            with pytest.raises(ValueError):
                j_factorization(a, b)
    assert below == 41_753


def test_d_equals_j_on_every_pair():
    related_pairs = 0
    for a, b in product(MATRICES, repeat=2):
        j_rel = leq_J(a, b) and leq_J(b, a)
        assert related(GreenRelation.J, a, b) == j_rel, (a, b)
        assert related(GreenRelation.D, a, b) == j_rel, (a, b)
        if j_rel:
            # a L z R b, each side decided by residuation both ways
            z = d_class_witness(a, b)
            assert solves_right(z, b) and solves_right(b, z), (a, b)
            assert solves_left(z, a) and solves_left(a, z), (a, b)
            related_pairs += 1
        else:
            with pytest.raises(ValueError):
                d_class_witness(a, b)
    assert related_pairs > 0
