"""Rotated surface codes (`conftest.rotated_surface`): a population whose
column bounds say nothing.

Two columns of [H_X|H_Z] are equal, so the column order is 1 and the lower
bound 1; both CSS block orders are 1 as well.  The distance search then
walks every weight level below d, and `classify` alone decides degeneracy.
The relabeled images (`oracles.relabel`) are non-CSS codes with the same
distance and verdicts.  d = 7 (49 qubits) stays out of these tests: its
distance search takes about 30 s on one core of a 2-vCPU VM.
"""

from __future__ import annotations

import random

import pytest

import oracles
from conftest import generator_strings, rotated_surface
from stabcheck import (
    ColumnBounds,
    Verdict,
    classify,
    column_bounds,
    is_css,
    min_distance,
)
from stabcheck import degeneracy
from stabcheck.symplectic import DEFAULT_BUDGET

WITNESSES = {3: "ZYY" + "I" * 6, 5: "ZYYYY" + "I" * 20}


@pytest.mark.parametrize("d", [3, 5])
def test_code_distance_verdict_and_bounds(d):
    code = rotated_surface(d)
    t = (d - 1) // 2
    assert (code.n, code.k, code.num_generators) == (d * d, 1, d * d - 1)
    assert is_css(code)
    r = min_distance(code)
    assert (r.d, str(r.witness)) == (d, WITNESSES[d])
    assert classify(code, t).verdict is Verdict.DEGENERATE
    assert column_bounds(code, t) == ColumnBounds(t, 1, 1, None, None, (1, 1), False)


@pytest.mark.parametrize("d", [3, 5])
def test_relabeled_images(d):
    code = rotated_surface(d)
    t = (d - 1) // 2
    for seed in range(3):
        image = oracles.relabel(code, random.Random(seed))
        assert not is_css(image), generator_strings(image)
        r = min_distance(image)
        assert (r.d, r.witness.weight) == (d, d)
        assert classify(image, t).verdict is Verdict.DEGENERATE
        bounds = column_bounds(image, t)
        assert bounds == ColumnBounds(t, 1, 1, None, None, None, False)
        assert bounds == oracles.column_bounds_by_classify(image, t, DEFAULT_BUDGET)


def test_d3_weight_enumerators():
    a, b = oracles.weight_enumerators(rotated_surface(3))
    assert a == [1, 0, 4, 0, 22, 0, 100, 0, 129, 0]
    assert b == [1, 0, 4, 24, 22, 192, 100, 408, 129, 144]
    # d is the least weight at which the normalizer outgrows the stabilizer
    assert next(j for j in range(1, 10) if b[j] > a[j]) == 3


def test_d5_classify_claims_in_the_sorted_array(claim_paths):
    code = rotated_surface(5)
    assert code.num_generators > degeneracy._OWNER_BITS
    assert classify(code, 2).verdict is Verdict.DEGENERATE
    assert claim_paths and set(claim_paths) == {"_first_free_sorted"}
