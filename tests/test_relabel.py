"""Relabeled codes: the fixtures and the [[31,11,5]] BCH code with their
qubits permuted and X, Y, Z permuted on each qubit (`oracles.relabel`).

A relabeling keeps weight and commutation, so every image has its
original's distance, verdicts and weight enumerators, while its check matrix
is new: the images of CSS codes are almost never CSS, so BCH's images are
non-CSS codes with d = 5.  The random codes of `draw_codes` are almost all
trivial at t >= 1; these images are not.  The table decoder's failure rate
is not compared, since its ties break in enumeration order.
"""

from __future__ import annotations

import hashlib
import random

import oracles
import stabcheck as sc
from conftest import bch_31_11, generator_strings
from stabcheck import CriterionOutcome as Outcome
from stabcheck import (
    Verdict,
    classify,
    column_bounds,
    max_independence_order,
    min_distance,
)
from stabcheck.symplectic import DEFAULT_BUDGET

FIXTURES = (sc.steane, sc.shor, sc.five_qubit, sc.three_qubit_bit_flip)


def images(originals, count: int, seed: int, maps=oracles.LETTER_MAPS):
    """(original, image) pairs: each original as its own first image, then
    `count` seeded relabelings of it."""
    rng = random.Random(seed)
    for code in originals:
        yield code, code
        for _ in range(count):
            yield code, oracles.relabel(code, rng, maps)


def population(maps=oracles.LETTER_MAPS):
    fixtures = [f() for f in FIXTURES]
    yield from images(fixtures, 49, seed=10, maps=maps)
    yield from images([bch_31_11()], 4, seed=11, maps=maps)


class TestRelabeledCodes:
    def test_relabel_keeps_distance_verdicts_and_bounds(self):
        facts = {}
        for original, image in population():
            if original not in facts:
                facts[original] = (
                    min_distance(original).d,
                    [classify(original, t).verdict for t in (1, 2)],
                )
            d, verdicts = facts[original]
            assert min_distance(image).d == d, generator_strings(image)
            for t, verdict in zip((1, 2), verdicts):
                assert classify(image, t).verdict is verdict, (generator_strings(image), t)
                bounds = column_bounds(image, t)
                assert bounds == oracles.column_bounds_by_classify(image, t, DEFAULT_BUDGET)
                assert bounds.lower <= d
                assert bounds.upper is None or d <= bounds.upper
                assert bounds.exact in (None, d)
            if original.n == 31 and image is not original:
                assert not sc.is_css(image)  # BCH's d = 5 on the non-CSS paths

    def test_bch_image_witnesses_are_frozen(self):
        # the d = 5 searches on non-CSS codes, whose tags carry class keys
        pairs = list(images([bch_31_11()], 4, seed=11))[1:]
        witnesses = [min_distance(image).witness for _, image in pairs]
        assert [w.weight for w in witnesses] == [5] * 4
        joined = "\n".join(str(w) for w in witnesses).encode()
        assert hashlib.sha256(joined).hexdigest() == (
            "da1c3560972a5a0e73b704c6916b2630a86c00db4146862e34b83d117f31a824"
        )

    def test_relabel_keeps_weight_enumerators(self):
        enumerators = {}
        for original, image in images([f() for f in FIXTURES], 49, seed=12):
            if original not in enumerators:
                enumerators[original] = oracles.weight_enumerators(original)
            assert oracles.weight_enumerators(image) == enumerators[original]

    def test_qubit_and_xz_swaps_keep_the_column_order(self):
        orders = {}
        for original, image in population(maps=("XYZ", "ZYX")):
            if original not in orders:
                orders[original] = max_independence_order(original.h.h)
            assert max_independence_order(image.h.h) == orders[original]

    def test_criteria_never_contradict_the_exact_verdict(self):
        seen = set()
        for _, image in population():
            for t in (1, 2):
                rep = classify(image, t, with_criteria=True)
                crit = rep.criteria
                nondegenerate = rep.verdict is Verdict.NONDEGENERATE
                for name, outcome in crit.items():
                    seen.add((name, outcome))
                if crit.get("sufficient_columns") is Outcome.PROVEN_NONDEGENERATE:
                    assert nondegenerate, (generator_strings(image), t)
                if crit["necessary_columns"] is Outcome.PROVEN_DEGENERATE:
                    assert not nondegenerate, (generator_strings(image), t)
                if crit["standard_form"] is Outcome.PROVEN_DEGENERATE:
                    assert not nondegenerate, (generator_strings(image), t)
                if crit["css_blocks"] is not Outcome.NOT_CSS:
                    expected = Outcome.NONDEGENERATE if nondegenerate else Outcome.DEGENERATE
                    assert crit["css_blocks"] is expected, (generator_strings(image), t)
        assert seen >= {
            ("sufficient_columns", Outcome.PROVEN_NONDEGENERATE),
            ("sufficient_columns", Outcome.INCONCLUSIVE),
            ("necessary_columns", Outcome.PROVEN_DEGENERATE),
            ("necessary_columns", Outcome.INCONCLUSIVE),
            ("standard_form", Outcome.PROVEN_DEGENERATE),
            ("standard_form", Outcome.INCONCLUSIVE),
            ("css_blocks", Outcome.NONDEGENERATE),
            ("css_blocks", Outcome.DEGENERATE),
            ("css_blocks", Outcome.NOT_CSS),
        }
