from __future__ import annotations

from math import comb

import pytest

import oracles
from conftest import bch_31_11, draw_codes, generator_strings
from stabcheck import (
    CriterionOutcome,
    StabilizerCode,
    Verdict,
    all_subsets_independent,
    classify,
    column_bounds,
    css_nondegeneracy,
    css_split,
    enumerate_errors,
    error_count,
    five_qubit,
    max_independence_order,
    necessary_check,
    pauli_from_string,
    pauli_to_string,
    shor,
    standard_form,
    standard_form_shortcut,
    steane,
    sufficient_nondegenerate,
    three_qubit_bit_flip,
)
from stabcheck.degeneracy import alt_error_count, iter_error_masks, iter_weight_masks
from stabcheck.symplectic import ALL_INDEPENDENT, DEPENDENT_FOUND


class TestEnumeration:
    def test_weight_zero_is_identity(self):
        assert list(iter_weight_masks(3, 0)) == [(0, 0)]

    def test_single_qubit_order_is_x_y_z(self):
        first = list(iter_weight_masks(2, 1))[:3]
        assert first == [(1, 0), (1, 1), (0, 1)]  # X1, Y1, Z1

    def test_levels_ascend(self):
        weights = []
        for x, z in iter_error_masks(3, 2):
            weights.append(bin(x | z).count("1"))
        assert weights == sorted(weights)

    def test_matches_oracle_strings(self):
        lib = [
            pauli_to_string(p) for p in enumerate_errors(4, 2)
        ]
        assert lib == list(oracles.errors_up_to(4, 2))

    @pytest.mark.parametrize("n,t", [(1, 1), (3, 2), (5, 3), (6, 1)])
    def test_count_formula(self, n, t):
        errors = list(enumerate_errors(n, t))
        assert len(errors) == error_count(n, t)
        assert len(errors) == sum(comb(n, i) * 3**i for i in range(1, t + 1))
        assert len(set(errors)) == len(errors)

    def test_len_protocol(self):
        assert len(enumerate_errors(5, 2)) == error_count(5, 2)

    def test_alt_count_disagrees_already_at_one_qubit(self):
        assert error_count(1, 1) == 3
        assert alt_error_count(1, 1) == 2

    @pytest.mark.parametrize("t", [0, 4])
    def test_bad_t_rejected(self, t):
        with pytest.raises(ValueError):
            list(iter_error_masks(3, t))


class TestClassifyFixtures:
    def test_steane_nondegenerate(self, steane):
        r = classify(steane, 1)
        assert r.verdict is Verdict.NONDEGENERATE
        assert r.witness is None
        assert r.syndrome_count == 21
        assert r.expected_count == 21
        assert r.collision_count == 0

    def test_five_qubit_fills_all_syndromes(self, five_qubit):
        r = classify(five_qubit, 1)
        assert r.verdict is Verdict.NONDEGENERATE
        assert r.syndrome_count == 15 == 2**4 - 1

    def test_shor_witness(self, shor):
        r = classify(shor, 1)
        assert r.verdict is Verdict.DEGENERATE
        w = r.witness
        assert pauli_to_string(w.first) == "ZIIIIIIII"
        assert pauli_to_string(w.second) == "IZIIIIIII"
        assert w.product_in_stabilizer

    def test_shor_witness_against_oracle(self, shor):
        gens = generator_strings(shor)
        r = classify(shor, 1)
        first = pauli_to_string(r.witness.first)
        second = pauli_to_string(r.witness.second)
        assert oracles.syndrome_string(gens, first) == oracles.syndrome_string(gens, second)
        assert (oracles.multiply(first, second) in oracles.span(gens)) == (
            r.witness.product_in_stabilizer
        )

    def test_bitflip_witness_is_x_y_clash(self, bitflip3):
        r = classify(bitflip3, 1)
        assert r.verdict is Verdict.DEGENERATE
        assert pauli_to_string(r.witness.first) == "XII"
        assert pauli_to_string(r.witness.second) == "YII"
        assert not r.witness.product_in_stabilizer

    def test_steane_degenerate_at_t2(self, steane):
        # 2t = 4 columns of the Hamming block are dependent, and indeed two
        # weight-2 errors share a syndrome
        r = classify(steane, 2)
        assert r.verdict is Verdict.DEGENERATE

    def test_exhaustive_counts_all_collisions(self, shor):
        gens = generator_strings(shor)
        r = classify(shor, 1, exhaustive=True)
        syndromes = {oracles.syndrome_string(gens, e) for e in oracles.errors_up_to(9, 1)}
        zero = "0" * 8
        expected_distinct = len(syndromes - {zero})
        assert r.syndrome_count == expected_distinct
        # identity pre-claims the zero syndrome, every error is one more
        # claim; claims minus distinct non-zero syndromes = collisions
        assert r.collision_count == 27 - expected_distinct

    def test_early_exit_leaves_collision_count_unset(self, shor):
        assert classify(shor, 1).collision_count is None


class TestClassifyAgainstOracle:
    def test_random_codes_both_routes_agree(self):
        for i, code in enumerate(draw_codes(250, 6, seed=2718, css_share=0.3)):
            t = min(2, code.n)
            gens = generator_strings(code)
            lib = classify(code, t)
            naive = oracles.is_degenerate(gens, t)
            assert (lib.verdict is Verdict.DEGENERATE) == naive, (i, gens, t)
            if lib.witness is not None:
                first = pauli_to_string(lib.witness.first)
                second = pauli_to_string(lib.witness.second)
                assert first != second
                assert oracles.syndrome_string(gens, first) == oracles.syndrome_string(
                    gens, second
                )
                product = oracles.multiply(first, second)
                assert (product in oracles.span(gens)) == lib.witness.product_in_stabilizer


class TestFullMapStop:
    """Exhaustive classify stops once all 2^(n-k) syndromes are claimed."""

    def test_steane_t2_stops_when_full(self, steane, syndrome_calls):
        r = classify(steane, 2, exhaustive=True)
        assert len(syndrome_calls) == 137  # of 210 errors
        assert (r.syndrome_count, r.collision_count) == (63, 210 - 63)

    def test_five_qubit_t2_stops_after_the_witness(self, five_qubit, syndrome_calls):
        # the 15 single-qubit errors fill the perfect code's map; the 16th
        # error is the first collision
        r = classify(five_qubit, 2, exhaustive=True)
        assert len(syndrome_calls) == 16
        assert (r.syndrome_count, r.collision_count) == (15, 105 - 15)
        assert pauli_to_string(r.witness.second) == "XXIII"

    def test_negative_budget_raises_before_the_enumeration(self, syndrome_calls):
        bch = bch_31_11()
        with pytest.raises(ValueError, match="negative budget"):
            classify(bch, 2, with_criteria=True, budget=-1)
        assert syndrome_calls == []

    def test_random_codes_against_oracle(self):
        filled_early = 0
        kinds = set()
        codes = [five_qubit(), three_qubit_bit_flip()]
        codes += draw_codes(30, 6, seed=606, css_share=0.3)
        for i, code in enumerate(codes):
            gens = generator_strings(code)
            for t in range(1, code.n + 1):
                r = classify(code, t, exhaustive=True)
                distinct, collision, filled_at = oracles.claim_syndromes(gens, t)
                total = error_count(code.n, t)
                assert r.syndrome_count == distinct, (i, gens, t)
                assert r.collision_count == total - distinct, (i, gens, t)
                if collision is None:
                    kinds.add("none")
                    assert r.witness is None
                else:
                    pair = (pauli_to_string(r.witness.first), pauli_to_string(r.witness.second))
                    assert pair == collision, (i, gens, t)
                    kinds.add("identity" if collision[0] == "I" * code.n else "pair")
                    product = oracles.multiply(*collision)
                    assert r.witness.product_in_stabilizer == (product in oracles.span(gens))
                if filled_at is not None and filled_at < total:
                    filled_early += 1
        assert filled_early > 0
        assert kinds == {"none", "identity", "pair"}


class TestColumnCriteria:
    def test_sufficient_proves_bch_at_t1(self):
        code = bch_31_11()
        assert sufficient_nondegenerate(code, 1) is CriterionOutcome.PROVEN_NONDEGENERATE
        assert classify(code, 1).verdict is Verdict.NONDEGENERATE

    def test_sufficient_inconclusive_on_steane(self, steane):
        # three Hamming columns xor to zero, so a dependent 4-subset exists
        assert sufficient_nondegenerate(steane, 1) is CriterionOutcome.INCONCLUSIVE

    def test_sufficient_rejects_oversized_t(self, bitflip3):
        with pytest.raises(ValueError):
            sufficient_nondegenerate(bitflip3, 2)

    def test_necessary_proves_shor(self, shor):
        assert necessary_check(shor, 1) is CriterionOutcome.PROVEN_DEGENERATE

    def test_necessary_inconclusive_on_steane(self, steane):
        assert necessary_check(steane, 1) is CriterionOutcome.INCONCLUSIVE

    def test_css_verdicts(self, steane, shor, five_qubit):
        assert css_nondegeneracy(steane, 1) is CriterionOutcome.NONDEGENERATE
        assert css_nondegeneracy(shor, 1) is CriterionOutcome.DEGENERATE
        assert css_nondegeneracy(five_qubit, 1) is CriterionOutcome.NOT_CSS

    def test_shortcut_fires_on_pure_x_code(self):
        code = StabilizerCode.from_strings("X")
        sf = standard_form(code)
        assert standard_form_shortcut(sf, 1) is CriterionOutcome.PROVEN_DEGENERATE
        assert classify(code, 1).verdict is Verdict.DEGENERATE

    def test_shortcut_inconclusive_when_x_rank_deficient(self, shor):
        assert standard_form_shortcut(standard_form(shor), 1) is CriterionOutcome.INCONCLUSIVE

    def test_shortcut_inconclusive_with_heavy_columns(self, five_qubit):
        sf = standard_form(five_qubit)
        assert sf.r == sf.n - sf.k  # full X rank, so the shortcut actually looks at B
        assert standard_form_shortcut(sf, 1) is CriterionOutcome.INCONCLUSIVE

    def test_subset_scopes(self, steane):
        full = all_subsets_independent(steane, 2, "full")
        assert full.outcome == ALL_INDEPENDENT
        x_only = all_subsets_independent(steane, 3, "x_only")
        assert x_only.outcome == DEPENDENT_FOUND
        with pytest.raises(ValueError):
            all_subsets_independent(steane, 2, "both")
        with pytest.raises(ValueError):
            all_subsets_independent(steane, 15, "x_only")

    def test_budget_exhaustion_surfaces(self, steane):
        r = classify(steane, 1, with_criteria=True, budget=3)
        assert CriterionOutcome.BUDGET_EXHAUSTED in r.criteria.values()

    def test_criteria_keys(self, steane):
        r = classify(steane, 1, with_criteria=True)
        assert set(r.criteria) == {
            "exact",
            "sufficient_columns",
            "necessary_columns",
            "css_blocks",
            "standard_form",
        }
        assert classify(steane, 1).criteria == {"exact": CriterionOutcome.NONDEGENERATE}

    def test_sufficient_skipped_when_too_wide(self, bitflip3):
        # 4t = 8 exceeds the 6 columns of the stacked matrix
        r = classify(bitflip3, 2, with_criteria=True)
        assert "sufficient_columns" not in r.criteria


class TestSharedSearches:
    """Criteria read off one search equal the stand-alone searches."""

    # 35 stops Steane's block searches right after every pair checks out
    BUDGETS = (1, 4, 15, 35, 60, 250, 10**7)

    @staticmethod
    def cases():
        fixtures = [steane(), shor(), five_qubit(), three_qubit_bit_flip()]
        pairs = [(bch_31_11(), 1)]  # every 4-subset independent: proven
        for code in fixtures + list(draw_codes(70, 7, seed=808, css_share=0.5)):
            pairs += [(code, t) for t in range(1, min(code.n, 3) + 1)]
        for code, t in pairs:
            for budget in TestSharedSearches.BUDGETS:
                yield code, t, budget

    def test_classify_criteria_match_stand_alone(self):
        outcomes = set()
        for code, t, budget in self.cases():
            expected = {
                "necessary_columns": necessary_check(code, t, budget=budget),
                "css_blocks": css_nondegeneracy(code, t, budget=budget),
            }
            if 4 * t <= 2 * code.n:
                expected["sufficient_columns"] = sufficient_nondegenerate(
                    code, t, budget=budget
                )
            got = classify(code, t, with_criteria=True, budget=budget).criteria
            assert {k: got[k] for k in expected} == expected
            outcomes.update(expected.values())
        # the sample reaches every outcome, budget stops included
        assert outcomes >= {
            CriterionOutcome.PROVEN_NONDEGENERATE,
            CriterionOutcome.PROVEN_DEGENERATE,
            CriterionOutcome.INCONCLUSIVE,
            CriterionOutcome.NONDEGENERATE,
            CriterionOutcome.DEGENERATE,
            CriterionOutcome.BUDGET_EXHAUSTED,
        }

    def test_column_bounds_exact_matches_css_rule(self):
        hits = 0
        for code, t, budget in self.cases():
            split = css_split(code)
            rule = False
            if split is not None and code.k >= 1:
                x_order, x_exh = max_independence_order(split.x_block, budget=budget)
                z_order, z_exh = max_independence_order(split.z_block, budget=budget)
                pattern = min(x_order, z_order) == 2 * t and not (x_exh or z_exh)
                rule = pattern and css_nondegeneracy(
                    code, t, budget=budget
                ) is CriterionOutcome.NONDEGENERATE
            exact = column_bounds(code, t, budget=budget).exact
            assert (exact is not None) == rule
            if rule:
                assert exact == 2 * t + 1
                hits += 1
        assert hits > 0
