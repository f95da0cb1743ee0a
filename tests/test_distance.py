from __future__ import annotations

import hashlib
import random
from dataclasses import astuple

import pytest

import oracles
import test_degeneracy
from conftest import bch_31_11, css_state_6_0, draw_codes, generator_strings
from stabcheck import (
    CriterionOutcome,
    PauliOperator,
    StabilizerCode,
    Verdict,
    classify,
    column_bounds,
    css_nondegeneracy,
    css_split,
    degeneracy,
    distance,
    five_qubit,
    is_css,
    max_independence_order,
    min_distance,
    necessary_check,
    pauli_to_string,
    random_code,
    random_css_code,
    shor,
    stabilizer,
    steane,
    sufficient_nondegenerate,
    syndrome_direct,
    three_qubit_bit_flip,
    validate,
)
from stabcheck.symplectic import (
    ALL_INDEPENDENT,
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    DEPENDENT_FOUND,
    Gf2Matrix,
    RowBasis,
    kernel_basis,
    row_reduce,
    smallest_dependent_subset,
)


def rerun_verified_order(m, budget: int) -> int:
    """Largest size whose search alone, restarted at size 1, fits the budget."""
    order = 0
    for size in range(1, m.cols + 1):
        if smallest_dependent_subset(m, size, budget=budget).outcome != ALL_INDEPENDENT:
            break
        order = size
    return order


def assert_valid_logical(code, witness) -> None:
    """Oracle route: commutes with every generator, outside the span."""
    gens = generator_strings(code)
    w = pauli_to_string(witness)
    assert oracles.syndrome_string(gens, w) == "0" * len(gens)
    assert w not in oracles.span(gens)


class TestFixtureDistances:
    @pytest.mark.parametrize(
        "maker,expected_d",
        [("steane", 3), ("shor", 3), ("five_qubit", 3), ("bitflip3", 1)],
    )
    def test_distance_and_witness(self, maker, expected_d, request):
        code = request.getfixturevalue(maker)
        res = min_distance(code)
        assert res.d == expected_d
        assert res.witness.weight == expected_d
        assert_valid_logical(code, res.witness)

    def test_frozen_witnesses(self, steane, shor, five_qubit, bitflip3):
        assert pauli_to_string(min_distance(steane).witness) == "XXXIIII"
        assert pauli_to_string(min_distance(shor).witness) == "XXXIIIIII"
        assert pauli_to_string(min_distance(five_qubit).witness) == "XYXII"
        assert pauli_to_string(min_distance(bitflip3).witness) == "ZII"

    def test_matches_oracle_weight(self, steane, shor, five_qubit, bitflip3):
        for code in (steane, shor, five_qubit, bitflip3):
            naive = oracles.min_weight_logical(generator_strings(code), code.n)
            assert min_distance(code).d == oracles.weight(naive)

    def test_shor_is_both_degenerate_and_distance_three(self, shor):
        from stabcheck import Verdict, classify

        assert classify(shor, 1).verdict is Verdict.DEGENERATE
        assert min_distance(shor).d == 3


class TestIndependenceOrder:
    @pytest.mark.parametrize(
        "maker,order",
        [("steane", 2), ("shor", 1), ("five_qubit", 2), ("bitflip3", 0)],
    )
    def test_fixture_orders(self, maker, order, request):
        code = request.getfixturevalue(maker)
        got, exhausted = max_independence_order(code.h.h)
        assert got == order
        assert not exhausted

    def test_order_against_brute_force(self):
        for code in draw_codes(60, 6, seed=41):
            m = code.h.h
            got, exhausted = max_independence_order(m)
            assert not exhausted
            cols = [m.column(j) for j in range(m.cols)]
            circuit = oracles.smallest_dependent_columns(cols, m.cols)
            expected = m.cols if circuit is None else len(circuit) - 1
            assert got == expected

    def test_negative_budget_rejected_before_full_rank_shortcut(self):
        m = Gf2Matrix.identity(4)
        assert max_independence_order(m, budget=0) == (4, False)
        with pytest.raises(ValueError, match="negative budget"):
            max_independence_order(m, budget=-1)

    def test_exhaustion_returns_verified_floor(self, monkeypatch):
        m = bch_31_11().h.h
        searches = []

        def recording(*args, **kwargs):
            result = smallest_dependent_subset(*args, **kwargs)
            searches.append(result)
            return result

        monkeypatch.setattr(distance, "smallest_dependent_subset", recording)
        orders = []
        for budget in (50, 400, 3000, 50000):
            searches.clear()
            order, exhausted = max_independence_order(m, budget=budget)
            assert exhausted
            assert len(searches) == 1  # one search, no restarts
            assert searches[0].visited <= budget
            assert order == rerun_verified_order(m, budget)
            orders.append(order)
        assert orders == [0, 1, 2, 3]  # never overstated: the true order is 4


class TestColumnBounds:
    def test_steane_exact(self, steane):
        b = column_bounds(steane, 1)
        assert (b.lower, b.upper, b.exact) == (3, 3, 3)
        assert b.block_orders == (2, 2)

    def test_shor_degenerate_no_upper(self, shor):
        b = column_bounds(shor, 1)
        assert b.lower == 1
        assert b.upper is None
        assert b.exact is None
        assert b.block_orders == (1, 2)

    def test_five_qubit_upper_only(self, five_qubit):
        b = column_bounds(five_qubit, 1)
        assert (b.lower, b.upper, b.exact) == (1, 5, None)
        assert b.block_orders is None

    def test_bitflip_weak_bounds(self, bitflip3):
        b = column_bounds(bitflip3, 1)
        assert (b.lower, b.upper, b.exact) == (1, None, None)
        assert b.block_orders == (0, 2)

    def test_bch_exact_at_t2(self):
        code = bch_31_11()
        b = column_bounds(code, 2)
        assert b.block_orders == (4, 4)
        assert b.exact == 5
        assert b.lower == 5 and b.upper == 5

    def test_bch_criteria_and_bounds_make_four_searches(self, searched_matrices):
        code = bch_31_11()
        report = classify(code, 2, exhaustive=True, with_criteria=True)
        bounds = column_bounds(code, 2)
        # classify: the full matrix once (both one-sided criteria) and the
        # CSS block once; column_bounds: the full matrix and the block once.
        # BCH's X and Z blocks are equal, so neither searches the Z block.
        assert len(searched_matrices) == 4
        assert report.criteria["css_blocks"] is CriterionOutcome.NONDEGENERATE
        assert bounds.exact == 5

    def test_distinct_blocks_searched_twice(self, searched_matrices):
        code = css_state_6_0()
        split = css_split(code)
        assert split.x_block != split.z_block
        assert css_nondegeneracy(code, 1) is CriterionOutcome.NONDEGENERATE
        assert searched_matrices == [split.x_block, split.z_block]
        searched_matrices.clear()
        assert column_bounds(code, 1).block_orders == (2, 2)
        assert searched_matrices == [code.h.h, split.x_block, split.z_block]

    @pytest.mark.parametrize("budget", [0, 3, 20, DEFAULT_BUDGET])
    def test_equal_blocks_match_two_searches(self, budget):
        # the reference searches both blocks, equal or not
        rng = random.Random(2024)
        equal = 0
        for _ in range(40):
            code = _self_orthogonal_css(rng, rng.randint(4, 10))
            split = css_split(code)
            equal += split.x_block == split.z_block
            for t in range(1, min(code.n, 3) + 1):
                assert column_bounds(code, t, budget=budget) == (
                    oracles.column_bounds_by_classify(code, t, budget)
                )
                expected = CriterionOutcome.NONDEGENERATE
                for block in (split.x_block, split.z_block):
                    m = min(2 * t, block.cols)
                    search = smallest_dependent_subset(block, m, budget=budget)
                    if search.outcome == BUDGET_EXHAUSTED:
                        expected = CriterionOutcome.BUDGET_EXHAUSTED
                        break
                    if search.outcome == DEPENDENT_FOUND:
                        expected = CriterionOutcome.DEGENERATE
                        break
                assert css_nondegeneracy(code, t, budget=budget) is expected
        assert equal == 40

    @pytest.mark.parametrize("budget", [0, 3, 20, 200, DEFAULT_BUDGET])
    def test_matches_classify_route(self, budget, monkeypatch):
        # Nondegeneracy read off the orders must agree with `classify`
        # wherever the bounds use it; the case set reaches every route.
        classify_calls = []
        inner = distance.classify

        def counted(*args, **kwargs):
            classify_calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(distance, "classify", counted)
        uppers = 0
        for code, t in _bounds_cases():
            got = column_bounds(code, t, budget=budget)
            assert got == oracles.column_bounds_by_classify(code, t, budget), (
                generator_strings(code),
                t,
            )
            uppers += got.upper is not None
        if budget == DEFAULT_BUDGET:
            assert classify_calls
            assert uppers > 10

    def test_one_elimination_per_bounds_call(self, monkeypatch):
        # the ranks come from the code: n - k for the check matrix, the row
        # count for each CSS block; only css_split eliminates
        eliminated = []

        def counting(m):
            eliminated.append(m)
            return row_reduce(m)

        for module in (distance, stabilizer):
            monkeypatch.setattr(module, "row_reduce", counting)
        for code in (bch_31_11(), steane(), shor()):
            eliminated.clear()
            column_bounds(code, 1)
            assert eliminated == [code.h.h]
            eliminated.clear()
            min_distance(code, 0)
            assert eliminated == []

    def test_bch_bounds_skip_the_error_scan(self, syndrome_calls, fill_chunks):
        code = bch_31_11()
        syndrome_calls.clear()
        b = column_bounds(code, 2)
        assert (b.lower, b.upper, b.exact) == (5, 5, 5)
        assert syndrome_calls == []
        assert fill_chunks == []  # the syndrome fill of classify never ran

    def test_bch_distance_is_five(self):
        code = bch_31_11()
        # lower half: with no t the column bound settles levels 1-2 (order
        # 4), and the search of levels 3-4 finds nothing
        assert min_distance(code, 4).d is None
        # upper half: an explicit weight-5 logical, verified both routes
        from stabcheck import pauli_from_string

        w = pauli_from_string("XIXIIIIXXIIIIXIIIIIIIIIIIIIIIII")
        assert w.weight == 5
        assert syndrome_direct(code, w).is_zero()
        assert not code.in_stabilizer(w)

    def test_stabilizer_state_gets_no_distance_claims(self):
        code = css_state_6_0()
        assert code.k == 0
        b = column_bounds(code, 1)
        assert b.exact is None
        assert b.upper is None
        assert min_distance(code).d is None

    def test_bch_weight_five_witness_frozen(self):
        res = min_distance(bch_31_11(), 5)
        assert res.d == 5
        assert pauli_to_string(res.witness) == "XIXIIIIXXIIIIXIIIIIIIIIIIIIIIII"

    def test_large_stabilizer_state_skips_the_search(self, monkeypatch):
        # a 30-qubit GHZ state: searching its 4^30 operators would never end
        n = 30
        gens = ["X" * n] + ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
        code = StabilizerCode.from_strings(*gens)
        assert code.k == 0

        def no_search(code, w):
            raise AssertionError("k=0 code searched for logicals")

        monkeypatch.setattr(distance, "_first_logical", no_search)
        res = min_distance(code)
        assert res.d is None and res.witness is None
        assert res.search_limit == n
        assert res.lower == 2 * (res.max_independence_order // 4) + 1

    def test_bad_t(self, steane):
        with pytest.raises(ValueError):
            column_bounds(steane, 0)
        with pytest.raises(ValueError):
            column_bounds(steane, 8)


class TestNondegeneracyRoute:
    """Where the 4t+1 bound needs nondegeneracy, `column_bounds` takes it
    from the column criteria and runs `classify` only when none settles it."""

    SETTLED = {
        CriterionOutcome.NONDEGENERATE,
        CriterionOutcome.DEGENERATE,
        CriterionOutcome.PROVEN_NONDEGENERATE,
        CriterionOutcome.PROVEN_DEGENERATE,
    }

    def test_classify_runs_only_where_no_criterion_settles(self, monkeypatch):
        classify_calls = []
        inner = distance.classify

        def counted(*args, **kwargs):
            classify_calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(distance, "classify", counted)
        open_cases = settled_cases = 0
        for code, t, budget in _route_cases():
            classify_calls.clear()
            bounds = column_bounds(code, t, budget=budget)
            order, exhausted = max_independence_order(code.h.h, budget=budget)
            needed = (
                code.k >= 1
                and bounds.exact is None
                and order <= 4 * t
                and not exhausted
            )
            settled = False
            if needed:
                outcomes = {
                    css_nondegeneracy(code, t, budget=budget),
                    necessary_check(code, t, budget=budget),
                }
                if 4 * t <= 2 * code.n:
                    outcomes.add(sufficient_nondegenerate(code, t, budget=budget))
                settled = bool(outcomes & self.SETTLED)
            ran = needed and not settled
            assert len(classify_calls) == ran, (generator_strings(code), t, budget)
            open_cases += ran
            settled_cases += settled
        # the sample reaches both routes
        assert open_cases > 0 and settled_cases > 0

    def test_outputs_digest(self):
        # recorded before `column_bounds` read its nondegeneracy through the
        # criteria's own readers: bounds, distance results and criteria
        # must stay byte-identical
        digest = hashlib.sha256()
        for code, t, budget in _route_cases():
            bounds = column_bounds(code, t, budget=budget)
            with_t = min_distance(code, 0, t=t, budget=budget)
            without_t = min_distance(code, 0, budget=budget)
            criteria = classify(code, t, with_criteria=True, budget=budget).criteria
            outcomes = [(k, v.value) for k, v in criteria.items()]
            record = (astuple(bounds), astuple(with_t), astuple(without_t), outcomes)
            digest.update(repr(record).encode())
        assert digest.hexdigest() == (
            "cb9bbcfdc80bd55b79cb82bc8b0f37089c70ae112dcf9793e4916e36f4578484"
        )


class TestSearchControls:
    def test_limit_respected(self, steane):
        res = min_distance(steane, 2)
        assert res.d is None
        assert res.search_limit == 2
        assert min_distance(steane, 3).d == 3

    def test_limit_zero(self, steane):
        res = min_distance(steane, 0)
        assert res.d is None and res.search_limit == 0

    def test_limit_out_of_range(self, steane):
        with pytest.raises(ValueError):
            min_distance(steane, 8)
        with pytest.raises(ValueError):
            min_distance(steane, -1)

    def test_default_limit_is_n(self, bitflip3):
        assert min_distance(bitflip3).search_limit == 3

    def test_budget_exhaustion_flagged(self):
        code = bch_31_11()
        res = min_distance(code, 1, budget=20)
        assert res.budget_exhausted
        assert res.lower >= 1  # degraded but still a valid bound

    def test_bounds_attach_without_t(self, steane):
        res = min_distance(steane)
        assert res.upper is None
        assert res.lower == 2 * (res.max_independence_order // 4) + 1


class TestRandomConsistency:
    def test_search_agrees_with_oracle(self):
        for code in draw_codes(80, 5, seed=99, css_share=0.25):
            lib = min_distance(code).d
            naive = oracles.min_weight_logical(generator_strings(code), code.n)
            assert lib == (None if naive is None else oracles.weight(naive))

    def test_witness_matches_colex_oracle(self, steane, shor, five_qubit, bitflip3):
        codes = [steane, shor, five_qubit, bitflip3]
        codes += draw_codes(60, 8, seed=2718, css_share=0.3)
        kinds = set()
        for code in codes:
            res = min_distance(code)
            gens = generator_strings(code)
            naive = oracles.first_logical_colex(gens, code.n)
            got = None if res.witness is None else pauli_to_string(res.witness)
            assert got == naive
            if naive is not None:
                kinds.add("css" if is_css(code) else "non_css")
                if oracles.is_degenerate(gens, 1):
                    kinds.add("degenerate")
        assert kinds == {"css", "non_css", "degenerate"}

    def test_bounds_bracket_distance(self):
        for code in draw_codes(120, 7, seed=5150, css_share=0.25):
            res = min_distance(code, t=1)
            if res.d is None:
                continue
            assert res.lower <= res.d
            if res.upper is not None:
                assert res.d <= res.upper
            if res.witness is not None:
                assert_valid_logical(code, res.witness)


class TestWeightEnumerators:
    """The quantum MacWilliams identity as an oracle: d is the least j with
    B_j > A_j, and two distinct errors of weight <= t share a syndrome
    exactly when some nontrivial normalizer element has weight <= 2t."""

    def test_hand_values(self, steane, five_qubit):
        a, _ = oracles.weight_enumerators(steane)
        assert a == [1, 0, 0, 0, 21, 0, 42, 0]
        a, b = oracles.weight_enumerators(five_qubit)
        assert (a, b[3]) == ([1, 0, 0, 0, 15, 0], 30)

    def test_distance_degeneracy_and_bounds_agree(self, steane, shor, five_qubit, bitflip3):
        codes = [steane, shor, five_qubit, bitflip3]
        codes += draw_codes(300, 8, seed=5, css_share=0.3)
        kinds = set()
        for code in codes:
            n = code.n
            a, b = oracles.weight_enumerators(code)
            assert a[0] == b[0] == 1
            assert all(b_j >= a_j for a_j, b_j in zip(a, b))
            d = next((j for j in range(1, n + 1) if b[j] > a[j]), None)
            assert min_distance(code).d == d, generator_strings(code)
            for t in range(1, n + 1):
                nondegenerate = not any(b[1 : min(2 * t, n) + 1])
                verdict = classify(code, t).verdict
                assert (verdict is Verdict.NONDEGENERATE) == nondegenerate, (
                    generator_strings(code),
                    t,
                )
                kinds.add(verdict)
                bounds = column_bounds(code, t)
                if d is not None:
                    assert bounds.lower <= d
                    assert bounds.upper is None or d <= bounds.upper
        assert kinds == set(Verdict)


@pytest.fixture
def searched_matrices(monkeypatch):
    """The matrices of the column-subset searches that criteria and bounds
    run, in order."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return smallest_dependent_subset(*args, **kwargs)

    for module in (degeneracy, distance):
        monkeypatch.setattr(module, "smallest_dependent_subset", counting)
    return calls


@pytest.fixture
def searched_levels(monkeypatch):
    """Weight levels `min_distance` hands to the per-support search, in order."""
    levels = []
    inner = distance._first_logical

    def recorded(code, w):
        levels.append(w)
        return inner(code, w)

    monkeypatch.setattr(distance, "_first_logical", recorded)
    return levels


BCH_WITNESS = "XIXIIIIXXIIIIXIIIIIIIIIIIIIIIII"


class TestSearchedLevels:
    def test_bch_bounds_settle_every_level_to_four(self, searched_levels):
        res = min_distance(bch_31_11(), 4, t=2)
        assert (res.d, res.lower, res.upper) == (None, 5, 5)
        assert searched_levels == []

    def test_bch_searches_level_five_alone(self, searched_levels):
        res = min_distance(bch_31_11(), 5, t=2)
        assert searched_levels == [5]
        assert res.d == 5
        assert pauli_to_string(res.witness) == BCH_WITNESS

    def test_bch_without_t_starts_at_the_order_bound(self, searched_levels):
        res = min_distance(bch_31_11(), 4)
        assert (res.max_independence_order, res.lower) == (4, 3)
        assert searched_levels == [3, 4]

    def test_steane_starts_at_three(self, steane, searched_levels):
        res = min_distance(steane, t=1)
        assert searched_levels == [3]
        assert pauli_to_string(res.witness) == "XXXIIII"

    def test_bitflip_starts_at_one(self, bitflip3, searched_levels):
        res = min_distance(bitflip3, t=1)
        assert searched_levels == [1]
        assert pauli_to_string(res.witness) == "ZII"

    def test_budget_stop_starts_at_the_verified_floor(self, searched_levels):
        # 50 visits verify no column order, so every level up to 5 runs
        res = min_distance(bch_31_11(), 5, t=2, budget=50)
        assert res.budget_exhausted and res.lower == 1
        assert searched_levels == [1, 2, 3, 4, 5]
        assert pauli_to_string(res.witness) == BCH_WITNESS


class TestSkippedLevelsAreEmpty:
    def test_no_logical_below_the_lower_bound(self):
        for code, t in _skip_cases():
            lower = min_distance(code, 0, t=t).lower
            assert lower > 1, (generator_strings(code), t)
            for w in range(1, lower):
                assert distance._first_logical(code, w) is None
            if code.n > 15:
                continue
            res = min_distance(code, t=t)
            naive = oracles.first_logical_colex(generator_strings(code), code.n)
            assert pauli_to_string(res.witness) == naive
            assert res.d == oracles.weight(naive)

    def test_bch_witnesses_past_the_skip(self):
        bch = bch_31_11()
        for t in (None, 1):  # t=2: TestSearchedLevels
            res = min_distance(bch, 5, t=t)
            assert pauli_to_string(res.witness) == BCH_WITNESS
        twisted = _twisted_bch()
        res = min_distance(twisted, 5, t=1)
        assert res.d == 5
        assert syndrome_direct(twisted, res.witness).is_zero()
        assert not twisted.in_stabilizer(res.witness)


def _skip_cases():
    """(code, t) pairs whose column lower bound passes 1: Steane under random
    qubit permutations and generator row operations, the [[15,7,3]] Hamming
    CSS code, BCH at t = None, 1 and 2, and BCH twisted by S gates."""
    rng = random.Random(1729)
    base = steane()
    for _ in range(8):
        perm = list(range(base.n))
        rng.shuffle(perm)

        def moved(mask):
            return sum(1 << perm[q] for q in range(base.n) if mask >> q & 1)

        rows = [[moved(g.x.bits), moved(g.z.bits)] for g in base.h.generators]
        for _ in range(12):  # add row j to row i: invertible, still commuting
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] = [rows[i][0] ^ rows[j][0], rows[i][1] ^ rows[j][1]]
        gens = [PauliOperator.from_masks(base.n, x, z) for x, z in rows]
        yield StabilizerCode(validate(gens)), 1
    yield _hamming_15_7(), 1
    bch = bch_31_11()
    for t in (None, 1, 2):
        yield bch, t
    yield _twisted_bch(), 1


def _hamming_15_7() -> StabilizerCode:
    """[[15,7,3]] CSS code: the [15,11] Hamming checks on both sides."""
    n = 15
    rows = [sum(1 << (c - 1) for c in range(1, n + 1) if c >> b & 1) for b in range(4)]
    gens = [PauliOperator.from_masks(n, r, 0) for r in rows]
    gens += [PauliOperator.from_masks(n, 0, r) for r in rows]
    return StabilizerCode(validate(gens))


def _twisted_bch() -> StabilizerCode:
    """BCH with S on qubits 0, 1 and 3 (X becomes Y there): out of CSS form,
    with its full independence order still 4."""
    bch = bch_31_11()
    twist = 0b1011
    return StabilizerCode(
        validate(
            [
                PauliOperator.from_masks(bch.n, g.x.bits, g.z.bits ^ (g.x.bits & twist))
                for g in bch.h.generators
            ]
        )
    )


def _self_orthogonal_css(rng: random.Random, n: int) -> StabilizerCode:
    """CSS code whose X and Z generators share one random self-orthogonal
    matrix: even-weight rows drawn from the dual of the rows so far."""
    rows: list[int] = []
    basis = RowBasis()
    target = rng.randint(1, n // 2)
    while len(rows) < target:
        v = 0
        for kv in kernel_basis(Gf2Matrix(n, tuple(rows))):
            if rng.random() < 0.5:
                v ^= kv.bits
        if v.bit_count() % 2 == 0 and v and basis.add(v):
            rows.append(v)
    gens = [PauliOperator.from_masks(n, r, 0) for r in rows]
    gens += [PauliOperator.from_masks(n, 0, r) for r in rows]
    return StabilizerCode(validate(gens))


def _bounds_cases():
    """(code, t) pairs: random codes, half with one or two logical qubits, and
    the fixtures at t <= 3, plus three codes at t = 1: BCH, BCH twisted by S
    gates out of CSS form with its full independence order still 4, and a
    degenerate [[9,1]] code of full order 3."""
    codes = list(draw_codes(150, 9, seed=11, css_share=0.4))
    rng = random.Random(77)
    while len(codes) < 300:
        n = rng.randint(5, 10)
        if rng.random() < 0.4:
            code = random_css_code(n, (n - 1) // 2, n - 1 - (n - 1) // 2, rng)
        else:
            code = random_code(n, n - rng.randint(1, 2), rng)
        if code is not None:
            codes.append(code)
    codes += [steane(), shor(), five_qubit(), three_qubit_bit_flip(), css_state_6_0()]
    for code in codes:
        for t in range(1, min(code.n, 3) + 1):
            yield code, t
    bch = bch_31_11()
    twisted = _twisted_bch()
    assert css_split(twisted) is None
    yield bch, 1
    yield twisted, 1
    # every 3 columns independent, yet two weight-1 errors collide
    yield StabilizerCode.from_strings(
        "YZIXYZZXI", "ZIYZZZIYY", "IYYXIZYIZ", "ZIZYXZYIZ",
        "IYZIZYYII", "IYZYIZXYY", "IIXYYXXYI", "ZXIIYYIZZ",
    ), 1


def _route_cases():
    """(code, t, budget): `_bounds_cases` at the budgets of
    `test_matches_classify_route`, then `TestSharedSearches.cases`."""
    for budget in (0, 3, 20, 200, DEFAULT_BUDGET):
        for code, t in _bounds_cases():
            yield code, t, budget
    yield from test_degeneracy.TestSharedSearches.cases()
