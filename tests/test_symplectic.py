from __future__ import annotations

import random
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import bch_31_11, draw_codes
from stabcheck import css_split, symplectic
from stabcheck.symplectic import (
    ALL_INDEPENDENT,
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    DEPENDENT_FOUND,
    BitVector,
    Gf2Matrix,
    PauliOperator,
    PauliParseError,
    RowBasis,
    SubsetSearch,
    commutes,
    gf2_invert,
    kernel_basis,
    pauli_from_string,
    pauli_product,
    pauli_to_string,
    row_reduce,
    smallest_dependent_subset,
    symplectic_weight,
)

pauli_strings = st.text(alphabet="IXYZ", min_size=1, max_size=12)


class TestBitVector:
    def test_from01_roundtrip(self):
        v = BitVector.from01("10110")
        assert v.n == 5
        assert v.bits == 0b01101
        assert v.to01() == "10110"

    def test_from01_rejects_other_chars(self):
        with pytest.raises(ValueError, match="position 3"):
            BitVector.from01("10a1")

    def test_indices_and_get(self):
        v = BitVector(6, 0b101001)
        assert [v.get(i) for i in range(6)] == [1, 0, 0, 1, 0, 1]
        assert v.weight == 3

    def test_xor_and_dot(self):
        a = BitVector.from01("1100")
        b = BitVector.from01("1010")
        assert (a ^ b).to01() == "0110"
        assert a.dot(b) == 1
        assert a.dot(a) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BitVector.from01("11") ^ BitVector.from01("111")


class TestPauliParsing:
    def test_basic_letters(self):
        p = pauli_from_string("XIZY")
        assert p.n == 4
        assert p.x.to01() == "1001"
        assert p.z.to01() == "0011"

    def test_leftmost_letter_is_qubit_one(self):
        p = pauli_from_string("XII")
        assert p.x.get(0) == 1
        assert p.x.bits == 1

    @pytest.mark.parametrize("phase", ["+", "-", "i", "+i", "-i"])
    def test_phase_tokens_discarded(self, phase):
        assert pauli_from_string(phase + "XZ") == pauli_from_string("XZ")

    def test_bad_character_position_is_one_based(self):
        with pytest.raises(PauliParseError) as exc:
            pauli_from_string("XQ")
        assert exc.value.position == 2

    def test_bad_character_position_counts_phase_token(self):
        with pytest.raises(PauliParseError) as exc:
            pauli_from_string("-iXQZ")
        assert exc.value.position == 4

    def test_empty_rejected(self):
        with pytest.raises(PauliParseError):
            pauli_from_string("")
        with pytest.raises(PauliParseError):
            pauli_from_string("+i")

    @given(pauli_strings)
    def test_roundtrip(self, s):
        assert pauli_to_string(pauli_from_string(s)) == s

    def test_weight_ignores_identity(self):
        assert pauli_from_string("IXIYZ").weight == 3
        assert pauli_from_string("IIII").weight == 0


class TestPauliAlgebra:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("X", "X", "I"), ("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y"),
         ("XZ", "ZX", "YY"), ("IX", "XI", "XX")],
    )
    def test_products_match_letter_table(self, a, b, expected):
        got = pauli_product(pauli_from_string(a), pauli_from_string(b))
        assert pauli_to_string(got) == expected

    @given(pauli_strings, st.data())
    def test_product_agrees_with_oracle(self, a, data):
        b = data.draw(st.text(alphabet="IXYZ", min_size=len(a), max_size=len(a)))
        lib = pauli_to_string(pauli_product(pauli_from_string(a), pauli_from_string(b)))
        assert lib == oracles.multiply(a, b)

    @given(pauli_strings, st.data())
    def test_commutation_agrees_with_oracle(self, a, data):
        b = data.draw(st.text(alphabet="IXYZ", min_size=len(a), max_size=len(a)))
        lib = commutes(pauli_from_string(a), pauli_from_string(b))
        assert lib == (not oracles.anticommutes(a, b))

    def test_single_qubit_clashes(self):
        x, y, z = (pauli_from_string(c) for c in "XYZ")
        assert not commutes(x, z)
        assert not commutes(x, y)
        assert not commutes(y, z)
        assert commutes(x, x)

    @given(pauli_strings)
    def test_self_inverse(self, s):
        p = pauli_from_string(s)
        assert pauli_product(p, p).is_identity

    @given(pauli_strings)
    def test_symplectic_weight_matches_letter_count(self, s):
        p = pauli_from_string(s)
        assert symplectic_weight(p) == oracles.weight(s)
        assert p.weight == oracles.weight(s)

    def test_halves_must_match(self):
        with pytest.raises(ValueError, match="half lengths differ"):
            PauliOperator(BitVector(2, 0), BitVector(3, 0))
        with pytest.raises(ValueError, match="length mismatch"):
            commutes(pauli_from_string("XX"), pauli_from_string("XXX"))


class TestGf2Matrix:
    def test_from01_entry_column(self):
        m = Gf2Matrix.from01(["110", "011"])
        assert m.cols == 3
        assert m.entry(0, 0) == 1 and m.entry(1, 0) == 0
        assert m.column(1) == 0b11
        assert m.to01() == ["110", "011"]

    def test_matmul_identity(self):
        m = Gf2Matrix.from01(["101", "010"])
        assert Gf2Matrix.identity(2) @ m == m

    def test_transpose_involution(self):
        m = Gf2Matrix.from01(["1011", "0110", "1100"])
        assert m.transpose().transpose() == m

    def test_columns_match_column(self):
        rng = random.Random(250)
        shapes = [(0, 0), (0, 5), (4, 0), (1, 1), (3, 70), (70, 3), (65, 65)]
        shapes += [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(200)]
        for nrows, cols in shapes:
            m = Gf2Matrix(cols, tuple(rng.getrandbits(cols) for _ in range(nrows)))
            assert m.columns() == [m.column(j) for j in range(cols)]


small_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.integers(0, (1 << cols) - 1), min_size=1, max_size=6
    ).map(lambda rows: Gf2Matrix(cols, tuple(rows)))
)


@st.composite
def kernel_matrices(draw) -> Gf2Matrix:
    """0-10 rows and 0-14 columns, drawn column by column: zero rows come from
    a row mask, zero and repeated columns from a small pool of columns."""
    nrows = draw(st.integers(0, 10))
    live = draw(st.integers(0, (1 << nrows) - 1))
    column = st.integers(0, (1 << nrows) - 1)
    pool = draw(st.lists(column, min_size=1, max_size=3))
    cols = draw(st.lists(st.one_of(st.just(0), st.sampled_from(pool), column), max_size=14))
    return Gf2Matrix(nrows, tuple(c & live for c in cols)).transpose()


class TestRowReduce:
    @given(small_matrices)
    def test_transform_replays_reduction(self, m):
        red = row_reduce(m)
        assert red.transform @ m == red.reduced
        assert red.rank == len(red.pivot_cols)
        assert red.rank <= min(len(m.rows), m.cols)

    @given(small_matrices)
    def test_reduced_is_reduced_echelon(self, m):
        red = row_reduce(m)
        for i, pc in enumerate(red.pivot_cols):
            col = red.reduced.column(pc)
            assert col == 1 << i  # pivot column is a unit vector
        for i in range(red.rank, len(m.rows)):
            assert red.reduced.rows[i] == 0

    @given(small_matrices)
    def test_idempotent(self, m):
        once = row_reduce(m).reduced
        twice = row_reduce(once).reduced
        assert once == twice

    @given(small_matrices)
    def test_kernel_orthogonal_and_complete(self, m):
        basis = kernel_basis(m)
        for v in basis:
            assert m.transpose().vec_mat(v.bits) == 0
        assert len(basis) == m.cols - row_reduce(m).rank

    @given(kernel_matrices())
    @example(Gf2Matrix(0, ()))
    @example(Gf2Matrix(0, (0, 0, 0)))
    @example(Gf2Matrix(4, ()))
    @example(Gf2Matrix(5, (0, 0b10110, 0, 0b10110)))
    @settings(max_examples=300)
    def test_kernel_matches_rref_construction(self, m):
        # the [[31,11,5]] generators, random_css_code's Z rows and every
        # class key are built from these exact vectors, in this order
        assert kernel_basis(m) == oracles.kernel_basis_rref(m)

    def test_invert_roundtrip(self):
        m = Gf2Matrix.from01(["110", "011", "111"])
        inv = gf2_invert(m)
        assert inv @ m == Gf2Matrix.identity(3)

    def test_invert_rejects_singular(self):
        with pytest.raises(ValueError):
            gf2_invert(Gf2Matrix.from01(["11", "11"]))


class TestRowBasis:
    def test_add_reports_independence(self):
        b = RowBasis()
        assert b.add(0b0011)
        assert b.add(0b0101)
        assert not b.add(0b0110)  # xor of the first two
        assert len(b) == 2

    def test_contains(self):
        b = RowBasis([0b0011, 0b0101])
        assert b.contains(0b0110)
        assert b.contains(0)
        assert not b.contains(0b1000)

    def test_add_never_touches_kernel(self):
        b = RowBasis([0b0011, 0b0011, 0])
        assert b.add(0b0101) is True
        assert b.add(0b0110) is False
        assert b.add(0) is False
        assert len(b) == 2
        assert b.kernel == []

    def test_pop_undoes_pushes(self):
        # after any LIFO run of pushes and pops, the basis is the one the
        # pushes still standing build from scratch
        rng = random.Random(372)
        width = 5
        probes = range(1 << width)
        for _ in range(300):
            b = RowBasis()
            stack: list[tuple[int, int, int | None]] = []
            for _ in range(rng.randint(0, 24)):
                if stack and rng.random() < 0.4:
                    b.pop(stack.pop()[2])
                else:
                    v, tag = rng.getrandbits(width), rng.getrandbits(8)
                    stack.append((v, tag, b.push(v, tag)))
                fresh = RowBasis()
                for v, tag, _ in stack:
                    fresh.push(v, tag)
                assert len(b) == len(fresh)
                assert b.kernel == fresh.kernel
                assert [b.reduce(p) for p in probes] == [fresh.reduce(p) for p in probes]

    @given(st.lists(st.integers(0, 63), max_size=12))
    def test_kernel_tags_pick_zero_sums(self, vectors):
        b = RowBasis()
        keys = [b.push(v, 1 << i) for i, v in enumerate(vectors)]
        assert len(b.kernel) == keys.count(None) == len(vectors) - len(b)
        for tag in b.kernel:
            total = 0
            for i, v in enumerate(vectors):
                if tag >> i & 1:
                    total ^= v
            assert tag and total == 0
        # one tag per dependent vector, each with that vector as its top bit
        dependent = [i for i, k in enumerate(keys) if k is None]
        assert [tag.bit_length() - 1 for tag in b.kernel] == dependent


class TestSmallestDependentSubset:
    def test_all_independent(self):
        m = Gf2Matrix.from01(["100", "010", "001"])
        s = smallest_dependent_subset(m, 3)
        assert s.outcome == ALL_INDEPENDENT
        assert s.dependent is None

    def test_zero_column_is_size_one_circuit(self):
        m = Gf2Matrix.from01(["010", "001"])
        s = smallest_dependent_subset(m, 3)
        assert s.outcome == DEPENDENT_FOUND
        assert s.dependent == (0,)

    def test_duplicate_columns(self):
        m = Gf2Matrix.from01(["1011", "0101"])
        s = smallest_dependent_subset(m, 4)
        assert s.outcome == DEPENDENT_FOUND
        assert s.dependent == (0, 2)  # columns (1,0) at positions 0 and 2

    def test_budget_exhaustion(self):
        m = Gf2Matrix.identity(20)
        s = smallest_dependent_subset(m, 20, budget=10)
        assert s.outcome == BUDGET_EXHAUSTED
        assert s.visited == 10

    def test_negative_budget_rejected(self):
        m = Gf2Matrix.identity(3)
        with pytest.raises(ValueError, match="negative budget"):
            smallest_dependent_subset(m, 2, budget=-1)
        s = smallest_dependent_subset(m, 2, budget=0)
        assert (s.outcome, s.visited, s.verified) == (BUDGET_EXHAUSTED, 0, 0)

    def test_subset_size_outside_columns_rejected(self):
        m = Gf2Matrix.identity(3)
        with pytest.raises(ValueError, match="exceeds"):
            smallest_dependent_subset(m, m.cols + 1)
        with pytest.raises(ValueError, match="negative subset size"):
            smallest_dependent_subset(m, -1)

    @given(small_matrices, st.integers(1, 5))
    @settings(max_examples=150)
    def test_matches_brute_force(self, m, max_size):
        max_size = min(max_size, m.cols)
        s = smallest_dependent_subset(m, max_size)
        cols = [m.column(j) for j in range(m.cols)]
        expected = oracles.smallest_dependent_columns(cols, max_size)
        if expected is None:
            assert s.outcome == ALL_INDEPENDENT
            assert s.verified == max_size
        else:
            assert s.outcome == DEPENDENT_FOUND
            assert s.dependent == expected
            assert s.verified == len(expected) - 1

    def test_matches_dfs_oracle(self):
        # Every field, budget stops included, against the column-by-column
        # DFS.  Budgets equal to the unbudgeted visit count and one less put
        # a stop on either side of the last visit; identity(14) at size 14
        # runs the lookup DFS 12 levels deep, where the XOR of the chosen
        # columns stands for a span of 2^12 vectors.
        cases = 0
        for m, sizes in _search_cases():
            for max_size in sizes:
                full = oracles.subset_search_dfs(m, max_size, DEFAULT_BUDGET)
                budgets = {0, 1, 3, 10, 50, 400, DEFAULT_BUDGET}
                budgets |= {full.visited, max(full.visited - 1, 0)}
                for budget in sorted(budgets):
                    expected = oracles.subset_search_dfs(m, max_size, budget)
                    got = smallest_dependent_subset(m, max_size, budget=budget)
                    assert got == expected, (m, max_size, budget)
                    cases += 1
        assert cases > 20_000

    def test_every_budget_matches_dfs_oracle(self):
        # Every budget from 0 to the unbudgeted visit count, so a stop falls
        # on each visit of the last two levels, hits and misses alike.
        rng = random.Random(12)
        deep = 0
        for i in range(50):
            rows, ncols = rng.randint(4, 9), rng.randint(4, 12)
            cols = [rng.randrange(1, 1 << rows) for _ in range(ncols)]
            if i % 5 == 1:
                cols[rng.randrange(ncols)] = 0
            if i % 5 == 2:
                cols[rng.randrange(1, ncols)] = cols[rng.randrange(ncols)]
            m = Gf2Matrix(rows, tuple(cols)).transpose()
            full = oracles.subset_search_dfs(m, ncols, DEFAULT_BUDGET)
            deep += full.verified >= 3  # a depth-2 call under a chosen column
            for budget in range(full.visited + 1):
                expected = oracles.subset_search_dfs(m, ncols, budget)
                got = smallest_dependent_subset(m, ncols, budget=budget)
                assert got == expected, (m, budget)
        assert deep >= 10

    def test_deep_levels_match_dfs_oracle(self, monkeypatch):
        # Sizes with 2^(size - 2) > ncols: a 6- to 9-circuit planted among 8
        # to 14 random columns, with the pair map off, partial and whole.
        # Below the unbudgeted visit count the oracle stops at the budget,
        # keeping the sizes it finished; that rule gives the expected value
        # at every budget from 0 to the visit count (at the probes alone past
        # 12 columns), and the oracle itself is run at the probes: the
        # budgets around each size's end and 20 more.
        rng = random.Random(45)
        cases = [(8, 6), (8, 8), (9, 7), (9, 9), (10, 8), (12, 6), (14, 6), (14, 7)]
        for ncols, size in cases:
            assert 1 << (size - 2) > ncols
            cols = [rng.getrandbits(24) for _ in range(ncols)]
            circuit = sorted(rng.sample(range(ncols), size))
            cols[circuit[-1]] = 0
            for j in circuit[:-1]:
                cols[circuit[-1]] ^= cols[j]
            m = Gf2Matrix(24, tuple(cols)).transpose()
            full = oracles.subset_search_dfs(m, ncols, DEFAULT_BUDGET)
            assert (full.outcome, full.dependent) == (DEPENDENT_FOUND, tuple(circuit))
            ends = [oracles.subset_search_dfs(m, k, DEFAULT_BUDGET).visited for k in range(1, size)]

            def expected(budget):
                if budget >= full.visited:
                    return full
                return SubsetSearch(BUDGET_EXHAUSTED, None, budget, sum(e <= budget for e in ends))

            probes = {e + d for e in ends + [full.visited] for d in (-1, 0, 1)}
            probes |= set(rng.sample(range(full.visited), 20))
            for budget in sorted(probes):
                assert oracles.subset_search_dfs(m, ncols, budget) == expected(budget), budget
            budgets = range(full.visited + 1) if ncols <= 12 else sorted(probes)
            for cap in (0, 20, symplectic._PAIR_CAP):
                monkeypatch.setattr(symplectic, "_PAIR_CAP", cap)
                for budget in budgets:
                    got = smallest_dependent_subset(m, ncols, budget=budget)
                    assert got == expected(budget), (m, cap, budget)

    def test_zero_column_at_every_budget(self):
        # Size 1 is one lookup of the zero column; it must still stop where
        # the column-by-column loop stops.
        rng = random.Random(46)
        for _ in range(20):
            ncols = rng.randint(1, 9)
            cols = [rng.randrange(1, 1 << 6) for _ in range(ncols)]
            cols[rng.randrange(ncols)] = 0
            if rng.random() < 0.5:
                cols[rng.randrange(ncols)] = 0
            m = Gf2Matrix(6, tuple(cols)).transpose()
            for max_size in {1, ncols}:
                for budget in range(ncols + 1):
                    expected = oracles.subset_search_dfs(m, max_size, budget)
                    got = smallest_dependent_subset(m, max_size, budget=budget)
                    assert got == expected, (m, max_size, budget)

    def test_pair_cap_is_invisible(self, monkeypatch):
        # Below the cap the last two levels go by the pair map, past it by
        # one coset lookup per column (cap 0: coset lookups only).
        code = bch_31_11()
        for m, max_size in ((code.h.h, 5), (css_split(code).x_block, 11)):
            full = oracles.subset_search_dfs(m, max_size, DEFAULT_BUDGET)
            budgets = {0, 1, 10, 400, 10**4, full.visited // 3, full.visited - 1}
            for budget in sorted(budgets | {full.visited}):
                expected = oracles.subset_search_dfs(m, max_size, budget)
                for cap in (0, 100, 600):
                    monkeypatch.setattr(symplectic, "_PAIR_CAP", cap)
                    got = smallest_dependent_subset(m, max_size, budget=budget)
                    assert got == expected, (m.cols, cap, budget)

    def test_pair_map_stays_under_its_cap(self, monkeypatch):
        # Size 3 of 200 columns, searched to the end, reaches all 19,900
        # pairs; with the cap at 2^10 the map holds none of them.
        rng = random.Random(41)
        m = Gf2Matrix(200, tuple(rng.getrandbits(200) for _ in range(40)))
        monkeypatch.setattr(symplectic, "_PAIR_CAP", 1 << 10)
        tracemalloc.start()
        try:
            s = smallest_dependent_subset(m, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s.outcome, s.verified) == (ALL_INDEPENDENT, 3)
        # sizes 1, 2 and 3 each visited to the end
        assert s.visited == 200 + sum(1 + c for c in range(1, 200)) + sum(
            1 + sum(1 + b for b in range(1, c)) for c in range(2, 200)
        )
        assert peak < 2**19

    def test_pairs_past_the_cap_are_not_mapped(self):
        # Size 3 of 800 columns fits a budget of 10^9, but C(800, 2) = 319,600
        # pairs pass the cap: the pair map is built whole or not at all, so
        # every column goes by its own lookup and nothing is mapped.
        rng = random.Random(42)
        m = Gf2Matrix(800, tuple(rng.getrandbits(800) for _ in range(40)))
        assert comb(800, 2) > symplectic._PAIR_CAP
        tracemalloc.start()
        try:
            s = smallest_dependent_subset(m, 3, budget=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s.outcome, s.visited, s.verified) == (ALL_INDEPENDENT, 85_654_398, 3)
        assert peak < 2**20

    def test_wide_matrix_pays_only_its_budget(self):
        # Size 2 of 3000 columns would visit about 4.5 million pairs.  The
        # search must stop at the budget without mapping the pairs past it.
        rng = random.Random(40)
        m = Gf2Matrix(3000, tuple(rng.getrandbits(3000) for _ in range(40)))
        start = time.perf_counter()
        s = smallest_dependent_subset(m, 3, budget=10**4)
        assert time.perf_counter() - start < 0.5
        assert (s.outcome, s.visited, s.verified) == (BUDGET_EXHAUSTED, 10**4, 1)
        # a stop early in size 3, after size 2 ran to the end
        tracemalloc.start()
        try:
            s = smallest_dependent_subset(m, 3, budget=5 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s.outcome, s.visited, s.verified) == (BUDGET_EXHAUSTED, 5 * 10**6, 2)
        assert peak < 16 * 2**20

    def test_circuit_free_level_visits(self):
        # A circuit-free level of size s over N columns visits
        # sum_{j=1..s} C(N - s + j, j) columns, the charge of a settled level.
        def level(ncols, size):
            return sum(comb(ncols - size + j, j) for j in range(1, size + 1))

        rng = random.Random(43)
        matrices = [Gf2Matrix.identity(ncols) for ncols in range(1, 11)]
        for _ in range(10):
            ncols = rng.randint(1, 12)
            cols = tuple(rng.getrandbits(40) for _ in range(ncols))
            matrices.append(Gf2Matrix(40, cols).transpose())
        for m in matrices:
            before = 0
            for size in range(1, min(5, m.cols) + 1):
                s = oracles.subset_search_dfs(m, size, DEFAULT_BUDGET)
                assert s.outcome == ALL_INDEPENDENT, m
                assert s.visited - before == level(m.cols, size)
                assert symplectic._level_steps(m.cols, size) == level(m.cols, size)
                before = s.visited
        for c in range(1, 100):
            assert symplectic._steps(c) == level(c, 2)

    def test_bch_sizes_three_and_four_settled_by_the_pair_map(self, monkeypatch):
        # The 62 columns of the BCH check matrix have no circuit below size 5.
        # With all C(62, 2) pairs within the cap, sizes 3 and 4 run no DFS
        # (no `_steps` call past size 2); one pair less and both run it.
        # Every field matches the oracle at budgets around the totals of
        # sizes 1..3 and 1..4, where settlement turns on level by level.
        m = bch_31_11().h.h
        calls = _count_steps(monkeypatch)

        def step_calls(max_size):
            calls.clear()
            s = smallest_dependent_subset(m, max_size)
            assert (s.outcome, s.verified) == (ALL_INDEPENDENT, max_size)
            return len(calls)

        npairs, default_cap = comb(62, 2), symplectic._PAIR_CAP
        for cap, on in ((default_cap, True), (npairs, True), (npairs - 1, False)):
            monkeypatch.setattr(symplectic, "_PAIR_CAP", cap)
            counts = [step_calls(size) for size in (2, 3, 4)]
            if on:
                assert counts[0] == counts[1] == counts[2], (cap, counts)
            else:
                assert counts[0] < counts[1] < counts[2], (cap, counts)
        totals = [sum(symplectic._level_steps(62, s) for s in range(1, top + 1)) for top in (3, 4)]
        for budget in sorted({t + d for t in totals for d in (-1, 0, 1)}):
            expected = oracles.subset_search_dfs(m, 4, budget)
            for cap in (default_cap, npairs, npairs - 1):
                monkeypatch.setattr(symplectic, "_PAIR_CAP", cap)
                assert smallest_dependent_subset(m, 4, budget=budget) == expected, (cap, budget)

    @pytest.mark.parametrize("size", [3, 4])
    def test_planted_circuit_goes_to_the_dfs(self, size, monkeypatch):
        # A circuit of `size` among the last columns of a random tall matrix:
        # the full pair map shows it, so that level runs its DFS (which calls
        # `_steps`), finds it, and stops where the oracle stops at every budget.
        calls = _count_steps(monkeypatch)
        rng = random.Random(44 + size)
        for _ in range(6):
            ncols = rng.randint(size + 2, 9)
            cols = [rng.getrandbits(24) for _ in range(ncols)]
            circuit = sorted(rng.sample(range(ncols - 5, ncols), size))
            cols[circuit[-1]] = 0
            for j in circuit[:-1]:
                cols[circuit[-1]] ^= cols[j]
            m = Gf2Matrix(24, tuple(cols)).transpose()
            full = oracles.subset_search_dfs(m, ncols, DEFAULT_BUDGET)
            assert (full.outcome, full.dependent) == (DEPENDENT_FOUND, tuple(circuit))
            calls.clear()
            smallest_dependent_subset(m, size - 1)
            below = len(calls)
            calls.clear()
            assert smallest_dependent_subset(m, ncols) == full
            assert len(calls) > below
            for budget in range(full.visited + 1):
                expected = oracles.subset_search_dfs(m, ncols, budget)
                assert smallest_dependent_subset(m, ncols, budget=budget) == expected, (m, budget)

    def test_minimality_of_witness(self):
        m = Gf2Matrix.from01(["1110", "0111"])
        s = smallest_dependent_subset(m, 4)
        assert s.outcome == DEPENDENT_FOUND
        cols = [m.column(j) for j in s.dependent]
        acc = 0
        for c in cols:
            acc ^= c
        assert acc == 0
        for k in range(1, len(cols)):
            for sub in combinations(cols, k):
                acc = 0
                for c in sub:
                    acc ^= c
                assert acc != 0


def _count_steps(monkeypatch) -> list[int]:
    """Record the argument of every `symplectic._steps` call: each call of
    the last two DFS levels makes at least one."""
    calls: list[int] = []
    steps = symplectic._steps

    def counting(c):
        calls.append(c)
        return steps(c)

    monkeypatch.setattr(symplectic, "_steps", counting)
    return calls


def _search_cases():
    """(matrix, max sizes) pairs for the subset-search oracle test."""
    matrices = []
    for code in draw_codes(300, 9, seed=5, css_share=0.3):
        matrices.append(code.h.h)
        split = css_split(code)
        if split is not None:
            matrices += [split.x_block, split.z_block]
    rng = random.Random(8)
    for _ in range(200):
        rows, ncols = rng.randint(1, 8), rng.randint(1, 14)
        cols = [0 if rng.random() < 0.15 else rng.getrandbits(rows) for _ in range(ncols)]
        for j in range(ncols):
            if rng.random() < 0.15:
                cols[j] = cols[rng.randrange(ncols)]  # a repeated column
        matrices.append(Gf2Matrix(rows, tuple(cols)).transpose())
    for m in matrices:
        yield m, sorted({min(size, m.cols) for size in (1, 2, 3, 5, 8, m.cols)})
    yield bch_31_11().h.h, [5]
    yield Gf2Matrix.identity(14), [14]
