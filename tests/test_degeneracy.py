from __future__ import annotations

import random
from math import comb

import numpy as np
import pytest

import oracles
from conftest import (
    bch_31_11,
    css_state_6_0,
    draw_codes,
    generator_strings,
    repetition_code,
)
from stabcheck import (
    CriterionOutcome,
    StabilizerCode,
    Verdict,
    all_subsets_independent,
    build_table,
    classify,
    column_bounds,
    css_nondegeneracy,
    css_split,
    enumerate_errors,
    error_count,
    five_qubit,
    max_independence_order,
    min_distance,
    necessary_check,
    pauli_from_string,
    pauli_to_string,
    random_code,
    random_css_code,
    shor,
    standard_form,
    standard_form_shortcut,
    steane,
    sufficient_nondegenerate,
    syndrome_direct,
    three_qubit_bit_flip,
)
from stabcheck import degeneracy
from stabcheck.degeneracy import alt_error_count
from stabcheck.symplectic import ALL_INDEPENDENT, DEPENDENT_FOUND, PauliOperator


class TestEnumeration:
    def test_single_qubit_order_is_x_y_z(self):
        first = [pauli_to_string(p) for p in enumerate_errors(2, 1)][:3]
        assert first == ["XI", "YI", "ZI"]

    def test_levels_ascend(self):
        weights = [p.weight for p in enumerate_errors(3, 2)]
        assert weights == sorted(weights)

    def test_matches_oracle_strings(self):
        lib = [
            pauli_to_string(p) for p in enumerate_errors(4, 2)
        ]
        assert lib == list(oracles.errors_up_to(4, 2))

    @pytest.mark.parametrize("whole,chunk", [(None, None), (0, 1), (1, 7)])
    def test_multiword_masks_match_oracle_strings(self, monkeypatch, whole, chunk):
        # 70 qubits: each mask spans two 64-bit words of the packed rows.  A
        # chunk of `chunk` errors holds a support's letter patterns whole up
        # to level `whole` and slices those of the level above, which is
        # enumerated too.
        t = 1
        if chunk is not None:
            assert 3**whole <= chunk < 3 ** (whole + 1)
            monkeypatch.setattr(degeneracy, "_FILL_CHUNK", chunk)
            t = whole + 1
        lib = [pauli_to_string(p) for p in enumerate_errors(70, t)]
        assert lib == list(oracles.errors_up_to(70, t))

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
            enumerate_errors(3, t)


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

    @pytest.mark.parametrize("t", [0, 4])
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_t_outside_range_rejected_before_any_work(
        self, bitflip3, fill_chunks, t, exhaustive
    ):
        # an empty level range would otherwise answer "nondegenerate"
        with pytest.raises(ValueError, match=f"t={t} outside 1..3"):
            classify(bitflip3, t, exhaustive=exhaustive)
        assert fill_chunks == []


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
    """Exhaustive classify stops once all 2^(n-k) syndromes are claimed.

    With one error per chunk, the fill ends with the error at which the
    one-error-at-a-time loop stopped: the later of the error that claims the
    last free syndrome and the first collision.
    """

    @staticmethod
    def assert_stops_with(code, t, fill_chunks, chunks, evaluated, stop):
        _, _, filled_at, claimed_before = oracles.claim_syndromes(
            generator_strings(code), t
        )
        assert max(filled_at, claimed_before + 1) == stop
        assert len(fill_chunks) == chunks
        assert sum(size for _, size in fill_chunks) == evaluated
        w, size = fill_chunks[-1]
        assert size == 1
        assert evaluated - size < stop <= evaluated

    def test_steane_t2_stops_when_full(
        self, steane, fill_chunks, syndrome_calls, monkeypatch
    ):
        monkeypatch.setattr(degeneracy, "_FILL_CHUNK", 1)
        r = classify(steane, 2, exhaustive=True)
        assert syndrome_calls == []
        # the loop stopped at error 137 of 210, and so does the fill
        self.assert_stops_with(steane, 2, fill_chunks, 137, 137, 137)
        assert (r.syndrome_count, r.collision_count) == (63, 210 - 63)

    def test_five_qubit_t2_stops_after_the_witness(
        self, five_qubit, fill_chunks, syndrome_calls, monkeypatch
    ):
        # the 15 single-qubit errors fill the perfect code's map; the 16th
        # error is the first collision, in the first weight-2 chunk
        monkeypatch.setattr(degeneracy, "_FILL_CHUNK", 1)
        r = classify(five_qubit, 2, exhaustive=True)
        assert syndrome_calls == []
        self.assert_stops_with(five_qubit, 2, fill_chunks, 16, 16, 16)
        assert (r.syndrome_count, r.collision_count) == (15, 105 - 15)
        assert pauli_to_string(r.witness.second) == "XXIII"

    def test_negative_budget_raises_before_the_enumeration(self, fill_chunks):
        bch = bch_31_11()
        with pytest.raises(ValueError, match="negative budget"):
            classify(bch, 2, with_criteria=True, budget=-1)
        assert fill_chunks == []

    def test_random_codes_against_oracle(self):
        filled_early = 0
        kinds = set()
        codes = [five_qubit(), three_qubit_bit_flip()]
        codes += draw_codes(30, 6, seed=606, css_share=0.3)
        for i, code in enumerate(codes):
            gens = generator_strings(code)
            for t in range(1, code.n + 1):
                r = classify(code, t, exhaustive=True)
                distinct, collision, filled_at, _ = oracles.claim_syndromes(gens, t)
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


def assert_matches_claims(code, t, exhaustive, claims, span=True):
    """classify's verdict, witness and counts against the result `claims` of
    `oracles.claim_syndromes` for (code, t)."""
    distinct, collision, _, claimed_before = claims
    r = classify(code, t, exhaustive=exhaustive)
    total = error_count(code.n, t)
    if collision is None:
        assert r.verdict is Verdict.NONDEGENERATE and r.witness is None
        assert (r.syndrome_count, r.collision_count) == (distinct, total - distinct)
        return r, None
    assert r.verdict is Verdict.DEGENERATE
    pair = (pauli_to_string(r.witness.first), pauli_to_string(r.witness.second))
    assert pair == collision
    if span:
        product = oracles.multiply(*collision)
        gens = generator_strings(code)
        assert r.witness.product_in_stabilizer == (product in oracles.span(gens))
    if exhaustive:
        assert (r.syndrome_count, r.collision_count) == (distinct, total - distinct)
    else:
        assert (r.syndrome_count, r.collision_count) == (claimed_before, None)
    return r, claimed_before


class TestFirstCollision:
    """Early-exit classify stops in the chunk that holds the first collision."""

    # chunk sizes that put first collisions at the start, inside and at the
    # end of a chunk, against claimants of the same or an earlier chunk; all
    # but the default slice some support's letter patterns
    PATCHES = [None, 1, 2, 5, 7, 13]

    def test_random_codes_against_oracle(self, monkeypatch, fill_chunks):
        codes = [steane(), shor(), five_qubit(), three_qubit_bit_flip()]
        codes += draw_codes(40, 6, seed=1010, css_share=0.3)
        cases = []
        for code in codes:
            gens = generator_strings(code)
            errors = list(oracles.errors_up_to(code.n, min(3, code.n)))
            for t in range(1, min(3, code.n) + 1):
                cases.append((code, t, oracles.claim_syndromes(gens, t), errors))
        kinds = set()
        for chunk in self.PATCHES:
            if chunk is not None:
                monkeypatch.setattr(degeneracy, "_FILL_CHUNK", chunk)
            for i, (code, t, claims, errors) in enumerate(cases):
                fill_chunks.clear()
                r, before = assert_matches_claims(code, t, False, claims)
                if before is None:
                    continue
                size = fill_chunks[-1][1]
                start = sum(s for _, s in fill_chunks) - size
                at = before - start  # the collision's place in its chunk
                assert 0 <= at < size, (chunk, i)
                claimant = pauli_to_string(r.witness.first)
                # the identity is claimed before any chunk
                same = claimant != "I" * code.n and errors.index(claimant) >= start
                place = "start" if at == 0 else "end" if at == size - 1 else "inside"
                kinds.add((place, same))
        assert kinds == {
            ("start", False),
            ("inside", False),
            ("inside", True),
            ("end", False),
            ("end", True),
        }


class TestWideCodes:
    """Past 62 generators the fill holds syndromes in object arrays.  The
    oracle cannot list their stabilizer groups (2^63 elements and more)."""

    @pytest.mark.parametrize("t", [1, 2])
    def test_repetition_code(self, t):
        code = repetition_code(66)
        assert degeneracy._letter_syndromes(code).dtype == object
        claims = oracles.claim_syndromes(generator_strings(code), t)
        for exhaustive in (False, True):
            r, _ = assert_matches_claims(code, t, exhaustive, claims, span=False)
            assert pauli_to_string(r.witness.first) == "X" + "I" * 65
            assert not r.witness.product_in_stabilizer  # Z0 has odd weight

    @pytest.mark.parametrize("t", [1, 2])
    def test_random_css_code(self, t):
        code = random_css_code(66, 32, 31, random.Random(64))
        assert code.num_generators == 63
        claims = oracles.claim_syndromes(generator_strings(code), t)
        for exhaustive in (False, True):
            assert_matches_claims(code, t, exhaustive, claims, span=False)


@pytest.fixture
def claim_paths(monkeypatch):
    """Names of the claim path each chunk of a fill took, in order."""
    paths = []
    for name in ("_first_free_owned", "_first_free_sorted"):
        inner = getattr(degeneracy, name)

        def counted(*args, _inner=inner, _name=name):
            paths.append(_name)
            return _inner(*args)

        monkeypatch.setattr(degeneracy, name, counted)
    return paths


class TestClaimPaths:
    """The owner array and the sorted array of claimed keys fill one map.

    Each code is filled with `_OWNER_BITS` set to its generator count, which
    takes the owner array, and to one less, which takes the sorted keys."""

    FIELDS = ("syndromes", "x", "z", "classes", "letter_syndromes", "letter_classes")

    @staticmethod
    def run_both(monkeypatch, claim_paths, code, fn):
        out = []
        for bits, path in ((0, "_first_free_owned"), (1, "_first_free_sorted")):
            monkeypatch.setattr(degeneracy, "_OWNER_BITS", code.num_generators - bits)
            claim_paths.clear()
            out.append(fn())
            assert set(claim_paths) == {path}
        return out

    def assert_paths_agree(self, monkeypatch, claim_paths, code, t):
        for full, collision in ((True, False), (True, True), (False, True)):
            owned, keyed = self.run_both(
                monkeypatch, claim_paths, code,
                lambda: degeneracy.fill_syndrome_map(code, t, full=full, collision=collision),
            )
            (a, *rest_a), (b, *rest_b) = owned, keyed
            assert rest_a == rest_b  # first collision, claimed before it
            assert (a.checks, a.max_weight) == (b.checks, b.max_weight)
            for name in self.FIELDS:
                u, v = getattr(a, name), getattr(b, name)
                assert u.dtype == v.dtype, name
                assert u.tolist() == v.tolist(), name
        for exhaustive in (False, True):
            owned, keyed = self.run_both(
                monkeypatch, claim_paths, code,
                lambda: classify(code, t, exhaustive=exhaustive),
            )
            assert owned == keyed

    @pytest.mark.parametrize("chunk", [None, 1, 7, 13])
    def test_fixtures_and_random_codes(self, monkeypatch, claim_paths, chunk):
        if chunk is not None:
            monkeypatch.setattr(degeneracy, "_FILL_CHUNK", chunk)
        codes = [steane(), shor(), five_qubit(), three_qubit_bit_flip()]
        codes += draw_codes(12 if chunk == 1 else 30, 6, seed=2020, css_share=0.3)
        for code in codes:
            for t in range(1, min(code.n, 4) + 1):
                self.assert_paths_agree(monkeypatch, claim_paths, code, t)

    def test_bch_weight_three(self, monkeypatch, claim_paths):
        code = bch_31_11()
        owned, keyed = self.run_both(
            monkeypatch, claim_paths, code, lambda: degeneracy.fill_syndrome_map(code, 3)
        )
        assert owned[0].covered == 97_000
        for name in self.FIELDS:
            assert getattr(owned[0], name).tolist() == getattr(keyed[0], name).tolist()

    @staticmethod
    def assert_rows_aligned(code, table):
        """Row i of x, z and classes belongs to syndrome i: each row's
        error has that syndrome, and decodes to that row."""
        n, size = code.n, table.covered
        rows = list(zip(table.syndromes.tolist(), table.x.tolist(), table.z.tolist()))
        assert [code.syndrome_masks(x, z) for _, x, z in rows] == [s for s, _, _ in rows]
        # each row's error as an index row 4q + a, I (a = 3) included
        at = np.array(
            [
                [4 * q + (3, 0, 2, 1)[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n)]
                for _, x, z in rows
            ],
            dtype=np.intp,
        )
        for strict in (False, True):
            ok, row = degeneracy._decoded(table, at, strict=strict)
            assert ok.all()
            assert row.tolist() == list(range(size))

    def test_rows_are_aligned(self, monkeypatch, claim_paths):
        codes = [steane(), shor(), five_qubit(), three_qubit_bit_flip()]
        codes += draw_codes(30, 6, seed=2929, css_share=0.3)
        codes.append(random_code(70, 10, random.Random(70)))  # object class keys
        for code in codes:
            for max_weight in (1, None):
                for table in self.run_both(
                    monkeypatch, claim_paths, code, lambda: build_table(code, max_weight)
                ):
                    self.assert_rows_aligned(code, table)
        # object syndromes: 63 generators, past any owner array
        code = repetition_code(64)
        claim_paths.clear()
        table = build_table(code, 1)
        assert set(claim_paths) == {"_first_free_sorted"}
        assert table.syndromes.dtype == object
        self.assert_rows_aligned(code, table)

    @pytest.mark.parametrize("n,path", [(23, "_first_free_owned"), (24, "_first_free_sorted")])
    def test_repetition_codes_at_and_past_the_cap(self, claim_paths, n, path):
        code = repetition_code(n)
        assert code.num_generators - degeneracy._OWNER_BITS == n - 23
        for w in (1, 2):
            claim_paths.clear()
            t = build_table(code, w)
            assert set(claim_paths) == {path}
            table, reached = oracles.table_fill(code, w)
            assert t.table == table
            assert t.max_weight == reached == w


@pytest.fixture
def reserve_calls(monkeypatch):
    """(rows in, rows out) of each `_reserve` call of a fill: the claim
    buffers' lengths, and a growth wherever the two differ."""
    calls = []
    inner = degeneracy._reserve

    def counted(buf, *args):
        grown = inner(buf, *args)
        calls.append((len(buf), len(grown)))
        return grown

    monkeypatch.setattr(degeneracy, "_reserve", counted)
    return calls


class TestClaimBuffers:
    @pytest.mark.parametrize("length", [1, 7, 2**14])
    def test_first_free_owned_against_first_occurrences(self, length):
        rng = np.random.default_rng(length)
        for _ in range(20):
            owner = np.zeros(64, dtype=np.int32)
            owner[rng.choice(64, 24, replace=False)] = rng.integers(1, 100, 24)
            syn = rng.integers(0, 64, length)
            before = owner.copy()
            seen, expected = set(), []
            for pos, s in enumerate(syn.tolist()):
                if before[s] == 0 and s not in seen:
                    seen.add(s)
                    expected.append(pos)
            first = degeneracy._first_free_owned(owner, syn)
            assert first.tolist() == expected
            # each new syndrome holds its first position, marked negative
            marks = before.copy()
            marks[syn[first]] = first - length
            assert owner.tolist() == marks.tolist()

    def test_owner_path_never_grows(self, reserve_calls):
        degeneracy.fill_syndrome_map(bch_31_11(), 3)
        build_table(steane())
        assert reserve_calls
        assert all(rows == grown for rows, grown in reserve_calls)
        # the sorted path grows its buffers as claims come
        reserve_calls.clear()
        build_table(repetition_code(24), 2)
        assert any(rows != grown for rows, grown in reserve_calls)

    def test_wide_witness_within_the_cap(self, reserve_calls):
        code = repetition_code(66)
        assert 1 + error_count(66, 4) == 59_633_344
        assert classify(code, 4).witness is not None
        assert reserve_calls
        assert max(map(max, reserve_calls)) <= 1 << degeneracy._OWNER_BITS


def gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


class TestClassKeys:
    """Each letter's class key holds its symplectic products with 2k
    logicals that span the normalizer modulo the stabilizer."""

    @staticmethod
    def assert_keys(code):
        n, k = code.n, code.k
        low = (1 << n) - 1
        logicals = [
            pauli_to_string(PauliOperator.from_masks(n, v & low, v >> n))
            for v in code._logicals
        ]
        assert len(logicals) == 2 * k
        gens = generator_strings(code)
        for logical in logicals:
            assert not any(oracles.anticommutes(g, logical) for g in gens)
        # the commutation matrix of a basis of N(S) modulo S is invertible
        gram = [
            sum(oracles.anticommutes(a, b) << j for j, b in enumerate(logicals))
            for a in logicals
        ]
        assert gf2_rank(gram) == 2 * k
        keys = degeneracy._letter_classes(code)
        assert keys.shape == (n, 4)
        assert keys[:, 3].tolist() == [0] * n  # I commutes with every logical
        for q in range(n):
            for i, letter in enumerate("XYZ"):
                error = "I" * q + letter + "I" * (n - q - 1)
                want = sum(
                    oracles.anticommutes(error, logical) << j
                    for j, logical in enumerate(logicals)
                )
                assert keys[q, i] == want, (q, letter)

    def test_random_codes(self):
        for code in draw_codes(60, 8, seed=21, css_share=0.3):
            self.assert_keys(code)

    def test_fixtures(self):
        for code in (steane(), shor(), five_qubit(), three_qubit_bit_flip()):
            self.assert_keys(code)

    def test_code_without_logicals(self):
        code = css_state_6_0()
        self.assert_keys(code)
        assert code._logicals == ()
        assert degeneracy._letter_classes(code).tolist() == [[0, 0, 0, 0]] * 6

    def test_wide_code(self):
        code = random_code(70, 10, random.Random(70))
        self.assert_keys(code)
        assert degeneracy._letter_classes(code).dtype == object  # 120 bits

    def test_equal_keys_decide_stabilizer_products(self):
        # two errors with one syndrome differ by a stabilizer exactly when
        # their class keys agree
        seen = set()
        for code in draw_codes(30, 6, seed=5, css_share=0.3):
            gens = generator_strings(code)
            group = oracles.span(gens)
            classes = degeneracy._letter_classes(code)
            by_syndrome: dict[str, list[str]] = {}
            for e in ["I" * code.n, *oracles.errors_up_to(code.n, 2)]:
                by_syndrome.setdefault(oracles.syndrome_string(gens, e), []).append(e)

            def key(e: str) -> int:
                out = 0
                for q, c in enumerate(e):
                    if c != "I":
                        out ^= int(classes[q, "XYZ".index(c)])
                return out

            for errors in by_syndrome.values():
                for a in errors[:4]:
                    for b in errors[:4]:
                        same = key(a) == key(b)
                        assert same == (oracles.multiply(a, b) in group)
                        seen.add((same, a == b))
        assert seen == {(True, True), (True, False), (False, False)}


class TestDecoded:
    """`_decoded` on the fill's own index rows (w entries, no I), against an
    oracle per error: the table decodes an error when its syndrome is in the
    dict view and the residual, the error times that entry, is I (strict)
    or a stabilizer."""

    @staticmethod
    def assert_matches_oracle(code, table, max_weight, in_stabilizer):
        """Check every error of weight 1..max_weight; returns the outcomes
        seen, each (covered, decoded, decoded when strict)."""
        n, seen = code.n, set()
        for _, idx in degeneracy._error_chunks(n, max_weight):
            expected, claims = [], []
            for row in idx.tolist():
                chars = ["I"] * n
                for e in row:
                    chars[e >> 2] = "XYZ"[e & 3]
                error = "".join(chars)
                s = syndrome_direct(code, pauli_from_string(error)).bits.bits
                rep = table.table.get(s)
                claims.append(rep)
                if rep is None:
                    expected.append((False, False, False))
                    continue
                masks = pauli_to_string(PauliOperator.from_masks(n, *rep))
                residual = oracles.multiply(error, masks)
                expected.append((True, in_stabilizer(residual), residual == "I" * n))
            loose, rows = degeneracy._decoded(table, idx)
            strict, _ = degeneracy._decoded(table, idx, strict=True)
            assert list(zip(loose.tolist(), strict.tolist())) == [
                e[1:] for e in expected
            ]
            for r, rep in zip(rows.tolist(), claims):
                if rep is not None:
                    assert (int(table.x[r]), int(table.z[r])) == rep
            seen.update(expected)
        return seen

    def test_fixtures_and_random_codes(self):
        codes = [steane(), shor(), five_qubit(), three_qubit_bit_flip()]
        codes += draw_codes(30, 6, seed=3030, css_share=0.3)
        seen, partial = set(), 0
        for code in codes:
            group = oracles.span(generator_strings(code))
            for max_weight in (1, None):
                table = build_table(code, max_weight)
                partial += not table.full
                w = min(code.n, 3)
                seen |= self.assert_matches_oracle(code, table, w, group.__contains__)
        assert partial > 0
        assert seen == {
            (False, False, False),  # uncovered
            (True, False, False),  # another class
            (True, True, False),  # off by a stabilizer other than I
            (True, True, True),  # the claimant itself
        }

    def test_object_dtype_code(self):
        code = repetition_code(64)
        table = build_table(code, 1)
        assert table.syndromes.dtype == table.x.dtype == object

        def even_z(p):  # the stabilizers of the ZZ chain
            return set(p) <= {"I", "Z"} and p.count("Z") % 2 == 0

        seen = self.assert_matches_oracle(code, table, 2, even_z)
        assert (True, True, False) in seen  # Z_i Z_j, decoded by the identity

    @pytest.mark.parametrize("n", [7, 64])  # int64 and object tables
    def test_strict_mask_tables_are_shared_and_read_only(self, n):
        tables = degeneracy._letter_masks(n)
        assert degeneracy._letter_masks(n) is tables
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1


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

    @pytest.mark.parametrize("t", [0, 8, 99])
    def test_shortcut_rejects_t_outside_range(self, steane, t):
        with pytest.raises(ValueError, match=f"t={t} outside 1..7"):
            standard_form_shortcut(standard_form(steane), t)

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

    def test_known_ranks_match_eliminated_ones(self):
        # column_bounds and min_distance take their ranks from the code, not
        # from an elimination; the orders must be those of the public search
        stops = 0
        for code, t, budget in self.cases():
            order, exhausted = max_independence_order(code.h.h, budget=budget)
            split = css_split(code)
            blocks = None
            if split is not None:
                x = max_independence_order(split.x_block, budget=budget)
                z = max_independence_order(split.z_block, budget=budget)
                blocks = (x[0], z[0])
                exhausted = exhausted or x[1] or z[1]
            got = column_bounds(code, t, budget=budget)
            assert (
                got.max_independence_order,
                got.budget_exhausted,
                got.block_orders,
            ) == (order, exhausted, blocks)
            assert min_distance(code, 0, budget=budget).max_independence_order == order
            stops += exhausted
        assert stops > 0

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
