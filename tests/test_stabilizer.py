from __future__ import annotations

import hashlib
import random
from itertools import chain

import pytest

import oracles
from conftest import css_state_6_0, draw_codes, generator_strings
from stabcheck import (
    BitVector,
    DependentGeneratorsError,
    MixedLengthsError,
    NonCommutingGeneratorsError,
    PauliOperator,
    StabilizerCode,
    bsm_psm,
    css_split,
    is_css,
    pauli_from_string,
    pauli_to_string,
    random_code,
    random_css_code,
    standard_form,
    syndrome,
    syndrome_direct,
    validate,
)
from stabcheck.codes import _MAX_DRAWS
from stabcheck.symplectic import Gf2Matrix, RowBasis


def single(n: int, pos: int, letter: str) -> str:
    chars = ["I"] * n
    chars[pos] = letter
    return "".join(chars)


class TestValidate:
    def test_accepts_strings_and_operators(self):
        h1 = validate(["XX", "ZZ"])
        h2 = validate([pauli_from_string("XX"), pauli_from_string("ZZ")])
        assert h1 == h2
        assert (h1.n, h1.k, h1.num_generators) == (2, 0, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate([])

    def test_mixed_lengths(self):
        with pytest.raises(MixedLengthsError) as exc:
            validate(["XX", "Z"])
        assert exc.value.lengths == (2, 1)

    def test_anticommuting_pair_reported_one_based(self):
        with pytest.raises(NonCommutingGeneratorsError) as exc:
            validate(["XX", "ZI"])
        assert exc.value.pairs == ((0, 1),)
        assert "(1, 2)" in str(exc.value)

    def test_all_anticommuting_pairs_reported(self):
        with pytest.raises(NonCommutingGeneratorsError) as exc:
            validate(["XII", "ZII", "IIZ", "IIX"])
        assert exc.value.pairs == ((0, 1), (2, 3))

    def test_dependent_generators(self):
        with pytest.raises(DependentGeneratorsError):
            validate(["XI", "IX", "XX"])
        with pytest.raises(DependentGeneratorsError):
            validate(["ZZ", "ZZ"])

    def test_identity_generator_is_dependent(self):
        with pytest.raises(DependentGeneratorsError):
            validate(["XX", "II"])

    def test_check_matrix_layout(self, steane):
        h = steane.h
        assert h.h_x.to01() == [pauli_to_string(g).replace("X", "1").replace("I", "0").replace("Z", "0")
                                for g in h.generators]
        # stacked matrix carries the X half in the low columns
        assert h.h.cols == 2 * h.n
        for i, g in enumerate(h.generators):
            assert h.h.rows[i] == g.x.bits | (g.z.bits << h.n)


class TestSyndrome:
    def test_steane_single_x_reads_h_z_column(self, steane):
        gens = generator_strings(steane)
        for i in range(steane.n):
            s = syndrome(steane, pauli_from_string(single(7, i, "X")))
            expected = "".join("1" if g[i] == "Z" else "0" for g in gens)
            assert str(s) == expected

    def test_steane_single_z_reads_h_x_column(self, steane):
        gens = generator_strings(steane)
        for i in range(steane.n):
            s = syndrome(steane, pauli_from_string(single(7, i, "Z")))
            expected = "".join("1" if g[i] == "X" else "0" for g in gens)
            assert str(s) == expected

    def test_two_routes_agree_on_fixture_errors(self, five_qubit):
        for e in oracles.errors_up_to(5, 2):
            p = pauli_from_string(e)
            assert syndrome(five_qubit, p) == syndrome_direct(five_qubit, p)

    def test_oracle_route(self, shor):
        gens = generator_strings(shor)
        for e in ["XIIIIIIII", "IIIIZIIII", "YIIIIIIIY", "ZZIIIIIII"]:
            assert str(syndrome(shor, pauli_from_string(e))) == oracles.syndrome_string(gens, e)

    def test_linear_route_matches(self, steane):
        p = pauli_from_string("XYZIIIZ")
        a = BitVector(7, p.x.bits)
        b = BitVector(7, p.z.bits)
        assert syndrome(steane, PauliOperator(a, b)) == syndrome_direct(steane, p)

    def test_wrong_length_rejected(self, steane):
        with pytest.raises(ValueError):
            syndrome(steane, pauli_from_string("XX"))

    def test_matrices_are_transposes(self, steane):
        sm = bsm_psm(steane)
        assert sm.bsm == steane.h.h_z.transpose()
        assert sm.psm == steane.h.h_x.transpose()


class TestStabilizerMembership:
    def test_generators_and_products(self, steane):
        gens = generator_strings(steane)
        assert steane.in_stabilizer(pauli_from_string(gens[0]))
        prod = oracles.multiply(gens[0], gens[3])
        assert steane.in_stabilizer(pauli_from_string(prod))
        assert steane.in_stabilizer(pauli_from_string("IIIIIII"))

    def test_logical_not_member(self, steane):
        assert not steane.in_stabilizer(pauli_from_string("XXXIIII"))

    def test_matches_oracle_span(self, five_qubit, shor):
        # zero syndrome and zero class key; css_state_6_0 has k = 0, so its
        # class key is always 0
        codes = [five_qubit, shor, css_state_6_0(), *draw_codes(25, 6, seed=16)]
        for code in codes:
            group = oracles.span(generator_strings(code))
            basis = oracles.echelon(generator_strings(code))
            # weight 3 reaches the five-qubit and Shor logicals
            for e in chain(oracles.errors_up_to(code.n, min(code.n, 3)), group):
                assert code.in_stabilizer(pauli_from_string(e)) == (e in group), e
                assert oracles.in_span(basis, e) == (e in group), e

    def test_wide_code_products(self):
        # 120 class bits: every product of generators is a member, and such a
        # product times any one logical is not
        code = random_code(70, 10, random.Random(70))
        n, low = code.n, (1 << code.n) - 1
        group = oracles.span(generator_strings(code))
        assert len(code._logicals) == 120
        logicals = [
            pauli_to_string(PauliOperator.from_masks(n, v & low, v >> n))
            for v in code._logicals
        ]
        for e in group:
            assert code.in_stabilizer(pauli_from_string(e))
        for e in random.Random(7).sample(sorted(group), 16):
            for logical in logicals:
                product = oracles.multiply(e, logical)
                assert product not in group
                assert not code.in_stabilizer(pauli_from_string(product))


class TestStandardForm:
    def test_steane_shape(self, steane):
        sf = standard_form(steane)
        assert (sf.n, sf.k, sf.r) == (7, 1, 3)
        assert sorted(sf.qubit_permutation) == list(range(7))

    def test_shor_rank(self, shor):
        sf = standard_form(shor)
        assert sf.r == 2

    def test_block_layout(self, shor):
        sf = standard_form(shor)
        n, k, r = sf.n, sf.k, sf.r
        m = n - k
        low_x = (1 << n) - 1
        # top-left identity in the X half
        for i in range(r):
            x_half = sf.matrix.rows[i] & low_x
            assert x_half & ((1 << r) - 1) == 1 << i
        # bottom rows: X half zero, identity in the middle Z columns
        for i in range(r, m):
            row = sf.matrix.rows[i]
            assert row & low_x == 0
            z_half = row >> n
            mid = (z_half >> r) & ((1 << (m - r)) - 1)
            assert mid == 1 << (i - r)
        # the zero block right of the identity in the top Z rows
        for i in range(r):
            z_half = sf.matrix.rows[i] >> n
            assert (z_half >> r) & ((1 << (m - r)) - 1) == 0

    def test_block_widths(self, steane):
        sf = standard_form(steane)
        m = sf.n - sf.k
        assert sf.a1.cols == m - sf.r and len(sf.a1.rows) == sf.r
        assert sf.a2.cols == sf.k and len(sf.a2.rows) == sf.r
        assert sf.b.cols == sf.r and len(sf.b.rows) == sf.r
        assert sf.c.cols == sf.k and len(sf.c.rows) == sf.r
        assert sf.d.cols == sf.r and len(sf.d.rows) == m - sf.r
        assert sf.e.cols == sf.k and len(sf.e.rows) == m - sf.r

    def test_roundtrip_on_fixtures(self, steane, shor, five_qubit, bitflip3):
        for code in (steane, shor, five_qubit, bitflip3):
            sf = standard_form(code)
            assert sf.original_matrix() == code.h.h

    def test_roundtrip_on_random_codes(self):
        for code in draw_codes(100, 8, seed=1812):
            sf = standard_form(code)
            assert sf.original_matrix() == code.h.h

    def test_row_space_preserved(self, five_qubit):
        # permuted rows must generate the permuted original code
        sf = standard_form(five_qubit)
        n = sf.n
        permuted = []
        for row in five_qubit.h.h.rows:
            out = 0
            for pos, orig in enumerate(sf.qubit_permutation):
                out |= ((row >> orig) & 1) << pos
                out |= ((row >> (n + orig)) & 1) << (n + pos)
            permuted.append(out)
        basis = RowBasis(permuted)
        for row in sf.matrix.rows:
            assert basis.contains(row)


class TestCssSplit:
    def test_steane_splits(self, steane):
        split = css_split(steane)
        assert split is not None
        assert len(split.x_block.rows) == 3
        assert len(split.z_block.rows) == 3

    def test_five_qubit_does_not(self, five_qubit):
        assert css_split(five_qubit) is None
        assert not is_css(five_qubit)

    def test_split_survives_row_mixing(self, steane):
        # multiply an X generator by a Z generator: no generator is pure any
        # more, but the row space is unchanged
        gens = generator_strings(steane)
        mixed = [oracles.multiply(gens[0], gens[3])] + gens[1:]
        code = StabilizerCode.from_strings(*mixed)
        split = css_split(code)
        assert split is not None
        assert is_css(code)

    def test_split_blocks_span_pure_parts(self, shor):
        split = css_split(shor)
        x_basis = RowBasis(split.x_block.rows)
        for g in generator_strings(shor):
            if "Z" not in g:
                p = pauli_from_string(g)
                assert x_basis.contains(p.x.bits)

    def test_random_css_codes_detected(self):
        import stabcheck as sc

        rng = random.Random(7)
        found = 0
        while found < 25:
            code = sc.random_css_code(6, 2, 2, rng)
            if code is None:
                continue
            found += 1
            assert is_css(code)

    def test_non_css_rejected(self):
        code = StabilizerCode.from_strings("XZZXI", "IXZZX")
        assert css_split(code) is None


class TestRandomCodes:
    def test_rejection_sampling_is_bounded(self):
        # 36 commuting rows on 40 qubits would take about 2**36 draws; the
        # cap stops the sampler after a few seconds
        with pytest.raises(ValueError, match=f"no 36 commuting rows in {_MAX_DRAWS} draws"):
            random_code(40, 36, random.Random(0))

    def test_drawn_codes_are_frozen(self):
        # the tests draw codes by seed, and random_css_code reads
        # kernel_basis: a change to either sampler or to the kernel's
        # vectors or order must leave every code drawn here unchanged
        digest = hashlib.sha256()
        for seed in range(400):
            rng = random.Random(seed)
            n = 2 + seed % 13
            rows = rng.randint(2, n)
            num_x = rng.randint(1, rows - 1)
            drawn = random_code(n, rng.randint(1, n), rng)
            css = random_css_code(n, num_x, rows - num_x, rng)
            for code in (drawn, css):
                text = "None" if code is None else " ".join(generator_strings(code))
                digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == (
            "8ed98d4483fb581ff80ec2ac75f0ab5b365bf31cb90701c80662f00421d33e2e"
        )


def test_from_strings_metadata():
    code = StabilizerCode.from_strings("XX", "ZZ", label="bell", designed_distance=2)
    assert code.label == "bell"
    assert code.default_t == 0
    assert StabilizerCode.from_strings("XX", "ZZ").default_t is None


def test_check_matrix_direct_construction_validates():
    with pytest.raises(NonCommutingGeneratorsError):
        StabilizerCode.from_strings("XI", "ZI")
