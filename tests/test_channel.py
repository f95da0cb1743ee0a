from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

import oracles
from conftest import bch_31_11, draw_codes, generator_strings, repetition_code
from stabcheck import (
    PauliChannel,
    StabilizerCode,
    build_table,
    channel,
    degeneracy,
    is_css,
    pauli_to_string,
    random_code,
    simulate,
    wilson_interval,
)
from stabcheck.channel import (
    _mulhilo,
    _sample_masks,
    _trial_rng,
    _uniforms,
    pool_size,
    sample_error,
)
from stabcheck.symplectic import BitVector


class TestPauliChannel:
    def test_component_bounds(self):
        with pytest.raises(ValueError):
            PauliChannel(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            PauliChannel(0.0, 1.5, 0.0)

    def test_sum_bound(self):
        with pytest.raises(ValueError):
            PauliChannel(0.5, 0.5, 0.5)
        PauliChannel(0.4, 0.3, 0.3)  # exactly one is fine

    def test_identity_mass(self):
        ch = PauliChannel(0.1, 0.2, 0.3)
        assert ch.p_i == pytest.approx(0.4)

    def test_depolarizing_split(self):
        ch = PauliChannel.depolarizing(0.3)
        assert ch.p_x == ch.p_y == ch.p_z == pytest.approx(0.1)
        assert ch.p_i == pytest.approx(0.7)


class TestDecoderTable:
    def test_steane_fills_at_weight_two(self, steane):
        t = build_table(steane)
        assert t.num_syndromes == 64
        assert t.covered == 64
        assert t.full
        assert t.uncovered == 0
        assert t.max_weight == 2

    def test_shor_fills_at_weight_three(self, shor):
        t = build_table(shor)
        assert t.covered == t.num_syndromes == 256
        assert t.max_weight == 3

    def test_bitflip_fills_at_weight_one(self, bitflip3):
        t = build_table(bitflip3)
        assert (t.covered, t.num_syndromes, t.max_weight) == (4, 4, 1)

    def test_weight_cap_leaves_gaps(self, steane):
        t = build_table(steane, 1)
        assert t.covered == 22  # identity plus the 21 weight-1 syndromes
        assert not t.full
        assert t.uncovered == 42

    def test_cap_out_of_range(self, steane):
        with pytest.raises(ValueError):
            build_table(steane, 8)

    @pytest.mark.parametrize(
        "maker,chunks,evaluated,max_weight",
        [("steane", 20, 138, 2), ("shor", 106, 1998, 3), ("bitflip3", 3, 9, 1)],
    )
    def test_fill_stops_in_the_chunk_that_fills(
        self, request, fill_chunks, monkeypatch, maker, chunks, evaluated, max_weight
    ):
        # one support per chunk: the fill ends with the support whose error
        # claims the last free syndrome, and no level past it is evaluated
        monkeypatch.setattr(degeneracy, "_FILL_CHUNK", 1)
        code = request.getfixturevalue(maker)
        t = build_table(code)
        assert t.full and t.max_weight == max_weight
        assert len(fill_chunks) == chunks
        assert sum(size for _, size in fill_chunks) == evaluated
        assert max(w for w, _ in fill_chunks) == max_weight
        last_w, last_size = fill_chunks[-1]
        _, _, filled_at, _ = oracles.claim_syndromes(generator_strings(code), max_weight)
        assert (last_w, last_size) == (max_weight, 3**max_weight)
        assert evaluated - last_size < filled_at <= evaluated

    def test_capped_fill_evaluates_no_further_level(self, steane, fill_chunks):
        t = build_table(steane, 1)
        assert fill_chunks == [(1, 21)]
        assert t.max_weight == 1

    def test_default_chunk_covers_a_small_level(self, steane, fill_chunks):
        build_table(steane)
        assert fill_chunks == [(1, 21), (2, 189)]

    def test_oversized_table_refused_before_any_work(self, fill_chunks):
        code = repetition_code(33)  # n - k = 32: up to 2**32 entries
        with pytest.raises(ValueError, match="could hold 4294967296 entries"):
            build_table(code)
        assert fill_chunks == []
        t = build_table(code, 1)  # 1 + 3 * 33 errors at most
        assert (t.covered, t.max_weight) == (34, 1)

    def test_fill_arithmetic_stays_int64(self):
        # NumPy 1.x promotes int64 mixed with uint64 to float64, which would
        # round syndromes of more than 53 bits; 62 bits is the widest held in
        # int64
        code = repetition_code(63)
        letters = degeneracy._letter_syndromes(code)
        assert letters.dtype == np.int64
        supports = np.array([[0, 61, 62]], dtype=np.intp)
        heads = np.array([[1]], dtype=np.intp)
        tails = np.array([[0, 0], [2, 1]], dtype=np.intp)
        syn = degeneracy._chunk_syndromes(letters, (supports, heads, tails))
        assert syn.dtype == np.int64
        # Y0 X61 X62 sets bits 0 and 60 (61 cancels); Y0 Z61 Y62 bits 0 and 61
        assert syn.tolist() == [1 | 1 << 60, 1 | 1 << 61]
        t = build_table(code, 1)
        assert t.table[1 << 61] == (1 << 62, 0)  # X on the last qubit
        assert max(t.table) == 3 << 60  # X on the one before it
        assert t.covered == 64  # Z errors collide with the identity, Y with X
        for s, (x, z) in t.table.items():
            assert code.syndrome_masks(x, z) == s

    def test_representatives_have_minimal_weight(self, steane):
        gens = generator_strings(steane)
        t = build_table(steane)
        # brute force the lightest weight per syndrome over letter strings
        minimal: dict[str, int] = {"0" * 6: 0}
        for e in oracles.errors_up_to(7, 3):
            s = oracles.syndrome_string(gens, e)
            minimal.setdefault(s, oracles.weight(e))
        for s, (x, z) in t.table.items():
            s_str = BitVector(6, s).to01()
            got_weight = bin(x | z).count("1")
            assert got_weight == minimal[s_str]

    def test_representatives_reproduce_their_syndrome(self, shor):
        t = build_table(shor)
        for s, (x, z) in t.table.items():
            assert shor.syndrome_masks(x, z) == s


class TestFillAgainstLoop:
    """The chunked fill equals the one-error-at-a-time loop, entry order too."""

    @staticmethod
    def assert_same(code, max_weight):
        t = build_table(code, max_weight)
        table, reached = oracles.table_fill(code, max_weight)
        assert list(t.table.items()) == list(table.items())
        assert t.max_weight == reached
        assert t.num_syndromes == 1 << code.num_generators

    def test_fixtures(self, steane, shor, five_qubit, bitflip3):
        for code in (steane, shor, five_qubit, bitflip3):
            for max_weight in (None, 0, 1, 2):
                self.assert_same(code, max_weight)

    def test_random_codes(self):
        for code in draw_codes(150, 8, seed=3, css_share=0.3):
            for max_weight in (None, 1, 2):
                if max_weight is None or max_weight <= code.n:
                    self.assert_same(code, max_weight)

    @pytest.mark.parametrize("tail,chunk", [(0, 1), (1, 1), (1, 5), (2, 7)])
    def test_leading_letters_in_rows(self, shor, monkeypatch, tail, chunk):
        # levels wider than _TAIL_LETTERS put their leading letters in the rows
        monkeypatch.setattr(degeneracy, "_TAIL_LETTERS", tail)
        monkeypatch.setattr(degeneracy, "_FILL_CHUNK", chunk)
        for code in [shor, *draw_codes(20, 6, seed=9, css_share=0.3)]:
            self.assert_same(code, None)

    def test_wide_weight_one_table(self):
        self.assert_same(random_code(70, 10, random.Random(70)), 1)

    def test_syndromes_past_int64(self):
        # 63 syndrome bits: the fill holds them as Python ints in object arrays
        code = repetition_code(64)
        assert degeneracy._letter_syndromes(code).dtype == object
        self.assert_same(code, 1)
        t = build_table(code, 1)
        assert t.table[1 << 62] == (1 << 63, 0)  # X on the last qubit
        assert (t.covered, t.num_syndromes) == (65, 1 << 63)

    def test_full_bch_table(self):
        # digest recorded once from the one-error-at-a-time loop
        t = build_table(bch_31_11())
        assert (t.covered, t.max_weight) == (1_048_576, 5)
        text = "".join(f"{s}:{x}:{z}\n" for s, (x, z) in sorted(t.table.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "42072f7b30466ea5af48e98d447ce67c1ae7b41b6ede245d19bf2bc2bfe5d057"
        )


class TestSampling:
    def test_deterministic_per_key(self):
        ch = PauliChannel.depolarizing(0.4)
        a = sample_error(ch, 6, _trial_rng(7, 3))
        b = sample_error(ch, 6, _trial_rng(7, 3))
        assert a == b
        c = sample_error(ch, 6, _trial_rng(7, 4))
        assert a != c
        # a key differing in the seed alone changes the draws of a shared prefix
        d = sample_error(ch, 8, _trial_rng(8, 3))
        assert pauli_to_string(d)[:6] != pauli_to_string(a)

    def test_pure_x_channel(self):
        p = sample_error(PauliChannel(1.0, 0.0, 0.0), 4, _trial_rng(1, 0))
        assert pauli_to_string(p) == "XXXX"

    def test_pure_z_channel(self):
        p = sample_error(PauliChannel(0.0, 0.0, 1.0), 3, _trial_rng(1, 0))
        assert pauli_to_string(p) == "ZZZ"

    def test_noiseless_channel(self):
        p = sample_error(PauliChannel(0.0, 0.0, 0.0), 5, _trial_rng(1, 0))
        assert p.is_identity

    def test_letter_frequencies(self):
        ch = PauliChannel(0.25, 0.25, 0.25)
        counts = {"I": 0, "X": 0, "Y": 0, "Z": 0}
        for trial in range(2000):
            s = pauli_to_string(sample_error(ch, 4, _trial_rng(123, trial)))
            for c in s:
                counts[c] += 1
        total = sum(counts.values())
        for c, got in counts.items():
            assert abs(got / total - 0.25) < 0.03, counts


class TestBatchedStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_uniforms_equal_numpy_philox(self, seed):
        for start in (0, 1, 2**32 - 1, 2**32, 2**40 + 3):
            for n in (1, 4, 5, 8, 9, 31, 65):
                got = _uniforms(seed, start, start + 3, n)
                assert got.shape == (3, n)
                for row, trial in zip(got, range(start, start + 3)):
                    want = np.random.Generator(np.random.Philox(key=[seed, trial]))
                    assert row.tobytes() == want.random(n).tobytes(), (trial, n)

    def test_philox_arithmetic_stays_uint64(self):
        # NumPy 1.x promotes uint64 mixed with a Python int to float64, which
        # would silently round the words; every constant must be np.uint64.
        names = [n for n in vars(channel) if n.startswith("_PHILOX_")]
        assert len(names) == 4
        for name in names + ["_LOW32", "_U32", "_U11"]:
            assert type(getattr(channel, name)) is np.uint64, name
        a = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        hi, lo = _mulhilo(a, channel._PHILOX_M0)
        assert hi.dtype == lo.dtype == np.uint64
        m = int(channel._PHILOX_M0)
        assert [(int(h) << 64) | int(l) for h, l in zip(hi, lo)] == [
            int(v) * m for v in a
        ]

    @pytest.mark.parametrize(
        "ch",
        [
            PauliChannel(1.0, 0.0, 0.0),
            PauliChannel(0.0, 0.0, 1.0),
            PauliChannel(0.0, 0.0, 0.0),
            PauliChannel(0.1, 0.2, 0.7),  # the float sum rounds past 1
            PauliChannel(0.07, 0.01, 0.19),
        ],
    )
    def test_masks_equal_per_trial_sampler(self, ch):
        for n in (1, 5, 8, 9, 31, 65, 70):
            masks = _sample_masks(ch, n, 11, 2**32 - 20, 2**32 + 20)
            assert len(masks) == 40
            for trial, (x, z) in enumerate(masks, start=2**32 - 20):
                err = sample_error(ch, n, _trial_rng(11, trial))
                assert (x, z) == (err.x.bits, err.z.bits), (n, trial)


class TestAgainstOracle:
    @pytest.mark.parametrize("strict", [False, True])
    def test_failures_match_per_trial_oracle(self, strict):
        ch = PauliChannel(0.06, 0.03, 0.05)
        kinds = set()
        mixed = 0  # runs with both failures and successes
        for i, code in enumerate(draw_codes(14, 8, seed=515, css_share=0.4)):
            for table in (build_table(code), build_table(code, 1)):
                kinds.add((is_css(code), table.full))
                expected = oracles.simulate_failures(code, ch, 300, i, table.table, strict)
                mixed += 0 < expected < 300
                for workers in (1, 3) if i % 4 == 0 else (1,):
                    r = simulate(code, ch, 300, i, table=table, workers=workers, strict=strict)
                    assert r.failures == expected, (i, workers)
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}
        assert mixed >= 10

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunk_size_is_invisible(self, steane, monkeypatch, chunk):
        ch = PauliChannel.depolarizing(0.08)
        t = build_table(steane)
        counts = [trials for trials in (500, chunk - 1, chunk, chunk + 1) if trials > 0]
        whole = [simulate(steane, ch, trials, 8, table=t) for trials in counts]
        monkeypatch.setattr(channel, "_CHUNK", chunk)
        assert [simulate(steane, ch, trials, 8, table=t) for trials in counts] == whole

    def test_chunk_boundary_matches_oracle(self, steane):
        ch = PauliChannel.depolarizing(0.08)
        t = build_table(steane)
        for trials in (channel._CHUNK - 1, channel._CHUNK, channel._CHUNK + 1):
            expected = oracles.simulate_failures(steane, ch, trials, 4, t.table)
            assert simulate(steane, ch, trials, 4, table=t).failures == expected

    def test_wide_code_matches_oracle(self):
        code = random_code(70, 10, random.Random(70))
        table = build_table(code, 1)
        assert not table.full
        ch = PauliChannel(0.002, 0.001, 0.002)
        masks = _sample_masks(ch, 70, 5, 0, 400)
        assert any((x | z) >> 64 for x, z in masks)  # errors reach the ninth byte
        expected = oracles.simulate_failures(code, ch, 400, 5, table.table)
        assert 0 < expected < 400
        assert simulate(code, ch, 400, 5, table=table).failures == expected


class TestWilson:
    def test_requires_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_brackets_the_rate(self):
        for failures, trials in [(0, 50), (1, 50), (25, 50), (50, 50), (3, 1000)]:
            lo, hi = wilson_interval(failures, trials)
            assert 0.0 <= lo <= failures / trials <= hi <= 1.0

    def test_zero_failures_pins_lower_end(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0 < hi < 0.01

    def test_all_failures_pins_upper_end(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert lo > 0.99

    def test_tightens_with_trials(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_zero_z_collapses_to_rate(self):
        lo, hi = wilson_interval(30, 100, z=0.0)
        assert lo == hi == pytest.approx(0.3)


class TestRun:
    def test_argument_validation(self, steane):
        ch = PauliChannel.depolarizing(0.1)
        with pytest.raises(ValueError):
            simulate(steane, ch, 0, 1)
        with pytest.raises(ValueError):
            simulate(steane, ch, 100, 1, workers=0)

    def test_noiseless_never_fails(self, shor):
        r = simulate(shor, PauliChannel.depolarizing(0.0), 100, 7)
        assert r.failures == 0
        assert r.rate == 0.0

    def test_frozen_stream(self, steane):
        # pins the sampling layout; a change to the trial streams must show up
        r = simulate(steane, PauliChannel.depolarizing(0.05), 2000, 42)
        assert r.failures == 73

    def test_repeat_runs_identical(self, steane):
        ch = PauliChannel.depolarizing(0.07)
        assert simulate(steane, ch, 1500, 3) == simulate(steane, ch, 1500, 3)

    def test_worker_count_is_invisible(self, steane):
        ch = PauliChannel.depolarizing(0.06)
        solo = simulate(steane, ch, 3000, 11, workers=1)
        pooled = simulate(steane, ch, 3000, 11, workers=3)
        assert solo == pooled

    @pytest.mark.parametrize("seed", [2**63, 2**63 + 1, 2**64, -1])
    def test_seed_outside_domain_rejected(self, steane, seed):
        # 2**63 and 2**63+1 used to share one stream; 2**64 overflowed
        with pytest.raises(ValueError, match="seed"):
            simulate(steane, PauliChannel.depolarizing(0.05), 10, seed)

    def test_largest_seed_runs(self, steane):
        r = simulate(steane, PauliChannel.depolarizing(0.05), 50, 2**63 - 1)
        assert (r.seed, r.trials) == (2**63 - 1, 50)

    def test_steane_seed_7_frozen(self, steane):
        r = simulate(steane, PauliChannel.depolarizing(0.05), 20000, 7)
        assert r.failures == 702

    @pytest.mark.parametrize(
        "workers,spans,cpus,expected",
        [
            (1, 1, 8, 1),
            (4, 4, 8, 4),
            (64, 64, 2, 2),  # never more processes than CPUs
            (8, 3, 16, 3),  # never more processes than spans
            (10**6, 10**6, 4, 4),
            (5, 5, None, 1),  # CPU count unknown
        ],
    )
    def test_pool_size_caps_workers(self, workers, spans, cpus, expected):
        assert pool_size(workers, spans, cpus) == expected

    def test_few_trials_fall_back_to_inline(self, steane):
        ch = PauliChannel.depolarizing(0.06)
        assert simulate(steane, ch, 5, 2, workers=4) == simulate(steane, ch, 5, 2)

    def test_explicit_table_matches_implicit(self, steane):
        ch = PauliChannel.depolarizing(0.05)
        t = build_table(steane)
        assert simulate(steane, ch, 500, 8, table=t) == simulate(steane, ch, 500, 8)

    def test_strict_counts_degenerate_recoveries_as_failures(self, shor):
        ch = PauliChannel.depolarizing(0.08)
        loose = simulate(shor, ch, 3000, 9)
        strict = simulate(shor, ch, 3000, 9, strict=True)
        assert strict.failures > loose.failures
        assert (loose.failures, strict.failures) == (179, 563)

    def test_result_fields_consistent(self, steane):
        r = simulate(steane, PauliChannel.depolarizing(0.05), 800, 5)
        assert r.trials == 800
        assert r.seed == 5
        assert r.rate == r.failures / 800
        assert r.ci95 == wilson_interval(r.failures, 800)
