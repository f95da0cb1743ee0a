from __future__ import annotations

import hashlib
import pickle
import random
import tracemalloc
import warnings
from functools import cached_property

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
    _draws,
    _mulhilo,
    _sample_indices,
    _trial_rng,
    sample_error,
)
from stabcheck.symplectic import BitVector


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The trial count of each chunk that `_draws` samples."""
    sizes = []
    draws = channel._draws

    def sized(n, seed, start, stop, words):
        sizes.append(stop - start)
        return draws(n, seed, start, stop, words)

    monkeypatch.setattr(channel, "_draws", sized)
    return sizes


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
        [("steane", 137, 137, 2), ("shor", 1976, 1976, 3), ("bitflip3", 7, 7, 1)],
    )
    def test_fill_stops_in_the_chunk_that_fills(
        self, request, fill_chunks, monkeypatch, maker, chunks, evaluated, max_weight
    ):
        # one error per chunk: the fill ends with the error that claims the
        # last free syndrome, and no level past it is evaluated
        monkeypatch.setattr(degeneracy, "_FILL_CHUNK", 1)
        code = request.getfixturevalue(maker)
        t = build_table(code)
        assert t.full and t.max_weight == max_weight
        assert len(fill_chunks) == chunks
        assert sum(size for _, size in fill_chunks) == evaluated
        assert max(w for w, _ in fill_chunks) == max_weight
        last_w, last_size = fill_chunks[-1]
        _, _, filled_at, _ = oracles.claim_syndromes(generator_strings(code), max_weight)
        assert (last_w, last_size) == (max_weight, 1)
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
        letters = degeneracy._letter_keys(code.syndrome_matrices, code.num_generators)
        assert letters.dtype == np.int64
        for _, idx in degeneracy._error_chunks(63, 2):
            assert idx.dtype == np.intp
        idx = np.array([[1, 244, 248], [1, 246, 249]], dtype=np.intp)  # 4q + letter
        syn = degeneracy._xor_gather(letters, idx)
        assert syn.dtype == np.int64
        # Y0 X61 X62 sets bits 0 and 60 (61 cancels); Y0 Z61 Y62 bits 0 and 61
        assert syn.tolist() == [1 | 1 << 60, 1 | 1 << 61]
        t = build_table(code, 1)
        assert t.table[1 << 61] == (1 << 62, 0)  # X on the last qubit
        assert max(t.table) == 3 << 60  # X on the one before it
        assert t.covered == 64  # Z errors collide with the identity, Y with X
        for s, (x, z) in t.table.items():
            assert code.syndrome_masks(x, z) == s

    def test_decode_and_fill_arrays_keep_integer_dtypes(self):
        # NumPy 1.x promotes int64 mixed with uint64 to float64; syndromes,
        # class keys and x/z mask keys stay int64 up to 62 bits and Python
        # ints past that
        ch = PauliChannel(0.1, 0.2, 0.3)
        wide = random_code(70, 10, random.Random(70))  # 2k = 120 class bits
        gather = degeneracy._xor_gather
        for code, syn_dtype, cls_dtype, mask_dtype in (
            (bch_31_11(), np.int64, np.int64, np.int64),
            (repetition_code(62), np.int64, np.int64, np.int64),
            (repetition_code(64), object, np.int64, object),
            (wide, np.int64, object, object),
        ):
            n = code.n
            t = build_table(code, 1)
            assert t.syndromes.dtype == syn_dtype
            assert t.classes.dtype == cls_dtype
            assert t.x.dtype == t.z.dtype == mask_dtype
            assert t.x.shape == t.z.shape == (t.covered,)
            letters = _sample_indices(ch, n, 3, 0, 50) % 4
            assert letters.dtype.kind == "i"
            assert set(np.unique(letters).tolist()) == {0, 1, 2, 3}
            at = 4 * np.arange(n) + letters
            assert at.dtype == np.intp
            x_masks, z_masks = degeneracy._letter_masks(n)
            for keys, dtype in (
                (degeneracy._letter_keys(code.syndrome_matrices, code.num_generators), syn_dtype),
                (degeneracy._letter_keys(code._class_matrices, 2 * code.k), cls_dtype),
                (x_masks, mask_dtype),
                (z_masks, mask_dtype),
            ):
                assert keys.dtype == dtype
                assert keys.shape == (n, 4)
                assert gather(keys, at).dtype == dtype
        # the widest int64 syndrome and the top mask bit survive the gather
        code = repetition_code(63)
        letters = np.full((1, 63), 3)
        letters[0, 61:] = 0  # X on the last two qubits
        syndromes = degeneracy._letter_keys(code.syndrome_matrices, code.num_generators)
        assert gather(syndromes, 4 * np.arange(63) + letters).tolist() == [1 << 60]
        for n, dtype in ((62, np.int64), (64, object)):
            letters = np.full((1, n), 3)
            letters[0, n - 1] = 1  # Y on the last qubit
            at = 4 * np.arange(n) + letters
            for masks in degeneracy._letter_masks(n):
                top = gather(masks, at)
                assert top.dtype == dtype
                assert top.tolist() == [1 << n - 1]

    def test_dict_view_of_bch_weight_three_table(self):
        code = bch_31_11()
        t = build_table(code, 3)
        # the view reads the arrays: getting it, its length and a lookup
        # allocate no entries (a warm-up lookup first)
        key = int(t.syndromes[t.covered // 2])
        t.table[key]
        tracemalloc.start()
        try:
            view = t.table
            size, masks = len(view), view[key]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, peak
        assert size == t.covered and masks == (t.x[t.covered // 2], t.z[t.covered // 2])
        table, _ = oracles.table_fill(code, 3)
        assert t.table == table

    @pytest.mark.parametrize(
        "layout", ["bch_partial_int64", "steane_full", "object_syndromes", "object_masks"]
    )
    def test_view_reads_as_the_dict_of_its_items(self, layout, steane, monkeypatch):
        t = {
            "bch_partial_int64": lambda: build_table(bch_31_11(), 3),
            "steane_full": lambda: build_table(steane),
            "object_syndromes": lambda: build_table(repetition_code(64), 1),
            "object_masks": lambda: build_table(random_code(70, 10, random.Random(70)), 1),
        }[layout]()
        assert (t.full, t.syndromes.dtype, t.x.dtype) == {
            "bch_partial_int64": (False, np.int64, np.int64),
            "steane_full": (True, np.int64, np.int64),
            "object_syndromes": (False, object, object),
            "object_masks": (False, np.int64, object),
        }[layout]
        view = t.table
        # the walks read the arrays in blocks, never a lookup per key
        with monkeypatch.context() as m:
            m.setattr(degeneracy._TableView, "__getitem__", None)
            table = dict(view.items())
            keys, values = list(view), list(view.values())
        assert keys == list(view.keys()) == sorted(table)
        assert values == [table[s] for s in keys]
        assert len(view) == len(table) == t.covered
        assert view == table and table == view
        assert view != {**table, 0: (1, 0)} and {} != view
        assert {s: view[s] for s in keys} == table
        assert keys[-1] in view and view.get(keys[-1], None) == table[keys[-1]]
        assert view[np.int64(0)] == view[False] == (0, 0)
        uncovered = [] if t.full else [min(set(range(len(keys) + 1)) - set(keys))]
        for key in (*uncovered, -1, t.num_syndromes, 2**70, "1", 1.5, None):
            with pytest.raises(KeyError):
                view[key]
            assert key not in view
            assert view.get(key, "absent") == "absent"

    def test_pool_payload_leaves_the_dict_view_behind(self):
        # pool workers decode from the arrays: a dict view read before the
        # run must not be pickled with the table
        code = bch_31_11()
        t = build_table(code, 3)
        before = pickle.dumps(t)
        assert len(t.table) == t.covered == 97_000
        assert pickle.dumps(t) == before
        assert set(vars(pickle.loads(pickle.dumps(t)))) == {
            "checks", "max_weight", "syndromes", "x", "z", "classes",
            "letter_syndromes", "letter_classes",
        }
        ch = PauliChannel.depolarizing(0.01)
        solo = simulate(code, ch, 4000, 6, table=t, workers=1)
        assert simulate(code, ch, 4000, 6, table=t, workers=2) == solo

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
    """The chunked fill equals the one-error-at-a-time loop."""

    @staticmethod
    def assert_same(code, max_weight):
        t = build_table(code, max_weight)
        table, reached = oracles.table_fill(code, max_weight)
        assert t.table == table
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

    @pytest.mark.parametrize("seed,chunk", [(0, 1), (1, 1), (1, 5), (2, 7)])
    def test_leading_letters_in_rows(self, shor, monkeypatch, seed, chunk):
        # chunks of fewer errors than a support has letter patterns: each
        # chunk is a slice of one support's patterns, its leading letters
        # fixed
        monkeypatch.setattr(degeneracy, "_FILL_CHUNK", chunk)
        for code in [shor, *draw_codes(20, 6, seed=seed, css_share=0.3)]:
            self.assert_same(code, None)

    def test_sliced_level_at_the_shipped_chunk_size(self, fill_chunks):
        # the [[9,0]] state with Z on each qubit fills its table at weight 9,
        # where one support's 3**9 letter patterns pass _FILL_CHUNK
        code = StabilizerCode.from_strings(
            *("I" * q + "Z" + "I" * (8 - q) for q in range(9))
        )
        chunk = degeneracy._FILL_CHUNK
        assert 3**9 > chunk
        self.assert_same(code, None)
        assert fill_chunks[-1] == (9, chunk)
        t = build_table(code)
        assert (t.max_weight, t.covered) == (9, 512)
        # the map fills in the first slice; both slices list the level
        level = [idx for w, idx in degeneracy._error_chunks(9, 9) if w == 9]
        assert [len(idx) for idx in level] == [chunk, 3**9 - chunk]
        letters = np.concatenate(level) % 4
        strings = ["".join("XYZ"[a] for a in row) for row in letters.tolist()]
        assert strings == list(oracles.weight_level(9, 9))

    def test_wide_weight_one_table(self):
        self.assert_same(random_code(70, 10, random.Random(70)), 1)

    def test_syndromes_past_int64(self):
        # 63 syndrome bits: the fill holds them as Python ints in object arrays
        code = repetition_code(64)
        assert degeneracy._letter_keys(code.syndrome_matrices, code.num_generators).dtype == object
        self.assert_same(code, 1)
        t = build_table(code, 1)
        assert t.table[1 << 62] == (1 << 63, 0)  # X on the last qubit
        assert (t.covered, t.num_syndromes) == (65, 1 << 63)

    def test_full_bch_table(self):
        # digest recorded once from the one-error-at-a-time loop
        code = bch_31_11()
        t = build_table(code)
        assert (t.covered, t.max_weight) == (1_048_576, 5)
        text = "".join(f"{s}:{x}:{z}\n" for s, (x, z) in sorted(t.table.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "42072f7b30466ea5af48e98d447ce67c1ae7b41b6ede245d19bf2bc2bfe5d057"
        )
        # decoding from the full table, loose and strict: pinned counts
        ch = PauliChannel.depolarizing(0.05)
        for strict in (False, True):
            assert simulate(code, ch, 2000, 7, table=t, strict=strict).failures == 183


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
                got = _draws(n, seed, start, start + 3).T
                assert got.shape == (3, n)
                assert got.dtype == np.uint64
                assert (got < 2**53).all()
                for row, trial in zip(got * 2.0**-53, range(start, start + 3)):
                    want = np.random.Generator(np.random.Philox(key=[seed, trial]))
                    assert row.tobytes() == want.random(n).tobytes(), (trial, n)

    def test_key_schedule_wraps_silently(self):
        # k0 = 2**63 - 1 and k1 near 2**63 both pass 2**64 at round 1's key
        # bump; uint64 arrays wrap there without a warning
        trials = range(2**63 - 3, 2**63)
        want = [np.random.Generator(np.random.Philox(key=[2**63 - 1, t])) for t in trials]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _draws(9, 2**63 - 1, 2**63 - 3, 2**63).T
        for row, ref in zip(got * 2.0**-53, want):
            assert row.tobytes() == ref.random(9).tobytes()

    def test_one_index_layout_from_sampler_to_decoder(self, steane, monkeypatch):
        # the rounds run qubit-major, so each qubit's draws, letters and
        # indices are one contiguous column, as in the fill's chunks
        ch = PauliChannel.depolarizing(0.05)
        for n in (1, 4, 7, 9, 31):
            assert _draws(n, 3, 10, 50).flags.c_contiguous, n
            assert (_sample_indices(ch, n, 3, 10, 50) % 4).T.flags.c_contiguous, n
        seen = []

        def recorded(table, at, strict=False):
            # a copy: the next chunk reuses the workspace that holds `at`
            seen.append(np.copy(at))
            return degeneracy._decoded(table, at, strict)

        monkeypatch.setattr(channel, "_decoded", recorded)
        assert simulate(steane, ch, 2000, 42).failures == 73
        assert seen and all(at.flags.f_contiguous for at in seen)
        chunks = [idx for _, idx in degeneracy._error_chunks(7, 3)]
        assert all(idx.flags.f_contiguous for idx in chunks)

        # every index `run` decodes is 4q plus the per-trial sampler's
        # letter: across the 8,192-trial chunk, and in a span past trial 0
        table = build_table(steane)
        for start, stop, sizes in ((0, 8196, [8192, 4]), (5000, 5100, [100])):
            seen.clear()
            channel._run_range(table, ch, 9, start, stop, False)
            assert [len(at) for at in seen] == sizes
            rows = np.concatenate(seen)
            assert rows.shape == (stop - start, 7)
            for trial, row in enumerate(rows.tolist(), start=start):
                err = pauli_to_string(sample_error(ch, 7, _trial_rng(9, trial)))
                assert row == [4 * q + "XYZI".index(c) for q, c in enumerate(err)], trial

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

    def test_integer_thresholds_pick_what_the_uniforms_pick(self):
        # m >= c exactly when m * 2**-53 >= t, at the draws either side of c,
        # for thresholds at 0, inside (0, 1), at 1 and with a float sum past 1
        seen = []
        for ch in (
            PauliChannel(1.0, 0.0, 0.0),
            PauliChannel(0.0, 0.0, 1.0),
            PauliChannel(0.0, 0.0, 0.0),
            PauliChannel(0.1, 0.2, 0.7),
            PauliChannel(0.33, 0.56, 0.11),  # the float sum rounds past 1
            PauliChannel(0.07, 0.01, 0.19),
        ):
            floats = channel._thresholds(ch)
            ints = channel._integer_thresholds(ch)
            assert ints.dtype == np.uint64
            seen += floats
            for t, c in zip(floats, ints.tolist()):
                assert c <= 2**53
                for m in (c - 1, c, c + 1):
                    if 0 <= m < 2**53:
                        assert (m >= c) == (m * 2.0**-53 >= t), (ch, t, m)
        assert 0.0 in seen and 1.0 in seen and max(seen) > 1.0
        assert any(0.0 < t < 1.0 for t in seen)

    @pytest.mark.parametrize(
        "ch",
        [
            PauliChannel(1.0, 0.0, 0.0),
            PauliChannel(0.0, 0.0, 1.0),
            PauliChannel(0.0, 0.0, 0.0),
            PauliChannel(0.1, 0.2, 0.7),  # the float sum is exactly 1
            PauliChannel(0.07, 0.01, 0.19),
            PauliChannel(0.33, 0.56, 0.11),  # the float sum rounds past 1
        ],
    )
    def test_masks_equal_per_trial_sampler(self, ch):
        for n in (1, 5, 8, 9, 31, 65, 70):
            letters = _sample_indices(ch, n, 11, 2**32 - 20, 2**32 + 20) % 4
            assert letters.shape == (40, n)
            for trial, row in enumerate(letters, start=2**32 - 20):
                err = sample_error(ch, n, _trial_rng(11, trial))
                assert "".join("XYZI"[v] for v in row) == pauli_to_string(err)


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

    # Steane's 7 qubits take 2 Philox blocks a trial: 1 word still makes
    # 1-trial chunks, and 15 words make 7
    @pytest.mark.parametrize(
        "words,chunk",
        [pytest.param(w, c, id=str(c)) for w, c in ((1, 1), (6, 3), (15, 7))],
    )
    def test_chunk_size_is_invisible(self, steane, monkeypatch, chunk_sizes, words, chunk):
        ch = PauliChannel.depolarizing(0.08)
        t = build_table(steane)
        counts = [trials for trials in (500, chunk - 1, chunk, chunk + 1) if trials > 0]
        whole = [simulate(steane, ch, trials, 8, table=t) for trials in counts]
        chunk_sizes.clear()
        monkeypatch.setattr(channel, "_CHUNK_WORDS", words)
        assert [simulate(steane, ch, trials, 8, table=t) for trials in counts] == whole
        assert max(chunk_sizes) == chunk

    # codes of 1, 2 and 8 Philox blocks a trial.  The BCH table stops at
    # weight 2, since the full table takes seconds to fill, and its chunk
    # boundaries are run strict.  Two full chunks and a short one take one
    # reused workspace, loose and strict.  The oracle runs each mode once, up
    # to its longest run, and every run is held to a prefix of its outcomes.
    @pytest.mark.parametrize(
        "name,max_weight,p,strict",
        [
            pytest.param("bitflip3", None, 0.08, False, id="bitflip3"),
            pytest.param("steane", None, 0.08, False, id="steane"),
            pytest.param("bch_31_11", 2, 0.01, True, id="bch_31_11"),
        ],
    )
    def test_chunk_boundary_matches_oracle(self, request, name, max_weight, p, strict):
        code = bch_31_11() if name == "bch_31_11" else request.getfixturevalue(name)
        ch = PauliChannel.depolarizing(p)
        t = build_table(code, max_weight)
        chunk = channel._CHUNK_WORDS // -(-code.n // 4)
        runs = [(trials, strict) for trials in (chunk - 1, chunk, chunk + 1)]
        runs += [(2 * chunk + chunk // 3, mode) for mode in (False, True)]
        prefix = {}
        for mode in {m for _, m in runs}:
            longest = max(n for n, m in runs if m == mode)
            failed = oracles.trial_failures(code, ch, longest, 4, t.table, mode)
            prefix[mode] = np.cumsum([0] + failed)
        for trials, mode in runs:
            expected = int(prefix[mode][trials])
            assert 0 < expected < trials
            r = simulate(code, ch, trials, 4, table=t, strict=mode)
            assert r.failures == expected, (trials, mode)

    def test_wide_code_matches_oracle(self):
        code = random_code(70, 10, random.Random(70))
        table = build_table(code, 1)
        assert not table.full
        ch = PauliChannel(0.002, 0.001, 0.002)
        letters = _sample_indices(ch, 70, 5, 0, 400) % 4
        assert (letters[:, 64:] < 3).any()  # errors reach mask bits past 63
        expected = oracles.simulate_failures(code, ch, 400, 5, table.table)
        assert 0 < expected < 400
        assert simulate(code, ch, 400, 5, table=table).failures == expected

    @pytest.mark.parametrize("strict", [False, True])
    def test_stabilizer_state_matches_oracle(self, strict):
        # k = 0: class keys are 0 bits wide, so only uncovered syndromes fail
        # a loose decode
        code = css_state_6_0()
        assert degeneracy._letter_keys(code._class_matrices, 2 * code.k).tolist() == [[0, 0, 0, 0]] * 6
        ch = PauliChannel(0.06, 0.03, 0.05)
        for table in (build_table(code), build_table(code, 1)):
            expected = oracles.simulate_failures(code, ch, 400, 3, table.table, strict)
            r = simulate(code, ch, 400, 3, table=table, strict=strict)
            assert r.failures == expected
            if not strict and table.full:
                assert expected == 0
        assert 0 < expected < 400


class TestWorkspace:
    def test_reused_workspace_draws_what_a_fresh_one_draws(self):
        # chunks narrower than the workspace, in any order, after wider ones
        spans = [(0, 40), (5, 22), (2**32 - 3, 2**32 + 14), (9, 10), (100, 139), (0, 40)]
        for n in (1, 3, 4, 7, 9, 31, 65):
            words = np.empty((8, -(-n // 4) * 40), dtype=np.uint64)
            for start, stop in spans:
                draws = channel._draws(n, 11, start, stop, words)
                want = _draws(n, 11, start, stop).T
                assert draws.T.tobytes() == want.tobytes(), (n, start, stop)

    @staticmethod
    def _peak(table, trials):
        # tracemalloc sees numpy's buffers; a warm-up run first, so that only
        # the run's own arrays count
        ch = PauliChannel.depolarizing(0.05)
        channel._run_range(table, ch, 7, 0, trials, False)
        tracemalloc.start()
        try:
            channel._run_range(table, ch, 7, 0, trials, False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_one_chunk(self, steane):
        # 5 chunks peak where 1 does, so no chunk's arrays are alive while
        # the next one draws
        table = build_table(steane)
        assert channel._CHUNK_WORDS // 2 == 8192
        peaks = [self._peak(table, trials) for trials in (8192, 40_960)]
        # the loop's own Python ints differ by some bytes
        assert peaks[1] - peaks[0] < 1024, peaks
        assert max(peaks) <= 1988 * 1024, peaks

    def test_runs_inside_one_chunk_allocate_the_span(self, steane, monkeypatch):
        # the workspace is sized to min(chunk, span), so runs shorter than a
        # chunk peak alike at 8192 and 16,384 blocks a chunk
        table = build_table(steane)
        peaks = {}
        for words in (8192, 16384):
            monkeypatch.setattr(channel, "_CHUNK_WORDS", words)
            peaks[words] = [self._peak(table, trials) for trials in (300, 2000)]
        assert peaks[8192] == peaks[16384], peaks

    # 16,384 blocks a chunk: 2048 trials of BCH, 8192 of Steane, 16,384 of
    # the 3-qubit code and 910 of the 70-qubit code (18 blocks a trial)
    @pytest.mark.parametrize(
        "name,trials,chunks",
        [("steane", 20_000, 3), ("bch_31_11", 4000, 2), ("bitflip3", 17_000, 2), ("wide", 400, 1)],
    )
    def test_chunks_per_run(self, request, chunk_sizes, name, trials, chunks):
        if name == "bch_31_11":
            code = bch_31_11()
        elif name == "wide":
            code = random_code(70, 10, random.Random(70))
        else:
            code = request.getfixturevalue(name)
        simulate(code, PauliChannel.depolarizing(0.01), trials, 7, table=build_table(code, 1))
        assert len(chunk_sizes) == chunks and sum(chunk_sizes) == trials, chunk_sizes


class TestWilson:
    def test_requires_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("failures,trials", [(5, 3), (-1, 10)])
    def test_failures_outside_the_trials_rejected(self, failures, trials):
        match = f"failures {failures} outside 0..{trials}"
        with pytest.raises(ValueError, match=match):
            wilson_interval(failures, trials)

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

    def test_pool_spans_of_several_chunks(self, steane):
        # 10,000 trials a span, more than one 8,192-trial Steane chunk
        ch = PauliChannel.depolarizing(0.06)
        solo = simulate(steane, ch, 20_000, 12, workers=1)
        assert simulate(steane, ch, 20_000, 12, workers=2) == solo

    @pytest.mark.parametrize("seed", [2**63, 2**63 + 1, 2**64, -1])
    def test_seed_outside_domain_rejected(self, steane, seed):
        # 2**63 and 2**63+1 used to share one stream; 2**64 overflowed
        with pytest.raises(ValueError, match="seed"):
            simulate(steane, PauliChannel.depolarizing(0.05), 10, seed)

    def test_largest_seed_runs(self, steane):
        r = simulate(steane, PauliChannel.depolarizing(0.05), 50, 2**63 - 1)
        assert (r.seed, r.trials) == (2**63 - 1, 50)

    @pytest.mark.parametrize("trials", [2**63 + 1, 2**64])
    def test_trials_past_the_key_domain_refused(self, steane, monkeypatch, trials):
        # numpy stores Philox key word 2**63 + 1 as 2**63 and 2**64 - 1 as 0,
        # so trial indices stay below 2**63, as seeds do
        channel.check_run_args(2**63, 2**63 - 1, 1)
        monkeypatch.setattr(channel, "_draws", None)  # no trial may start
        with pytest.raises(ValueError, match="trials"):
            simulate(steane, PauliChannel.depolarizing(0.05), trials, 1)

    def test_steane_seed_7_frozen(self, steane):
        r = simulate(steane, PauliChannel.depolarizing(0.05), 20000, 7)
        assert r.failures == 702

    @pytest.mark.parametrize(
        "workers,cpus,trials,pools",
        [
            # never more processes than CPUs, and one span per process
            (16, 2, 10_000, [(2, [(0, 5000), (5000, 10_000)])]),
            (3, 8, 10_000, [(3, [(0, 3333), (3333, 6666), (6666, 10_000)])]),
            (4, 1, 10_000, []),  # one CPU runs inline
            (4, None, 10_000, []),  # CPU count unknown
            (4, 2, 5, []),  # fewer than two trials a worker
        ],
    )
    def test_one_span_per_process(self, steane, monkeypatch, workers, cpus, trials, pools):
        import concurrent.futures

        started = []

        class InlinePool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                started.append((self.max_workers, list(zip(columns[3], columns[4]))))
                return map(fn, *columns)

        ch = PauliChannel.depolarizing(0.06)
        solo = simulate(steane, ch, trials, 12)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(channel, "_usable_cpus", lambda: cpus)
        assert simulate(steane, ch, trials, 12, workers=workers) == solo
        assert started == pools

    def test_pool_counts_the_cpus_the_process_may_run_on(self, steane, monkeypatch):
        import concurrent.futures

        def refused(*args, **kwargs):
            raise AssertionError("no pool may start")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(channel.os, "cpu_count", lambda: 8)
        # a one-CPU affinity mask on an 8-CPU machine runs two workers inline
        monkeypatch.setattr(channel.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert channel._usable_cpus() == 1
        ch = PauliChannel.depolarizing(0.06)
        assert simulate(steane, ch, 1000, 12, workers=2) == simulate(steane, ch, 1000, 12)
        # without affinity masks the machine's count stands
        monkeypatch.delattr(channel.os, "sched_getaffinity")
        assert channel._usable_cpus() == 8

    def test_few_trials_fall_back_to_inline(self, steane):
        ch = PauliChannel.depolarizing(0.06)
        assert simulate(steane, ch, 5, 2, workers=4) == simulate(steane, ch, 5, 2)

    def test_explicit_table_matches_implicit(self, steane):
        ch = PauliChannel.depolarizing(0.05)
        t = build_table(steane)
        assert simulate(steane, ch, 500, 8, table=t) == simulate(steane, ch, 500, 8)

    def test_letter_tables_come_from_the_table(self, steane, monkeypatch):
        # the fill's per-qubit keys travel in the table, so a code takes its
        # logicals at most once, and never inside run
        calls = []
        inner = StabilizerCode._logicals.func

        def counted(code):
            calls.append(code)
            return inner(code)

        logicals = cached_property(counted)
        logicals.__set_name__(StabilizerCode, "_logicals")
        monkeypatch.setattr(StabilizerCode, "_logicals", logicals)
        ch = PauliChannel.depolarizing(0.05)
        assert simulate(steane, ch, 2000, 42).failures == 73
        assert len(calls) == 1
        table = build_table(steane)
        assert len(calls) == 1

        def refused(code):
            raise AssertionError("run recomputed the letter tables")

        # a property outranks the cached value, and a forked worker inherits
        # the patch, so a read anywhere in run fails it
        monkeypatch.setattr(StabilizerCode, "_logicals", property(refused))
        for workers in (1, 3):
            r = simulate(steane, ch, 2000, 42, table=table, workers=workers)
            assert r.failures == 73

    def test_table_for_another_code_refused(self, steane, shor, monkeypatch):
        ch = PauliChannel.depolarizing(0.05)
        other = random_code(7, 6, random.Random(7))  # same n, other checks
        reordered = StabilizerCode.from_strings(*generator_strings(steane)[::-1])
        # check rows (3, 6) in both, so only n tells the codes apart
        short = StabilizerCode.from_strings("XXI", "IXX")
        padded = StabilizerCode.from_strings("XXII", "IXXI")
        assert short.h.h.rows == padded.h.h.rows == (3, 6)
        monkeypatch.setattr(channel, "_draws", None)  # no trial may start
        for code, target in (
            (shor, steane),
            (other, steane),
            (reordered, steane),
            (short, padded),
        ):
            with pytest.raises(ValueError, match="built for another code"):
                simulate(target, ch, 2000, 1, table=build_table(code))
            with pytest.raises(ValueError, match="built for another code"):
                simulate(target, ch, 2000, 1, table=build_table(code), workers=3)

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
