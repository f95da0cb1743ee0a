"""Monte Carlo logical error rates for Pauli channels.

Errors are sampled per qubit i.i.d. from (p_x, p_y, p_z), decoded by a
minimum-weight syndrome table, and counted as corrected when the residual
R * E lands in the stabilizer row space (degenerate decoding: correcting up
to a stabilizer element is a success).  Each trial draws from its own
counter-based stream keyed by (seed, trial index), so results are bit-exact
reproducible and independent of how trials are split across workers.

`run` draws a chunk of trials at once: `_uniforms` evaluates Philox4x64-10
(Salmon et al., SC 2011) in numpy across every trial of the chunk and gives
each trial the same words as `np.random.Generator(np.random.Philox(key=[seed,
trial])).random(n)`, so the errors are those of the per-trial reference
`sample_error(channel, n, _trial_rng(seed, trial))`.  Decoding stays per
trial.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, combinations, islice, product
from typing import Iterator

import numpy as np

from .stabilizer import StabilizerCode
from .symplectic import PauliOperator

__all__ = [
    "PauliChannel",
    "DecoderTable",
    "SimResult",
    "build_table",
    "sample_error",
    "wilson_interval",
    "run",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class PauliChannel:
    """Single-qubit Pauli channel; the identity gets the leftover mass."""

    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self) -> None:
        for name, p in (("p_x", self.p_x), ("p_y", self.p_y), ("p_z", self.p_z)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.p_x + self.p_y + self.p_z > 1.0 + _PROB_TOL:
            raise ValueError(
                f"probabilities sum to {self.p_x + self.p_y + self.p_z} > 1"
            )

    @property
    def p_i(self) -> float:
        return 1.0 - (self.p_x + self.p_y + self.p_z)

    @classmethod
    def depolarizing(cls, p: float) -> PauliChannel:
        """Total error probability p, split evenly across X, Y, Z."""
        return cls(p / 3.0, p / 3.0, p / 3.0)


@dataclass(frozen=True)
class DecoderTable:
    """Minimum-weight representative per syndrome.

    Built breadth-first by weight, identity first, so each syndrome keeps the
    lightest error that produces it (ties: first in enumeration order), the
    same first-claim rule as `classify`, computed one chunk of a weight level
    at a time.  The fill stops in the chunk in which every syndrome is
    claimed, so max_weight is the level at which the map filled.  Coverage
    may be partial when max_weight cuts the fill short; decoding an
    uncovered syndrome counts as a failure.
    """

    table: dict[int, tuple[int, int]]
    max_weight: int
    num_syndromes: int

    @property
    def covered(self) -> int:
        return len(self.table)

    @property
    def full(self) -> bool:
        return self.covered == self.num_syndromes

    @property
    def uncovered(self) -> int:
        return self.num_syndromes - self.covered


# Errors evaluated per chunk of a weight level in `build_table`, and the
# trailing letters that index a chunk's columns: 3**8 columns fit a chunk.
_FILL_CHUNK = 1 << 14
_TAIL_LETTERS = 8

# Most entries `build_table` will fill.  Building the full [[31,11,5]]
# table, 2**20 entries, peaks at about 200 MB RSS, and an entry takes at most
# about 200 bytes when no masks are shared, so 2**22 entries stay under 1 GB.
_MAX_TABLE_ENTRIES = 1 << 22

# Widest syndrome the fill holds in int64.
_MAX_SYNDROME_BITS = 62


def build_table(code: StabilizerCode, max_weight: int | None = None) -> DecoderTable:
    """Fill the syndrome table up to max_weight (default: until full).

    Each weight level is evaluated a chunk at a time as an int64 matrix of
    syndromes in enumeration order (supports in lex order, letters in lex
    order over X < Y < Z), XOR-gathered from the per-qubit letter syndromes.
    `np.unique` gives each syndrome's first occurrence in the chunk; those
    not in the table (a sorted copy of its keys answers that) are claimed in
    that order, and only their masks are expanded.  Once the map is full
    every later error can only collide, so the fill stops after that chunk.
    Raises ValueError before any work when the syndromes do not fit in int64
    or the table could pass `_MAX_TABLE_ENTRIES` entries.
    """
    n, m = code.n, code.num_generators
    limit = n if max_weight is None else max_weight
    if not 0 <= limit <= n:
        raise ValueError(f"max_weight {limit} outside 0..{n}")
    if m > _MAX_SYNDROME_BITS:
        raise ValueError(
            f"{m} syndrome bits exceed the decoder table's {_MAX_SYNDROME_BITS}"
        )
    total = 1 << m
    bound = min(total, sum(math.comb(n, w) * 3**w for w in range(limit + 1)))
    if bound > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"decoder table could hold {bound} entries, "
            f"more than the cap of {_MAX_TABLE_ENTRIES}"
        )
    letters = _letter_syndromes(code)
    table: dict[int, tuple[int, int]] = {0: (0, 0)}
    claimed = np.zeros(bound, dtype=np.int64)  # table keys, sorted, in [:len(table)]
    # one int object per distinct mask: the 2**20 entries of the [[31,11,5]]
    # table hold 17,623 distinct masks, so sharing them saves ~60 MB
    shared: dict[int, int] = {}
    reached = 0
    for w in range(1, limit + 1):
        if len(table) == total:
            break
        reached = w
        # the last `h` letters of each error index the chunk's columns; a row
        # is a support with the letters before them (none while 3**w fits)
        h = min(w, _TAIL_LETTERS)
        tails = np.array(list(product(range(3), repeat=h)), dtype=np.intp)
        rows = _level_rows(n, w, h)
        while len(table) < total:
            block = np.fromiter(
                chain.from_iterable(islice(rows, max(1, _FILL_CHUNK // len(tails)))),
                dtype=np.intp,
            ).reshape(-1, 2 * w - h)
            if not len(block):
                break
            supports, heads = block[:, :w], block[:, w:]
            values, first = np.unique(
                _chunk_syndromes(letters, supports, heads, tails), return_index=True
            )
            keys = claimed[: len(table)]
            at = np.searchsorted(keys, values)
            fresh = keys[np.minimum(at, len(keys) - 1)] != values
            if not fresh.any():
                continue
            _merge_sorted(claimed, len(table), values[fresh], at[fresh])
            order = np.argsort(first[fresh])
            values, first = values[fresh][order], first[fresh][order]
            r, c = np.divmod(first, len(tails))
            masks = _error_masks(
                n, supports[r], np.hstack((heads[r], tails[c])), shared
            )
            table.update(zip(values.tolist(), masks))
    return DecoderTable(table=table, max_weight=reached, num_syndromes=total)


def _merge_sorted(
    buf: np.ndarray, size: int, values: np.ndarray, at: np.ndarray
) -> None:
    """Insert sorted `values` at positions `at` of the sorted buf[:size], in place."""
    lo = int(at[0])
    dest = at + np.arange(len(values))
    moved = np.ones(size + len(values) - lo, dtype=bool)
    moved[dest - lo] = False
    buf[lo : size + len(values)][moved] = buf[lo:size].copy()
    buf[dest] = values


def _letter_syndromes(code: StabilizerCode) -> np.ndarray:
    """Row q: the syndromes of X, Y and Z on qubit q, as int64."""
    sm = code.syndrome_matrices
    rows = [(b, b ^ p, p) for b, p in zip(sm.bsm.rows, sm.psm.rows)]
    return np.array(rows, dtype=np.int64)


def _level_rows(n: int, w: int, h: int) -> Iterator[tuple[int, ...]]:
    """Support + leading w - h letters of each weight-w row, in enumeration order."""
    for support in combinations(range(n), w):
        for head in product(range(3), repeat=w - h):
            yield support + head


def _chunk_syndromes(
    letters: np.ndarray, supports: np.ndarray, heads: np.ndarray, tails: np.ndarray
) -> np.ndarray:
    """Syndromes of a chunk, flat in enumeration order: row-major over
    (support and leading letters) x (trailing letters)."""
    lead = heads.shape[1]
    row = np.zeros(len(supports), dtype=np.int64)
    for j in range(lead):
        row ^= letters[supports[:, j], heads[:, j]]
    syn = np.repeat(row[:, None], len(tails), axis=1)
    for j in range(tails.shape[1]):
        syn ^= letters[supports[:, lead + j, None], tails[:, j]]
    return syn.ravel()


def _error_masks(
    n: int, supports: np.ndarray, letters: np.ndarray, shared: dict[int, int]
) -> list[tuple[int, int]]:
    """(x, z) masks of the errors with letter index letters[i, j] on qubit
    supports[i, j] (0, 1, 2 for X, Y, Z), each mask the object in `shared`."""
    x = np.zeros((len(supports), n), dtype=bool)
    z = np.zeros((len(supports), n), dtype=bool)
    at = np.arange(len(supports))[:, None]
    x[at, supports] = letters != 2
    z[at, supports] = letters != 0
    return [
        (shared.setdefault(a, a), shared.setdefault(b, b))
        for a, b in zip(_pack_rows(x), _pack_rows(z))
    ]


def sample_error(
    channel: PauliChannel, n: int, rng: np.random.Generator
) -> PauliOperator:
    """One error, each qubit drawn i.i.d. from the channel."""
    u = rng.random(n)
    x = 0
    z = 0
    tx, txy, txyz = _thresholds(channel)
    for j in range(n):
        uj = u[j]
        if uj < tx:
            x |= 1 << j
        elif uj < txy:
            x |= 1 << j
            z |= 1 << j
        elif uj < txyz:
            z |= 1 << j
    return PauliOperator.from_masks(n, x, z)


def _thresholds(channel: PauliChannel) -> tuple[float, float, float]:
    """Cumulative X, X+Y, X+Y+Z masses: a uniform u below each picks X, Y, Z."""
    tx = channel.p_x
    txy = tx + channel.p_y
    return tx, txy, txy + channel.p_z


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; key = (seed, trial)."""
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


# Trials sampled per batch in `_run_range`.  Each uint64 array of a chunk
# takes 8 kB per four qubits, whatever the trial count; 4096 trials added
# about 1.5 MB to the peak RSS of a Steane and Shor run, 1024 about 0.1 MB,
# at a few percent more time.
_CHUNK = 1024

# Philox4x64-10 constants.  Everything stays np.uint64, because NumPy 1.x
# promotes uint64 mixed with a Python int to float64.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * m, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _U32
    m_lo, m_hi = m & _LOW32, m >> _U32
    lo_lo = a_lo * m_lo
    hi_lo = a_hi * m_lo
    # at most 2**64 - 1, so this sum cannot wrap
    mid = (lo_lo >> _U32) + (hi_lo & _LOW32) + a_lo * m_hi
    return a_hi * m_hi + (hi_lo >> _U32) + (mid >> _U32), a * m


def _uniforms(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Row t - start: `_trial_rng(seed, t).random(n)`, for t in [start, stop).

    numpy's Philox keeps a 4-word buffer and increments its counter before
    it fills the buffer, so draw b of a fresh generator is word b % 4 of the
    block at counter (b // 4 + 1, 0, 0, 0) under key (seed, trial).
    """
    blocks = -(-n // 4)
    shape = (stop - start, blocks)
    k0 = np.full((1, 1), seed, dtype=np.uint64)
    k1 = np.arange(start, stop, dtype=np.uint64).reshape(-1, 1)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)  # broadcasts over trials
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = k0 + _PHILOX_W0
        k1 = k1 + _PHILOX_W1
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(shape[0], 4 * blocks)
    return (words[:, :n] >> _U11) * 2.0**-53


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of a bool matrix as a Python int, column j at bit j."""
    words = -(-bits.shape[1] // 64)
    padded = np.zeros((bits.shape[0], 8 * words), dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded[:, : packed.shape[1]] = packed
    cols = padded.view("<u8")
    rows = cols[:, 0].tolist()
    for k in range(1, words):
        rows = [r | w << 64 * k for r, w in zip(rows, cols[:, k].tolist())]
    return rows


def _sample_masks(
    channel: PauliChannel, n: int, seed: int, start: int, stop: int
) -> list[tuple[int, int]]:
    """(x, z) masks of the errors that trials [start, stop) draw.

    Entry t - start equals `sample_error(channel, n, _trial_rng(seed, t))`.
    """
    tx, txy, txyz = _thresholds(channel)
    u = _uniforms(seed, start, stop, n)
    return list(zip(_pack_rows(u < txy), _pack_rows((tx <= u) & (u < txyz))))


def wilson_interval(
    failures: int, trials: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    # the interval contains phat by construction; clamping removes float residue
    # at the failures=0 and failures=trials endpoints
    return (min(max(0.0, center - half), phat), max(min(1.0, center + half), phat))


@dataclass(frozen=True)
class SimResult:
    trials: int
    failures: int
    rate: float
    ci95: tuple[float, float]
    seed: int


def _run_range(
    code: StabilizerCode,
    channel: PauliChannel,
    table: dict[int, tuple[int, int]],
    seed: int,
    start: int,
    stop: int,
    strict: bool,
) -> int:
    failures = 0
    for a in range(start, stop, _CHUNK):
        for ex, ez in _sample_masks(channel, code.n, seed, a, min(a + _CHUNK, stop)):
            s = code.syndrome_masks(ex, ez)
            rep = table.get(s)
            if rep is None:
                failures += 1
                continue
            rx, rz = ex ^ rep[0], ez ^ rep[1]
            if strict:
                ok = rx == 0 and rz == 0
            else:
                ok = code.in_stabilizer_masks(rx, rz)
            if not ok:
                failures += 1
    return failures


def pool_size(workers: int, spans: int, cpus: int | None) -> int:
    """Processes worth starting: no more than the spans or the CPUs."""
    return min(workers, spans, cpus or 1)


def check_run_args(trials: int, seed: int, workers: int) -> None:
    """Raise ValueError for arguments `run` rejects, before any work."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= seed < 2**63:  # numpy aliases larger Philox keys, or overflows
        raise ValueError(f"seed {seed} outside [0, 2**63)")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def run(
    code: StabilizerCode,
    channel: PauliChannel,
    trials: int,
    seed: int,
    *,
    table: DecoderTable | None = None,
    workers: int = 1,
    strict: bool = False,
) -> SimResult:
    """Estimate the logical failure rate over `trials` samples.

    Per-trial keyed streams make the outcome a pure function of
    (code, channel, trials, seed, strict): the worker count changes wall time
    only.  `strict` demands exact error recovery instead of recovery up to a
    stabilizer element; it exists to measure how much degeneracy helps.
    """
    check_run_args(trials, seed, workers)
    if table is None:
        table = build_table(code)
    if workers == 1 or trials < 2 * workers:
        failures = _run_range(code, channel, table.table, seed, 0, trials, strict)
    else:
        step = -(-trials // workers)
        spans = [
            (start, min(start + step, trials)) for start in range(0, trials, step)
        ]
        size = pool_size(workers, len(spans), os.cpu_count())
        with ProcessPoolExecutor(max_workers=size) as pool:
            parts = pool.map(
                _run_range,
                *zip(
                    *[
                        (code, channel, table.table, seed, a, b, strict)
                        for a, b in spans
                    ]
                ),
            )
            failures = sum(parts)
    rate = failures / trials
    return SimResult(
        trials=trials,
        failures=failures,
        rate=rate,
        ci95=wilson_interval(failures, trials),
        seed=seed,
    )
