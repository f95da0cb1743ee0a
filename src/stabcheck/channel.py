"""Monte Carlo logical error rates for Pauli channels.

Errors are sampled per qubit i.i.d. from (p_x, p_y, p_z), decoded by a
minimum-weight syndrome table, and counted as corrected when the residual
R * E lands in the stabilizer row space (degenerate decoding: correcting up
to a stabilizer element is a success).  Each trial draws from its own
counter-based stream keyed by (seed, trial index), so results are bit-exact
reproducible and independent of how trials are split across workers.
`run` starts at most one process per CPU and hands each one contiguous span
of trials, so the decoder table is pickled once per process.

`run` draws a chunk of trials at once: `_uniforms` evaluates Philox4x64-10
(Salmon et al., SC 2011) in numpy across every trial of the chunk and gives
each trial the same words as `np.random.Generator(np.random.Philox(key=[seed,
trial])).random(n)`, so the errors are those of the per-trial reference
`sample_error(channel, n, _trial_rng(seed, trial))`.  The rounds run
qubit-major, on (blocks, trials) arrays, so each qubit's draws are one
contiguous column, and the chunk's letters and flat indices 4q + a keep that
layout, the one `degeneracy._error_chunks` gives the table fill.  The chunk
is decoded in numpy too: each trial's letters (X, Y, Z, I) come straight
from its draws, kept as 53-bit integers and counted against integer
thresholds, and the trial fails unless `degeneracy._decoded`, the one decode
test, passes its flat indices: its syndrome is covered and the logical class
key in that syndrome's table row equals its own (in strict mode: its x and z
mask keys do).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .degeneracy import DecoderTable, _decoded, error_count, fill_syndrome_map
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


# Most entries `build_table` will fill.  Building the full [[31,11,5]]
# table, 2**20 entries, peaks at 97 MB RSS, 39 MB of it the interpreter and
# numpy; it keeps 32 bytes an entry (syndrome, x and z mask keys, class
# key).  Reading its dict view brings the peak to 219 MB, so 2**22 entries
# stay near 1 GB even then.
_MAX_TABLE_ENTRIES = 1 << 22


def build_table(code: StabilizerCode, max_weight: int | None = None) -> DecoderTable:
    """Fill the syndrome table up to max_weight (default: until full).

    The table is `fill_syndrome_map` stopped once every syndrome is claimed.
    Raises ValueError before any work when the table could pass
    `_MAX_TABLE_ENTRIES` entries.
    """
    n = code.n
    limit = n if max_weight is None else max_weight
    if not 0 <= limit <= n:
        raise ValueError(f"max_weight {limit} outside 0..{n}")
    total = 1 << code.num_generators
    bound = min(total, 1 + error_count(n, limit))
    if bound > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"decoder table could hold {bound} entries, "
            f"more than the cap of {_MAX_TABLE_ENTRIES}"
        )
    table, _, _ = fill_syndrome_map(code, limit)
    return table


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


# Philox blocks sampled per batch in `_run_range`: a chunk holds
# max(1, _CHUNK_WORDS // ceil(n / 4)) trials of ceil(n / 4) blocks each.  Each
# of the four state arrays of its rounds holds one uint64 word per block,
# 8192 words or 64 kB whatever n is, so a chunk draws 4 * 8192 = 32,768 words
# and numpy's per-call cost is spread over that many on small codes too.
# 8192 blocks are 1024 trials of the 31-qubit BCH code; Steane gets 4096
# trials a chunk, the 3-qubit repetition code 8192.  Steane at 20k trials
# then Shor at 2k, tables built beforehand, raise the peak RSS by 1.2 MB in a
# process of their own, against 0.1 MB with 1024-trial chunks.
_CHUNK_WORDS = 8192

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
    """Row t - start: the 53-bit integers m of `_trial_rng(seed, t).random(n)`,
    for t in [start, stop), as uint64; numpy's uniform is exactly m * 2**-53.

    numpy's Philox keeps a 4-word buffer and increments its counter before
    it fills the buffer, so draw b of a fresh generator is word b % 4 of the
    block at counter (b // 4 + 1, 0, 0, 0) under key (seed, trial), and its
    uniform is the word's top 53 bits.  Counter words 1 to 3 start as one
    zero that broadcasts, so round 1's second product and round 2's first
    run on a single element; from round 3 on every word is a full array.

    The rounds run qubit-major: every full word is a (blocks, trials) array,
    so the trial key k1 broadcasts along contiguous rows.  The result is the
    transpose of a C-ordered (n, trials) array, one contiguous column per
    qubit.  k0 and k1 stay uint64 arrays, which wrap silently where the key
    schedule passes 2**64; numpy scalars warn there.
    """
    blocks = -(-n // 4)
    k0 = np.full((1, 1), seed, dtype=np.uint64)
    k1 = np.arange(start, stop, dtype=np.uint64)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64).reshape(-1, 1)
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = k0 + _PHILOX_W0
        k1 = k1 + _PHILOX_W1
    words = np.stack((c0, c1, c2, c3), axis=1).reshape(4 * blocks, stop - start)
    return (words[:n] >> _U11).T


def _integer_thresholds(channel: PauliChannel) -> np.ndarray:
    """`_thresholds` as uint64 draws: m * 2**-53 >= t exactly when m >= c.

    c = ceil(t * 2**53) (the product is exact), capped at 2**53: no 53-bit
    draw reaches that, as no uniform reaches a threshold at or past 1.
    """
    return np.array(
        [min(math.ceil(t * 2.0**53), 1 << 53) for t in _thresholds(channel)],
        dtype=np.uint64,
    )


def _sample_letters(
    channel: PauliChannel, n: int, seed: int, start: int, stop: int
) -> np.ndarray:
    """Letters (0, 1, 2, 3 for X, Y, Z, I) of the errors that trials
    [start, stop) draw, one trial per row.

    Row t - start is `sample_error(channel, n, _trial_rng(seed, t))`: the
    letter is the number of cumulative masses at or below the uniform,
    counted on the integer draws against `_integer_thresholds`, one
    comparison per threshold.  The letters are int8.
    """
    draws = _uniforms(seed, start, stop, n)
    return sum((draws >= c).view(np.int8) for c in _integer_thresholds(channel))


def wilson_interval(
    failures: int, trials: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures {failures} outside 0..{trials}")
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
    table: DecoderTable,
    channel: PauliChannel,
    seed: int,
    start: int,
    stop: int,
    strict: bool,
) -> int:
    n = table.n
    qubits = np.arange(n)
    step = max(1, _CHUNK_WORDS // -(-n // 4))
    failures = 0
    for a in range(start, stop, step):
        at = 4 * qubits + _sample_letters(channel, n, seed, a, min(a + step, stop))
        ok, _ = _decoded(table, at, strict)
        failures += len(ok) - int(np.count_nonzero(ok))
    return failures


def check_run_args(trials: int, seed: int, workers: int) -> None:
    """Raise ValueError for arguments `run` rejects, before any work."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    # numpy aliases Philox key words past 2**63, or overflows, so seeds and
    # trial indices both stay in [0, 2**63)
    if trials > 2**63:
        raise ValueError(f"trials {trials} past 2**63")
    if not 0 <= seed < 2**63:
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
    only.  min(workers, CPU count) processes start, each with one contiguous
    span of the trials; a single process, or fewer than two trials a worker,
    runs inline with no pool.  `strict` demands exact error recovery instead
    of recovery up to a stabilizer element; it exists to measure how much
    degeneracy helps.
    Raises ValueError before any trial when `table` was built for another
    code.
    """
    check_run_args(trials, seed, workers)
    if table is None:
        table = build_table(code)
    elif (table.n, table.checks) != (code.n, code.h.h.rows):
        raise ValueError("decoder table was built for another code")
    procs = min(workers, os.cpu_count() or 1)
    if procs == 1 or trials < 2 * workers:
        failures = _run_range(table, channel, seed, 0, trials, strict)
    else:
        from concurrent.futures import ProcessPoolExecutor

        cuts = [trials * i // procs for i in range(procs + 1)]
        args = [(table, channel, seed, a, b, strict) for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=procs) as pool:
            failures = sum(pool.map(_run_range, *zip(*args)))
    rate = failures / trials
    return SimResult(
        trials=trials,
        failures=failures,
        rate=rate,
        ci95=wilson_interval(failures, trials),
        seed=seed,
    )
