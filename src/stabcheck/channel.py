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

import numpy as np

from .degeneracy import error_count, fill_syndrome_map, pack_rows
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
    lightest error that produces it (ties: first in enumeration order): the
    map of `classify`, from the same fill (`fill_syndrome_map`).  The fill
    stops in the chunk in which every syndrome is claimed, so max_weight is
    the level at which the map filled.  Coverage may be partial when
    max_weight cuts the fill short; decoding an uncovered syndrome counts as
    a failure.
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


# Most entries `build_table` will fill.  Building the full [[31,11,5]]
# table, 2**20 entries, peaks at about 200 MB RSS, and an entry takes at most
# about 200 bytes when no masks are shared, so 2**22 entries stay under 1 GB.
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
    table, reached, _, _ = fill_syndrome_map(code, limit)
    return DecoderTable(table=table, max_weight=reached, num_syndromes=total)


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


def _sample_masks(
    channel: PauliChannel, n: int, seed: int, start: int, stop: int
) -> list[tuple[int, int]]:
    """(x, z) masks of the errors that trials [start, stop) draw.

    Entry t - start equals `sample_error(channel, n, _trial_rng(seed, t))`.
    """
    tx, txy, txyz = _thresholds(channel)
    u = _uniforms(seed, start, stop, n)
    return list(zip(pack_rows(u < txy), pack_rows((tx <= u) & (u < txyz))))


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
