"""Monte Carlo logical error rates for Pauli channels.

Errors are sampled per qubit i.i.d. from (p_x, p_y, p_z), decoded by a
minimum-weight syndrome table, and counted as corrected when the residual
R * E lands in the stabilizer row space (degenerate decoding: correcting up
to a stabilizer element is a success).  Each trial draws from its own
counter-based stream keyed by (seed, trial index), so results are bit-exact
reproducible and independent of how trials are split across workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .degeneracy import iter_weight_masks
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
    lightest error that produces it (ties: first in enumeration order).
    Coverage may be partial when max_weight cuts the fill short; decoding an
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


def build_table(code: StabilizerCode, max_weight: int | None = None) -> DecoderTable:
    """Fill the syndrome table up to max_weight (default: until full)."""
    total = 1 << code.num_generators
    table: dict[int, tuple[int, int]] = {0: (0, 0)}
    limit = code.n if max_weight is None else max_weight
    if not 0 <= limit <= code.n:
        raise ValueError(f"max_weight {limit} outside 0..{code.n}")
    reached = 0
    for w in range(1, limit + 1):
        if len(table) == total:
            break
        reached = w
        for x, z in iter_weight_masks(code.n, w):
            s = code.syndrome_masks(x, z)
            if s not in table:
                table[s] = (x, z)
    return DecoderTable(table=table, max_weight=reached, num_syndromes=total)


def sample_error(
    channel: PauliChannel, n: int, rng: np.random.Generator
) -> PauliOperator:
    """One error, each qubit drawn i.i.d. from the channel."""
    u = rng.random(n)
    x = 0
    z = 0
    tx = channel.p_x
    txy = tx + channel.p_y
    txyz = txy + channel.p_z
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


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; key = (seed, trial)."""
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


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
    n = code.n
    failures = 0
    for trial in range(start, stop):
        err = sample_error(channel, n, _trial_rng(seed, trial))
        ex, ez = err.x.bits, err.z.bits
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
