"""Degeneracy of a stabilizer code for Pauli channels.

A code with check matrix H corrects up to t errors nondegenerately when the
syndrome map is injective on the non-identity Paulis of weight <= t
(identity included as the zero-syndrome point: a weight-<=t stabilizer
element colliding with I already makes the code degenerate).  `classify`
decides this exactly with `fill_syndrome_map`, the syndrome -> error map
that `build_table` also fills, in the order of `enumerate_errors`; the column
criteria (`sufficient_nondegenerate`, `necessary_check`, `css_nondegeneracy`,
`standard_form_shortcut`) are one-sided or CSS-exact shortcuts that look at
linear independence of check-matrix columns instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, islice, product
from math import comb
from typing import Iterator, Mapping

import numpy as np

from .stabilizer import StabilizerCode, StandardForm, css_split, standard_form
from .symplectic import (
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    DEPENDENT_FOUND,
    Gf2Matrix,
    PauliOperator,
    SubsetSearch,
    smallest_dependent_subset,
)

__all__ = [
    "Verdict",
    "CriterionOutcome",
    "ErrorEnumerator",
    "CollisionWitness",
    "ClassificationReport",
    "enumerate_errors",
    "error_count",
    "alt_error_count",
    "classify",
    "all_subsets_independent",
    "sufficient_nondegenerate",
    "necessary_check",
    "css_nondegeneracy",
    "standard_form_shortcut",
    "DEFAULT_BUDGET",
]

class Verdict(Enum):
    NONDEGENERATE = "nondegenerate"
    DEGENERATE = "degenerate"


class CriterionOutcome(Enum):
    PROVEN_NONDEGENERATE = "proven_nondegenerate"
    PROVEN_DEGENERATE = "proven_degenerate"
    NONDEGENERATE = "nondegenerate"
    DEGENERATE = "degenerate"
    NOT_CSS = "not_css"
    INCONCLUSIVE = "inconclusive"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class ErrorEnumerator:
    """Iterable over the non-identity Paulis of weight 1..t on n qubits.

    Weight levels ascending; within a level, supports in lexicographic order
    and letter patterns in lexicographic order over X < Y < Z: the order of
    the syndrome fill, whose chunks it expands.
    """

    n: int
    t: int

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise ValueError(f"t={self.t} outside 1..{self.n}")

    def __iter__(self) -> Iterator[PauliOperator]:
        for _, chunk in _error_chunks(self.n, self.t):
            every = np.arange(len(chunk[0]) * len(chunk[2]))
            for x, z in _error_masks(self.n, chunk, every, {}):
                yield PauliOperator.from_masks(self.n, x, z)

    def __len__(self) -> int:
        return error_count(self.n, self.t)


def enumerate_errors(n: int, t: int) -> ErrorEnumerator:
    return ErrorEnumerator(n, t)


def error_count(n: int, t: int) -> int:
    """Number of non-identity Paulis of weight 1..t: sum_i C(n,i) 3^i."""
    return sum(comb(n, i) * 3**i for i in range(1, t + 1))


def alt_error_count(n: int, t: int) -> int:
    """Alternative counting expression recorded for comparison only.

    Disagrees with `error_count` already at n=1, t=1 (2 vs 3); no verdict is
    ever based on it.
    """
    total = 0
    for j in range(t + 1):
        inner = sum(comb(2 * n - 2 * j, l) for l in range(1, t - j + 1))
        total += comb(n, j) * inner
    return total


# Errors evaluated per chunk of a weight level by the fill, and the trailing
# letters that index a chunk's columns: 3**8 columns fit a chunk.
_FILL_CHUNK = 1 << 14
_TAIL_LETTERS = 8

Masks = tuple[int, int]
# A chunk: the supports, leading letters and trailing letters of its errors.
Chunk = tuple[np.ndarray, np.ndarray, np.ndarray]


def fill_syndrome_map(
    code: StabilizerCode, max_weight: int, *, full: bool = True, collision: bool = False
) -> tuple[dict[int, Masks], int, tuple[Masks, Masks] | None, int | None]:
    """Syndrome -> (x, z) map of the errors of weight 1..max_weight.

    The identity claims the zero syndrome; every other syndrome is kept by
    the first error in enumeration order that produces it.  Each chunk of a
    weight level is evaluated as an array of syndromes (int64, or Python
    ints in an object array past 62 bits), XOR-gathered from the per-qubit
    letter syndromes; `np.unique` gives their first occurrences, those not
    in the sorted array of claimed keys are claimed in order, and only their
    masks are expanded.  The fill stops before the next chunk once the map
    is full (if `full`) and an error has collided (if `collision`).

    Returns (map, last weight evaluated, first collision as (claimant masks,
    error masks) or None, syndromes claimed before it or None).
    """
    n, total = code.n, 1 << code.num_generators
    letters = _letter_syndromes(code)
    table: dict[int, Masks] = {0: (0, 0)}
    claimed = np.zeros(1, dtype=letters.dtype)  # table keys, sorted, in [:len(table)]
    # one int object per distinct mask: the 2**20 entries of the [[31,11,5]]
    # table hold 17,623 distinct masks, so sharing them saves ~60 MB
    shared: dict[int, int] = {}
    reached, first_collision, claimed_before = 0, None, None
    for w, chunk in _error_chunks(n, max_weight):
        if (not full or len(table) == total) and (
            not collision or first_collision is not None
        ):
            break
        reached = w
        syn = _chunk_syndromes(letters, chunk)
        values, first = np.unique(syn, return_index=True)
        size = len(table)
        keys = claimed[:size]
        at = np.searchsorted(keys, values)
        fresh = keys[np.minimum(at, size - 1)] != values
        values, first, at = values[fresh], first[fresh], at[fresh]
        if len(values):
            claimed = _merge_sorted(claimed, size, values, at, total)
            order = np.argsort(first)
            values, first = values[order], first[order]
            table.update(zip(values.tolist(), _error_masks(n, chunk, first, shared)))
        if first_collision is None:
            # claims come first in the chunk up to its first collision
            pos = int(np.count_nonzero(first == np.arange(len(first))))
            if pos < len(syn):
                error = _error_masks(n, chunk, np.array([pos]), shared)[0]
                first_collision = (table[int(syn[pos])], error)
                claimed_before = size - 1 + pos
    return table, reached, first_collision, claimed_before


def _merge_sorted(
    buf: np.ndarray, size: int, values: np.ndarray, at: np.ndarray, cap: int
) -> np.ndarray:
    """buf[:size] with sorted `values` inserted at positions `at`: in place,
    or in a buffer grown to at most `cap` entries when buf is full."""
    end = size + len(values)
    if end > len(buf):
        # np.empty leaves the spare pages untouched until claims reach them
        grown = np.empty(min(cap, 2 * end), dtype=buf.dtype)
        grown[:size] = buf[:size]
        buf = grown
    lo = int(at[0])
    dest = at + np.arange(len(values))
    moved = np.ones(end - lo, dtype=bool)
    moved[dest - lo] = False
    buf[lo:end][moved] = buf[lo:size].copy()
    buf[dest] = values
    return buf


def _letter_syndromes(code: StabilizerCode) -> np.ndarray:
    """Row q: the syndromes of X, Y and Z on qubit q, int64 up to 62 bits."""
    sm = code.syndrome_matrices
    rows = [(b, b ^ p, p) for b, p in zip(sm.bsm.rows, sm.psm.rows)]
    return np.array(rows, dtype=object if code.num_generators > 62 else np.int64)


def _error_chunks(n: int, max_weight: int) -> Iterator[tuple[int, Chunk]]:
    """(w, chunk) for each chunk of the weight 1..max_weight errors, in
    enumeration order: the last h letters of each error index the chunk's
    columns (tails), and a row is a support with the letters before them
    (heads, none while 3**w fits)."""
    for w in range(1, max_weight + 1):
        h = min(w, _TAIL_LETTERS)
        tails = np.array(list(product(range(3), repeat=h)), dtype=np.intp)
        rows = (
            support + head
            for support in combinations(range(n), w)
            for head in product(range(3), repeat=w - h)
        )
        while True:
            block = np.fromiter(
                chain.from_iterable(islice(rows, max(1, _FILL_CHUNK // len(tails)))),
                dtype=np.intp,
            ).reshape(-1, 2 * w - h)
            if not len(block):
                break
            yield w, (block[:, :w], block[:, w:], tails)


def _chunk_syndromes(letters: np.ndarray, chunk: Chunk) -> np.ndarray:
    """Syndromes of a chunk, flat in enumeration order: row-major over
    (support and leading letters) x (trailing letters)."""
    supports, heads, tails = chunk
    lead = heads.shape[1]
    row = np.zeros(len(supports), dtype=letters.dtype)
    for j in range(lead):
        row ^= letters[supports[:, j], heads[:, j]]
    syn = np.repeat(row[:, None], len(tails), axis=1)
    for j in range(tails.shape[1]):
        syn ^= letters[supports[:, lead + j, None], tails[:, j]]
    return syn.ravel()


def _error_masks(
    n: int, chunk: Chunk, at: np.ndarray, shared: dict[int, int]
) -> list[Masks]:
    """(x, z) masks of the chunk's errors at flat positions `at`, each mask
    the object in `shared`."""
    supports, heads, tails = chunk
    r, c = np.divmod(at, len(tails))
    letters = np.hstack((heads[r], tails[c]))  # 0, 1, 2 for X, Y, Z
    x = np.zeros((len(r), n), dtype=bool)
    z = np.zeros((len(r), n), dtype=bool)
    rows = np.arange(len(r))[:, None]
    x[rows, supports[r]] = letters != 2
    z[rows, supports[r]] = letters != 0
    return [
        (shared.setdefault(a, a), shared.setdefault(b, b))
        for a, b in zip(pack_rows(x), pack_rows(z))
    ]


def pack_rows(bits: np.ndarray) -> list[int]:
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


@dataclass(frozen=True)
class CollisionWitness:
    """Two distinct weight-<=t errors sharing a syndrome (second may be I)."""

    first: PauliOperator
    second: PauliOperator
    product_in_stabilizer: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the exact injectivity test.

    syndrome_count is the number of distinct syndromes claimed by enumerated
    errors; the zero syndrome belongs to the identity and is never claimed.
    It is complete when the verdict is nondegenerate or the run was
    exhaustive, otherwise it reflects the prefix scanned before the first
    collision.  Every enumerated error either claims a new syndrome or
    collides, so collision_count is expected_count - syndrome_count; it is
    None on an early-exit degenerate verdict.  Both counting formulas are
    recorded; neither decides the verdict.
    """

    verdict: Verdict
    t: int
    witness: CollisionWitness | None
    syndrome_count: int
    expected_count: int
    alt_expected_count: int
    collision_count: int | None
    criteria: Mapping[str, CriterionOutcome]


def classify(
    code: StabilizerCode,
    t: int,
    *,
    exhaustive: bool = False,
    with_criteria: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> ClassificationReport:
    """Exact degeneracy verdict by syndrome-map injectivity.

    Fills the syndrome -> error map of the weight-1..t errors
    (`fill_syndrome_map`): each syndrome is kept by the first error that
    claims it, and the zero syndrome is pre-claimed by the identity.  Stops
    in the chunk of the first collision unless `exhaustive`, which keeps
    filling the map to count distinct syndromes until all 2^(n-k) are
    claimed, since every later error can only collide.  The verdict never
    depends on the two recorded counting formulas, only on injectivity.
    t outside 1..n and a negative budget are rejected before any work.

    `with_criteria` additionally evaluates the column criteria (budgeted) and
    files their outcomes under "sufficient_columns", "necessary_columns",
    "css_blocks" and "standard_form"; "exact" is always present.
    """
    _check_t(code, t)
    if budget < 0:
        raise ValueError(f"negative budget {budget}")
    n = code.n
    table, _, collision, claimed_before = fill_syndrome_map(
        code, t, full=exhaustive, collision=True
    )
    witness: CollisionWitness | None = None
    if collision is not None:
        (fx, fz), (x, z) = collision
        witness = CollisionWitness(
            first=PauliOperator.from_masks(n, fx, fz),
            second=PauliOperator.from_masks(n, x, z),
            product_in_stabilizer=code.in_stabilizer_masks(fx ^ x, fz ^ z),
        )
    verdict = Verdict.NONDEGENERATE if witness is None else Verdict.DEGENERATE
    criteria: dict[str, CriterionOutcome] = {
        "exact": CriterionOutcome(verdict.value)
    }
    if with_criteria:
        # One search up to 4t (2t when 4t > 2n) runs the levels of both
        # stand-alone searches in their order, so it settles both criteria.
        sufficient = 4 * t <= 2 * n
        search = all_subsets_independent(
            code, 4 * t if sufficient else 2 * t, budget=budget
        )
        if sufficient:
            criteria["sufficient_columns"] = _sufficient_outcome(search, t)
        criteria["necessary_columns"] = _necessary_outcome(search, t)
        criteria["css_blocks"] = css_nondegeneracy(code, t, budget=budget)
        criteria["standard_form"] = standard_form_shortcut(standard_form(code), t)
    distinct = len(table) - 1 if exhaustive or witness is None else claimed_before
    expected = error_count(n, t)
    return ClassificationReport(
        verdict=verdict,
        t=t,
        witness=witness,
        syndrome_count=distinct,
        expected_count=expected,
        alt_expected_count=alt_error_count(n, t),
        collision_count=expected - distinct if exhaustive or witness is None else None,
        criteria=criteria,
    )


def _selected_block(code: StabilizerCode, which: str) -> Gf2Matrix:
    if which == "full":
        return code.h.h
    if which == "x_only":
        return code.h.h_x
    if which == "z_only":
        return code.h.h_z
    raise ValueError(f"unknown block {which!r}; use full, x_only or z_only")


def all_subsets_independent(
    code: StabilizerCode,
    m: int,
    which: str = "full",
    *,
    budget: int = DEFAULT_BUDGET,
) -> SubsetSearch:
    """Are all m-subsets of columns of the chosen block independent?

    Searches subsets of size <= m (dependence is monotone under supersets, so
    a small dependent subset settles every larger size); outcome is
    "all_independent", "dependent_found" with a minimal witness, or
    "budget_exhausted".  For the full block, columns 0..n-1 are X columns and
    n..2n-1 Z columns.
    """
    block = _selected_block(code, which)
    if m > block.cols:
        raise ValueError(f"m={m} exceeds {block.cols} columns of {which}")
    return smallest_dependent_subset(block, m, budget=budget)


def sufficient_nondegenerate(
    code: StabilizerCode, t: int, *, budget: int = DEFAULT_BUDGET
) -> CriterionOutcome:
    """One-sided test: every 4t-subset of [H_X|H_Z] independent => nondegenerate.

    Never returns proven_degenerate; a dependent subset is inconclusive here.
    Requires 4t <= 2n.
    """
    _check_t(code, t)
    if 4 * t > 2 * code.n:
        raise ValueError(f"4t={4 * t} exceeds the {2 * code.n} columns of [H_X|H_Z]")
    return _sufficient_outcome(
        all_subsets_independent(code, 4 * t, "full", budget=budget), t
    )


def necessary_check(
    code: StabilizerCode, t: int, *, budget: int = DEFAULT_BUDGET
) -> CriterionOutcome:
    """One-sided test: some 2t-subset of [H_X|H_Z] dependent => degenerate.

    A dependent subset of size <= 2t splits into two distinct weight-<=t
    errors with equal syndromes, so this direction is a proof; all subsets
    independent is inconclusive (nondegeneracy needs more).
    """
    _check_t(code, t)
    return _necessary_outcome(
        all_subsets_independent(code, 2 * t, "full", budget=budget), t
    )


def _sufficient_outcome(search: SubsetSearch, t: int) -> CriterionOutcome:
    """Sufficient criterion read off a full-matrix search of size >= 4t."""
    if search.verified >= 4 * t:
        return CriterionOutcome.PROVEN_NONDEGENERATE
    if search.outcome == BUDGET_EXHAUSTED:
        return CriterionOutcome.BUDGET_EXHAUSTED
    return CriterionOutcome.INCONCLUSIVE


def _necessary_outcome(search: SubsetSearch, t: int) -> CriterionOutcome:
    """Necessary criterion read off a full-matrix search of size >= 2t."""
    if search.verified >= 2 * t:
        return CriterionOutcome.INCONCLUSIVE
    if search.outcome == DEPENDENT_FOUND:
        return CriterionOutcome.PROVEN_DEGENERATE
    return CriterionOutcome.BUDGET_EXHAUSTED


def css_nondegeneracy(
    code: StabilizerCode, t: int, *, budget: int = DEFAULT_BUDGET
) -> CriterionOutcome:
    """Exact verdict for CSS codes from block column independence.

    A CSS code is nondegenerate at t exactly when every 2t-subset of columns
    is independent in both the X block and the Z block (blocks taken from the
    row-equivalent CSS form).  Returns not_css when no CSS form exists.
    """
    _check_t(code, t)
    split = css_split(code)
    if split is None:
        return CriterionOutcome.NOT_CSS
    for block in (split.x_block, split.z_block):
        m = min(2 * t, block.cols)
        search = smallest_dependent_subset(block, m, budget=budget)
        if search.outcome == BUDGET_EXHAUSTED:
            return CriterionOutcome.BUDGET_EXHAUSTED
        if search.outcome == DEPENDENT_FOUND:
            return CriterionOutcome.DEGENERATE
    return CriterionOutcome.NONDEGENERATE


def standard_form_shortcut(sf: StandardForm, t: int) -> CriterionOutcome:
    """Degeneracy shortcut read off the standard form.

    When the X half has full rank (r = n-k) and some column of the B block
    has Hamming weight <= t-1, a single X error collides with a lighter
    Z-type error, so the code is proven degenerate.  Anything else is
    inconclusive.
    """
    if t < 1:
        raise ValueError(f"t={t} outside 1..{sf.n}")
    if sf.r != sf.n - sf.k:
        return CriterionOutcome.INCONCLUSIVE
    b = sf.b
    for j in range(b.cols):
        if b.column(j).bit_count() <= t - 1:
            return CriterionOutcome.PROVEN_DEGENERATE
    return CriterionOutcome.INCONCLUSIVE


def _check_t(code: StabilizerCode, t: int) -> None:
    if not 1 <= t <= code.n:
        raise ValueError(f"t={t} outside 1..{code.n}")
