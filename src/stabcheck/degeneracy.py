"""Degeneracy of a stabilizer code for Pauli channels.

A code with check matrix H corrects up to t errors nondegenerately when the
syndrome map is injective on the non-identity Paulis of weight <= t
(identity included as the zero-syndrome point: a weight-<=t stabilizer
element colliding with I already makes the code degenerate).  `classify`
decides this exactly with `fill_syndrome_map`, the syndrome -> error map
that `build_table` also fills, in the order of `enumerate_errors`; the column
criteria (`sufficient_nondegenerate`, `necessary_check`, `css_nondegeneracy`,
`standard_form_shortcut`) are one-sided or CSS-exact shortcuts that look at
linear independence of check-matrix columns instead.  The fill also gives
each claimant its logical class key, its symplectic products with 2k
logical operators: two errors with one syndrome differ by a stabilizer
exactly when their class keys agree.

A syndrome is the sum of the check-matrix columns its error picks, so a
syndrome, the x and z masks of an error and its class key are each one XOR
of per-qubit keys of its letters, all held alike: int64 up to 62 bits,
Python ints in object arrays past that.  Each (qubit, letter) table has the
columns X, Y, Z and I, the I keys 0.  `_error_chunks` lists the errors in
chunks, as flat indices 4q + a into those tables, and `_xor_gather` gathers
any of them.  `_decoded` is the one decode test: does a `DecoderTable`
decode each of a batch of errors so given?  `channel.run` asks it of sampled
errors, and `classify` of its first collision, whose product with the
claimant is in the stabilizer exactly when the table decodes it.

The fill finds which errors of a chunk claim a syndrome in one of two ways,
chosen by n - k alone.  Up to `_OWNER_BITS` generators an int32 array of
2^(n-k) entries, indexed by syndrome, holds each syndrome's claim number,
and a scatter-min of positions into it picks each free syndrome's first
error; its claim buffers are sized once for every claim the fill can make.
Wider codes keep the claimed syndromes in a sorted array, the only layout
that holds syndromes of any width, and grow their buffers as claims come.
Both give the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import chain, combinations, islice
from math import comb
from typing import Iterator, Mapping, Sequence

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
    the syndrome fill.  It gathers the x and z mask keys of the fill's
    chunks (`_error_chunks`) from the per-qubit letter masks.
    """

    n: int
    t: int

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise ValueError(f"t={self.t} outside 1..{self.n}")

    def __iter__(self) -> Iterator[PauliOperator]:
        letter_masks = _letter_masks(self.n)
        for _, idx in _error_chunks(self.n, self.t):
            x, z = (keys.tolist() for keys in _claims(idx, letter_masks))
            for xe, ze in zip(x, z):
                yield PauliOperator.from_masks(self.n, xe, ze)

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


# Errors per chunk of a weight level (`_error_chunks`).
_FILL_CHUNK = 1 << 14

# Codes of up to this many generators claim syndromes in a direct-address
# int32 array of 2**(n-k) entries: 16 MB at the cap, 4 MB for the [[31,11,5]]
# code.  Wider syndromes are claimed in a sorted array of the claimed keys.
_OWNER_BITS = 22

Masks = tuple[int, int]


@dataclass(frozen=True, eq=False)
class DecoderTable:
    """Minimum-weight representative per syndrome, for one code: the
    syndrome -> error map of `fill_syndrome_map`, as arrays.

    The fill runs breadth-first by weight, identity first, so each syndrome
    keeps the lightest error that produces it (ties: first in enumeration
    order).  `build_table` stops it in the chunk in which every syndrome is
    claimed, so max_weight is the level at which the map filled.  Coverage
    may be partial when max_weight cuts the fill short; decoding an
    uncovered syndrome counts as a failure.  `checks` (the check-matrix
    rows, x | z << n) and `n` name the code the table was built for; `run`
    refuses a table for another code.

    `syndromes` holds the claimed syndromes in ascending order, and row i
    of `x`, `z` and `classes` belongs to syndrome i: the mask keys of the
    error that claimed it, qubit j at bit j, and its class key.  Row 0 is
    the identity's, at the zero syndrome.  Both of the fill's claim paths
    give the same arrays.
    Class keys are those of `_letter_classes`, so two errors with equal
    syndromes differ by a stabilizer exactly when their class keys agree.
    All of them are int64, or Python ints in object arrays past 62 bits.
    `letter_syndromes` and `letter_classes` are the per-qubit letter keys
    the fill gathered them from, kept for decoding.
    """

    checks: tuple[int, ...]
    max_weight: int
    syndromes: np.ndarray
    x: np.ndarray
    z: np.ndarray
    classes: np.ndarray
    letter_syndromes: np.ndarray
    letter_classes: np.ndarray

    def __getstate__(self) -> dict:
        # pool workers decode from the arrays; the dict view stays behind
        return {k: v for k, v in self.__dict__.items() if k != "table"}

    @property
    def n(self) -> int:
        return len(self.letter_syndromes)

    @property
    def num_syndromes(self) -> int:
        return 1 << len(self.checks)

    @property
    def covered(self) -> int:
        return len(self.syndromes)

    @property
    def full(self) -> bool:
        return self.covered == self.num_syndromes

    @property
    def uncovered(self) -> int:
        return self.num_syndromes - self.covered

    @cached_property
    def table(self) -> dict[int, Masks]:
        """Syndrome -> (x, z) masks in syndrome order, built on first
        access, one int object per distinct mask.

        The 2**20 entries of the [[31,11,5]] table hold 17,623 distinct masks,
        so sharing them saves about 60 MB.  The dict is filled in blocks, so
        that the lists feeding it stay small.
        """
        shared: dict[int, int] = {}
        table: dict[int, Masks] = {}
        for a in range(0, self.covered, _FILL_CHUNK):
            block = slice(a, a + _FILL_CHUNK)
            x = [shared.setdefault(v, v) for v in self.x[block].tolist()]
            z = [shared.setdefault(v, v) for v in self.z[block].tolist()]
            table.update(zip(self.syndromes[block].tolist(), zip(x, z)))
        return table


def fill_syndrome_map(
    code: StabilizerCode, max_weight: int, *, full: bool = True, collision: bool = False
) -> tuple[DecoderTable, tuple[int, ...] | None, int | None]:
    """Syndrome -> error map of the errors of weight 1..max_weight.

    The identity claims the zero syndrome; every other syndrome is kept by
    the first error in enumeration order that produces it.  The syndromes of
    a chunk of `_error_chunks` (int64, or Python ints in an object array
    past 62 bits) are XOR-gathered from the per-qubit letter syndromes by its
    index.  Up to `_OWNER_BITS` generators an int32 `owner` array indexed by
    syndrome holds each claim's number + 1 (0 while free): the chunk's free
    errors are those whose owner entry is 0, and a scatter-min of their
    positions into the owner array gives their first occurrences.  Its claim
    buffers have a row for every syndrome or every error, whichever is
    fewer, so they never grow.  Past `_OWNER_BITS`, an unstable sort of the
    chunk gives the first occurrences, those not in a sorted array of
    claimed keys are new, and the buffers double as they fill.  Either way
    the new claims are taken in chunk order, and only the index columns of
    the claimants gather mask and class keys.  The fill stops after the
    chunk in which the map is full (if `full`) and an error has collided (if
    `collision`).  The claims are then put in syndrome order, by the claim
    numbers the owner array holds at the sorted syndromes, or else by an
    argsort of the claimed syndromes in claim order.

    Returns (table, the index row of the first error to collide or None,
    syndromes claimed before it or None); the table's max_weight is the last
    weight evaluated.
    """
    n, total = code.n, 1 << code.num_generators
    letters = _letter_syndromes(code)
    letter_classes = _letter_classes(code)
    tables = (*_letter_masks(n), letter_classes)  # x, z and class keys
    owner = claimed = None
    if code.num_generators <= _OWNER_BITS:
        owner = np.zeros(total, dtype=np.int32)
        owner[0] = 1  # the identity's claim
    else:
        claimed = np.zeros(1, dtype=letters.dtype)  # claimed syndromes, sorted
    size = 1
    # the claims in claim order, in [:size], the identity's first: syndromes,
    # x, z and class keys.  np.empty leaves the rows past the claims
    # untouched; the sorted path starts at one row, since its object
    # buffers would fill every row with None.
    rows = min(total, 1 + error_count(n, max_weight)) if owner is not None else 1
    claims_by_order = tuple(
        np.empty(rows, dtype=keys.dtype) for keys in (letters, *tables)
    )
    for buf in claims_by_order:
        buf[0] = 0
    reached, clash, claimed_before = 0, None, None
    for w, idx in _error_chunks(n, max_weight):
        reached = w
        syn = _xor_gather(letters, idx)
        if owner is not None:
            first = _first_free_owned(owner, syn)
        else:
            first, claimed = _first_free_sorted(claimed, syn)
        end = size + len(first)
        if len(first):
            # idx's columns are contiguous: take along them, not across
            new = (syn[first], *_claims(np.take(idx.T, first, axis=1).T, tables))
            claims_by_order = tuple(
                _reserve(buf, size, end, total) for buf in claims_by_order
            )
            for buf, part in zip(claims_by_order, new):
                buf[size:end] = part
            if owner is not None:
                owner[new[0]] = np.arange(size + 1, end + 1)
        if clash is None:
            # claims come first in the chunk up to its first collision
            pos = int(np.count_nonzero(first == np.arange(len(first))))
            if pos < len(syn):
                clash = tuple(idx[pos].tolist())
                claimed_before = size - 1 + pos
        size = end
        if (not full or size == total) and (not collision or clash is not None):
            break
    idx = syn = None  # the last chunk's arrays, freed before the gathers
    if owner is not None:
        syndromes = np.sort(claims_by_order[0][:size])
        order = (np.take(owner, syndromes) - 1).astype(np.intp)
        owner = None
    else:
        syndromes, order = claimed, np.argsort(claims_by_order[0][:size])
    # gather the claims into syndrome order, one buffer at a time: each is
    # dropped before the next gather, and the spare rows go with it.  Here
    # np.take gathers in about half the time that indexing takes.
    buffers = list(claims_by_order[1:])
    claims_by_order = ()
    x, z, classes = (np.take(buffers.pop(0), order) for _ in range(3))
    table = DecoderTable(
        code.h.h.rows, reached, syndromes, x, z, classes, letters, letter_classes
    )
    return table, clash, claimed_before


def _first_free_owned(owner: np.ndarray, syn: np.ndarray) -> np.ndarray:
    """Ascending positions in `syn` of the first occurrences of the
    syndromes that `owner` holds free (0).

    Leaves each such syndrome's owner entry at its least position minus
    len(syn), a negative mark that the caller's claim must overwrite."""
    at = np.flatnonzero(owner[syn] == 0)
    free, mark = syn[at], (at - len(syn)).astype(owner.dtype)
    np.minimum.at(owner, free, mark)
    return at[owner[free] == mark]


def _first_free_sorted(
    claimed: np.ndarray, syn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positions in `syn` of the first occurrences of the
    syndromes not in the sorted array `claimed`, and `claimed` with them."""
    # heads of the runs of equal sorted syndromes, each with the least index
    # of its run (the sort need not be stable)
    by_key = np.argsort(syn)
    ordered = syn[by_key]
    head = np.ones(len(syn), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(head)
    values, first = ordered[starts], np.minimum.reduceat(by_key, starts)
    at = np.searchsorted(claimed, values)
    fresh = claimed[np.minimum(at, len(claimed) - 1)] != values
    claimed = np.insert(claimed, at[fresh], values[fresh])
    return np.sort(first[fresh]), claimed


def _reserve(buf: np.ndarray, size: int, end: int, cap: int) -> np.ndarray:
    """buf if it has `end` rows, else its first `size` rows in a new buffer
    of min(cap, 2 * end) rows."""
    if end <= len(buf):
        return buf
    # np.empty leaves the spare pages untouched until claims reach them
    grown = np.empty((min(cap, 2 * end), *buf.shape[1:]), dtype=buf.dtype)
    grown[:size] = buf[:size]
    return grown


def _letter_table(
    x_keys: Sequence[int], z_keys: Sequence[int], bits: int
) -> np.ndarray:
    """Row q: the keys of X, Y, Z and I on qubit q, from the keys of X and Z
    on it (Y's is their XOR, I's 0); int64 up to 62 bits, Python ints in an
    object array past that."""
    rows = [(xk, xk ^ zk, zk, 0) for xk, zk in zip(x_keys, z_keys)]
    return np.array(rows, dtype=object if bits > 62 else np.int64)


def _letter_syndromes(code: StabilizerCode) -> np.ndarray:
    """The (qubit, letter) table of syndromes."""
    sm = code.syndrome_matrices
    return _letter_table(sm.bsm.rows, sm.psm.rows, code.num_generators)


@cache
def _letter_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (qubit, letter) tables of x masks, then of z masks; built once
    per n and read-only, since every caller shares them."""
    ones, zeros = [1 << q for q in range(n)], [0] * n
    tables = _letter_table(ones, zeros, n), _letter_table(zeros, ones, n)
    for table in tables:
        table.setflags(write=False)
    return tables


def _letter_classes(code: StabilizerCode) -> np.ndarray:
    """The (qubit, letter) table of class keys.

    Bit j of a key is the symplectic product with `code._logicals[j]`, so X
    on q reads column n + q of the logicals (their Z part), Z column q.
    """
    cols = Gf2Matrix(2 * code.n, code._logicals).columns()
    return _letter_table(cols[code.n :], cols[: code.n], 2 * code.k)


def _error_chunks(n: int, max_weight: int) -> Iterator[tuple[int, np.ndarray]]:
    """(w, idx) for each chunk of the weight 1..max_weight errors, in
    enumeration order.  Row e of idx holds 4*q + a for each qubit q of error
    e, ascending, with its letter a (0, 1, 2 for X, Y, Z; the I column 3 is
    never listed); each column is contiguous.

    A chunk is a run of supports, each crossed with the same run of letter
    patterns: all 3**w patterns, for as many supports as fit `_FILL_CHUNK`,
    or else a slice of at most `_FILL_CHUNK` patterns of one support.  The
    letters of pattern p are the base-3 digits of p, the first letter most
    significant.
    """
    for w in range(1, max_weight + 1):
        patterns = 3**w
        place = 3 ** np.arange(w - 1, -1, -1, dtype=np.intp)[:, None]
        supports = combinations(range(n), w)
        while True:
            block = np.fromiter(
                chain.from_iterable(islice(supports, max(1, _FILL_CHUNK // patterns))),
                dtype=np.intp,
            ).reshape(-1, w)
            if not len(block):
                break
            for p in range(0, patterns, _FILL_CHUNK):
                numbers = np.arange(p, min(p + _FILL_CHUNK, patterns), dtype=np.intp)
                digits = numbers // place % 3
                # C order: the reshape is then a view, not a copy
                keys = np.add(4 * block.T[:, :, None], digits[:, None], order="C")
                yield w, keys.reshape(w, -1).T


def _claims(idx: np.ndarray, tables: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Keys of the errors of the rows of idx, one array per table."""
    return [_xor_gather(keys, idx) for keys in tables]


def _xor_gather(keys: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Key of each error, one error per row of `at`: the XOR of keys[q, a]
    over its entries 4q + a of an (n, 4) letter table, one for each of its
    qubits q with that qubit's letter a (3 for I, whose keys are 0)."""
    flat = keys.ravel()
    out = flat[at[:, 0]]
    for j in range(1, at.shape[1]):
        out ^= flat[at[:, j]]
    return out


def _decoded(
    table: DecoderTable, at: np.ndarray, strict: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Whether `table` decodes each error, one error per row of `at`
    (entries 4q + a, as in `_xor_gather`), and each error's table row: the
    row of its syndrome, meaningful only where that syndrome is covered.

    An error is decoded when its syndrome is covered and the class key in
    its row equals its own, so that it and the row's claimant differ by a
    stabilizer; if `strict`, when the row's x and z mask keys equal its own.
    """
    keys = table.syndromes
    syn = _xor_gather(table.letter_syndromes, at)
    row = np.minimum(np.searchsorted(keys, syn), len(keys) - 1)
    ok = keys[row] == syn
    if strict:
        kept = zip(_letter_masks(table.n), (table.x, table.z))
    else:
        kept = [(table.letter_classes, table.classes)]
    for letters, claimed in kept:
        ok &= claimed[row] == _xor_gather(letters, at)
    return ok, row


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
    table, collision, claimed_before = fill_syndrome_map(
        code, t, full=exhaustive, collision=True
    )
    witness: CollisionWitness | None = None
    if collision is not None:
        # the claimant has the error's syndrome: decoded means same class
        at = np.array([collision])
        same_class, (row,) = _decoded(table, at)
        x, z = _claims(at, _letter_masks(n))
        witness = CollisionWitness(
            first=PauliOperator.from_masks(n, int(table.x[row]), int(table.z[row])),
            second=PauliOperator.from_masks(n, int(x[0]), int(z[0])),
            product_in_stabilizer=bool(same_class[0]),
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
    distinct = table.covered - 1 if exhaustive or witness is None else claimed_before
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
    # equal blocks give the same search, so an equal Z block is not searched
    for block in dict.fromkeys((split.x_block, split.z_block)):
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
    if not 1 <= t <= sf.n:
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
