"""Degeneracy of a stabilizer code for Pauli channels.

A code with check matrix H corrects up to t errors nondegenerately when the
syndrome map is injective on the non-identity Paulis of weight <= t
(identity included as the zero-syndrome point: a weight-<=t stabilizer
element colliding with I already makes the code degenerate).  `classify`
decides this exactly with `fill_syndrome_map`, the syndrome -> error map
that `build_table` also fills, in the order of `enumerate_errors`; the column
criteria (`sufficient_nondegenerate`, `necessary_check`, `css_nondegeneracy`,
`standard_form_shortcut`) are one-sided or CSS-exact shortcuts that look at
linear independence of check-matrix columns instead (`_column_verdict` reads
the first three off the searches of `distance.column_bounds`).  The fill also
gives each claimant its logical class key, its syndrome against 2k logical
operators (`StabilizerCode._class_matrices`): two errors with one syndrome
differ by a stabilizer exactly when their class keys agree.

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
chosen by n - k alone.  Up to `_OWNER_BITS` generators an int16 array of
2^(n-k) entries, indexed by syndrome, marks each syndrome free or claimed,
and a scatter-min of positions into it picks each free syndrome's first
error; its claim buffers are sized once for every claim the fill can make.
Wider codes keep the claimed syndromes in a sorted array, the only layout
that holds syndromes of any width, and grow their buffers as claims come.
Both give the same table.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .stabilizer import (
    CssSplit,
    StabilizerCode,
    StandardForm,
    SyndromeMatrices,
    css_split,
    standard_form,
)
from .symplectic import (
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    DEPENDENT_FOUND,
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
        _check_t(self.n, self.t)

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
# int16 array of 2**(n-k) entries: 8 MB at the cap, 2 MB for the [[31,11,5]]
# code.  Wider syndromes are claimed in a sorted array of the claimed keys.
_OWNER_BITS = 22

# An owner entry of a claimed syndrome, below a chunk's marks -len(chunk)..-1.
_CLAIMED = np.iinfo(np.int16).min
assert _FILL_CHUNK < -_CLAIMED

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
    Class keys are syndromes against the logicals, so two errors with equal
    syndromes differ by a stabilizer exactly when their class keys agree.
    All of them are int64, or Python ints in object arrays past 62 bits.
    `letter_syndromes` and `letter_classes` are the per-qubit letter keys
    the fill gathered them from, kept for decoding.  `table` is the map as a
    read-only `Mapping` over the arrays: a lookup is one binary search, and
    iteration converts `_FILL_CHUNK` rows at a time, in ascending syndrome
    order.  On the full [[31,11,5]] table, len and a lookup take 0.1 ms.
    """

    checks: tuple[int, ...]
    max_weight: int
    syndromes: np.ndarray
    x: np.ndarray
    z: np.ndarray
    classes: np.ndarray
    letter_syndromes: np.ndarray
    letter_classes: np.ndarray

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

    @property
    def table(self) -> Mapping[int, Masks]:
        return _TableView(self)


class _TableView(Mapping):
    """`DecoderTable.table`: the syndrome -> (x, z) map read off its arrays."""

    def __init__(self, table: DecoderTable) -> None:
        self._table = table

    def __len__(self) -> int:
        return self._table.covered

    def __getitem__(self, key: object) -> Masks:
        t, s = self._table, int(key) if isinstance(key, (int, np.integer)) else -1
        # range first: NumPy 1.x refuses a Python int past int64 in searchsorted
        if 0 <= s < t.num_syndromes:
            i = int(np.searchsorted(t.syndromes, s))
            if i < t.covered and t.syndromes[i] == s:
                return int(t.x[i]), int(t.z[i])
        raise KeyError(key)

    def __iter__(self) -> Iterator[int]:
        return _blocks(self._table.syndromes)

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, Masks]]:
        return zip(self._mapping, self._mapping.values())


class _Values(ValuesView):
    def __iter__(self) -> Iterator[Masks]:
        t = self._mapping._table
        return zip(_blocks(t.x), _blocks(t.z))


def _blocks(keys: np.ndarray) -> Iterator[int]:
    """The entries of `keys` as Python ints, converted `_FILL_CHUNK` at a time."""
    for a in range(0, len(keys), _FILL_CHUNK):
        yield from keys[a : a + _FILL_CHUNK].tolist()


def fill_syndrome_map(
    code: StabilizerCode, max_weight: int, *, full: bool = True, collision: bool = False
) -> tuple[DecoderTable, tuple[int, ...] | None, int | None]:
    """Syndrome -> error map of the errors of weight 1..max_weight.

    The identity claims the zero syndrome; every other syndrome is kept by
    the first error in enumeration order that produces it.  The syndromes of
    a chunk of `_error_chunks` (int64, or Python ints in an object array
    past 62 bits) are XOR-gathered from the per-qubit letter syndromes by its
    index.  Up to `_OWNER_BITS` generators an int16 `owner` array indexed by
    syndrome holds 0 while a syndrome is free and `_CLAIMED` once claimed; a
    scatter-min of chunk positions into it gives the first occurrences of
    the free syndromes (`_first_free_owned`), over the free errors only once
    more than half the syndromes are claimed.  Its claim buffers have a row
    for every syndrome or every error, whichever is fewer, so they never
    grow.  Past `_OWNER_BITS`, an unstable sort of the chunk gives the first
    occurrences, those not in a sorted array of claimed keys are new, and
    the buffers double as they fill.  Either way the new claims are taken in
    chunk order, and only the index columns of the claimants gather mask and
    class keys, straight into the buffers.  The fill stops after the chunk
    in which the map is full (if `full`) and an error has collided (if
    `collision`).  The claims are then put in syndrome order by one sort of
    syndrome << (n-k) | claim number, or else by an argsort of the syndromes.

    Returns (table, the index row of the first error to collide or None,
    syndromes claimed before it or None); the table's max_weight is the last
    weight evaluated.
    """
    n, bits, total = code.n, code.num_generators, 1 << code.num_generators
    letters = _letter_keys(code.syndrome_matrices, bits)
    letter_classes = _letter_keys(code._class_matrices, 2 * code.k)
    tables = (*_letter_masks(n), letter_classes)  # x, z and class keys
    owner = claimed = None
    if bits <= _OWNER_BITS:
        owner = np.zeros(total, dtype=np.int16)
        owner[0] = _CLAIMED  # the identity's claim
    else:
        claimed = np.zeros(1, dtype=letters.dtype)  # claimed syndromes, sorted
    size = 1
    # the claims in claim order, in [:size], the identity's first: syndromes
    # (syndrome << (n - k) | claim number on the owner path), x, z and class
    # keys.  np.empty leaves the rows past the claims untouched; the sorted
    # path starts at one row, since its object buffers would fill every row
    # with None.
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
            first = _first_free_owned(owner, syn, 2 * size > total)
        else:
            first, claimed = _first_free_sorted(claimed, syn)
        end = size + len(first)
        if len(first):
            claims_by_order = tuple(
                _reserve(buf, size, end, total) for buf in claims_by_order
            )
            new = claims_by_order[0][size:end]
            syn.take(first, out=new, mode="clip")
            # idx's columns are contiguous: take along them, not across
            at = np.take(idx.T, first, axis=1).T
            for buf, keys in zip(claims_by_order[1:], tables):
                _xor_gather(keys, at, out=buf[size:end])
            if owner is not None:
                owner[new] = _CLAIMED
                new <<= bits
                new |= np.arange(size, end)
        if clash is None:
            # claims come first in the chunk up to its first collision
            pos = int(np.count_nonzero(first == np.arange(len(first))))
            if pos < len(syn):
                clash = tuple(idx[pos].tolist())
                claimed_before = size - 1 + pos
        size = end
        if (not full or size == total) and (not collision or clash is not None):
            break
    idx = syn = at = new = owner = None  # freed before the gathers
    if claimed is None:
        syndromes = np.sort(claims_by_order[0][:size])  # one packed sort
        order = syndromes & (total - 1)
        syndromes >>= bits
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


def _first_free_owned(owner: np.ndarray, syn: np.ndarray, filtered: bool) -> np.ndarray:
    """Ascending positions in `syn` of the first occurrences of the
    syndromes that `owner` holds free (0).  A scatter-min of the marks
    -len(syn)..-1 (at the free positions only, if `filtered`) leaves each
    one's least mark in its entry, for the caller's claim to overwrite."""
    marks = np.arange(-len(syn), 0, dtype=owner.dtype)
    if not filtered:
        np.minimum.at(owner, syn, marks)
        return np.flatnonzero(owner[syn] == marks)
    at = np.flatnonzero(owner[syn] == 0)
    free, mark = syn[at], marks[at]
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


def _letter_keys(sm: SyndromeMatrices, bits: int) -> np.ndarray:
    """The (qubit, letter) table of the `bits`-bit keys in the rows of `sm`."""
    return _letter_table(sm.bsm.rows, sm.psm.rows, bits)


@cache
def _letter_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (qubit, letter) tables of x masks, then of z masks; built once
    per n and read-only, since every caller shares them."""
    ones, zeros = [1 << q for q in range(n)], [0] * n
    tables = _letter_table(ones, zeros, n), _letter_table(zeros, ones, n)
    for table in tables:
        table.setflags(write=False)
    return tables


def _error_chunks(n: int, max_weight: int) -> Iterator[tuple[int, np.ndarray]]:
    """(w, idx) for each chunk of the weight 1..max_weight errors, in
    enumeration order.  Row e of idx holds 4*q + a for each qubit q of error
    e, ascending, with its letter a (0, 1, 2 for X, Y, Z; the I column 3 is
    never listed); each column is contiguous.

    A chunk is a run of supports, each crossed with the same run of letter
    patterns: all 3**w patterns, for as many supports as fit `_FILL_CHUNK`,
    or else a slice of at most `_FILL_CHUNK` patterns of one support.  The
    letters of pattern p are the base-3 digits of p, the first letter most
    significant.  Supports are unranked from their lex ranks (`_binomials`).
    """
    for w in range(1, max_weight + 1):
        patterns, count = 3**w, comb(n, w)
        place = 3 ** np.arange(w - 1, -1, -1, dtype=np.intp)[:, None]
        binom = _binomials(n, w)
        step = max(1, _FILL_CHUNK // patterns)
        for r in range(1 - count, 1, step):  # lex rank - C(n, w) + 1
            ranks = np.arange(r, min(r + step, 1))
            block = np.empty((w, len(ranks)), dtype=np.intp)
            for j, row in enumerate(binom):
                block[j] = q = row.searchsorted(ranks)
                ranks -= row[q]
            for p in range(0, patterns, _FILL_CHUNK):
                numbers = np.arange(p, min(p + _FILL_CHUNK, patterns), dtype=np.intp)
                digits = numbers // place % 3
                # C order: the reshape is then a view, not a copy
                keys = np.add(4 * block[:, :, None], digits[:, None], order="C")
                yield w, keys.reshape(w, -1).T


@cache
def _binomials(n: int, w: int) -> np.ndarray:
    """Row j: -C(n - 1 - q, w - j) for q < n, ascending; read-only.

    A w-subset c of range(n) has lex rank C(n, w) - 1 - sum_j C(n - 1 - c_j,
    w - j), so c_j is the least q whose row-j entry is at least what qubits
    0..j-1 leave of rank - C(n, w) + 1.  From n = 68 some levels pass int64
    and raise OverflowError here; the fill stops long before them."""
    rows = [[-comb(n - 1 - q, w - j) for q in range(n)] for j in range(w)]
    binom = np.array(rows, dtype=np.int64)
    binom.setflags(write=False)
    return binom


def _claims(idx: np.ndarray, tables: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Keys of the errors of the rows of idx, one array per table."""
    return [_xor_gather(keys, idx) for keys in tables]


def _xor_gather(
    keys: np.ndarray, at: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Key of each error, one error per row of `at`: the XOR of keys[q, a]
    over its entries 4q + a of an (n, 4) letter table, one for each of its
    qubits q with that qubit's letter a (3 for I, whose keys are 0); into
    `out` if given."""
    flat = keys.ravel()
    # the entries are in range: "clip" skips the copy "raise" makes of out
    out = flat.take(at[:, 0], out=out, mode="clip")
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
    _check_t(code.n, t)
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
        # One search of [H_X|H_Z] up to 4t (2t when 4t > 2n) runs the levels
        # that `sufficient_nondegenerate` and `necessary_check` search on
        # their own, in their order, so it settles both criteria.
        sufficient = 4 * t <= 2 * n
        search = smallest_dependent_subset(
            code.h.h, 4 * t if sufficient else 2 * t, budget=budget
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


def sufficient_nondegenerate(
    code: StabilizerCode, t: int, *, budget: int = DEFAULT_BUDGET
) -> CriterionOutcome:
    """One-sided test: every 4t-subset of [H_X|H_Z] independent => nondegenerate.

    Never returns proven_degenerate; a dependent subset is inconclusive here.
    Requires 4t <= 2n: the search refuses a size past the 2n columns.
    """
    _check_t(code.n, t)
    return _sufficient_outcome(
        smallest_dependent_subset(code.h.h, 4 * t, budget=budget), t
    )


def necessary_check(
    code: StabilizerCode, t: int, *, budget: int = DEFAULT_BUDGET
) -> CriterionOutcome:
    """One-sided test: some 2t-subset of [H_X|H_Z] dependent => degenerate.

    A dependent subset of size <= 2t splits into two distinct weight-<=t
    errors with equal syndromes, so this direction is a proof; all subsets
    independent is inconclusive (nondegeneracy needs more).
    """
    _check_t(code.n, t)
    return _necessary_outcome(
        smallest_dependent_subset(code.h.h, 2 * t, budget=budget), t
    )


def _sufficient_outcome(search: SubsetSearch, t: int) -> CriterionOutcome:
    """Sufficient criterion off a full-matrix search to >= 4t or to a circuit."""
    if search.verified >= 4 * t:
        return CriterionOutcome.PROVEN_NONDEGENERATE
    if search.outcome == BUDGET_EXHAUSTED:
        return CriterionOutcome.BUDGET_EXHAUSTED
    return CriterionOutcome.INCONCLUSIVE


def _necessary_outcome(search: SubsetSearch, t: int) -> CriterionOutcome:
    """Necessary criterion off a full-matrix search to >= 2t or to a circuit."""
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
    _check_t(code.n, t)
    return _css_outcome(_block_searches(
        css_split(code), t, lambda b, m: smallest_dependent_subset(b, m, budget=budget)
    ))


def _block_searches(
    split: CssSplit | None, t: int, search: Callable[..., SubsetSearch]
) -> Iterator[tuple[SubsetSearch, int]]:
    """(search(block, m), m) for the X block, then the Z block, searched when
    read to m = min(2t, cols) or past it, as the CSS criterion at t needs; none
    without a CSS split.  An equal Z block is not searched again."""
    if split is None:
        return
    x, z = split.x_block, split.z_block
    m = min(2 * t, x.cols)  # both blocks have n columns
    x_search = search(x, m)
    yield x_search, m
    yield x_search if z == x else search(z, m), m


def _css_outcome(searches: Iterable[tuple[SubsetSearch, int]]) -> CriterionOutcome:
    """The CSS criterion off `_block_searches` (not_css when there are none)."""
    outcome = CriterionOutcome.NOT_CSS
    for search, m in searches:
        if search.verified < m:
            if search.outcome == DEPENDENT_FOUND:
                return CriterionOutcome.DEGENERATE
            return CriterionOutcome.BUDGET_EXHAUSTED
        outcome = CriterionOutcome.NONDEGENERATE
    return outcome


def _column_verdict(
    search: SubsetSearch, blocks: Iterable[tuple[SubsetSearch, int]], t: int
) -> Verdict | None:
    """The first verdict, proven or not, that the CSS criterion off `blocks`,
    or the sufficient or necessary one off the full `search`, gives at t, or None."""
    css = _css_outcome(blocks)
    for outcome in (css, _sufficient_outcome(search, t), _necessary_outcome(search, t)):
        if outcome.value.endswith("degenerate"):
            return Verdict(outcome.value.removeprefix("proven_"))
    return None


def standard_form_shortcut(sf: StandardForm, t: int) -> CriterionOutcome:
    """Degeneracy shortcut read off the standard form.

    When the X half has full rank (r = n-k) and some column of the B block
    has Hamming weight <= t-1, a single X error collides with a lighter
    Z-type error, so the code is proven degenerate.  Anything else is
    inconclusive.
    """
    _check_t(sf.n, t)
    if sf.r != sf.n - sf.k:
        return CriterionOutcome.INCONCLUSIVE
    for column in sf.b.columns():
        if column.bit_count() <= t - 1:
            return CriterionOutcome.PROVEN_DEGENERATE
    return CriterionOutcome.INCONCLUSIVE


def _check_t(n: int, t: int) -> None:
    if not 1 <= t <= n:
        raise ValueError(f"t={t} outside 1..{n}")
